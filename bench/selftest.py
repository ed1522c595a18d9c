"""Corrupted copies of real outputs, one per checker.

Each corruption is the kind of fault a program change could introduce: a
distance moved one ladder level, a matrix cell changed on one side only, a
flipped verdict, a violation whose values no longer match its witness.
``run.py`` feeds every corruption to the checkers after the timed loop and
reports the benchmark incorrect if the targeted checker stays silent.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import checks


def _step(levels, v, up=True):
    """The neighbouring ladder level of v (the other side at the ends)."""
    i = levels.index(v)
    if (up and i + 1 < len(levels)) or i == 0:
        return levels[i + 1]
    return levels[i - 1]


def corruptions(workload: str, ops: list, outputs: list):
    """Yield (checker name, op, exit code, corrupted output text)."""
    if workload == "exact-distance":
        yield from _distance(ops, outputs)
    elif workload == "mixed-matrix":
        yield from _matrix(ops[0], *outputs[0])
    else:
        yield from _validate(ops, outputs)


def _distance(ops, outputs):
    def first(pred):
        return next(i for i, op in enumerate(ops) if pred(op, json.loads(outputs[i][1])))

    def kinds(op):
        return tuple(m["type"] for m in op.req["measures"])

    def emit(name, i, mutate):
        code, text = outputs[i]
        report = json.loads(text)
        levels = checks.Space.from_json(ops[i].req["space_json"]).levels()
        mutate(report["distance"], levels)
        return name, ops[i], code, json.dumps(report)

    def move(res, levels, up=True):
        res["value"] = str(_step(levels, checks.num(res["value"]), up))

    positive = first(lambda op, r: checks.num(r["distance"]["value"]) > 0)
    yield emit("criterion", 0, move)
    yield emit("ladder", 0, lambda res, lv: res["ladder"][-1].update(status="infeasible"))
    yield emit("certification", 0, lambda res, lv: res.update(certification="interval"))
    yield emit(
        "witness",
        positive,
        lambda res, lv: res["witness"].update(
            {"support-pairs": [res["witness"]["support-pairs"][0][:1] * 2]}
        ),
    )
    yield emit("lipschitz", positive, lambda res, lv: res.update(value="0"))
    yield emit("dirac", first(lambda op, r: kinds(op) == ("dirac", "dirac")), move)
    yield emit(
        "diameter",
        first(lambda op, r: kinds(op) == ("unanimity", "possibility")),
        lambda res, lv: move(res, lv, up=False),
    )
    yield emit("transport", first(lambda op, r: kinds(op) == ("expectation", "expectation")), move)


def _matrix(op, code, text):
    report = json.loads(text)
    cells = [[checks.num(v) for v in row] for row in report["matrix"]]
    space = checks.Space.from_json(op.req["space_json"])
    levels = space.levels()
    pool = op.req["pool"]
    base = [i for i, m in enumerate(pool) if checks.table_of(m["spec"], space) is not None]
    lattice = next(i for i, m in enumerate(pool) if "parts" in m)
    i, j = next((a, b) for a in base for b in base if a < b and cells[a][b] > 0)

    def emit(name, *changes, audit=None):
        out = copy.deepcopy(report)
        for (a, b), v in changes:
            out["matrix"][a][b] = str(v)
        if audit:
            out["audit"]["checks"][audit] = False
        return name, op, code, json.dumps(out)

    def both(a, b, v):
        return ((a, b), v), ((b, a), v)

    yield emit("symmetry", ((i, j), _step(levels, cells[i][j])))
    yield emit("diagonal", ((i, i), levels[1]))
    yield emit("levels", *both(i, j, cells[i][j] + Fraction(1, 7)))
    yield emit("triangle", *both(i, j, cells[i][lattice] + cells[lattice][j] + 1))
    yield emit("criterion", *both(i, j, _step(levels, cells[i][j])))
    part = pool[lattice]["parts"][0]
    bound = max(cells[p][part] for p in pool[lattice]["parts"])
    yield emit("lattice", *both(lattice, part, bound + 1))
    yield emit("lipschitz", *both(i, j, 0))
    yield emit("audit", audit="triangle")


def _validate(ops, outputs):
    def first(verdict, sound):
        for i, op in enumerate(ops):
            report = json.loads(outputs[i][1])
            defects = checks.census(checks.parse_two_point(op.req["spec"]))
            if report["measures"][0]["verdict"] == verdict and (not defects) == sound:
                return i, report
        raise LookupError(f"no {verdict} verdict on a {'sound' if sound else 'defective'} set")

    i, report = first("pass", True)
    report["measures"][0].update(
        verdict="fail",
        violations=[{"axiom": "monotonicity", "witness": {"lo": [0, 0], "hi": [1, 1]}, "values": ["1", "0"]}],
    )
    yield "census", ops[i], 1, json.dumps(report)

    i, report = first("fail", False)
    caught = copy.deepcopy(report)
    report["measures"][0].update(verdict="pass", violations=[])
    yield "census-missed", ops[i], 0, json.dumps(report)

    values = caught["measures"][0]["violations"][0]["values"]
    values[0] = str(checks.num(values[0]) + 1)
    yield "recheck", ops[i], 1, json.dumps(caught)
