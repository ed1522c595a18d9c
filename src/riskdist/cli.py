"""Batch front-end: validate inputs, compute distances and matrices, run
audits, emit reports.

Each command takes only the options it reads: ``--space`` and ``--measure``
where it loads a space or measures of its own (``converge`` reads both from
its sequence), and ``--seed``, ``--mode``, ``--out`` and ``--format``.

Every command computes in exact arithmetic.  ``--mode`` only chooses how
scalars print: ``exact`` prints each as the rational it is, ``float`` as
``repr`` of the nearest float (``numerics.format_scalar``).  Counts, and the
ints of a witness payload, print alike in both.

Input files are read as UTF-8 whatever the locale, and bytes that are not
UTF-8 are malformed input.  An input's digest is the sha256 of its text,
with its line ends read as a text-mode read reads them.

Exit codes: 0 on success, 1 when a check fails or a verified counterexample
is found, 2 on malformed input.  Reports embed the tool version, input
digests, the print mode and the seed; identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import __version__
from .ensembles import drifting_mixture_sequence
from .errors import (
    AxiomFailure,
    InputFormatError,
    InvalidParams,
    MarginalMismatch,
    MetricError,
    RiskdistError,
)
from .io import (
    audit_summary,
    digest_text,
    distance_summary,
    dump_report,
    json_list,
    jsonable,
    load_measure,
    load_space,
    witness_summary,
)
from .measures import verify_axioms
from .metric import (
    bottleneck_distance,
    convergence_audit,
    distance_matrix,
    gate_axioms,
    metric_axiom_audit,
)
from .numerics import FLOAT_OUTPUT, format_scalar, parse_scalar
from .oracles import (
    ProbabilityVector,
    criterion_cross_check,
    strassen_feasible,
    winf_distance,
)
from .coupling import admissible, glue, verify_coupling
from .space import Relation, sublevel_relation, product_space


def _read_json(arg: str, digests: dict) -> object:
    """Accept a file path or an inline JSON literal.  A file is read in one
    call and decoded as UTF-8, whatever the locale, with its line ends
    read as a text-mode read reads them."""
    text = arg
    label = "<inline>"
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, "rb", buffering=0) as fh:
                text = fh.read().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"cannot read {arg}: {exc}") from exc
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        label = str(Path(arg))
    digests[label] = digest_text(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad JSON in {label}: {exc}") from exc


def _field(obj, key: str, what: str):
    """``obj[key]`` of a JSON object, or an input error naming what lacks it."""
    if not isinstance(obj, dict) or key not in obj:
        raise InputFormatError(f'{what} JSON needs "{key}"')
    return obj[key]


def _scalar(value, what: str):
    try:
        return parse_scalar(value)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"bad {what} {value!r}: {exc}") from exc


def _emit(args, report: dict, text_lines: list[str]):
    if args.format == "json":
        payload = dump_report(report)
    elif args.format == "csv":
        payload = report.get("csv", "") or dump_report(report)
    else:
        payload = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _base_report(args, command: str, digests: dict) -> dict:
    return {
        "tool": "riskdist",
        "version": __version__,
        "command": command,
        "mode": args.mode,
        "seed": args.seed,
        "inputs": digests,
    }


def _load_measures(args, space, digests):
    """The measures of every ``--measure``, in order.  A pool file, a JSON
    list, loads through one memo that lives while the file loads, so equal
    specs in it, components included, are one measure."""
    out = []
    for spec in args.measure or []:
        obj = _read_json(spec, digests)
        if isinstance(obj, list):
            memo: dict = {}
            out.extend(load_measure(o, space, memo) for o in obj)
        else:
            out.append(load_measure(obj, space))
    return out


def cmd_validate(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests))
    specs = []
    for spec in args.measure or []:
        obj = _read_json(spec, digests)
        specs.extend(obj if isinstance(obj, list) else [obj])
    report = _base_report(args, "validate", digests)
    lines = [f"space: {space.n} points, ok"]
    entries = []
    bad = False
    for i, obj in enumerate(specs):
        try:
            mu = load_measure(obj, space)
        except InvalidParams as exc:
            # a structurally readable spec with violated constraints
            entries.append({"index": i, "verdict": "fail", "violation": str(exc)})
            lines.append(f"measure #{i}: fail ({exc})")
            bad = True
            continue
        ax = verify_axioms(mu, seed=args.seed)
        entries.append(
            {"index": i, "kind": mu.kind, "verdict": ax.verdict, "method": ax.method,
             "violations": jsonable(list(ax.violations))}
        )
        lines.append(f"measure #{i} ({mu.kind}): {ax.verdict} [{ax.method}]")
        if not ax.ok:
            bad = True
            for v in ax.violations:
                lines.append(f"  violation: {v.axiom} {jsonable(v.witness)} -> {jsonable(v.values)}")
    report["space"] = {"points": list(space.labels), "ok": True}
    report["measures"] = entries
    _emit(args, report, lines)
    return 1 if bad else 0


def cmd_distance(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests))
    measures = _load_measures(args, space, digests)
    if len(measures) != 2:
        raise InputFormatError("distance needs exactly two measures")
    res = bottleneck_distance(measures[0], measures[1], seed=args.seed)
    report = _base_report(args, "distance", digests)
    report["distance"] = distance_summary(res)
    lines = [f"{format_scalar(res.value)} ({res.certification}, {res.tier})"]
    for level, status, tier in res.ladder:
        lines.append(f"  level {format_scalar(level)}: {status} [{tier}]")
    _emit(args, report, lines)
    return 0


def cmd_matrix(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests))
    measures = _load_measures(args, space, digests)
    if not measures:
        raise InputFormatError("matrix needs at least one measure")
    results, audit = distance_matrix(measures, seed=args.seed)
    cells = [
        [format_scalar(results[i][j].value) for j in range(len(measures))]
        for i in range(len(measures))
    ]
    csv = "\n".join(",".join(row) for row in cells) + "\n"
    report = _base_report(args, "matrix", digests)
    report["matrix"] = cells
    report["audit"] = audit_summary(audit)
    report["csv"] = csv
    lines = [",".join(row) for row in cells]
    lines.append(f"audit: {'ok' if audit.ok else 'FAIL'}")
    _emit(args, report, lines)
    return 0 if audit.ok else 1


def cmd_audit(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests))
    if args.size < 1:
        raise InputFormatError("audit needs --size of at least 1")
    report_obj = metric_axiom_audit(space, ensemble_size=args.size, seed=args.seed)
    report = _base_report(args, "audit metric", digests)
    report["audit"] = audit_summary(report_obj)
    lines = [f"{k}: {'ok' if v else 'FAIL'}" for k, v in report_obj.checks.items()]
    lines.append(f"instances: {report_obj.instances}")
    _emit(args, report, lines)
    return 0 if report_obj.ok else 1


def cmd_converge(args) -> int:
    digests: dict = {}
    spec = _read_json(args.sequence, digests)
    space = load_space(_field(spec, "space", "sequence"))
    if "generator" in spec:
        gen = spec["generator"]
        kind = _field(gen, "type", "generator")
        if kind != "drifting-mixture":
            raise InputFormatError(f"unknown sequence generator {kind!r}")
        count = gen.get("count", 8)
        if type(count) is not int:
            raise InputFormatError(f"sequence count must be a JSON integer, not {count!r}")
        terms, limit = drifting_mixture_sequence(
            space,
            space.index(_field(gen, "base", "generator")),
            space.index(_field(gen, "far", "generator")),
            count,
        )
    else:
        limit = load_measure(_field(spec, "limit", "sequence"), space)
        terms = [
            load_measure(t, space) for t in json_list(_field(spec, "terms", "sequence"), '"terms"')
        ]
    if not terms:
        raise InputFormatError("a sequence needs at least one term")
    audit = convergence_audit(terms, limit, seed=args.seed)
    report = _base_report(args, "converge", digests)
    report["audit"] = audit_summary(audit)
    rows = audit.stats["rows"]
    csv_lines = ["n,pointwise_gap,metric,support_gap"]
    for r in rows:
        csv_lines.append(
            f"{r['n']},{format_scalar(r['pointwise-gap'])},"
            f"{format_scalar(r['metric'])},{format_scalar(r['support-gap'])}"
        )
    report["csv"] = "\n".join(csv_lines) + "\n"
    lines = list(csv_lines)
    for k, v in audit.checks.items():
        lines.append(f"{k}: {v}")
    if audit.discrepancies:
        lines.append("flagged discrepancy: pointwise convergence without metric convergence")
    _emit(args, report, lines)
    return 0 if not audit.failures else 1


def _relation_from_args(args, space, digests) -> Relation:
    if args.threshold is not None:
        return sublevel_relation(space, _scalar(args.threshold, "threshold"))
    if args.pairs:
        obj = _read_json(args.pairs, digests)
        entries = json_list(_field(obj, "pairs", "--pairs"), '"pairs"', of_lists=True)
        try:
            pairs = [(space.index(a), space.index(b)) for a, b in entries]
        except ValueError as exc:
            raise InputFormatError(f"bad --pairs entry: {exc}") from exc
        return Relation.from_pairs(space, space, pairs)
    raise InputFormatError("couple needs --threshold or --pairs")


def cmd_couple(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests))
    measures = _load_measures(args, space, digests)
    if len(measures) != 2:
        raise InputFormatError("couple needs exactly two measures")
    relation = _relation_from_args(args, space, digests)
    gate_axioms(measures[0], "first", args.seed)
    gate_axioms(measures[1], "second", args.seed)
    verdict = admissible(measures[0], measures[1], relation, seed=args.seed)
    report = _base_report(args, "couple", digests)
    report["verdict"] = {
        "status": verdict.status,
        "tier": verdict.tier,
        "certificate": jsonable(verdict.certificate),
    }
    lines = [f"{verdict.status} [{verdict.tier}]"]
    if verdict.witness is not None:
        # the Dirac, capacity and lattice tiers prove their witness; only a
        # sampled one is re-checked, as distance does
        if verdict.tier == "witness-found":
            verification = verify_coupling(verdict.witness, seed=args.seed).verdict
        else:
            verification = "proved"
        report["witness"] = witness_summary(verdict.witness)
        report["witness"]["verification"] = verification
        lines.append(f"witness: {verification}")
    if verdict.certificate:
        lines.append(f"certificate: {jsonable(verdict.certificate)}")
    _emit(args, report, lines)
    return 0


def cmd_glue(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests))
    prod = product_space(space, space)
    first = load_measure(_read_json(args.first, digests), prod)
    second = load_measure(_read_json(args.second, digests), prod)
    report = _base_report(args, "glue", digests)
    try:
        glued = glue(first, second, space, seed=args.seed)
    except MarginalMismatch as exc:
        report["glue"] = {"status": "marginal-mismatch", "witness": jsonable(exc.witness)}
        _emit(args, report, [f"marginal mismatch: {jsonable(exc.witness)}"])
        return 1
    from .coupling import triple_projection_map
    from .measures import equal_measures, pushforward

    front = pushforward(triple_projection_map(space, (0, 1)), glued, prod)
    back = pushforward(triple_projection_map(space, (1, 2)), glued, prod)
    eq_front = equal_measures(front, first, seed=args.seed)
    eq_back = equal_measures(back, second, seed=args.seed)
    ok = eq_front.status != "no" and eq_back.status != "no"
    report["glue"] = {
        "status": "ok" if ok else "projection-mismatch",
        "front-projection": eq_front.status,
        "back-projection": eq_back.status,
    }
    _emit(
        args,
        report,
        [
            f"glued measure on {space.n}^3 points",
            f"front projection: {eq_front.status}",
            f"back projection: {eq_back.status}",
        ],
    )
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests))
    report = _base_report(args, f"oracle {args.oracle_cmd}", digests)
    if args.oracle_cmd in ("strassen", "winf"):
        if len(args.measure or []) != 2:
            raise InputFormatError("oracle needs two probability vectors via --measure")
        ps = []
        for spec in args.measure:
            obj = _read_json(spec, digests)
            weights = [
                _scalar(w, "weight")
                for w in json_list(_field(obj, "weights", "probability vector"), '"weights"')
            ]
            ps.append(ProbabilityVector(space, tuple(weights)))
        if args.oracle_cmd == "strassen":
            relation = _relation_from_args(args, space, digests)
            ok = strassen_feasible(ps[0], ps[1], relation)
            report["feasible"] = ok
            _emit(args, report, [f"feasible: {ok}"])
            return 0
        value = winf_distance(ps[0], ps[1])
        report["distance"] = format_scalar(value)
        _emit(args, report, [format_scalar(value)])
        return 0
    if args.size < 0:
        raise InputFormatError("cross-check needs a nonnegative --size")
    result = criterion_cross_check(space, instances=args.size, seed=args.seed)
    report["cross-check"] = {
        "instances": result.instances,
        "disagreements": jsonable(list(result.disagreements)),
        "stats": jsonable(result.stats),
    }
    lines = [
        f"instances: {result.instances}",
        f"disagreements: {len(result.disagreements)}",
    ]
    _emit(args, report, lines)
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskdist",
        description="bottleneck distances between monetary risk measures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's parser by name, for ``main`` to hand argv to directly
    parser.commands = sub.choices

    def common(p, space=True, measure=True):
        if space:
            p.add_argument("--space", required=True, help="space JSON file or inline")
        if measure:
            p.add_argument("--measure", action="append", help="measure JSON file or inline")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--mode", choices=("exact", "float"), default="exact",
            help="how scalars print; every command computes exactly",
        )
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="text"
        )

    p = sub.add_parser("validate", help="check a space and measures")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("distance", help="bottleneck distance of two measures")
    common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("matrix", help="pairwise distance matrix")
    common(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("audit", help="audit suites")
    audit_sub = p.add_subparsers(dest="audit_cmd", required=True)
    pm = audit_sub.add_parser("metric", help="metric axiom audit")
    common(pm, measure=False)
    pm.add_argument("--size", type=int, default=24, help="ensemble size")
    pm.set_defaults(func=cmd_audit)

    p = sub.add_parser("converge", help="convergence audit of a sequence")
    common(p, space=False, measure=False)
    p.add_argument("--sequence", required=True, help="sequence spec JSON")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("couple", help="coupling feasibility for explicit S")
    common(p)
    p.add_argument("--threshold", help="sublevel threshold")
    p.add_argument("--pairs", help="JSON file with explicit pairs")
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("glue", help="glue two product measures")
    common(p, measure=False)
    p.add_argument("--first", required=True, help="measure on the square")
    p.add_argument("--second", required=True, help="measure on the square")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("oracle", help="independent reference computations")
    oracle_sub = p.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("strassen", "winf", "cross-check"):
        po = oracle_sub.add_parser(name)
        common(po, measure=name != "cross-check")
        if name == "strassen":
            po.add_argument("--threshold")
            po.add_argument("--pairs")
        if name == "cross-check":
            po.add_argument("--size", type=int, default=50)
        po.set_defaults(func=cmd_oracle)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parsing keeps no state between
    # calls, and in-process callers would pay for the tree on every request
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, in one pass: an argv that starts with
    a command name goes straight to that command's parser, and any other,
    ``--help`` and ``--version`` included, to the top-level parser.  An
    argv with arguments the command does not take goes there too, so the
    error reads as it always has."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv) if extra else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    printing = FLOAT_OUTPUT.set(args.mode == "float")
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (MetricError, AxiomFailure) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except RiskdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        FLOAT_OUTPUT.reset(printing)


if __name__ == "__main__":
    sys.exit(main())
