"""JSON input formats and report serialization.

Spaces:  {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}
         entries are numbers or "p/q" rational strings.

Measures, one of:
  {"type": "dirac", "point": "a"}
  {"type": "choquet", "capacity": {"a": 0.3, "b": 0.5, "a,b": 1.0}}
      keys are comma-joined sorted labels; the empty set may be omitted and
      is implied 0; the full table is required.
  {"type": "two-point", "alpha": [..4], "lambda": ["-inf", 0, 0, 5],
   "f": {"knots": [[t, y], ...]}}
  {"type": "mixture", "weights": [...], "components": [...]}
  {"type": "max", "components": [...]} / {"type": "min", "components": [...]}
  convenience capacities:
  {"type": "expectation", "weights": [...]}
  {"type": "var", "level": "19/20", "weights": [...]}
  {"type": "cvar", "level": "19/20", "weights": [...]}
  {"type": "unanimity"} / {"type": "possibility"}  (optional "points" list)

Every list field must be a JSON list (``json_list``), not a string, which
would be read one character at a time: ``dist`` and its rows, ``weights``,
``alpha``, ``lambda``, ``knots`` and each knot, ``components``, ``points``,
and the CLI's ``--pairs`` entries and sequence ``terms``.

A pool, a JSON list of measures, loads each distinct spec once
(``load_measure``'s memo): a component that repeats a pool entry or another
component is that measure, and a repeated capacity is built once.

Reports are written as ``json.dumps(report, indent=2, sort_keys=True)``
writes them, plus a final newline, byte for byte: keys sorted, two spaces
of indent per level with ``",\\n"`` between items and ``": "`` after keys,
``{}`` and ``[]`` for empty containers, strings and keys with every
non-ASCII or control character escaped (``\\uXXXX``), ints by ``repr``.
``dump_report`` encodes them directly, since ``json`` falls back to its
pure-Python encoder whenever ``indent`` is set.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from typing import Any

from . import capacity as caps
from .coupling import CouplingWitness
from .errors import InputFormatError
from .measures import (
    RiskMeasure,
    dirac,
    choquet_measure,
    lattice_max,
    lattice_min,
    mixture,
    two_point_measure,
)
from .metric import AuditReport, DistanceResult
from .numerics import Scalar, format_scalar, parse_scalar
from .space import FiniteMetricSpace, PointSubset, _loaded, validate_metric
from .twopoint import ShapeFunction, TwoPointParams


def load_space(obj: Any) -> FiniteMetricSpace:
    """Validate a space's JSON and return the interned space, whose
    distances are exact: a JSON float is read as the decimal it spells.

    A space still alive is found by the JSON text of its distance matrix
    before any entry is parsed: the key is ``(labels, json.dumps(dist))``
    in the intern table of ``validate_metric``, which keys the same space by
    its parsed values.  The text tells ``1``, ``1.0``, ``"1"`` and ``true``
    apart, so only a matrix written exactly as one that was already
    validated is found this way; any other goes through ``validate_metric``,
    which validates it or finds an equal space by value, and then its text
    is keyed too.  The table holds spaces weakly, so the space returned
    last is also held here, in one slot: a run of requests on one space,
    each of which drops its measures when it returns, finds it by its text.
    """
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise InputFormatError('space JSON needs "points" and "dist"')
    points = obj["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InputFormatError('"points" must be a list of strings')
    if any("," in p or "*" in p for p in points):
        raise InputFormatError("labels must not contain ',' or '*'")
    dist = json_list(obj["dist"], '"dist"', of_lists=True)
    key = None
    try:
        key = (tuple(points), json.dumps(dist))
    except (TypeError, ValueError):  # not JSON values: parsed below
        pass
    else:
        space = _loaded.get(key)
        if space is not None:
            _last_loaded[0] = space
            return space
    try:
        space = validate_metric(points, dist)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"bad distance entry: {exc}") from exc
    if key is not None:
        _loaded[key] = space
    _last_loaded[0] = space
    return space


#: the space ``load_space`` returned last, held strongly
_last_loaded: list = [None]


def json_list(value: Any, what: str, of_lists: bool = False) -> list:
    """``value``, which must be a JSON list (of lists, with ``of_lists``),
    or an input error naming ``what``."""
    if type(value) is not list or of_lists and any(type(v) is not list for v in value):
        shape = "a JSON list of lists" if of_lists else "a JSON list"
        raise InputFormatError(f"{what} must be {shape}")
    return value


def _subset_mask(space: FiniteMetricSpace, key: str) -> int:
    mask = 0
    if key.strip() == "":
        return 0
    for label in key.split(","):
        mask |= 1 << space.index(label.strip())
    return mask


def _capacity_from_json(space: FiniteMetricSpace, obj: dict) -> caps.Capacity:
    """The capacity of a ``choquet`` spec's table, born as the integers of
    its entries over their least common denominator."""
    if not isinstance(obj, dict):
        raise TypeError('"capacity" must be an object of subset entries')
    caps.check_points(space.n)  # before the 2^n table is allocated
    # per subset, the index of its entry in ``values``
    slots: list[int | None] = [None] * (1 << space.n)
    masks = space._subset_masks
    values: list[Scalar] = []
    parsed: dict[str, int] = {}  # most entries repeat an earlier string
    for key, raw in obj.items():
        mask = masks.get(key)
        if mask is None:
            mask = _subset_mask(space, key)
        # strings only: 1, 1.0 and True are one dict key, not one entry
        at = parsed.get(raw) if type(raw) is str else None
        if at is None:
            at = len(values)
            values.append(parse_scalar(raw))
            if type(raw) is str:
                parsed[raw] = at
        if slots[mask] is not None:
            first = next(k for k in obj if (masks.get(k) or _subset_mask(space, k)) == mask)
            raise InputFormatError(f"capacity keys {first!r} and {key!r} name one subset")
        slots[mask] = at
    if slots[0] is None:
        slots[0] = len(values)
        values.append(Fraction(0))
    missing = slots.count(None)
    if missing:
        raise InputFormatError(
            f"capacity table is missing {missing} subsets (full table required)"
        )
    if not all(type(v) is Fraction for v in values):  # an infinity, which the constructor refuses
        return caps.Capacity(space, tuple(map(values.__getitem__, slots)))
    scale = lcm(*[v.denominator for v in values])
    ints = [v.numerator * (scale // v.denominator) for v in values]
    return caps._from_ints(space, list(map(ints.__getitem__, slots)), scale)


def load_measure(obj: Any, space: FiniteMetricSpace, memo: dict | None = None) -> RiskMeasure:
    """The measure of a spec.  With a ``memo``, a dict, each spec and each
    component spec is looked up by its canonical text, ``json.dumps(spec,
    sort_keys=True)``, and loaded only when missing: equal specs, in one
    pool, load as one measure."""
    if memo is None:
        return _load_measure(obj, space, None)
    key = json.dumps(obj, sort_keys=True)
    mu = memo.get(key)
    if mu is None:
        mu = memo[key] = _load_measure(obj, space, memo)
    return mu


def _load_measure(obj: Any, space: FiniteMetricSpace, memo: dict | None) -> RiskMeasure:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputFormatError('measure JSON needs a "type"')
    kind = obj["type"]

    def scalars(values, what):
        # a list, not a generator: see ``TwoPointParams.__post_init__``
        return tuple([parse_scalar(v) for v in json_list(values, what)])

    def components():
        return [load_measure(c, space, memo) for c in json_list(obj["components"], '"components"')]

    try:
        if kind == "dirac":
            return dirac(space, space.index(obj["point"]))
        if kind == "choquet":
            return choquet_measure(_capacity_from_json(space, obj["capacity"]))
        if kind == "two-point":
            knots = json_list(obj["f"]["knots"], '"knots"')
            params = TwoPointParams(
                scalars(obj["alpha"], '"alpha"'),
                scalars(obj["lambda"], '"lambda"'),
                ShapeFunction(tuple([scalars(k, 'a "knots" entry') for k in knots])),
            )
            return two_point_measure(space, params)
        if kind == "mixture":
            return mixture(scalars(obj["weights"], '"weights"'), components())
        if kind == "max":
            return lattice_max(components())
        if kind == "min":
            return lattice_min(components())
        if kind == "expectation":
            weights = scalars(obj["weights"], '"weights"')
            return choquet_measure(caps.expectation(space, weights), name="expectation")
        if kind == "var":
            weights = scalars(obj["weights"], '"weights"')
            level = parse_scalar(obj["level"])
            return choquet_measure(
                caps.var_quantile(space, weights, level), name="var"
            )
        if kind == "cvar":
            weights = scalars(obj["weights"], '"weights"')
            level = parse_scalar(obj["level"])
            return choquet_measure(caps.cvar(space, weights, level), name="cvar")
        if kind in ("unanimity", "possibility"):
            points = json_list(obj.get("points", []), '"points"')
            mask = PointSubset.of(space, points).mask if "points" in obj else None
            make = caps.unanimity if kind == "unanimity" else caps.possibility
            return choquet_measure(make(space, mask), name=kind)
    except InputFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad measure spec ({kind}): {exc}") from exc
    raise InputFormatError(f"unknown measure type {kind!r}")


# ---------------------------------------------------------------------------
# serialization


def jsonable(x: Any) -> Any:
    """Recursively convert report payloads to JSON-ready values."""
    if isinstance(x, (Fraction, float)):
        return format_scalar(x)
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if hasattr(x, "__dataclass_fields__"):
        return {
            f: jsonable(getattr(x, f))
            for f in x.__dataclass_fields__
            if f not in ("space", "evaluator")
        }
    return repr(x)


def witness_summary(w: CouplingWitness) -> dict:
    left = w.support.left
    right = w.support.right
    return {
        "formula": w.formula,
        "support-pairs": [
            [left.labels[i], right.labels[j]] for i, j in w.support.pairs()
        ],
        "marginals": [w.left.name or w.left.kind, w.right.name or w.right.kind],
    }


def distance_summary(res: DistanceResult) -> dict:
    return {
        "value": format_scalar(res.value),
        "certification": res.certification,
        "tier": res.tier,
        "ladder": [
            {"level": format_scalar(lv), "status": status, "tier": tier}
            for lv, status, tier in res.ladder
        ],
        "witness": witness_summary(res.witness) if res.witness else None,
    }


def audit_summary(report: AuditReport) -> dict:
    return {
        "suite": report.suite,
        "instances": report.instances,
        "checks": jsonable(report.checks),
        "failures": jsonable(list(report.failures)),
        "discrepancies": jsonable(list(report.discrepancies)),
        "stats": jsonable(report.stats),
    }


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def dump_report(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    out: list[str] = []
    _encode(report, out, "\n")
    out.append("\n")
    return "".join(out)


_CONSTANTS = {True: "true", False: "false", None: "null"}.__getitem__
#: the JSON text of a leaf, by its exact type
_LEAVES = {
    str: _quote,
    int: int.__repr__,
    float: json.dumps,
    bool: _CONSTANTS,
    type(None): _CONSTANTS,
}


def _encode(o: Any, out: list[str], newline: str) -> None:
    """Append the indented JSON of ``o``; ``newline`` is a line break plus
    the indent of the line ``o`` starts on."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            head = sep + (_quote(k) if type(k) is str else _key(k)) + ": "
            leaf = _LEAVES.get(type(v))
            if leaf is None:
                out.append(head)
                _encode(v, out, inner)
            else:
                out.append(head + leaf(v))
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(v) is str for v in o):
            out.append("[" + inner + ("," + inner).join(map(_quote, o)) + newline + "]")
            return
        sep = "[" + inner
        for v in o:
            leaf = _LEAVES.get(type(v))
            if leaf is None:
                out.append(sep)
                _encode(v, out, inner)
            else:
                out.append(sep + leaf(v))
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_leaf(o))


def _leaf(o: Any) -> str:
    """The JSON text of a leaf, a subclass of str, int or float included."""
    leaf = _LEAVES.get(type(o))
    if leaf is not None:
        return leaf(o)
    for base in (str, int, float):
        if isinstance(o, base):
            return _LEAVES[base](o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _key(k: Any) -> str:
    """A dict key as ``json`` writes it: a leaf's JSON text, as a string."""
    text = _leaf(k)
    return text if isinstance(k, str) else _quote(text)
