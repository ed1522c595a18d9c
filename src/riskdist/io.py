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
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
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
from .space import FiniteMetricSpace, PointSubset, validate_metric
from .twopoint import ShapeFunction, TwoPointParams


def load_space(obj: Any, mode: str = "exact") -> FiniteMetricSpace:
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise InputFormatError('space JSON needs "points" and "dist"')
    points = obj["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InputFormatError('"points" must be a list of strings')
    if any("," in p or "*" in p for p in points):
        raise InputFormatError("labels must not contain ',' or '*'")
    try:
        return validate_metric(points, obj["dist"], mode=mode)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"bad distance entry: {exc}") from exc


def _subset_mask(space: FiniteMetricSpace, key: str) -> int:
    mask = 0
    if key.strip() == "":
        return 0
    for label in key.split(","):
        mask |= 1 << space.index(label.strip())
    return mask


def _capacity_from_json(space: FiniteMetricSpace, obj: dict) -> caps.Capacity:
    exact = space.exact
    table: list[Scalar | None] = [None] * (1 << space.n)
    table[0] = Fraction(0) if exact else 0.0
    for key, raw in obj.items():
        table[_subset_mask(space, key)] = parse_scalar(raw, exact=exact)
    missing = [m for m, v in enumerate(table) if v is None]
    if missing:
        raise InputFormatError(
            f"capacity table is missing {len(missing)} subsets (full table required)"
        )
    return caps.Capacity(space, tuple(table))


def load_measure(obj: Any, space: FiniteMetricSpace) -> RiskMeasure:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputFormatError('measure JSON needs a "type"')
    kind = obj["type"]
    exact = space.exact
    try:
        if kind == "dirac":
            return dirac(space, obj["point"])
        if kind == "choquet":
            return choquet_measure(_capacity_from_json(space, obj["capacity"]))
        if kind == "two-point":
            alphas = tuple(parse_scalar(a, exact=exact) for a in obj["alpha"])
            lambdas = tuple(parse_scalar(l, exact=exact) for l in obj["lambda"])
            knots = tuple(
                (parse_scalar(t, exact=exact), parse_scalar(y, exact=exact))
                for t, y in obj["f"]["knots"]
            )
            params = TwoPointParams(alphas, lambdas, ShapeFunction(knots))
            return two_point_measure(space, params)
        if kind == "mixture":
            weights = tuple(parse_scalar(w, exact=exact) for w in obj["weights"])
            comps = [load_measure(c, space) for c in obj["components"]]
            return mixture(weights, comps)
        if kind == "max":
            return lattice_max([load_measure(c, space) for c in obj["components"]])
        if kind == "min":
            return lattice_min([load_measure(c, space) for c in obj["components"]])
        if kind == "expectation":
            weights = [parse_scalar(w, exact=exact) for w in obj["weights"]]
            return choquet_measure(caps.expectation(space, weights), name="expectation")
        if kind == "var":
            weights = [parse_scalar(w, exact=exact) for w in obj["weights"]]
            level = parse_scalar(obj["level"], exact=exact)
            return choquet_measure(
                caps.var_quantile(space, weights, level), name="var"
            )
        if kind == "cvar":
            weights = [parse_scalar(w, exact=exact) for w in obj["weights"]]
            level = parse_scalar(obj["level"], exact=exact)
            return choquet_measure(caps.cvar(space, weights, level), name="cvar")
        if kind in ("unanimity", "possibility"):
            mask = PointSubset.of(space, obj["points"]).mask if "points" in obj else None
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
    if isinstance(x, Fraction):
        return format_scalar(x)
    if isinstance(x, float):
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
            if f not in ("space", "evaluator", "product")
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
    out = {
        "value": format_scalar(res.value),
        "certification": res.certification,
        "tier": res.tier,
        "ladder": [
            {"level": format_scalar(lv), "status": status, "tier": tier}
            for lv, status, tier in res.ladder
        ],
        "witness": witness_summary(res.witness) if res.witness else None,
    }
    if res.interval:
        out["interval"] = [format_scalar(res.interval[0]), format_scalar(res.interval[1])]
    return out


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
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
