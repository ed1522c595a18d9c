"""Batch front-end: validate inputs, compute distances and matrices, run
audits, emit reports.

Exit codes: 0 on success, 1 when a check fails or a verified counterexample
is found, 2 on malformed input.  Reports embed the tool version, input
digests, the arithmetic mode and the seed; identical configurations produce
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
    metric_axiom_audit,
)
from .numerics import format_scalar, parse_scalar
from .oracles import (
    ProbabilityVector,
    criterion_cross_check,
    strassen_feasible,
    winf_distance,
)
from .coupling import admissible, glue, verify_coupling
from .space import Relation, sublevel_relation, product_space


def _read_json(arg: str, digests: dict) -> object:
    """Accept a file path or an inline JSON literal."""
    text = arg
    label = "<inline>"
    if not arg.lstrip().startswith(("{", "[")):
        path = Path(arg)
        try:
            text = path.read_text()
        except OSError as exc:
            raise InputFormatError(f"cannot read {arg}: {exc}") from exc
        label = str(path)
    digests[label] = digest_text(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad JSON in {label}: {exc}") from exc


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
    out = []
    for spec in args.measure or []:
        obj = _read_json(spec, digests)
        if isinstance(obj, list):
            out.extend(load_measure(o, space) for o in obj)
        else:
            out.append(load_measure(obj, space))
    return out


def cmd_validate(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests), mode=args.mode)
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
    space = load_space(_read_json(args.space, digests), mode=args.mode)
    measures = _load_measures(args, space, digests)
    if len(measures) != 2:
        raise InputFormatError("distance needs exactly two measures")
    res = bottleneck_distance(
        measures[0], measures[1], seed=args.seed, verify_witness=True
    )
    report = _base_report(args, "distance", digests)
    report["distance"] = distance_summary(res)
    lines = [f"{format_scalar(res.value)} ({res.certification}, {res.tier})"]
    for level, status, tier in res.ladder:
        lines.append(f"  level {format_scalar(level)}: {status} [{tier}]")
    _emit(args, report, lines)
    return 0


def cmd_matrix(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests), mode=args.mode)
    measures = _load_measures(args, space, digests)
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
    space = load_space(_read_json(args.space, digests), mode=args.mode)
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
    space = load_space(spec["space"], mode=args.mode)
    if "generator" in spec:
        gen = spec["generator"]
        if gen.get("type") != "drifting-mixture":
            raise InputFormatError(f"unknown sequence generator {gen.get('type')!r}")
        terms, limit = drifting_mixture_sequence(
            space,
            space.index(gen["base"]),
            space.index(gen["far"]),
            int(gen.get("count", 8)),
        )
    else:
        limit = load_measure(spec["limit"], space)
        terms = [load_measure(t, space) for t in spec["terms"]]
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
        return sublevel_relation(space, parse_scalar(args.threshold, exact=space.exact))
    if args.pairs:
        obj = _read_json(args.pairs, digests)
        pairs = [(space.index(a), space.index(b)) for a, b in obj["pairs"]]
        return Relation.from_pairs(space, space, pairs)
    raise InputFormatError("couple needs --threshold or --pairs")


def cmd_couple(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests), mode=args.mode)
    measures = _load_measures(args, space, digests)
    if len(measures) != 2:
        raise InputFormatError("couple needs exactly two measures")
    relation = _relation_from_args(args, space, digests)
    verdict = admissible(measures[0], measures[1], relation, seed=args.seed)
    report = _base_report(args, "couple", digests)
    report["verdict"] = {
        "status": verdict.status,
        "tier": verdict.tier,
        "certificate": jsonable(verdict.certificate),
    }
    lines = [f"{verdict.status} [{verdict.tier}]"]
    if verdict.witness is not None:
        check = verify_coupling(verdict.witness, seed=args.seed)
        report["witness"] = witness_summary(verdict.witness)
        report["witness"]["verification"] = check.verdict
        lines.append(f"witness: {check.verdict}")
    if verdict.certificate:
        lines.append(f"certificate: {jsonable(verdict.certificate)}")
    _emit(args, report, lines)
    return 0


def cmd_glue(args) -> int:
    digests: dict = {}
    space = load_space(_read_json(args.space, digests), mode=args.mode)
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
    space = load_space(_read_json(args.space, digests), mode=args.mode)
    report = _base_report(args, f"oracle {args.oracle_cmd}", digests)
    if args.oracle_cmd in ("strassen", "winf"):
        if len(args.measure or []) != 2:
            raise InputFormatError("oracle needs two probability vectors via --measure")
        ps = []
        for spec in args.measure:
            obj = _read_json(spec, digests)
            weights = [parse_scalar(w, exact=space.exact) for w in obj["weights"]]
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
    if args.oracle_cmd == "cross-check":
        result = criterion_cross_check(
            space,
            additive_instances=args.size,
            choquet_instances=args.size,
            seed=args.seed,
        )
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
    raise InputFormatError(f"unknown oracle subcommand {args.oracle_cmd!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskdist",
        description="bottleneck distances between monetary risk measures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--space", required=True, help="space JSON file or inline")
        p.add_argument("--measure", action="append", help="measure JSON file or inline")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
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
    common(pm)
    pm.add_argument("--size", type=int, default=24, help="ensemble size")
    pm.set_defaults(func=cmd_audit)

    p = sub.add_parser("converge", help="convergence audit of a sequence")
    common(p)
    p.add_argument("--sequence", required=True, help="sequence spec JSON")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("couple", help="coupling feasibility for explicit S")
    common(p)
    p.add_argument("--threshold", help="sublevel threshold")
    p.add_argument("--pairs", help="JSON file with explicit pairs")
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("glue", help="glue two product measures")
    common(p)
    p.add_argument("--first", required=True, help="measure on the square")
    p.add_argument("--second", required=True, help="measure on the square")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("oracle", help="independent reference computations")
    oracle_sub = p.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("strassen", "winf", "cross-check"):
        po = oracle_sub.add_parser(name)
        common(po)
        if name == "strassen":
            po.add_argument("--threshold")
            po.add_argument("--pairs")
        if name == "cross-check":
            po.add_argument("--size", type=int, default=50)
        po.set_defaults(func=cmd_oracle)
    p.set_defaults(func=cmd_oracle)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parsing keeps no state between
    # calls, and in-process callers would pay for the tree on every request
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
