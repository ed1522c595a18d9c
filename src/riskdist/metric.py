"""The bottleneck distance between risk measures, distance matrices, and the
theorem audits.

The distance between mu1 and mu2 is the smallest distance level t whose
closed sublevel relation admits a coupling of the pair; the witness is the
lower-extension coupling at that level.  The threshold ladder is scanned
from 0 upward, so the recorded verdicts show a single infeasible-to-feasible
switch; the top level (the diameter) is always feasible.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .coupling import (
    CouplingWitness,
    FeasibilityVerdict,
    admissible,
    lower_coupling,
    verify_coupling,
)
from .ensembles import derive_rng, extremal_pair, random_measure
from .errors import AxiomFailure, CouplingFailure, SpaceMismatch
from .measures import (
    RiskMeasure,
    equal_measures,
    evaluate_values,
    probe_functions,
    support,
    verify_axioms,
)
from .numerics import Scalar
from .space import (
    FiniteMetricSpace,
    PointFunction,
    distance_levels,
    hausdorff_distance,
    modulus_of_continuity,
    sublevel_relation,
)


@dataclass(frozen=True)
class DistanceResult:
    value: Scalar
    witness: Optional[CouplingWitness]
    ladder: tuple[tuple[Scalar, str, str], ...]  # (level, status, tier)
    certification: str  # "exact" | "sampled" | "interval"
    interval: Optional[tuple[Scalar, Scalar]] = None
    tier: str = "exact-choquet"


@dataclass(frozen=True)
class AuditReport:
    suite: str
    instances: int
    checks: dict
    failures: tuple[dict, ...] = ()
    discrepancies: tuple[dict, ...] = ()
    stats: dict = field(default_factory=dict)
    # the measures the payloads index into; reports serialize without it
    pool: tuple[RiskMeasure, ...] = field(default=(), compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.failures


#: support masks of the measures of the distance matrix being computed,
#: keyed by measure identity and seed; it lives only as long as the matrix
#: call, so it holds at most one entry per measure of that matrix
_matrix_supports: ContextVar[Optional[dict]] = ContextVar("matrix_supports", default=None)


@contextmanager
def _supports_probed_once():
    token = _matrix_supports.set({})
    try:
        yield
    finally:
        _matrix_supports.reset(token)


def _support_mask(mu: RiskMeasure, seed: int) -> int:
    memo = _matrix_supports.get()
    if memo is None:
        return support(mu, seed=seed).mask
    key = (mu, seed)
    if key not in memo:
        memo[key] = support(mu, seed=seed).mask
    return memo[key]


def _gate_axioms(mu: RiskMeasure, which: str, seed: int):
    report = verify_axioms(mu, seed=seed)
    if not report.ok:
        raise AxiomFailure(which, report)


def bottleneck_distance(
    mu1: RiskMeasure,
    mu2: RiskMeasure,
    seed: int = 0,
    samples: int = 128,
    check_axioms: bool = True,
    verify_witness: bool = False,
) -> DistanceResult:
    """Smallest feasible threshold on the distance ladder, with witness.

    Unknown verdicts on the ladder degrade the result to a bracketing
    interval instead of guessing; the returned value is then the smallest
    level certified feasible.  A level found feasible only by a sampled
    witness check makes the result "sampled", not "exact".
    """
    if mu1.space != mu2.space:
        raise SpaceMismatch("measures live on different spaces")
    if check_axioms:
        _gate_axioms(mu1, "first", seed)
        _gate_axioms(mu2, "second", seed)
    space = mu1.space
    ladder: list[tuple[Scalar, str, str]] = []
    chosen: Optional[FeasibilityVerdict] = None
    value = None
    saw_unknown = False
    last_infeasible = None
    supports = None
    if mu1.capacity is None or mu2.capacity is None:
        supports = (_support_mask(mu1, seed), _support_mask(mu2, seed))
    for level in distance_levels(space):
        verdict = admissible(
            mu1,
            mu2,
            sublevel_relation(space, level),
            seed=seed,
            samples=samples,
            supports=supports,
        )
        ladder.append((level, verdict.status, verdict.tier))
        if verdict.feasible:
            chosen = verdict
            value = level
            break
        if verdict.status == "unknown":
            saw_unknown = True
        else:
            last_infeasible = level
    if chosen is None:
        # the diameter level is always feasible; reaching here means every
        # verdict above the last infeasible one was unknown
        raise CouplingFailure("no feasible level found on the ladder")
    witness = chosen.witness
    if witness is None:
        witness = lower_coupling(mu1, mu2, sublevel_relation(space, value))
    if verify_witness:
        report = verify_coupling(witness, seed=seed)
        if not report.ok:
            raise CouplingFailure(
                f"witness at level {value} fails verification: "
                f"{[v.axiom for v in report.violations]}"
            )
    if saw_unknown:
        levels = distance_levels(space)
        lo = levels[0]
        if last_infeasible is not None:
            lo = levels[levels.index(last_infeasible) + 1]
        return DistanceResult(
            value,
            witness,
            tuple(ladder),
            "interval",
            (lo, value),
            tier=chosen.tier,
        )
    certification = "sampled" if chosen.tier == "witness-found" else "exact"
    return DistanceResult(value, witness, tuple(ladder), certification, tier=chosen.tier)


@_supports_probed_once()
def distance_matrix(
    measures: Sequence[RiskMeasure],
    seed: int = 0,
    samples: int = 96,
    witness_policy: str = "sample",
) -> tuple[list[list[DistanceResult | None]], AuditReport]:
    """Pairwise distances with a built-in symmetry / diagonal / triangle scan.

    Witness verification cost is controlled by ``witness_policy``: "all"
    verifies every pair, "sample" a seeded subset, "none" skips.  The
    support of each non-capacity measure is probed once for the whole
    matrix, not once per pair.
    """
    if not measures:
        raise SpaceMismatch("need at least one measure")
    space = measures[0].space
    if any(m.space != space for m in measures):
        raise SpaceMismatch("all measures must share one space")
    for idx, m in enumerate(measures):
        _gate_axioms(m, f"#{idx}", seed)

    k = len(measures)
    results: list[list[Optional[DistanceResult]]] = [[None] * k for _ in range(k)]
    zero = distance_levels(space)[0]
    failures: list[dict] = []
    intervals = 0
    for i in range(k):
        results[i][i] = bottleneck_distance(
            measures[i], measures[i], seed=seed, samples=samples, check_axioms=False
        )
        if results[i][i].value != zero:
            failures.append({"kind": "nonzero-diagonal", "index": i})
        for j in range(i + 1, k):
            res = bottleneck_distance(
                measures[i], measures[j], seed=seed, samples=samples, check_axioms=False
            )
            results[i][j] = res
            results[j][i] = res  # computed once; symmetry of the sublevel
            if res.certification == "interval":
                intervals += 1

    # symmetry recheck by explicit reversed computation on a seeded sample
    rng = random.Random(seed)
    sym_checked = 0
    for _ in range(min(8, k * (k - 1) // 2 or 0)):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        fwd = results[i][j].value
        rev = bottleneck_distance(
            measures[j], measures[i], seed=seed, samples=samples, check_axioms=False
        ).value
        sym_checked += 1
        if fwd != rev:
            failures.append({"kind": "asymmetry", "pair": (i, j), "values": (fwd, rev)})

    # triangle scan (conservative on intervals: flag only definite violations)
    tol = space.tol
    for i in range(k):
        for j in range(k):
            for l in range(k):
                lo_ij = _lower_bound(results[i][j])
                hi_il = results[i][l].value
                hi_lj = results[l][j].value
                if lo_ij > hi_il + hi_lj + tol:
                    failures.append(
                        {
                            "kind": "triangle-violation",
                            "triple": (i, j, l),
                            "values": (lo_ij, hi_il, hi_lj),
                        }
                    )

    witness_failures = _check_witnesses(results, witness_policy, seed)
    failures.extend(witness_failures)
    report = AuditReport(
        "distance-matrix",
        k * (k - 1) // 2,
        {
            "symmetry": all(f["kind"] != "asymmetry" for f in failures),
            "zero-diagonal": all(f["kind"] != "nonzero-diagonal" for f in failures),
            "triangle": all(f["kind"] != "triangle-violation" for f in failures),
            "witnesses": not witness_failures,
        },
        tuple(failures),
        stats={"intervals": intervals, "symmetry-rechecks": sym_checked},
    )
    return results, report


def _lower_bound(res: DistanceResult) -> Scalar:
    return res.interval[0] if res.interval else res.value


def _check_witnesses(results, policy: str, seed: int) -> list[dict]:
    if policy == "none":
        return []
    k = len(results)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if policy == "sample":
        rng = random.Random(seed)
        rng.shuffle(pairs)
        pairs = pairs[:24]
    failures = []
    for i, j in pairs:
        res = results[i][j]
        cost = res.witness.cost()
        if cost != res.value:
            failures.append(
                {"kind": "witness-cost-mismatch", "pair": (i, j), "values": (cost, res.value)}
            )
        report = verify_coupling(res.witness, seed=seed)
        if not report.ok:
            failures.append(
                {
                    "kind": "witness-verification",
                    "pair": (i, j),
                    "violations": [v.axiom for v in report.violations],
                }
            )
    return failures


# ---------------------------------------------------------------------------
# audits


def metric_axiom_audit(
    space: FiniteMetricSpace,
    ensemble_size: int = 24,
    seed: int = 0,
    witness_policy: str = "sample",
) -> AuditReport:
    """Seeded ensemble check of the metric axioms and the diameter bound.

    Generated measures that fail their own axiom gate (possible for family
    members) are excluded and counted.  Failures carry payloads that
    re-verify on their own; on the capacity tier any failure is a genuine
    bug, elsewhere it is archived as a sampled-tier discrepancy.
    """
    rng = derive_rng(seed, "metric-audit")
    pool: list[RiskMeasure] = []
    excluded = 0
    while len(pool) < ensemble_size:
        mu = random_measure(space, rng)
        if verify_axioms(mu, seed=seed).ok:
            pool.append(mu)
        else:
            excluded += 1
    results, matrix_report = distance_matrix(
        pool, seed=seed, witness_policy=witness_policy
    )
    failures = list(matrix_report.failures)
    discrepancies: list[dict] = []

    # identity of indiscernibles against functional equality
    zero = distance_levels(space)[0]
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            dist_zero = results[i][j].value == zero
            eq = equal_measures(pool[i], pool[j], seed=seed)
            exact_pair = pool[i].capacity is not None and pool[j].capacity is not None
            if not _identity_consistent(dist_zero, eq.status):
                payload = {
                    "kind": "identity-mismatch",
                    "pair": (i, j),
                    "distance-zero": dist_zero,
                    "equality": eq.status,
                    "witness": eq.witness,
                }
                if exact_pair:
                    failures.append(payload)
                else:
                    discrepancies.append(payload)

    # diameter: every distance within diam(X), attained by the extremal pair
    diam = space.diameter()
    over = [
        (i, j)
        for i in range(len(pool))
        for j in range(len(pool))
        if results[i][j].value > diam
    ]
    if over:
        failures.append({"kind": "diameter-exceeded", "pairs": over})
    lo_mu, hi_mu = extremal_pair(space)
    extremal = bottleneck_distance(lo_mu, hi_mu, seed=seed)
    if extremal.value != diam:
        failures.append(
            {"kind": "diameter-not-attained", "value": extremal.value, "diam": diam}
        )

    checks = dict(matrix_report.checks)
    checks.update(
        {
            "identity": all(f["kind"] != "identity-mismatch" for f in failures),
            "diameter": not over and extremal.value == diam,
        }
    )
    return AuditReport(
        "metric-axioms",
        len(pool),
        checks,
        tuple(failures),
        tuple(discrepancies),
        stats={
            "excluded-by-axiom-gate": excluded,
            "seed": seed,
            **matrix_report.stats,
        },
        pool=tuple(pool),
    )


def _identity_consistent(dist_zero: bool, equality: str) -> bool:
    """Distance zero agrees with functional equality; an undecided equality
    agrees with either distance."""
    return equality == "undecided" or (equality == "yes") == dist_zero


def lipschitz_control_check(
    mu1: RiskMeasure,
    mu2: RiskMeasure,
    result: DistanceResult,
    seed: int = 0,
    randoms: int = 32,
) -> list[dict]:
    """|mu1(phi) - mu2(phi)| <= modulus of phi at the distance, per probe.

    This is the provable direction of the topology statement: any coupling
    at level t forces pointwise gaps below the modulus of continuity.
    """
    probes = probe_functions(mu1.space, derive_rng(seed, "lipschitz"), randoms=randoms)
    return _lipschitz_violations(mu1, mu2, result.value, probes)


def _lipschitz_violations(mu1, mu2, distance, probes) -> list[dict]:
    space = mu1.space
    violations = []
    for values in probes:
        phi = PointFunction(space, values)
        gap = abs(evaluate_values(mu1, values) - evaluate_values(mu2, values))
        bound = modulus_of_continuity(phi, distance)
        if gap > bound + space.tol:
            violations.append(
                {
                    "kind": "lipschitz-violation",
                    "phi": values,
                    "gap": gap,
                    "bound": bound,
                    "distance": distance,
                }
            )
    return violations


def convergence_audit(
    terms: Sequence[RiskMeasure],
    limit: RiskMeasure,
    seed: int = 0,
    randoms: int = 32,
) -> AuditReport:
    """Track pointwise gaps, metric values, and support drift along a sequence.

    For each term reports g = max pointwise gap over the probe family,
    r = bottleneck distance to the limit, h = Hausdorff gap between
    supports, and checks the provable inequality gap <= modulus(phi, r)
    per probe.  Whether vanishing pointwise gaps force r and h to vanish is
    reported, not asserted: instances where they do not are archived as
    flagged discrepancies.
    """
    space = limit.space
    if any(t.space != space for t in terms):
        raise SpaceMismatch("sequence terms live on different spaces")
    rng = derive_rng(seed, "convergence")
    probes = probe_functions(space, rng, randoms=randoms)
    limit_support = support(limit, seed=seed)
    rows = []
    failures: list[dict] = []
    for n, term in enumerate(terms, start=1):
        g = max(
            abs(evaluate_values(term, v) - evaluate_values(limit, v)) for v in probes
        )
        res = bottleneck_distance(term, limit, seed=seed)
        h = hausdorff_distance(support(term, seed=seed), limit_support)
        failures.extend(
            dict(v, term=n) for v in _lipschitz_violations(term, limit, res.value, probes)
        )
        rows.append({"n": n, "pointwise-gap": g, "metric": res.value, "support-gap": h})

    gaps = [r["pointwise-gap"] for r in rows]
    metrics = [r["metric"] for r in rows]
    hgaps = [r["support-gap"] for r in rows]
    eps = space.tol if space.tol else 0
    gaps_vanish = all(b <= a for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= max(
        gaps[0] / 4, eps
    )
    metric_vanishes = metrics[-1] <= metrics[0] / 4 or metrics[-1] == 0
    supports_converge = hgaps[-1] == 0
    discrepancies = []
    if gaps_vanish and not (metric_vanishes and supports_converge):
        discrepancies.append(
            {
                "kind": "pointwise-convergence-without-metric-convergence",
                "rows": rows,
            }
        )
    return AuditReport(
        "convergence",
        len(terms),
        {
            "pointwise-gaps-vanish": gaps_vanish,
            "metric-vanishes": metric_vanishes,
            "supports-converge": supports_converge,
            "lipschitz-control": not failures,
        },
        tuple(failures),
        tuple(discrepancies),
        stats={"rows": rows, "seed": seed},
    )


# ---------------------------------------------------------------------------
# payload re-verification


def reverify_failure(payload: dict, context: dict) -> bool:
    """Re-check an audit failure from its payload alone.

    ``context`` carries what the payload indexes into: "measures", the pool
    of the audit that made it (``AuditReport.pool``), or "pair", the two
    measures a Lipschitz payload compared (for a convergence payload, the
    term it names and the limit).  Returns True when the recorded failure
    still reproduces.
    """
    kind = payload["kind"]
    measures = context.get("measures", [])
    seed = context.get("seed", 0)
    if kind == "triangle-violation":
        i, j, l = payload["triple"]
        dij = bottleneck_distance(measures[i], measures[j], seed=seed).value
        dil = bottleneck_distance(measures[i], measures[l], seed=seed).value
        dlj = bottleneck_distance(measures[l], measures[j], seed=seed).value
        return dij > dil + dlj
    if kind == "asymmetry":
        i, j = payload["pair"]
        return (
            bottleneck_distance(measures[i], measures[j], seed=seed).value
            != bottleneck_distance(measures[j], measures[i], seed=seed).value
        )
    if kind == "identity-mismatch":
        i, j = payload["pair"]
        res = bottleneck_distance(measures[i], measures[j], seed=seed)
        eq = equal_measures(measures[i], measures[j], seed=seed)
        zero = distance_levels(measures[i].space)[0]
        return not _identity_consistent(res.value == zero, eq.status)
    if kind == "lipschitz-violation":
        mu1, mu2 = context["pair"]
        phi = PointFunction(mu1.space, payload["phi"])
        gap = abs(evaluate_values(mu1, phi.values) - evaluate_values(mu2, phi.values))
        return gap > modulus_of_continuity(phi, payload["distance"]) + mu1.space.tol
    raise ValueError(f"no re-verifier for payload kind {kind!r}")
