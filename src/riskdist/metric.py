"""The bottleneck distance between risk measures, distance matrices, and the
theorem audits.

The distance between mu1 and mu2 is the smallest distance level t whose
closed sublevel relation admits a coupling of the pair; the witness is the
lower-extension coupling at that level.  The threshold ladder is scanned
from 0 upward, so the recorded verdicts show a single infeasible-to-feasible
switch; the top level (the diameter) is always feasible.  A pair on an
exact route is scanned with one exact test per level
(``coupling.refutes``), and the witness and the result are built once, at
the answer; only a probed level builds a verdict (``coupling.probe``).
"""

from __future__ import annotations

import random
from math import lcm
from operator import add
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .coupling import (
    ChainBudgetExceeded,
    CouplingWitness,
    lower_coupling,
    pooled,
    prepare_pair,
    probe,
    refutes,
    verify_coupling,
)
from .ensembles import derive_rng, derive_seed, extremal_pair, random_measure
from .errors import AxiomFailure, CouplingFailure, InvalidParams, SpaceMismatch
from .measures import (
    RiskMeasure,
    equal_measures,
    evaluate_values,
    probe_grid,
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
    sublevel_ladder,
)

#: seeded random functions in the Lipschitz and convergence probe families.
#: Each family seeds its grid from its own name: a sampled distance passed
#: every probe of the refutation grid, so a gap check there could not fail
PROBE_RANDOMS = 32


@dataclass(frozen=True)
class DistanceResult:
    value: Scalar
    witness: Optional[CouplingWitness]
    ladder: tuple[tuple[Scalar, str, str], ...]  # (level, status, tier)
    tier: str

    @property
    def certification(self) -> str:
        """Whether the tier proves the value: "sampled" on "witness-found",
        whose verdict says only that no probe refuted, else "exact"."""
        return "sampled" if self.tier == "witness-found" else "exact"


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


def gate_axioms(mu: RiskMeasure, which: str, seed: int):
    """Raise ``AxiomFailure`` unless mu passes ``verify_axioms``."""
    report = verify_axioms(mu, seed=seed)
    if not report.ok:
        raise AxiomFailure(which, report)


def bottleneck_distance(
    mu1: RiskMeasure,
    mu2: RiskMeasure,
    seed: int = 0,
    check_axioms: bool = True,
) -> DistanceResult:
    """Smallest feasible threshold on the distance ladder, with witness.

    The pair is prepared once (``coupling.prepare_pair``) and the levels
    scanned from 0 upward, each with the verdict ``admissible`` gives
    there.  Every ladder relation is on the pair's space and holds the
    diagonal, so its projections are full: (a) holds, no support escapes
    and every part lies inside, which is what ``coupling.refutes`` takes
    as given.  So a pair on an exact route is scanned with that one test
    alone: a refuted level records (level, "infeasible", route) and builds
    nothing, and only the first feasible level builds the lower extension
    and the result, "exact".  ``coupling.probe`` runs where ``admissible``
    probes: on the sampled route, whose "witness-found" verdict says only
    that no probe of its one fixed grid refuted and makes the result
    "sampled", and on a lattice level past ``CHAIN_BUDGET``.

    The pair is the two measures' entries in the pool of the running
    ``distance_matrix`` call, which holds both, or else in a pool of the
    two: each entry's tables are lifted to the pool's scale once, each
    lifted table is read through a level's inner masks once, and the
    pool's column memo (``coupling.Pool.covered``) decides each column of
    a level once for every pair that reads it.  On two points the pair
    reads the pool's one grid at its own points.  The levels and their
    relations are built once per space (``sublevel_ladder``), each
    relation's inner-mask tables once per relation, and each measure's
    indicator table with the measure.
    """
    if mu1.space != mu2.space:
        raise SpaceMismatch("measures live on different spaces")
    if check_axioms:
        gate_axioms(mu1, "first", seed)
        gate_axioms(mu2, "second", seed)
    pair = prepare_pair(mu1, mu2)
    route = pair.route
    ladder: list[tuple[Scalar, str, str]] = []
    for level, relation in sublevel_ladder(mu1.space):
        if route != "sampled":
            try:
                refuted = refutes(pair, relation)
            except ChainBudgetExceeded:
                pass  # too many chains: this level is probed, as admissible does
            else:
                if refuted is not None:
                    ladder.append((level, "infeasible", route))
                    continue
                ladder.append((level, "feasible", route))
                witness = lower_coupling(mu1, mu2, relation)
                return DistanceResult(level, witness, tuple(ladder), route)
        verdict = probe(mu1, mu2, relation, seed)
        ladder.append((level, verdict.status, verdict.tier))
        if verdict.feasible:
            return DistanceResult(level, verdict.witness, tuple(ladder), verdict.tier)
    # the diameter level admits every coupling, so only a faulty tier ends here
    raise CouplingFailure("no feasible level found on the ladder")


def distance_matrix(
    measures: Sequence[RiskMeasure],
    seed: int = 0,
) -> tuple[list[list[DistanceResult | None]], AuditReport]:
    """Pairwise distances with a built-in symmetry / diagonal / triangle scan.

    Each distance is the ladder value of ``bottleneck_distance``: proved on
    the exact tiers, "sampled" on the witness-found one, which scans the grid
    every caller scans, so a payload re-verifies as the matrix ran it.  The
    measures are prepared as one pool (``coupling.pooled``), which lives
    for this call and builds, however many pairs read them, one entry per
    member (its route class, and its tables lifted to one common scale,
    each once), each lifted table read through a ladder relation's inner
    masks once, one column verdict per two part tables and relation, and
    on two points one grid for every pair, with each member's lookup
    tables on it, evaluated once per grid point.  A seeded sample of 24
    pairs has its witness costs compared with the distances, and the
    witnesses of the unproved ones among them (those not certified
    "exact") re-sampled by ``verify_coupling``.
    """
    if not measures:
        raise SpaceMismatch("need at least one measure")
    space = measures[0].space
    if any(m.space != space for m in measures):
        raise SpaceMismatch("all measures must share one space")
    for idx, m in enumerate(measures):
        gate_axioms(m, f"#{idx}", seed)

    def distance(a, b):
        return bottleneck_distance(a, b, seed=seed, check_axioms=False)

    k = len(measures)
    results: list[list[Optional[DistanceResult]]] = [[None] * k for _ in range(k)]
    zero = distance_levels(space)[0]
    failures: list[dict] = []
    rng = random.Random(seed)
    sym_checked = 0
    with pooled(measures):
        for i in range(k):
            results[i][i] = distance(measures[i], measures[i])
            if results[i][i].value != zero:
                failures.append({"kind": "nonzero-diagonal", "index": i})
            for j in range(i + 1, k):
                res = distance(measures[i], measures[j])
                results[i][j] = res
                results[j][i] = res  # computed once; symmetry of the sublevel

        # symmetry recheck by explicit reversed computation on a seeded sample
        for _ in range(min(8, k * (k - 1) // 2 or 0)):
            i, j = rng.randrange(k), rng.randrange(k)
            if i == j:
                continue
            fwd = results[i][j].value
            rev = distance(measures[j], measures[i]).value
            sym_checked += 1
            if fwd != rev:
                failures.append({"kind": "asymmetry", "pair": (i, j), "values": (fwd, rev)})

    failures.extend(_triangle_violations(results))
    witness_failures = _check_witnesses(results, seed)
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
        stats={"symmetry-rechecks": sym_checked},
    )
    return results, report


def _triangle_violations(results) -> list[dict]:
    """Every triple (i, j, l) with d(i, j) > d(i, l) + d(l, j).

    Every value is a ladder level, so the scan runs on the integers value *
    D over the values' common denominator D.  Each (i, j) takes the
    min-plus over l first, and lists the l's only when that minimum is
    violated.
    """
    k = len(results)
    den = lcm(*{res.value.denominator for row in results for res in row})
    keyed = [
        [res.value.numerator * (den // res.value.denominator) for res in row]
        for row in results
    ]
    cols = list(zip(*keyed))
    found = []
    for i in range(k):
        row = keyed[i]
        for j in range(k):
            d_ij = row[j]
            if d_ij > min(map(add, row, cols[j])):
                found.extend(
                    {
                        "kind": "triangle-violation",
                        "triple": (i, j, l),
                        "values": (results[i][j].value, results[i][l].value, results[l][j].value),
                    }
                    for l in range(k)
                    if d_ij > row[l] + cols[j][l]
                )
    return found


def _check_witnesses(results, seed: int) -> list[dict]:
    """Cost and witness checks on a seeded sample of 24 pairs; a witness is
    re-sampled only when its result is not certified "exact", since the
    Dirac, capacity, lattice and two-point tiers prove theirs."""
    k = len(results)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    random.Random(seed).shuffle(pairs)
    failures = []
    for i, j in pairs[:24]:
        res = results[i][j]
        cost = res.witness.cost()
        if cost != res.value:
            failures.append(
                {"kind": "witness-cost-mismatch", "pair": (i, j), "values": (cost, res.value)}
            )
        if res.certification == "exact":
            continue
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
    results, matrix_report = distance_matrix(pool, seed=seed)
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
) -> list[dict]:
    """|mu1(phi) - mu2(phi)| <= modulus of phi at the distance, per probe.

    This is the provable direction of the topology statement: any coupling
    at level t forces pointwise gaps below the modulus of continuity.
    """
    probes = probe_grid(mu1.space, derive_seed(seed, "lipschitz"), PROBE_RANDOMS)
    return _lipschitz_violations(mu1, mu2, result.value, probes)


def _lipschitz_violations(mu1, mu2, distance, probes) -> list[dict]:
    space = mu1.space
    violations = []
    for values in probes:
        phi = PointFunction(space, values)
        gap = abs(evaluate_values(mu1, values) - evaluate_values(mu2, values))
        bound = modulus_of_continuity(phi, distance)
        if gap > bound:
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
) -> AuditReport:
    """Track pointwise gaps, metric values, and support drift along a sequence.

    For each term reports g = max pointwise gap over the probe family,
    r = bottleneck distance to the limit, h = Hausdorff gap between
    supports, and checks the provable inequality gap <= modulus(phi, r)
    per probe.  Whether vanishing pointwise gaps force r and h to vanish is
    reported, not asserted: instances where they do not are archived as
    flagged discrepancies.  Such instances exist, because the bottleneck
    distance cannot generate the pointwise topology: on expectations it is
    W-infinity, and (1 - 1/n) dirac(base) + (1/n) dirac(far) converges
    pointwise while W-infinity stays at d(base, far)
    (``drifting_mixture_sequence``).
    """
    space = limit.space
    if any(t.space != space for t in terms):
        raise SpaceMismatch("sequence terms live on different spaces")
    probes = probe_grid(space, derive_seed(seed, "convergence"), PROBE_RANDOMS)
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
    gaps_vanish = all(b <= a for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= gaps[0] / 4
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
    still reproduces.  A diameter payload re-checks on the space of the
    pool, whose extremal pair ``metric_axiom_audit`` measured.
    """
    kind = payload["kind"]
    measures = context.get("measures", [])
    seed = context.get("seed", 0)

    def distance(i, j):
        return bottleneck_distance(measures[i], measures[j], seed=seed)

    if kind == "nonzero-diagonal":
        i = payload["index"]
        return distance(i, i).value != distance_levels(measures[i].space)[0]
    if kind == "witness-cost-mismatch":
        res = distance(*payload["pair"])
        return res.witness.cost() != res.value
    if kind == "witness-verification":
        return not verify_coupling(distance(*payload["pair"]).witness, seed=seed).ok
    if kind == "diameter-exceeded":
        diam = measures[0].space.diameter()
        return any(distance(i, j).value > diam for i, j in payload["pairs"])
    if kind == "diameter-not-attained":
        space = measures[0].space
        lo_mu, hi_mu = extremal_pair(space)
        return bottleneck_distance(lo_mu, hi_mu, seed=seed).value != space.diameter()
    if kind == "triangle-violation":
        i, j, l = payload["triple"]
        return distance(i, j).value > distance(i, l).value + distance(l, j).value
    if kind == "asymmetry":
        i, j = payload["pair"]
        return distance(i, j).value != distance(j, i).value
    if kind == "identity-mismatch":
        i, j = payload["pair"]
        res = distance(i, j)
        eq = equal_measures(measures[i], measures[j], seed=seed)
        zero = distance_levels(measures[i].space)[0]
        return not _identity_consistent(res.value == zero, eq.status)
    if kind == "lipschitz-violation":
        mu1, mu2 = context["pair"]
        phi = PointFunction(mu1.space, payload["phi"])
        gap = abs(evaluate_values(mu1, phi.values) - evaluate_values(mu2, phi.values))
        return gap > modulus_of_continuity(phi, payload["distance"])
    raise InvalidParams(f"no re-verifier for payload kind {kind!r}")
