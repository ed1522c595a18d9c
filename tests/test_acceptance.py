"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 9 archives the known defects of the two-point branch
table, which is non-monotone for some valid parameter sets: an independent
exact census sorts every defect into the three classes the twopoint module
documents, the exact tier of ``verify_axioms`` must fail exactly the
defective sets, each of its violations must re-check exactly inside a
census defect and each census defect must be reported, and the printed
payloads show examples of each class.
"""

import json
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest

import riskdist as rd
from riskdist.coupling import triple_projection_map
from riskdist.ensembles import (
    derive_rng,
    drifting_mixture_sequence,
    extremal_pair,
    random_capacity,
    random_capacity_measure,
    random_measure,
    random_two_point_params,
)
from riskdist.measures import evaluate_values, probe_grid, pushforward
from riskdist.metric import lipschitz_control_check, metric_axiom_audit, reverify_failure
from riskdist.numerics import NEG_INF, POS_INF, Scalar
from riskdist.oracles import criterion_cross_check, random_probability
from riskdist.space import (
    left_projection_map,
    product_space,
    right_projection_map,
)
from riskdist.twopoint import branch_boundaries, two_point_eval

from conftest import (
    as_measure,
    exhaustive_support_mask,
    fixture_spaces,
    make_cycle4,
    make_grid6,
    make_path3,
    make_star5,
    make_two_point,
)

F = Fraction
SPACES = {
    "two-point": make_two_point,
    "path3": make_path3,
    "cycle4": make_cycle4,
    "star5": make_star5,
    "grid6": make_grid6,
}


def verdict(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def ensemble_pool(space, size=12, seed=100, depth=1):
    rng = derive_rng(seed, f"acceptance-pool-{space.labels}")
    pool = []
    while len(pool) < size:
        mu = random_measure(space, rng, depth)
        if rd.verify_axioms(mu, seed=seed).ok:
            pool.append(mu)
    return pool


def test_criterion_01_point_mass_isometry():
    checked = 0
    for space in fixture_spaces():
        for i in range(space.n):
            for j in range(space.n):
                res = rd.bottleneck_distance(rd.dirac(space, i), rd.dirac(space, j))
                assert res.value == space.d(i, j)
                assert rd.verify_coupling(res.witness, seed=0).ok
                assert res.certification == "exact"
                checked += 1
    verdict("01 point-mass isometry", True, f"{checked} pairs across 5 spaces, exact")


def test_criterion_02_feasibility_criterion_cross_check():
    total_additive = total_choquet = 0
    for space, seed in ((make_path3(), 202), (make_cycle4(), 203)):
        report = criterion_cross_check(space, instances=100, seed=seed)
        assert report.ok, report.disagreements
        total_additive += 100
        total_choquet += 100
    verdict(
        "02 feasibility cross-check",
        True,
        f"{total_additive} additive + {total_choquet} capacity instances, zero disagreements",
    )


def test_criterion_03_bottleneck_transport_agreement():
    pairs = 0
    for make in (make_path3, make_cycle4, make_star5):
        space = make()
        rng = derive_rng(303, f"winf-{space.n}")
        for _ in range(34):
            p = random_probability(space, rng)
            q = random_probability(space, rng)
            res = rd.bottleneck_distance(
                rd.choquet_measure(rd.expectation(space, p.weights)),
                rd.choquet_measure(rd.expectation(space, q.weights)),
            )
            assert res.value == rd.winf_distance(p, q)
            pairs += 1
    assert pairs >= 100
    verdict("03 transport agreement", True, f"{pairs} probability pairs, exact equality")


def structured(mu) -> bool:
    """No black box anywhere in mu."""
    return mu.kind != "blackbox" and all(map(structured, mu.parts))


def ladder_tiers(scans):
    """(ladder levels by tier, the sampled pairs without a black box) of
    the (mu1, mu2, ladder) of some distances."""
    tiers = Counter()
    sampled_structured = []
    for mu1, mu2, ladder in scans:
        for _, _, tier in ladder:
            tiers[tier] += 1
            if tier in ("refutation-sampled", "witness-found") and structured(mu1) and structured(mu2):
                sampled_structured.append((mu1.kind, mu2.kind, tier))
    return tiers, sampled_structured


@pytest.mark.parametrize("name", list(SPACES))
def test_criterion_04_metric_axioms(name, monkeypatch):
    from riskdist import metric

    # every ladder level of every distance, by tier, read from the results'
    # ladders; every pair without a black box must be decided by a proof
    scans = []
    distance = metric.bottleneck_distance
    # the levels the scan decided: exact tests that answered, and probes
    decisions = Counter()
    refutes, probe = metric.refutes, metric.probe

    def scanned(mu1, mu2, *args, **kwargs):
        result = distance(mu1, mu2, *args, **kwargs)
        scans.append((mu1, mu2, result.ladder))
        return result

    def refuting(*args):
        found = refutes(*args)
        decisions["refutes"] += 1
        return found

    def probing(*args):
        decisions["probe"] += 1
        return probe(*args)

    monkeypatch.setattr(metric, "bottleneck_distance", scanned)
    monkeypatch.setattr(metric, "refutes", refuting)
    monkeypatch.setattr(metric, "probe", probing)
    space = SPACES[name]()
    report = metric_axiom_audit(space, ensemble_size=100, seed=404)
    tiers, sampled_structured = ladder_tiers(scans)
    # the hook saw every ladder level the audit decided, once
    assert sum(tiers.values()) == decisions.total() > 0
    for payload in report.discrepancies:
        # sampled-tier discrepancies must re-verify from their payloads
        assert reverify_failure(payload, {"measures": report.pool, "seed": 404}) is True
    assert report.ok, report.failures
    assert not sampled_structured, sampled_structured[:5]
    verdict(
        f"04 metric axioms [{name}]",
        report.ok,
        f"{report.instances} measures, checks {report.checks}, "
        f"{len(report.discrepancies)} archived sampled-tier discrepancies, "
        f"ladder tiers {dict(sorted(tiers.items()))}",
    )

    # a depth-2 pool: mixtures, max and min of combinations, whose pairs
    # are decided by a proof too
    scans.clear()
    pool = ensemble_pool(space, size=16, seed=404, depth=2)
    _, report = rd.distance_matrix(pool, seed=404)
    tiers, sampled_structured = ladder_tiers(scans)
    assert report.ok, report.failures
    assert not sampled_structured, sampled_structured[:5]
    kinds = Counter(mu.kind for mu in pool)
    verdict(
        f"04 depth-2 pool [{name}]",
        report.ok,
        f"{len(pool)} measures {dict(sorted(kinds.items()))}, "
        f"ladder tiers {dict(sorted(tiers.items()))}",
    )


def test_criterion_05_diameter():
    for space in fixture_spaces():
        diam = space.diameter()
        lo, hi = extremal_pair(space)
        res = rd.bottleneck_distance(lo, hi)
        assert res.value == diam
        assert rd.verify_coupling(res.witness, seed=0).ok
        pool = ensemble_pool(space, size=8, seed=505)
        for i, a in enumerate(pool):
            for b in pool[i + 1 :]:
                assert rd.bottleneck_distance(a, b, seed=505).value <= diam
    verdict("05 diameter", True, "attained by the min/max pair on every space")


def test_criterion_06_witness_optimality():
    distances = 0
    for space in fixture_spaces():
        pool = ensemble_pool(space, size=10, seed=606)
        for i, a in enumerate(pool):
            for b in pool[i + 1 :]:
                res = rd.bottleneck_distance(a, b, seed=606)
                assert rd.verify_coupling(res.witness, seed=606).ok
                assert res.witness.cost() == res.value
                statuses = [s for _, s, _ in res.ladder]
                assert statuses[-1] == "feasible"
                assert all(s == "infeasible" for s in statuses[:-1])
                distances += 1
    verdict(
        "06 witness optimality",
        True,
        f"{distances} distances: witnesses verify, support max equals value, single switch",
    )


def test_criterion_07_pointwise_gap_control():
    checked = 0
    for space in fixture_spaces():
        pool = ensemble_pool(space, size=8, seed=707)
        for i, a in enumerate(pool):
            for b in pool[i + 1 :]:
                res = rd.bottleneck_distance(a, b, seed=707)
                violations = lipschitz_control_check(a, b, res, seed=707)
                assert violations == []
                checked += 1
    verdict(
        "07 pointwise gap control",
        True,
        f"{checked} pairs, every probe within the modulus bound, exact arithmetic",
    )


def test_criterion_08_gluing():
    space = make_path3()
    prod = product_space(space, space)
    rng = derive_rng(808, "glue-triples")
    probes = probe_grid(prod, 808, 32)
    triples = 0
    while triples < 50:
        mu1 = random_capacity_measure(space, rng)
        mu2 = random_capacity_measure(space, rng)
        mu3 = random_capacity_measure(space, rng)
        m12 = as_measure(rd.bottleneck_distance(mu1, mu2, seed=808).witness)
        m23 = as_measure(rd.bottleneck_distance(mu2, mu3, seed=808).witness)
        glued = rd.glue(m12, m23, space)
        n = space.n
        for phi in probes:
            front = tuple(phi[(q // (n * n)) * n + (q % (n * n)) // n] for q in range(n**3))
            assert evaluate_values(glued, front) == evaluate_values(m12, phi)
            back = tuple(phi[q % (n * n)] for q in range(n**3))
            assert evaluate_values(glued, back) == evaluate_values(m23, phi)
        triples += 1
    verdict(
        "08 gluing",
        True,
        f"{triples} witness triples with shared middles, projection identities exact on the full grid",
    )


class Defect(NamedTuple):
    """A census defect of g: a slope outside [0, 1] on the open piece
    (lo, hi), or a jump at t = lo = hi between g(t) and its limit from
    ``side`` ("left" or "right")."""

    cls: Optional[str]  # "A" | "B" | "C", None when no documented class fits
    lo: Scalar
    hi: Scalar
    side: Optional[str] = None

    def meets(self, lo, hi) -> bool:
        """True when g restricted to the closed t-interval [lo, hi] has this
        defect."""
        if self.side == "left":
            return lo < self.lo <= hi
        if self.side == "right":
            return lo <= self.lo < hi
        return lo < self.hi and self.lo < hi


def two_point_census(params) -> list[Defect]:
    """Every defect of a family member, decided exactly.

    mu(phi) = phi0 + g(t) with t = phi1 - phi0, and g is affine between
    consecutive breakpoints {0} + shape knots + branch boundaries, so mu is
    monotone iff g is continuous with every slope in [0, 1].  Each piece is
    read at two interior points; one-sided limits extrapolate the piece's
    affine form to its ends.  Classes follow the twopoint module docstring:
    A is a jump where the fallback flag changes, B a jump between covered
    branches at a finite nonzero boundary where the shape does not vanish,
    C a slope above 1 on branch 4 whose weight exceeds a1.
    """
    a1, a2, a3, a4 = params.alphas
    boundaries = branch_boundaries(params)
    points = sorted({F(0), *boundaries, *(t for t, _ in params.shape.knots)})
    ends = [NEG_INF, *points, POS_INF]
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        if lo == NEG_INF:
            x1, x2 = hi - 2, hi - 1
        elif hi == POS_INF:
            x1, x2 = lo + 1, lo + 2
        else:
            x1, x2 = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
        e1, e2 = two_point_eval(params, F(0), x1), two_point_eval(params, F(0), x2)
        state = (e1.branch, e1.gap)
        assert state == (e2.branch, e2.gap), "branch switch between breakpoints"
        slope = (e2.value - e1.value) / (x2 - x1)
        pieces.append((lo, hi, state, slope, e1.value - slope * x1))
    defects = []
    for lo, hi, state, slope, _ in pieces:
        if not 0 <= slope <= 1:
            c = state == (4, False) and slope > 1 and min(a1 + a4, a2 + a3) > a1
            defects.append(Defect("C" if c else None, lo, hi))
    for b, left, right in zip(points, pieces, pieces[1:]):
        here = two_point_eval(params, F(0), b)
        for side, (_, _, state, slope, cut) in (("left", left), ("right", right)):
            if slope * b + cut == here.value:
                continue
            if state[1] != here.gap:
                cls = "A"
            elif b in boundaries and b != 0 and params.shape(b) != 0 and state[0] != here.branch:
                cls = "B"
            else:
                cls = None
            defects.append(Defect(cls, b, b, side))
    return defects


def recheck_two_point_violation(violation, params):
    """Re-derive an axiom violation from its witness in exact arithmetic.

    Returns the functions it evaluated, the closed interval of t = phi1 - phi0
    they span, and whether an evaluation went through the uncovered-branch
    fallback.  A monotone pair that drops, or a value outside
    [min phi, max phi], forces a jump or a slope outside [0, 1] of g
    somewhere on that interval.  The family is translation invariant and
    normed by construction, so a violation of either fails here.
    """
    wit = violation.witness
    if violation.axiom == "monotonicity":
        points = (wit["lo"], wit["hi"])
        assert all(a <= b for a, b in zip(*points))
    elif violation.axiom == "value-envelope":
        points = (wit["phi"],)
    else:
        raise AssertionError(f"{violation.axiom} violation: {wit}")
    assert all(isinstance(v, (int, Fraction)) for phi in points for v in phi)
    evals = [two_point_eval(params, phi[0], phi[1]) for phi in points]
    assert tuple(e.value for e in evals) == violation.values
    if violation.axiom == "monotonicity":
        assert evals[0].value > evals[1].value
        ts = [phi[1] - phi[0] for phi in points]
    else:
        assert not min(points[0]) <= evals[0].value <= max(points[0])
        ts = [0, points[0][1] - points[0][0]]
    return points, min(ts), max(ts), any(e.gap for e in evals)


def test_criterion_09_two_point_family():
    space = make_two_point()
    rng = derive_rng(909, "family")
    per_class = Counter()
    archive = {cls: [] for cls in "ABC"}
    defective = caught = rechecked = 0
    for index in range(1000):
        params = random_two_point_params(rng)
        defects = two_point_census(params)
        assert all(d.cls for d in defects), (params, defects)
        defective += bool(defects)
        per_class.update({d.cls for d in defects})
        mu = rd.two_point_measure(space, params)
        report = rd.verify_axioms(mu, seed=index)
        assert report.method == "exact"
        assert report.ok == (not defects), (params, defects, report.violations)
        if report.ok:
            continue
        caught += 1
        reported = set()
        for violation in report.violations:
            points, lo, hi, gap = recheck_two_point_violation(violation, params)
            met = {d for d in defects if d.meets(lo, hi)}
            assert met, (params, violation, defects)
            reported |= met
            rechecked += 1
            classes = sorted({d.cls for d in met})
            for cls in classes:
                if len(archive[cls]) < 2:
                    archive[cls].append(
                        {
                            "params": {
                                "alphas": [str(a) for a in params.alphas],
                                "lambdas": [str(l) for l in params.lambdas],
                                "knots": [[str(t), str(y)] for t, y in params.shape.knots],
                            },
                            "axiom": violation.axiom,
                            "witness": [[str(v) for v in phi] for phi in points],
                            "t-interval": [str(lo), str(hi)],
                            "classes": classes,
                            "gap-involved": gap,
                        }
                    )
        assert reported == set(defects), (params, defects, report.violations)
    verdict(
        "09 two-point family",
        True,
        f"census: {defective}/1000 parameter sets defective "
        f"(A fallback jump {per_class['A']}, B covered-branch jump {per_class['B']}, "
        f"C branch-4 slope {per_class['C']}); exact tier caught {caught}/{defective} "
        f"with 0 false alarms; {rechecked} violations re-check exactly inside a census defect",
    )
    for cls, entries in archive.items():
        print(f"archived class-{cls} counterexamples (first {len(entries)}):")
        print(json.dumps(entries, indent=2))


def test_criterion_10_convergence_audit():
    space = make_path3()
    terms, limit = drifting_mixture_sequence(space, 0, 2, count=8)
    report = rd.convergence_audit(terms, limit, seed=1010)
    rows = report.stats["rows"]
    gaps = [r["pointwise-gap"] for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    diam = space.diameter()
    assert all(r["metric"] == diam for r in rows)
    assert all(r["support-gap"] == diam for r in rows)
    assert report.discrepancies, "the archived instance must be flagged"
    assert not report.failures, "the one-sided gap bound must never break"

    # the bound also holds on a constant and on a limit-reaching sequence
    for extra_terms, extra_limit in (
        ([rd.dirac(space, 1)] * 4, rd.dirac(space, 1)),
        _reaching_sequence(space),
    ):
        extra = rd.convergence_audit(extra_terms, extra_limit, seed=1010)
        assert not extra.failures
    verdict(
        "10 convergence audit",
        True,
        "drift instance flagged (gaps shrink, metric and support gaps stay at the diameter); "
        "gap bound holds on every instance; the bottleneck distance cannot generate the "
        "pointwise topology, since on expectations it is W-infinity, and "
        "(1 - 1/n) dirac(base) + (1/n) dirac(far) converges pointwise while W-infinity "
        "stays at d(base, far)",
    )


def _reaching_sequence(space):
    rng = derive_rng(1011, "reach")
    v0 = random_capacity(space, rng)
    w = random_capacity(space, rng)
    terms = [
        rd.choquet_measure(rd.mix_capacities((1 - eps, eps), (v0, w)))
        for eps in (F(1, 2), F(1, 4), F(1, 8), F(0))
    ]
    return terms, rd.choquet_measure(v0)


def test_criterion_11_support_semantics():
    instances = 0
    for space in (make_path3(), make_cycle4()):
        rng = derive_rng(1101, f"supp-{space.n}")
        target = make_path3()
        for _ in range(25):
            mu = random_measure(space, rng)
            fmap = tuple(rng.randrange(target.n) for _ in range(space.n))
            out = pushforward(fmap, mu, target)
            image = 0
            for i in rd.support(mu, seed=1101).indices():
                image |= 1 << fmap[i]
            assert rd.support(out, seed=1101).mask & ~image == 0
            instances += 1

    # archived strict-inclusion instance: the evaluator reads the corner or
    # the anti-diagonal minimum, its left pushforward is a plain point mass
    two = make_two_point()
    prod = product_space(two, two)
    xi = rd.black_box(prod, lambda chi: max(chi[0], min(chi[1], chi[2])), name="corner")
    assert rd.verify_axioms(xi, seed=11).ok
    pushed = pushforward(left_projection_map(two, two), xi, two)
    support_of_image = rd.support(pushed, seed=11).mask
    image_of_support = 0
    for p in rd.support(xi, seed=11).indices():
        image_of_support |= 1 << (p // 2)
    assert support_of_image == 0b01
    assert image_of_support == 0b11
    assert support_of_image & ~image_of_support == 0
    assert support_of_image != image_of_support

    # capacity-tier supports: the null-point fast path equals the exhaustive
    # subset scan on every fixture space up to six points
    scanned = 0
    for space in fixture_spaces():
        rng = derive_rng(1102, f"fast-{space.n}")
        for _ in range(10):
            cap = random_capacity(space, rng)
            assert cap.support_mask() == exhaustive_support_mask(cap)
            scanned += 1
    verdict(
        "11 support semantics",
        True,
        f"{instances} pushforward inclusions, strict-inclusion instance reproduced, "
        f"{scanned} fast-path supports match exhaustive search",
    )
