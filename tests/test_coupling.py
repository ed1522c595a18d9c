import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

import riskdist as rd
from riskdist.coupling import (
    probe,
    section_minima,
    triple_projection_map,
    triple_space,
)
from riskdist.ensembles import derive_rng, random_capacity, random_capacity_measure
from riskdist.errors import EmptySection, MarginalMismatch
from riskdist.measures import evaluate_values, pushforward, equal_measures
from riskdist.oracles import ProbabilityVector, random_relation, strassen_feasible
from riskdist.space import (
    Relation,
    full_relation,
    left_projection_map,
    product_space,
    right_projection_map,
    sublevel_relation,
)

from conftest import as_measure

F = Fraction


def product_values(space, fn):
    n = space.n
    return tuple(fn(i, j) for i in range(n) for j in range(n))


class TestMinEnvelope:
    def test_diagonal_restores_the_function(self, p3):
        diag = sublevel_relation(p3, 0)
        prod = product_space(p3, p3)
        chi = rd.PointFunction(prod, product_values(p3, lambda i, j: F(i * 2)))
        env = rd.min_envelope(chi, diag, "left")
        assert env.values == (0, 2, 4)

    def test_full_relation_gives_constant_min(self, p3):
        full = full_relation(p3, p3)
        prod = product_space(p3, p3)
        psi = (5, -1, 3)
        chi = rd.PointFunction(prod, product_values(p3, lambda i, j: F(psi[j])))
        env = rd.min_envelope(chi, full, "left")
        assert env.values == (-1, -1, -1)

    def test_distance_over_radius_one_sublevel(self, p3):
        rel = sublevel_relation(p3, 1)
        prod = product_space(p3, p3)
        chi = rd.PointFunction(prod, product_values(p3, lambda i, j: p3.d(i, j)))
        env = rd.min_envelope(chi, rel, "left")
        assert env.values == (0, 0, 0)

    def test_empty_section_raises(self, p3):
        rel = Relation.from_pairs(p3, p3, [(0, 0)])
        prod = product_space(p3, p3)
        chi = rd.PointFunction(prod, product_values(p3, lambda i, j: F(0)))
        with pytest.raises(EmptySection):
            rd.min_envelope(chi, rel, "left")

    def test_max_envelope_mirrors(self, p3):
        # section maxima are the negated minima of the negated function
        full = full_relation(p3, p3)
        prod = product_space(p3, p3)
        psi = (5, -1, 3)
        neg = rd.PointFunction(prod, product_values(p3, lambda i, j: F(-psi[j])))
        env = rd.min_envelope(neg, full, "left")
        assert tuple(-v for v in env.values) == (5, 5, 5)


class TestAdmissible:
    def test_point_masses_on_the_diagonal(self, p3):
        verdict = rd.admissible(
            rd.dirac(p3, "a"), rd.dirac(p3, "a"), sublevel_relation(p3, 0)
        )
        assert verdict.feasible and verdict.tier == "dirac"

    def test_far_point_masses_within_radius_one(self, p3):
        verdict = rd.admissible(
            rd.dirac(p3, "a"), rd.dirac(p3, "c"), sublevel_relation(p3, 1)
        )
        assert verdict.status == "infeasible"
        assert verdict.certificate["kind"] == "pair-outside-support"

    def test_expectation_pair_refuted_with_certificate(self, p3):
        mu1 = rd.choquet_measure(rd.expectation(p3, (F(1), F(0), F(0))))
        mu2 = rd.choquet_measure(rd.expectation(p3, (F(1, 2), F(0), F(1, 2))))
        rel = sublevel_relation(p3, 1)
        verdict = rd.admissible(mu1, mu2, rel)
        assert verdict.status == "infeasible"
        cert = verdict.certificate
        assert cert["kind"] == "envelope-domination"
        # the certificate re-verifies from its payload
        assert_certificate_rechecks(mu1, mu2, rel, cert)

    def test_agrees_with_transport_oracle(self, cycle4):
        rng = derive_rng(41, "vs-oracle")
        for _ in range(40):
            p = ProbabilityVector(
                cycle4, tuple_simplex(rng, 4)
            )
            q = ProbabilityVector(cycle4, tuple_simplex(rng, 4))
            rel = random_relation(cycle4, rng, density=rng.choice((0.3, 0.6)))
            want = strassen_feasible(p, q, rel)
            got = rd.admissible(
                rd.choquet_measure(rd.expectation(cycle4, p.weights)),
                rd.choquet_measure(rd.expectation(cycle4, q.weights)),
                rel,
            )
            assert got.feasible == want

    def test_monotone_in_the_relation(self, cycle4):
        rng = derive_rng(43, "monotone-s")
        for _ in range(25):
            mu1 = random_capacity_measure(cycle4, rng)
            mu2 = random_capacity_measure(cycle4, rng)
            small = random_relation(cycle4, rng, density=0.4)
            extra = random_relation(cycle4, rng, density=0.3)
            big = Relation(
                cycle4,
                cycle4,
                tuple(
                    tuple(a or b for a, b in zip(r1, r2))
                    for r1, r2 in zip(small.matrix, extra.matrix)
                ),
            )
            if rd.admissible(mu1, mu2, small).feasible:
                assert rd.admissible(mu1, mu2, big).feasible

    def test_composition_stability(self, p3):
        rng = derive_rng(47, "compose")
        levels = rd.distance_levels(p3)
        from conftest import compose_relations

        for _ in range(25):
            v1 = random_capacity_measure(p3, rng)
            v2 = random_capacity_measure(p3, rng)
            v3 = random_capacity_measure(p3, rng)
            s = sublevel_relation(p3, rng.choice(levels))
            r = sublevel_relation(p3, rng.choice(levels))
            if (
                rd.admissible(v1, v2, s).feasible
                and rd.admissible(v2, v3, r).feasible
            ):
                assert rd.admissible(v1, v3, compose_relations(s, r)).feasible

    def test_exact_and_sampled_never_contradict(self, p3):
        rng = derive_rng(53, "tiers")
        for _ in range(12):
            cap1 = random_capacity(p3, rng)
            cap2 = random_capacity(p3, rng)
            mu1 = rd.choquet_measure(cap1)
            mu2 = rd.choquet_measure(cap2)
            shadow1 = rd.black_box(p3, cap1.choquet, name="shadow1")
            shadow2 = rd.black_box(p3, cap2.choquet, name="shadow2")
            rel = random_relation(p3, rng, density=0.6)
            exact = rd.admissible(mu1, mu2, rel)
            sampled = rd.admissible(shadow1, shadow2, rel, seed=9)
            assert sampled.tier in ("refutation-sampled", "witness-found")
            assert exact.feasible == sampled.feasible

    def test_empty_relation_is_infeasible(self, p3):
        rel = Relation.from_pairs(p3, p3, [])
        verdict = rd.admissible(
            rd.choquet_measure(rd.expectation(p3, (F(1, 3),) * 3)),
            rd.dirac(p3, "a"),
            rel,
        )
        assert verdict.status == "infeasible"


def random_lattice(space, rng):
    """A random max or min of 2-3 capacities, sometimes nested one deep."""
    parts = [rd.choquet_measure(random_capacity(space, rng)) for _ in range(rng.randint(2, 3))]
    pick = rng.choice((rd.lattice_max, rd.lattice_min))
    if rng.random() < 0.2:
        other = rd.lattice_max if pick is rd.lattice_min else rd.lattice_min
        return pick([other(parts[:2]), *parts[2:], rd.dirac(space, 0)])
    return pick(parts)


def shadow(mu):
    """A black-box copy: the same values, no capacity and no normal form."""
    return rd.black_box(mu.space, lambda values: evaluate_values(mu, values), name="shadow")


def assert_certificate_rechecks(mu1, mu2, s, certificate):
    """An envelope-domination certificate re-checks by evaluation."""
    from riskdist.coupling import section_minima

    left = certificate["side"] == "left"
    mua, mub = (mu1, mu2) if left else (mu2, mu1)
    lists = s.section_lists if left else s.inv_section_lists
    psi = certificate["psi"]
    lhs = evaluate_values(mua, section_minima(psi, lists))
    rhs = evaluate_values(mub, psi)
    assert lhs > rhs and (lhs, rhs) == certificate["values"]


def reference_positive_combination(rows):
    """The phase-one simplex of ``coupling._positive_combination`` in
    ``Fraction``s, with Bland's rule and the same ratio-test tie-break:
    sum_k rows[k][c] t_k - s_c + r_c = 1 with surplus s and artificial r,
    minimising sum r; None when the minimum is positive."""
    K, C = len(rows), len(rows[0])
    width = K + 2 * C
    one, zero = Fraction(1), Fraction(0)
    table = []
    for c in range(C):
        line = [Fraction(row[c]) for row in rows] + [zero] * (2 * C) + [one]
        line[K + c] = -one
        line[K + C + c] = one
        table.append(line)
    basis = [K + C + c for c in range(C)]
    # reduced costs of sum r over the starting basis, the value negated last
    cost = [-sum(line[v] for line in table) for v in range(width + 1)]
    for c in range(C):
        cost[K + C + c] = zero
    while True:
        enter = next((v for v in range(width) if cost[v] < 0), None)
        if enter is None:
            break
        leave = None
        for c, line in enumerate(table):
            if line[enter] > 0:
                ratio = line[-1] / line[enter]
                if leave is None or (ratio, basis[c]) < (best, basis[leave]):
                    leave, best = c, ratio
        pivot = table[leave]
        factor = pivot[enter]
        pivot[:] = [x / factor for x in pivot]
        for line in (*table, cost):
            if line is not pivot and line[enter]:
                f = line[enter]
                line[:] = [x - f * y for x, y in zip(line, pivot)]
        basis[leave] = enter
    if cost[-1]:
        return None
    t = [zero] * K
    for c, v in enumerate(basis):
        if v < K:
            t[v] = table[c][-1]
    return t


@pytest.fixture
def counted_lp(monkeypatch):
    """Records each exact LP the lattice tier solves, with its answer."""
    from riskdist import coupling

    calls = []
    real = coupling._positive_combination

    def counting(rows):
        t = real(rows)
        calls.append((rows, t))
        return t

    monkeypatch.setattr(coupling, "_positive_combination", counting)
    return calls


class TestExactLatticeTier:
    def test_agrees_with_the_sampled_tier_on_black_box_shadows(self, p3, cycle4):
        from conftest import make_star5

        decided = Counter()
        for space in (p3, cycle4, make_star5()):
            rng = derive_rng(83, f"lattice-tier-{space.n}")
            for _ in range(40):
                mu1 = random_lattice(space, rng)
                mu2 = random_lattice(space, rng) if rng.random() < 0.7 else random_capacity_measure(space, rng)
                if rng.random() < 0.2:
                    rel = random_relation(space, rng, density=0.5)
                else:
                    # reflexive, as on the ladder, plus random pairs
                    level = rng.choice(rd.distance_levels(space))
                    rel = Relation.from_pairs(space, space, [
                        (i, j) for i in range(space.n) for j in range(space.n)
                        if space.d(i, j) <= level or rng.random() < 0.2
                    ])
                exact = rd.admissible(mu1, mu2, rel)
                inside = rel.left_projection == rel.right_projection == space.full_mask
                if inside:
                    assert exact.tier == "exact-lattice"
                if exact.tier != "exact-lattice":
                    continue
                decided[exact.status] += 1
                if exact.feasible:
                    assert exact.witness.support == rel
                else:
                    assert_certificate_rechecks(mu1, mu2, rel, exact.certificate)
                sampled = rd.admissible(shadow(mu1), shadow(mu2), rel, seed=9)
                assert sampled.tier in ("refutation-sampled", "witness-found")
                assert exact.feasible == sampled.feasible
        assert decided["feasible"] >= 20 and decided["infeasible"] >= 20, decided

    def test_supports_outside_the_projections_stay_sampled(self, p3):
        mu = rd.lattice_max([rd.dirac(p3, "a"), rd.dirac(p3, "c")])
        # no pair leaves c, so the left projection misses part of mu's support
        rel = Relation.from_pairs(p3, p3, [(0, 0), (1, 1)])
        verdict = rd.admissible(mu, rd.dirac(p3, "a"), rel)
        assert verdict.tier in ("refutation-sampled", "witness-found")
        assert not verdict.feasible

    def test_float_distances_reach_the_lattice_tier(self):
        # JSON floats are read as the decimals they spell: the space is exact
        space = rd.validate_metric(["a", "b"], [[0, 1.0], [1.0, 0]])
        mu = rd.lattice_min([rd.dirac(space, "a"), rd.dirac(space, "b")])
        verdict = rd.admissible(mu, mu, sublevel_relation(space, 0))
        assert (verdict.status, verdict.tier) == ("feasible", "exact-lattice")

    def test_the_lp_step_refutes(self, p3, counted_lp):
        # min(A1, A2) and the capacity B = min(A1(U), A2(U)) agree on every
        # indicator, so the indicator scan passes at level 0; the chain
        # {a, b} > {a} switches the smaller part, so no column covers it and
        # the LP finds psi = 1_(a,b) + 1_(a)
        a1 = rd.expectation(p3, (F(1, 2), F(0), F(1, 2)))
        a2 = rd.dirac_capacity(p3, 1)
        b = rd.Capacity(p3, tuple(map(min, a1.table, a2.table)))
        mu1 = rd.lattice_min([rd.choquet_measure(a1), rd.choquet_measure(a2)])
        mu2 = rd.choquet_measure(b)
        diag = sublevel_relation(p3, 0)
        verdict = rd.admissible(mu1, mu2, diag)
        assert verdict.status == "infeasible" and verdict.tier == "exact-lattice"
        assert [t is not None for _, t in counted_lp] == [True]
        assert verdict.certificate["psi"] == (2, 1, 0)
        assert_certificate_rechecks(mu1, mu2, diag, verdict.certificate)
        assert not rd.admissible(shadow(mu1), shadow(mu2), diag, seed=1).feasible
        res = rd.bottleneck_distance(mu1, mu2)
        assert (res.value, res.certification, res.tier) == (1, "exact", "exact-lattice")
        assert rd.verify_coupling(res.witness, seed=3).ok

    def test_lp_against_grid_searches_of_both_alternatives(self):
        # on small integer games a grid over t finds a solution, or a grid
        # over convex lambda finds Ville's certificate that none exists
        from itertools import product

        from riskdist.coupling import _positive_combination

        rng = derive_rng(97, "ville")
        grid = range(7)
        decided = 0
        for _ in range(150):
            k, c = rng.randint(1, 4), rng.randint(2, 3)
            rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(k)]
            t = _positive_combination(rows)
            if t is not None:
                assert all(x >= 0 for x in t)
                assert all(sum(x * row[j] for x, row in zip(t, rows)) >= 1 for j in range(c))
            primal = any(
                all(sum(x * row[j] for x, row in zip(w, rows)) > 0 for j in range(c))
                for w in product(grid, repeat=k)
            )
            dual = any(
                any(lam) and all(sum(l * v for l, v in zip(lam, row)) <= 0 for row in rows)
                for lam in product(grid, repeat=c)
            )
            assert not (primal and dual)
            if primal or dual:
                decided += 1
                assert (t is not None) == primal
        assert decided >= 140

    def test_the_integer_lp_returns_what_the_fraction_lp_returns(self):
        # repeated entries and duplicated columns (a tie in the first ratio
        # test), next to random integer games; the rows are ints, as the
        # chain step builds them
        from riskdist.coupling import _positive_combination

        rng = derive_rng(101, "integer-lp")
        answers = Counter()
        for i in range(2400):
            k, c = rng.randint(1, 5), rng.randint(1, 5)
            entries = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
            rows = [
                [rng.choice(entries) if rng.random() < 0.5 else rng.randint(-6, 6) for _ in range(c)]
                for _ in range(k)
            ]
            if i % 4 == 1:
                rows = [row + row[:1] for row in rows]
            want = reference_positive_combination(rows)
            got = _positive_combination(rows)
            assert got == want, rows
            if want is not None:
                assert all(type(x) is Fraction for x in got)
                assert [(x.numerator, x.denominator) for x in got] == [
                    (x.numerator, x.denominator) for x in want
                ]
            answers[want is None] += 1
        assert answers[True] >= 500 and answers[False] >= 500, answers

    def test_chain_budget_sends_the_pair_to_the_sampled_tier(self, p3, monkeypatch):
        from riskdist import coupling

        a1 = rd.expectation(p3, (F(1, 2), F(0), F(1, 2)))
        a2 = rd.dirac_capacity(p3, 1)
        b = rd.Capacity(p3, tuple(map(min, a1.table, a2.table)))
        mu1 = rd.lattice_min([rd.choquet_measure(a1), rd.choquet_measure(a2)])
        mu2 = rd.choquet_measure(b)
        monkeypatch.setattr(coupling, "CHAIN_BUDGET", 0)
        verdict = rd.admissible(mu1, mu2, sublevel_relation(p3, 0))
        assert verdict.tier == "refutation-sampled" and not verdict.feasible

    def test_the_lp_step_proves(self, p3, counted_lp):
        # two chains stay uncovered, and on both no t >= 0 makes every
        # column positive, so the pair is feasible by Ville's alternative
        def cap(*entries):
            return rd.Capacity(p3, tuple(F(e) for e in entries))

        a1 = cap(0, "3/14", "1/14", 1, "5/7", "5/7", "5/7", 1)
        a2 = cap(0, "4/11", "6/11", "10/11", "1/11", "5/11", "7/11", 1)
        b = cap(0, "39/112", "1/16", "41/44", 0, "93/176", "1/16", 1)
        mu1 = rd.lattice_min([rd.choquet_measure(a1), rd.choquet_measure(a2)])
        mu2 = rd.choquet_measure(b)
        rel = Relation.from_pairs(p3, p3, [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2)])
        verdict = rd.admissible(mu1, mu2, rel)
        assert verdict.status == "feasible" and verdict.tier == "exact-lattice"
        assert len(counted_lp) == 2 and all(t is None for _, t in counted_lp)
        assert rd.verify_coupling(verdict.witness, samples=256, seed=3).ok
        assert rd.admissible(shadow(mu1), shadow(mu2), rel, seed=1).feasible


def test_a_ladder_scan_builds_no_certificate(monkeypatch):
    # an exact route is scanned by ``refutes`` alone: a star5 lattice pair
    # refuted at three or more levels builds no ``FeasibilityVerdict`` while
    # it is scanned, and ``admissible`` at each refuted level gives a
    # certificate that re-checks
    from conftest import make_star5
    from riskdist import coupling
    from riskdist.space import sublevel_ladder

    space = make_star5()
    built = []
    real = coupling.FeasibilityVerdict

    def recording(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    rng = derive_rng(2021, "lazy-certificates")
    for _ in range(40):
        mu1, mu2 = random_lattice(space, rng), random_lattice(space, rng)
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(coupling, "FeasibilityVerdict", recording)
            res = rd.bottleneck_distance(mu1, mu2, check_axioms=False)
        refuted = [row for row in res.ladder if row[1] == "infeasible"]
        if len(refuted) >= 3:
            break
    assert len(refuted) >= 3 and res.tier == "exact-lattice"
    assert {tier for _, _, tier in refuted} == {"exact-lattice"}
    assert not built
    relations = dict(sublevel_ladder(space))
    for level, _, _ in refuted:
        s = relations[level]
        verdict = rd.admissible(mu1, mu2, s)
        cert = verdict.certificate
        assert (verdict.status, verdict.tier) == ("infeasible", "exact-lattice")
        assert cert["kind"] == "envelope-domination"
        assert_certificate_rechecks(mu1, mu2, s, cert)
        assert verdict == rd.admissible(mu1, mu2, s)


def test_every_envelope_domination_certificate_rechecks_by_evaluation():
    from conftest import fixture_spaces, make_two_point

    checked = Counter()
    for space in fixture_spaces():
        rng = derive_rng(107, f"certificates-{space.n}-True")
        for _ in range(24):
            mu1, mu2 = (random_capacity_measure(space, rng) for _ in range(2))
            pick = rng.random()
            if pick < 0.4:
                mu1 = random_lattice(space, rng)
            elif pick < 0.6:
                mu1, mu2 = shadow(mu1), shadow(mu2)
            s = sublevel_relation(space, rng.choice(rd.distance_levels(space)))
            verdict = rd.admissible(mu1, mu2, s, seed=5)
            cert = verdict.certificate or {}
            if cert.get("kind") != "envelope-domination":
                continue
            assert_certificate_rechecks(mu1, mu2, s, cert)
            assert cert["values"][0] > cert["values"][1]
            checked[verdict.tier] += 1
    # family members and their combinations on the two-point space, on
    # every relation with full projections
    space = make_two_point()
    rng = derive_rng(107, "certificates-family")
    for _ in range(24):
        mu1, mu2 = random_family_combo(space, rng), random_family_combo(space, rng)
        s = rng.choice(full_projection_relations(space))
        verdict = rd.admissible(mu1, mu2, s, seed=5)
        cert = verdict.certificate or {}
        if cert.get("kind") == "envelope-domination":
            assert_certificate_rechecks(mu1, mu2, s, cert)
            checked[verdict.tier] += 1
    for tier in ("exact-choquet", "exact-lattice", "exact-two-point", "refutation-sampled"):
        assert checked[tier] >= 5, checked


def tuple_simplex(rng, k):
    raw = [rng.randint(0, 6) for _ in range(k)]
    if not sum(raw):
        raw[0] = 1
    total = sum(raw)
    return tuple(F(r, total) for r in raw)


def full_projection_relations(space):
    """Every relation on the space with both projections full."""
    pairs = [(i, j) for i in range(space.n) for j in range(space.n)]
    out = []
    for mask in range(1, 1 << len(pairs)):
        s = Relation.from_pairs(space, space, [p for b, p in enumerate(pairs) if mask >> b & 1])
        if s.left_projection == s.right_projection == space.full_mask:
            out.append(s)
    return out


def random_family_combo(space, rng):
    """A sound family member, or a max, min or mixture of one with a
    capacity or another member."""
    from test_twopoint import random_family_member

    mu = random_family_member(space, rng)
    pick = rng.random()
    if pick < 0.4:
        return mu
    other = rng.choice((random_family_member, random_capacity_measure))(space, rng)
    if pick < 0.6:
        return rd.mixture((F(1, 4), F(3, 4)), [mu, other])
    return (rd.lattice_max if pick < 0.8 else rd.lattice_min)([mu, other])


def reference_decide_two_point(mu1, mu2, s):
    """The two-point decider by evaluation, the reference for the lookup
    tables of ``_two_point_refutation``: (status, certificate).  Each side's
    gap is evaluated at psi = (0, t) for t in T and one step past each end,
    and a ray on which the gap rises refutes at the first whole step where
    it turns positive."""
    zero = F(0)
    kinks = {zero, *mu1.breakpoints, *mu2.breakpoints}
    points = sorted({*kinks, *(-t for t in kinks)})
    points = (points[0] - 1, *points, points[-1] + 1)
    for side, mua, mub, lists in (
        ("left", mu1, mu2, s.section_lists),
        ("right", mu2, mu1, s.inv_section_lists),
    ):
        def certificate(t):
            psi = (zero, t)
            values = (evaluate_values(mua, section_minima(psi, lists)), evaluate_values(mub, psi))
            return {"kind": "envelope-domination", "side": side, "psi": psi, "values": values}

        gaps = []
        for t in points:
            cert = certificate(t)
            left, right = cert["values"]
            if left > right:
                return "infeasible", cert
            gaps.append(left - right)
        for end, gap, rise, step in (
            (points[0], gaps[0], gaps[0] - gaps[1], -1),
            (points[-1], gaps[-1], gaps[-1] - gaps[-2], 1),
        ):
            if rise > 0:
                return "infeasible", certificate(end + step * (-gap // rise + 1))
    return "feasible", None


class TestTwoPointTier:
    """Pairs without normal forms on an exact two-point space, decided at
    their breakpoints."""

    def test_lookups_decide_as_the_evaluating_decider(self, two_point):
        from test_twopoint import member

        relations = full_projection_relations(two_point)
        rng = derive_rng(2020, "two-point-lookups")
        pairs = [
            (random_family_combo(two_point, rng), random_family_combo(two_point, rng))
            for _ in range(24)
        ]
        # the ray case of test_refutes_where_the_gap_rises_past_the_outer_points
        zero = F(0)
        ray = (
            member(two_point, (zero, zero, F(1), zero), (zero, F(-20), zero, zero)),
            member(two_point, (zero, zero, zero, F(1)), (zero, zero, F(10), zero)),
        )
        pairs += [ray, ray[::-1]]
        # a measure with normal forms against one without: its g is read
        # from its indicator table, not evaluated
        for _ in range(6):
            combo = random_family_combo(two_point, rng)
            pairs.append((combo, random_capacity_measure(two_point, rng)))
            pairs.append((random_lattice(two_point, rng), combo))
        kinds = Counter()
        for mu1, mu2 in pairs:
            for s in relations:
                verdict = rd.admissible(mu1, mu2, s)
                assert verdict.tier == "exact-two-point"
                status, cert = reference_decide_two_point(mu1, mu2, s)
                assert verdict.status == status
                # the same values of the same types: reports print them
                assert verdict.certificate == cert and repr(verdict.certificate) == repr(cert)
                kinds[mu1.kind, mu2.kind, status] += 1
        # past the outer points, as the ray case refutes on two relations
        assert any(
            (rd.admissible(*ray, s).certificate or {}).get("psi", (0, 0))[1] > 30
            for s in relations
        )
        for kind in ("two-point", "mixture", "max", "min"):
            assert sum(n for (k, _, _), n in kinds.items() if k == kind) >= 7, kinds
        assert sum(n for (_, k, _), n in kinds.items() if k == "choquet") >= 40, kinds
        assert sum(n for (*_, st), n in kinds.items() if st == "infeasible") >= 40, kinds
        assert sum(n for (*_, st), n in kinds.items() if st == "feasible") >= 40, kinds

    def test_decides_every_full_projection_relation(self, two_point):
        # refutations re-check, a sampled refutation is never missed, and
        # no psi = (0, t) on a fine grid refutes a feasible verdict
        relations = full_projection_relations(two_point)
        assert len(relations) == 7
        rng = derive_rng(1616, "two-point-tier")
        grid = [F(k, 8) for k in range(-320, 321)]
        statuses = Counter()
        for _ in range(12):
            mu1, mu2 = random_family_combo(two_point, rng), random_family_combo(two_point, rng)
            for s in relations:
                verdict = rd.admissible(mu1, mu2, s, seed=3)
                assert verdict.tier == "exact-two-point"
                statuses[verdict.status] += 1
                sampled = probe(mu1, mu2, s, 3)
                if verdict.feasible:
                    assert sampled.feasible
                    for side, mua, mub, lists in (
                        ("left", mu1, mu2, s.section_lists),
                        ("right", mu2, mu1, s.inv_section_lists),
                    ):
                        for t in grid:
                            psi = (F(0), t)
                            lhs = evaluate_values(mua, section_minima(psi, lists))
                            assert lhs <= evaluate_values(mub, psi), (side, t)
                    assert rd.verify_coupling(verdict.witness, samples=32, seed=3).ok
                else:
                    assert_certificate_rechecks(mu1, mu2, s, verdict.certificate)
        assert min(statuses["feasible"], statuses["infeasible"]) >= 20, statuses

    def test_refutes_where_the_gap_rises_past_the_outer_points(self, two_point):
        # S = {(x, x), (x, y), (y, y)}: for t >= 0 the left check reads
        # g1(t) = max(0, t - 20) against g2(t) = min(t, 10); both break at
        # 0, 10 and 20 only, and the gap first turns positive past t = 30
        from test_twopoint import member

        zero = F(0)
        mu1 = member(two_point, (zero, zero, F(1), zero), (zero, F(-20), zero, zero))
        mu2 = member(two_point, (zero, zero, zero, F(1)), (zero, zero, F(10), zero))
        s = Relation.from_pairs(two_point, two_point, [(0, 0), (0, 1), (1, 1)])
        verdict = rd.admissible(mu1, mu2, s)
        assert (verdict.status, verdict.tier) == ("infeasible", "exact-two-point")
        assert verdict.certificate["side"] == "left"
        assert verdict.certificate["psi"][1] > 30
        assert_certificate_rechecks(mu1, mu2, s, verdict.certificate)

    def test_black_boxes_and_gaps_stay_sampled_and_float_parameters_do_not(self, two_point):
        from test_twopoint import member

        half = (F(1, 2), F(1, 2), F(0), F(0))
        mu = member(two_point, half, knots=rd.ShapeFunction.identity().knots)
        other = member(two_point, half)
        full = sublevel_relation(two_point, F(5, 2))
        assert rd.admissible(mu, other, full).tier == "exact-two-point"
        assert rd.admissible(shadow(mu), other, full).tier == "witness-found"
        gap = Relation.from_pairs(two_point, two_point, [(0, 0), (0, 1)])
        assert rd.admissible(mu, other, gap).tier in ("witness-found", "refutation-sampled")
        # a member given float parameters holds them as Fractions, and has
        # breakpoints like any member that passes its census
        p = rd.TwoPointParams((0.5, 0.5, 0.0, 0.0), (0.0,) * 4, rd.ShapeFunction.zero())
        mu = rd.two_point_measure(two_point, p)
        verdict = rd.admissible(mu, mu, sublevel_relation(two_point, 0))
        assert verdict.tier == "exact-two-point" and verdict.feasible


def seam_pairs(space, rng):
    """Seeded pairs of each kind the tiers split on: point masses,
    capacities, lattices, a mixture with a lattice part, black-box shadows
    and, on the two-point space, family members and their combinations."""
    from test_twopoint import random_family_member

    def capacity():
        return random_capacity_measure(space, rng)

    def point():
        return rd.dirac(space, rng.randrange(space.n))

    def mixed():
        return rd.mixture((F(1, 4), F(3, 4)), [capacity(), random_lattice(space, rng)])

    pairs = [
        (point(), point()),
        (point(), point()),
        (capacity(), capacity()),
        (capacity(), point()),
        (random_lattice(space, rng), capacity()),
        (capacity(), random_lattice(space, rng)),
        (mixed(), capacity()),
        (shadow(capacity()), shadow(random_lattice(space, rng))),
    ]
    if space.n == 2:
        pairs += [
            (random_family_member(space, rng), random_family_member(space, rng)),
            (random_family_member(space, rng), point()),
        ]
        pairs += [(random_family_combo(space, rng), capacity()) for _ in range(3)]
    return pairs


def verdict_key(verdict):
    witness = verdict.witness
    return verdict.status, verdict.tier, verdict.certificate, witness and witness.support


class TestPreparedPair:
    """``admissible`` decides a pair alike from a pool of the two and from
    a pool of many measures, on every relation."""

    def test_decides_as_admissible_on_every_level_and_relation(self):
        # each pair is decided alone, from a pool of two, and inside a pool
        # of every seeded measure, whose common scale is a multiple of the
        # pair's: both give one verdict, certificate (psi and values) and
        # witness support included
        from conftest import fixture_spaces
        from riskdist.coupling import pooled, prepare_pair
        from riskdist.oracles import random_relation
        from riskdist.space import sublevel_ladder

        seen = Counter()
        for space in fixture_spaces():
            rng = derive_rng(171, f"prepared-{space.n}-True")
            ladder = sublevel_ladder(space)
            assert [t for t, _ in ladder] == rd.distance_levels(space)
            pairs = seam_pairs(space, rng)
            relations = [
                [*ladder, *((None, random_relation(space, rng)) for _ in range(3))]
                for _ in pairs
            ]
            with pooled([mu for pair in pairs for mu in pair]):
                in_pool = [prepare_pair(mu1, mu2) for mu1, mu2 in pairs]
                pooled_verdicts = [
                    [rd.admissible(mu1, mu2, rel, seed=7) for _, rel in rels]
                    for (mu1, mu2), rels in zip(pairs, relations)
                ]
            for (mu1, mu2), shared, rels, verdicts in zip(
                pairs, in_pool, relations, pooled_verdicts
            ):
                pair = prepare_pair(mu1, mu2)
                if pair.pool is not None:
                    assert shared.pool is not pair.pool
                    assert shared.pool.scale % pair.pool.scale == 0
                for (level, rel), got in zip(rels, verdicts):
                    if level is not None:
                        assert rel == sublevel_relation(space, level)
                    want = rd.admissible(mu1, mu2, rel, seed=7)
                    assert verdict_key(got) == verdict_key(want), (mu1.kind, mu2.kind, level)
                    seen[got.tier, (got.certificate or {}).get("kind")] += 1
        for key in (
            ("dirac", None),
            ("dirac", "pair-outside-support"),
            ("exact-choquet", None),
            ("exact-choquet", "support-escape"),
            ("exact-choquet", "envelope-domination"),
            ("exact-lattice", None),
            ("exact-lattice", "envelope-domination"),
            ("exact-two-point", None),
            ("exact-two-point", "envelope-domination"),
            ("witness-found", None),
            ("refutation-sampled", "support-escape"),
            ("refutation-sampled", "envelope-domination"),
        ):
            assert seen[key] >= 2, (key, seen)

    def test_a_pair_past_the_chain_budget_is_probed_at_the_same_level(self, p3, monkeypatch):
        from riskdist import coupling

        rng = derive_rng(172, "past-budget")
        a1, a2 = random_capacity(p3, rng), random_capacity(p3, rng)
        b = rd.Capacity(p3, tuple(map(min, a1.table, a2.table)))
        mu1 = rd.lattice_min([rd.choquet_measure(a1), rd.choquet_measure(a2)])
        mu2 = rd.choquet_measure(b)
        monkeypatch.setattr(coupling, "CHAIN_BUDGET", 0)
        rel = sublevel_relation(p3, 0)
        with coupling.pooled([mu1, mu2, rd.choquet_measure(a1)]):
            got = rd.admissible(mu1, mu2, rel, seed=3)
        assert got.tier == "refutation-sampled"
        assert verdict_key(got) == verdict_key(rd.admissible(mu1, mu2, rel, seed=3))
        assert verdict_key(got) == verdict_key(probe(mu1, mu2, rel, 3))

    def test_scan_tables_order_every_entry_pair_as_the_values_do(self, p3):
        # scales 2 and 2 (equal), 2 and 4 (nested), 4 and 3 (coprime), and
        # a lattice of scale 6 against a capacity of scale 4
        from riskdist.coupling import prepare_pair
        from riskdist.measures import indicators

        def value(mu, b):  # mu(1_B), by evaluation
            return evaluate_values(mu, tuple([F(b >> x & 1) for x in range(3)]))

        half = rd.choquet_measure(rd.expectation(p3, (F(1, 2), F(0), F(1, 2))))
        quarter = rd.choquet_measure(rd.expectation(p3, (F(1, 4), F(1, 4), F(1, 2))))
        third = rd.choquet_measure(rd.expectation(p3, (F(1, 3),) * 3))
        lattice = rd.lattice_min([half, rd.lattice_max([third, rd.dirac(p3, "b")])])
        assert indicators(lattice)[1] == 6
        for mu1, mu2 in ((half, half), (half, quarter), (quarter, third), (lattice, quarter)):
            pair = prepare_pair(mu1, mu2)
            for (a, b), (ma, mb) in zip(pair.scan, ((mu1, mu2), (mu2, mu1))):
                for x in range(8):
                    for u in range(8):
                        va, vb = value(ma, x), value(mb, u)
                        assert (a[x] > b[u]) == (va > vb), (x, u)
                        assert (a[x] == b[u]) == (va == vb), (x, u)
            if indicators(mu1)[1] == indicators(mu2)[1]:
                assert pair.scan[0][0] is indicators(mu1)[0]

    def test_each_measure_keeps_the_reach_of_its_normal_form(self, p3):
        # a lattice's stored reach is the union of the supports of the
        # capacities in its max-of-min form, which prepare_pair reads
        from functools import reduce
        from operator import or_

        from riskdist.coupling import prepare_pair
        from riskdist.measures import normal_forms, reach

        def union(mu):
            return reduce(or_, (c.support_mask() for row in normal_forms(mu)[0] for c in row))

        ends = rd.choquet_measure(rd.expectation(p3, (F(1, 2), F(0), F(1, 2))))
        a, b = rd.dirac(p3, "a"), rd.dirac(p3, "b")
        high, low = rd.lattice_max([a, b]), rd.lattice_min([b, ends])
        nested = rd.lattice_max([rd.lattice_min([a, b]), low])
        expected = {ends: 0b101, high: 0b011, low: 0b111, nested: 0b111, b: 0b010}
        for mu, mask in expected.items():
            assert reach(mu) == union(mu) == mask
        assert reach(rd.black_box(p3, max)) is None
        assert prepare_pair(high, nested).reach == (0b011, 0b111)


class TestSampledTier:
    def test_witness_found_witnesses_pass_the_probe_check(self, p3, cycle4):
        # the 32-probe verify_coupling the tier ran on every witness before
        # it returned one; its scan now covers that check
        from conftest import make_star5

        found = 0
        for space in (p3, cycle4, make_star5()):
            rng = derive_rng(89, f"sampled-tier-{space.n}")
            for seed in range(30):
                pick = (random_lattice, random_capacity_measure)
                mu1, mu2 = (rng.choice(pick)(space, rng) for _ in range(2))
                if rng.random() < 0.3:
                    rel = random_relation(space, rng, density=0.6)
                else:
                    rel = sublevel_relation(space, rng.choice(rd.distance_levels(space)))
                verdict = rd.admissible(shadow(mu1), shadow(mu2), rel, seed=seed)
                if verdict.tier == "witness-found":
                    found += 1
                    assert rd.verify_coupling(verdict.witness, samples=32, seed=seed).ok
        assert found >= 20, found

    def test_every_caller_scans_one_grid_that_starts_with_the_probe_checks_grid(
        self, monkeypatch
    ):
        # admissible, a distance and a matrix scan the same grid, and
        # verify_coupling's marginal grid at its default size is a prefix
        from conftest import fixture_spaces
        from riskdist import coupling
        from riskdist.measures import probe_grid

        grids = []

        def recorded(space, seed, randoms):
            grids.append(probe_grid(space, seed, randoms))
            return grids[-1]

        monkeypatch.setattr(coupling, "probe_grid", recorded)
        for space in fixture_spaces():
            mu = shadow(rd.choquet_measure(rd.expectation(space, (F(1, space.n),) * space.n)))
            for seed in (0, 5):
                scanned = probe_grid(space, seed, coupling.REFUTATION_RANDOMS)
                grids.clear()
                verdict = rd.admissible(mu, mu, sublevel_relation(space, 0), seed=seed)
                rd.bottleneck_distance(mu, mu, seed=seed, check_axioms=False)
                rd.distance_matrix([mu], seed=seed)
                assert verdict.tier == "witness-found"
                assert grids and all(grid == scanned for grid in grids)
                grids.clear()
                assert rd.verify_coupling(verdict.witness, seed=seed).ok
                assert len(grids) == 2
                for grid in grids:
                    assert scanned[: len(grid)] == grid

    def test_a_support_escape_probes_each_outside_point_once(self, two_point, monkeypatch):
        # the family member reads y, which the relation's left projection
        # misses: y alone is probed, on one stream, and its pair refutes;
        # the Dirac at y on the right has no non-null point outside {y}
        from riskdist import measures

        probed = []
        search = measures._separating_pair

        def counted(mu, i, rng):
            probed.append((mu.kind, i))
            return search(mu, i, rng)

        monkeypatch.setattr(measures, "_separating_pair", counted)
        member = rd.two_point_measure(
            two_point,
            rd.TwoPointParams(
                (F(1, 2), F(1, 2), F(0), F(0)),
                (F(0), F(0), F(0), F(0)),
                rd.ShapeFunction(((F(0), F(0)), (F(1), F(1)))),
            ),
        )
        rel = Relation.from_pairs(two_point, two_point, [(0, 1)])
        verdict = rd.admissible(member, rd.dirac(two_point, "y"), rel)
        assert (verdict.status, verdict.tier) == ("infeasible", "refutation-sampled")
        cert = verdict.certificate
        assert (cert["kind"], cert["side"], cert["point"]) == ("support-escape", "left", 1)
        assert probed == [("two-point", 1)]
        lo, hi = cert["separating"]
        assert lo[0] == hi[0] and evaluate_values(member, lo) != evaluate_values(member, hi)

    def test_a_support_escape_the_pair_probes_miss_gets_the_trim_certificate(
        self, p3, monkeypatch
    ):
        # max(phi) reads c, which the relation's projections miss, yet
        # passes (b) and (c): max over {a, b} is below max and equals
        # itself.  With the pair probes finding nothing, the trim loop
        # refutes on the first probe whose maximum sits at c alone.
        from riskdist import coupling

        monkeypatch.setattr(coupling, "separating_pairs", lambda *args, **kwargs: iter(()))
        mu = shadow(rd.choquet_measure(rd.possibility(p3)))
        rel = Relation.from_pairs(p3, p3, [(0, 0), (1, 1)])
        verdict = rd.admissible(mu, mu, rel)
        assert (verdict.status, verdict.tier) == ("infeasible", "refutation-sampled")
        cert = verdict.certificate
        assert (cert["kind"], cert["side"]) == ("support-escape", "left")
        psi, trim = cert["separating"]
        assert psi == (0, 0, 1) and trim == (0, 0, 0)
        assert psi[:2] == trim[:2] and trim[2] == max(psi[:2])
        values = (evaluate_values(mu, psi), evaluate_values(mu, trim))
        assert values == cert["values"] and values[0] != values[1]


class TestLowerCoupling:
    def test_point_mass_pair_is_the_product_point_mass(self, p3):
        s = sublevel_relation(p3, 2)
        w = rd.lower_coupling(rd.dirac(p3, "a"), rd.dirac(p3, "c"), s)
        rng = derive_rng(59, "dirac-witness")
        for _ in range(20):
            chi = tuple(rng.randint(-9, 9) for _ in range(9))
            assert w.evaluate_values(chi) == chi[0 * 3 + 2]
        assert w.support.pairs() == [(0, 2)]

    def test_diagonal_coupling_evaluates_on_the_diagonal(self, p3):
        rng = derive_rng(61, "diag-witness")
        mu = random_capacity_measure(p3, rng)
        w = rd.lower_coupling(mu, mu, sublevel_relation(p3, 0))
        for _ in range(20):
            chi = tuple(rng.randint(-9, 9) for _ in range(9))
            diag = (chi[0], chi[4], chi[8])
            assert w.evaluate_values(chi) == evaluate_values(mu, diag)

    def test_expectation_diagonal_on_a_corner_indicator(self, two_point):
        mu = rd.choquet_measure(rd.expectation(two_point, (F(1, 2), F(1, 2))))
        w = rd.lower_coupling(mu, mu, sublevel_relation(two_point, 0))
        chi = (1, 0, 0, 0)
        assert w.evaluate_values(chi) == F(1, 2)

    def test_the_product_space_is_not_a_field(self, p3):
        s = sublevel_relation(p3, 0)
        mu = rd.dirac(p3, "a")
        assert [f.name for f in dataclasses.fields(rd.CouplingWitness)] == [
            "left", "right", "support",
        ]
        assert rd.CouplingWitness(mu, mu, s).product is product_space(p3, p3)
        with pytest.raises(TypeError):
            rd.CouplingWitness(mu, mu, s, product=product_space(p3, p3))

    def test_cost_is_max_distance_over_support(self, p3):
        s = sublevel_relation(p3, 1)
        mu = rd.choquet_measure(rd.expectation(p3, (F(1, 3),) * 3))
        assert rd.lower_coupling(mu, mu, s).cost() == 1

    def test_cost_is_the_maximum_on_every_ladder_level(self):
        # the integer ranks give the maximum distance over the support; 1
        # and 1 + 1e-12 are two distances and two levels
        from conftest import fixture_spaces
        from riskdist.space import sublevel_ladder

        near = rd.validate_metric(
            ["a", "b", "c"], [[0, 1, 2], [1, 0, 1 + 1e-12], [2, 1 + 1e-12, 0]]
        )
        assert rd.distance_levels(near) == [0, 1, F("1.000000000001"), 2]
        checked = 0
        for space in [near, *fixture_spaces()]:
            rng = derive_rng(20, f"cost-{space.n}-True")
            mu = rd.dirac(space, 0)
            relations = [rel for _, rel in sublevel_ladder(space)]
            relations += [random_relation(space, rng) for _ in range(8)]
            for rel in relations:
                if not rel.pairs():
                    continue
                cost = rd.CouplingWitness(mu, mu, rel).cost()
                want = max(space.dist[i][j] for i, j in rel.pairs())
                assert cost == want and type(cost) is type(want)
                checked += 1
        mu = rd.dirac(near, 0)
        assert rd.CouplingWitness(mu, mu, sublevel_relation(near, 1)).cost() == 1
        assert checked >= 60


class TestVerifyCoupling:
    def test_point_mass_witness_passes(self, p3):
        s = sublevel_relation(p3, 2)
        w = rd.lower_coupling(rd.dirac(p3, "a"), rd.dirac(p3, "c"), s)
        assert rd.verify_coupling(w, seed=1).ok

    def test_diagonal_with_distinct_marginals_fails_marginals(self, p3):
        w = rd.lower_coupling(
            rd.dirac(p3, "a"), rd.dirac(p3, "c"), sublevel_relation(p3, 0)
        )
        report = rd.verify_coupling(w, seed=1)
        assert not report.ok
        bad = [v for v in report.violations if v.axiom.startswith("marginal")]
        assert bad
        phi = bad[0].witness["phi"]
        got, want = bad[0].values
        assert got != want

    @staticmethod
    def broken(p3, change):
        """The diagonal lower extension of the uniform expectation on p3,
        its value v at chi replaced by ``change(chi, v)``."""
        mu = rd.choquet_measure(rd.expectation(p3, (F(1, 3),) * 3))

        class Broken(rd.CouplingWitness):
            def evaluate_values(self, chi):
                return change(chi, super().evaluate_values(chi))

        return Broken(mu, mu, sublevel_relation(p3, 0))

    @pytest.mark.parametrize(
        "change, kinds",
        [
            # a drop of 13 once the value passes 4
            (lambda chi, v: v - 13 if v > 4 else v, {"monotonicity", "value-envelope"}),
            (lambda chi, v: v + 1, {"normedness"}),
            # the value rises at half speed past 5, so a shift moves it less
            (lambda chi, v: v if v <= 5 else 5 + (v - 5) / 2, {"translation-invariance"}),
            # reads (a, b), which the diagonal support leaves out
            (lambda chi, v: max(v, chi[1]), {"support-confinement"}),
        ],
        ids=["monotone-step", "constant", "shift", "off-support"],
    )
    def test_each_broken_contract_is_reported(self, p3, change, kinds):
        intact = self.broken(p3, lambda chi, v: v)
        assert rd.verify_coupling(intact, seed=1).ok
        for seed in range(3):
            report = rd.verify_coupling(self.broken(p3, change), seed=seed)
            assert not report.ok
            assert kinds & {v.axiom for v in report.violations}, report.violations

    def test_feasible_ensemble_witnesses_pass(self, p3):
        rng = derive_rng(67, "ensemble-verify")
        done = 0
        while done < 10:
            mu1 = random_capacity_measure(p3, rng)
            mu2 = random_capacity_measure(p3, rng)
            rel = random_relation(p3, rng, density=0.7)
            verdict = rd.admissible(mu1, mu2, rel)
            if not verdict.feasible:
                continue
            assert rd.verify_coupling(verdict.witness, seed=done).ok
            done += 1

    def test_lattice_closure_of_verified_couplings(self, p3):
        # the max (min) of couplings of (mu1, mu2) and (nu1, nu2) inside one
        # relation couples the lattice combinations inside it: the pointwise
        # max of two verified witnesses is a risk measure whose marginals
        # are max(mu1, nu1) and max(mu2, nu2), and the lower extension of
        # those lattice marginals verifies as well
        rng = derive_rng(71, "lattice-closure")
        left, right = left_projection_map(p3, p3), right_projection_map(p3, p3)
        done = 0
        while done < 4:
            mu1, mu2, nu1, nu2 = (random_capacity_measure(p3, rng) for _ in range(4))
            rel = random_relation(p3, rng, density=0.8)
            if not (
                rd.admissible(mu1, mu2, rel).feasible
                and rd.admissible(nu1, nu2, rel).feasible
            ):
                continue
            w_mu = rd.lower_coupling(mu1, mu2, rel)
            w_nu = rd.lower_coupling(nu1, nu2, rel)
            assert rd.verify_coupling(w_mu, seed=done).ok
            assert rd.verify_coupling(w_nu, seed=done).ok
            for pick, combine in ((max, rd.lattice_max), (min, rd.lattice_min)):

                def both(chi, pick=pick, w_mu=w_mu, w_nu=w_nu):
                    return pick(w_mu.evaluate_values(chi), w_nu.evaluate_values(chi))

                joined = rd.black_box(w_mu.product, both)
                assert rd.verify_axioms(joined, seed=done).ok
                a, b = combine([mu1, nu1]), combine([mu2, nu2])
                assert equal_measures(pushforward(left, joined, p3), a, seed=done).status != "no"
                assert equal_measures(pushforward(right, joined, p3), b, seed=done).status != "no"
                assert rd.verify_coupling(rd.lower_coupling(a, b, rel), seed=done).ok
            done += 1


class TestGlue:
    def test_point_mass_gluing(self, p3):
        prod = product_space(p3, p3)
        g = rd.glue(rd.dirac(prod, "a*b"), rd.dirac(prod, "b*c"), p3)
        assert g.kind == "dirac"
        t3 = triple_space(p3)
        assert t3.labels[g.point] == "a*b*c"

    def test_mismatched_middles_raise(self, p3):
        prod = product_space(p3, p3)
        with pytest.raises(MarginalMismatch) as err:
            rd.glue(rd.dirac(prod, "a*b"), rd.dirac(prod, "a*c"), p3)
        assert err.value.witness is not None

    def test_projection_identities_for_witness_inputs(self, p3):
        rng = derive_rng(73, "glue")
        mu1 = random_capacity_measure(p3, rng)
        mu2 = random_capacity_measure(p3, rng)
        mu3 = random_capacity_measure(p3, rng)
        w12 = as_measure(rd.bottleneck_distance(mu1, mu2).witness)
        w23 = as_measure(rd.bottleneck_distance(mu2, mu3).witness)
        g = rd.glue(w12, w23, p3)
        prod = product_space(p3, p3)
        t3 = triple_space(p3)
        rng2 = derive_rng(74, "glue-probes")
        for _ in range(25):
            phi = tuple(rng2.randint(-6, 6) for _ in range(9))
            front = tuple(phi[(q // 9) * 3 + (q % 9) // 3] for q in range(27))
            assert evaluate_values(g, front) == evaluate_values(w12, phi)
            back = tuple(phi[q % 9] for q in range(27))
            assert evaluate_values(g, back) == evaluate_values(w23, phi)

    def test_glued_13_marginal_couples_the_ends(self, p3):
        rng = derive_rng(79, "glue-13")
        mu1 = random_capacity_measure(p3, rng)
        mu2 = random_capacity_measure(p3, rng)
        mu3 = random_capacity_measure(p3, rng)
        w12 = as_measure(rd.bottleneck_distance(mu1, mu2).witness)
        w23 = as_measure(rd.bottleneck_distance(mu2, mu3).witness)
        g = rd.glue(w12, w23, p3)
        prod = product_space(p3, p3)
        m13 = pushforward(triple_projection_map(p3, (0, 2)), g, prod)
        left = pushforward(left_projection_map(p3, p3), m13, p3)
        right = pushforward(right_projection_map(p3, p3), m13, p3)
        assert equal_measures(left, mu1, seed=5).status != "no"
        assert equal_measures(right, mu3, seed=5).status != "no"


class TestInnerMaskTables:
    def test_matches_direct_computation(self, p3):
        lopsided = Relation.from_pairs(p3, p3, [(0, 1), (0, 2), (2, 2)])
        for rel in (sublevel_relation(p3, 1), lopsided):
            for table, sections in zip(rel.inner_masks, (rel.sections, rel.inv_sections)):
                for b in range(8):
                    want = 0
                    for x, sec in enumerate(sections):
                        if sec and sec & ~b == 0:
                            want |= 1 << x
                    assert table[b] == want
            # each side's reader reads a subset-indexed table at its masks
            values = tuple(range(100, 108))
            for read, table in zip(rel.inner_readers, rel.inner_masks):
                assert read(values) == tuple(values[m] for m in table)
        # a symmetric relation has one table and one reader for both sides
        sym = sublevel_relation(p3, 1)
        assert sym.inner_masks[0] is sym.inner_masks[1]
        assert sym.inner_readers[0] is sym.inner_readers[1]
        assert lopsided.inner_masks[0] != lopsided.inner_masks[1]
