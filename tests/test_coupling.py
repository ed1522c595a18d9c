from fractions import Fraction

import pytest

import riskdist as rd
from riskdist.coupling import (
    _inner_mask_tables,
    triple_projection_map,
    triple_space,
)
from riskdist.ensembles import derive_rng, random_capacity, random_capacity_measure
from riskdist.errors import EmptySection, MarginalMismatch
from riskdist.measures import evaluate_values, pushforward, equal_measures
from riskdist.oracles import ProbabilityVector, random_relation, strassen_feasible
from riskdist.space import (
    Relation,
    diagonal_relation,
    full_relation,
    left_projection_map,
    product_space,
    right_projection_map,
    sublevel_relation,
)

F = Fraction


def product_values(space, fn):
    n = space.n
    return tuple(fn(i, j) for i in range(n) for j in range(n))


class TestMinEnvelope:
    def test_diagonal_restores_the_function(self, p3):
        diag = diagonal_relation(p3)
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
            rd.dirac(p3, "a"), rd.dirac(p3, "a"), diagonal_relation(p3)
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
        verdict = rd.admissible(mu1, mu2, sublevel_relation(p3, 1))
        assert verdict.status == "infeasible"
        cert = verdict.certificate
        assert cert["kind"] == "envelope-domination"
        # the certificate re-verifies from its payload
        v1 = rd.to_capacity(mu1 if cert["side"] == "left" else mu2)
        v2 = rd.to_capacity(mu2 if cert["side"] == "left" else mu1)
        assert v1.table[cert["inner"]] > v2.table[cert["subset"]]

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
        from riskdist.space import compose_relations

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
            if sampled.status != "unknown":
                assert exact.feasible == sampled.feasible

    def test_empty_relation_is_infeasible(self, p3):
        rel = Relation.from_pairs(p3, p3, [])
        verdict = rd.admissible(
            rd.choquet_measure(rd.expectation(p3, (F(1, 3),) * 3)),
            rd.dirac(p3, "a"),
            rel,
        )
        assert verdict.status == "infeasible"


def tuple_simplex(rng, k):
    raw = [rng.randint(0, 6) for _ in range(k)]
    if not sum(raw):
        raw[0] = 1
    total = sum(raw)
    return tuple(F(r, total) for r in raw)


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
        w = rd.lower_coupling(mu, mu, diagonal_relation(p3))
        for _ in range(20):
            chi = tuple(rng.randint(-9, 9) for _ in range(9))
            diag = (chi[0], chi[4], chi[8])
            assert w.evaluate_values(chi) == evaluate_values(mu, diag)

    def test_expectation_diagonal_on_a_corner_indicator(self, two_point):
        mu = rd.choquet_measure(rd.expectation(two_point, (F(1, 2), F(1, 2))))
        w = rd.lower_coupling(mu, mu, diagonal_relation(two_point))
        chi = (1, 0, 0, 0)
        assert w.evaluate_values(chi) == F(1, 2)

    def test_cost_is_max_distance_over_support(self, p3):
        s = sublevel_relation(p3, 1)
        mu = rd.choquet_measure(rd.expectation(p3, (F(1, 3),) * 3))
        assert rd.lower_coupling(mu, mu, s).cost() == 1


class TestVerifyCoupling:
    def test_point_mass_witness_passes(self, p3):
        s = sublevel_relation(p3, 2)
        w = rd.lower_coupling(rd.dirac(p3, "a"), rd.dirac(p3, "c"), s)
        assert rd.verify_coupling(w, seed=1).ok

    def test_diagonal_with_distinct_marginals_fails_marginals(self, p3):
        w = rd.lower_coupling(
            rd.dirac(p3, "a"), rd.dirac(p3, "c"), diagonal_relation(p3)
        )
        report = rd.verify_coupling(w, seed=1)
        assert not report.ok
        bad = [v for v in report.violations if v.axiom.startswith("marginal")]
        assert bad
        phi = bad[0].witness["phi"]
        got, want = bad[0].values
        assert got != want

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
        w12 = rd.bottleneck_distance(mu1, mu2).witness.as_measure()
        w23 = rd.bottleneck_distance(mu2, mu3).witness.as_measure()
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
        w12 = rd.bottleneck_distance(mu1, mu2).witness.as_measure()
        w23 = rd.bottleneck_distance(mu2, mu3).witness.as_measure()
        g = rd.glue(w12, w23, p3)
        prod = product_space(p3, p3)
        m13 = pushforward(triple_projection_map(p3, (0, 2)), g, prod)
        left = pushforward(left_projection_map(p3, p3), m13, p3)
        right = pushforward(right_projection_map(p3, p3), m13, p3)
        assert equal_measures(left, mu1, seed=5).status != "no"
        assert equal_measures(right, mu3, seed=5).status != "no"


class TestInnerMaskTables:
    def test_matches_direct_computation(self, p3):
        rel = sublevel_relation(p3, 1)
        left, right = _inner_mask_tables(rel)
        for b in range(8):
            want = 0
            for x, sec in enumerate(rel.sections):
                if sec and sec & ~b == 0:
                    want |= 1 << x
            assert left[b] == want
