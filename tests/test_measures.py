from fractions import Fraction

import pytest

import riskdist as rd
from riskdist.capacity import Capacity
from riskdist.ensembles import derive_rng, random_capacity, random_measure
from riskdist.errors import SpaceMismatch
from riskdist.measures import EVAL_MEMO_SIZE, evaluate_values, separating_pair
from riskdist.space import left_projection_map, product_space

F = Fraction


class TestEvaluate:
    def test_dirac_reads_the_point(self, p3):
        mu = rd.dirac(p3, "a")
        assert rd.evaluate(mu, rd.PointFunction(p3, (7, 1, 2))) == 7

    def test_constants_for_every_kind(self, p3):
        rng = derive_rng(1, "constants")
        for _ in range(12):
            mu = random_measure(p3, rng)
            for c in (-3, 0, 5):
                assert evaluate_values(mu, (c,) * 3) == c

    def test_mixture_is_convex_combination(self, p3):
        mu = rd.mixture(
            (F(1, 2), F(1, 2)), (rd.dirac(p3, "a"), rd.dirac(p3, "c"))
        )
        assert rd.evaluate(mu, rd.PointFunction(p3, (0, 1, 4))) == 2

    def test_memo_is_bounded(self, p3):
        mu = rd.lattice_max([rd.dirac(p3, "a"), rd.dirac(p3, "c")])
        for k in range(EVAL_MEMO_SIZE + 500):
            assert evaluate_values(mu, (k, 0, -k)) == k
        info = mu.evaluator.cache_info()
        assert info.maxsize == EVAL_MEMO_SIZE
        assert info.currsize <= EVAL_MEMO_SIZE

    def test_black_box_is_called_once_per_evaluation(self, p3):
        calls = []

        def counted(values):
            calls.append(values)
            return max(values)

        mu = rd.black_box(p3, counted)
        for _ in range(3):
            assert evaluate_values(mu, (1, 5, 2)) == 5
        assert len(calls) == 3
        pushed = rd.pushforward((0, 1, 2), mu, p3)
        assert evaluate_values(pushed, (1, 5, 2)) == 5
        assert len(calls) == 4

    def test_capacity_forms_are_built_once(self, p3):
        mix = rd.mixture((F(1, 2), F(1, 2)), (rd.dirac(p3, "a"), rd.dirac(p3, "c")))
        assert rd.to_capacity(mix) is mix.capacity is not None
        assert mix.capacity.table == rd.mix_capacities(
            (F(1, 2), F(1, 2)), (rd.dirac_capacity(p3, 0), rd.dirac_capacity(p3, 2))
        ).table
        lattice = rd.lattice_max([mix, rd.dirac(p3, "b")])
        assert rd.to_capacity(lattice) is None
        assert rd.to_capacity(rd.mixture((F(1, 2), F(1, 2)), (lattice, mix))) is None

    def test_space_mismatch(self, p3, two_point):
        mu = rd.dirac(p3, "a")
        with pytest.raises(SpaceMismatch):
            rd.evaluate(mu, rd.PointFunction(two_point, (1, 2)))


class TestVerifyAxioms:
    def test_choquet_is_exact(self, p3):
        mu = rd.choquet_measure(random_capacity(p3, derive_rng(2, "vx")))
        report = rd.verify_axioms(mu)
        assert report.ok and report.method == "exact"

    def test_blackbox_monotonicity_failure_carries_witness(self, p3):
        bad = rd.black_box(p3, lambda v: v[0] - v[1], name="bad")
        report = rd.verify_axioms(bad, seed=4)
        assert not report.ok
        axioms = {v.axiom for v in report.violations}
        assert "monotonicity" in axioms or "normedness" in axioms
        # every monotonicity witness re-evaluates to a genuine violation
        for v in report.violations:
            if v.axiom == "monotonicity":
                lo, hi = v.witness["lo"], v.witness["hi"]
                assert all(a <= b for a, b in zip(lo, hi))
                assert evaluate_values(bad, lo) > evaluate_values(bad, hi)

    def test_lattice_and_mixture_pass_sampled(self, cycle4):
        rng = derive_rng(6, "combos")
        parts = [
            rd.choquet_measure(random_capacity(cycle4, rng)) for _ in range(3)
        ]
        for combo in (
            rd.lattice_max(parts),
            rd.lattice_min(parts),
            rd.mixture((F(1, 4), F(1, 4), F(1, 2)), parts),
        ):
            assert rd.verify_axioms(combo, seed=8).ok


class TestSupport:
    def test_dirac_singleton(self, p3):
        assert rd.support(rd.dirac(p3, "b")).labels_in() == ["b"]

    def test_mixture_of_point_masses(self, p3):
        mu = rd.mixture(
            (F(1, 2), F(1, 2)), (rd.dirac(p3, "a"), rd.dirac(p3, "b"))
        )
        assert rd.support(mu).labels_in() == ["a", "b"]

    def test_choquet_carrier(self, p3):
        table = tuple(F(1) if m & 1 else F(0) for m in range(8))
        mu = rd.choquet_measure(Capacity(p3, table))
        assert rd.support(mu).labels_in() == ["a"]

    def test_blackbox_probing(self, p3):
        mu = rd.black_box(p3, lambda v: max(v[0], v[2]), name="max-ac")
        assert rd.support(mu, seed=3).labels_in() == ["a", "c"]


class TestPushforward:
    def test_identity(self, p3):
        rng = derive_rng(9, "pf")
        mu = rd.choquet_measure(random_capacity(p3, rng))
        out = rd.pushforward((0, 1, 2), mu, p3)
        assert rd.equal_measures(mu, out).status == "yes"

    def test_constant_map(self, p3):
        rng = derive_rng(10, "pf2")
        mu = rd.choquet_measure(random_capacity(p3, rng))
        out = rd.pushforward((1, 1, 1), mu, p3)
        for values in ((3, -1, 4), (0, 7, 2)):
            assert evaluate_values(out, values) == values[1]

    def test_swap_moves_dirac(self, p3):
        out = rd.pushforward((2, 1, 0), rd.dirac(p3, "a"), p3)
        assert rd.equal_measures(out, rd.dirac(p3, "c")).status == "yes"

    def test_support_shrinks_into_image(self, p3, cycle4):
        rng = derive_rng(12, "pf3")
        for _ in range(15):
            mu = random_measure(cycle4, rng)
            fmap = tuple(rng.randrange(3) for _ in range(4))
            out = rd.pushforward(fmap, mu, p3)
            image = 0
            for i in rd.support(mu, seed=1).indices():
                image |= 1 << fmap[i]
            assert rd.support(out, seed=1).mask & ~image == 0

    def test_archived_strict_inclusion_instance(self, two_point):
        # a product-space evaluator whose support projects onto both points
        # while its pushforward collapses to the first one
        prod = product_space(two_point, two_point)
        xi = rd.black_box(
            prod,
            lambda chi: max(chi[0], min(chi[1], chi[2])),
            name="corner-or-antidiagonal",
        )
        assert rd.verify_axioms(xi, seed=5).ok
        assert rd.support(xi, seed=5).labels_in() == ["x*x", "x*y", "y*x"]
        out = rd.pushforward(left_projection_map(two_point, two_point), xi, two_point)
        assert rd.support(out, seed=5).labels_in() == ["x"]
        # image of the support is strictly larger than the support of the image
        image = {"x", "y"}
        assert set(rd.support(out, seed=5).labels_in()) < image


class TestEquality:
    def test_distinct_point_masses(self, p3):
        eq = rd.equal_measures(rd.dirac(p3, "a"), rd.dirac(p3, "b"))
        assert eq.status == "no"
        wit = rd.PointFunction(p3, eq.witness)
        assert rd.evaluate(rd.dirac(p3, "a"), wit) != rd.evaluate(
            rd.dirac(p3, "b"), wit
        )

    def test_equal_tables(self, p3):
        rng = derive_rng(14, "eq")
        cap = random_capacity(p3, rng)
        assert rd.equal_measures(
            rd.choquet_measure(cap), rd.choquet_measure(cap)
        ).status == "yes"

    def test_family_member_matching_point_mass_is_undecided(self, two_point):
        params = rd.TwoPointParams(
            (F(1, 2), F(1, 2), F(0), F(0)),
            (F(0), F(0), F(0), F(0)),
            rd.ShapeFunction.identity(),
        )
        mu = rd.two_point_measure(two_point, params)
        eq = rd.equal_measures(mu, rd.dirac(two_point, "y"), seed=2)
        assert eq.status == "undecided"
        assert eq.note == "probes passed"

    def test_separating_pair_finds_dependence(self, p3):
        mu = rd.black_box(p3, lambda v: max(v[0], v[1]), name="max-ab")
        assert separating_pair(mu, 0, seed=1) is not None
        assert separating_pair(mu, 2, seed=1) is None
