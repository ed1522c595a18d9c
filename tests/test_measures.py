from fractions import Fraction
from functools import partial

import pytest

import riskdist as rd
from riskdist.capacity import Capacity
from riskdist.ensembles import derive_rng, random_capacity, random_measure
from riskdist.errors import InvalidParams, SpaceMismatch
from riskdist.io import load_measure
from riskdist.measures import (
    AXIOM_SAMPLES,
    EVAL_MEMO_SIZE,
    evaluate_values,
    probe_axioms,
    separating_pairs,
)
from riskdist.space import left_projection_map, product_space

F = Fraction


def labels_in(subset):
    return [subset.space.labels[i] for i in subset.indices()]


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
        assert mix.capacity is not None
        assert mix.capacity.table == rd.mix_capacities(
            (F(1, 2), F(1, 2)), (rd.dirac_capacity(p3, 0), rd.dirac_capacity(p3, 2))
        ).table
        lattice = rd.lattice_max([mix, rd.dirac(p3, "b")])
        assert lattice.capacity is None
        assert rd.mixture((F(1, 2), F(1, 2)), (lattice, mix)).capacity is None

    def test_space_mismatch(self, p3, two_point):
        mu = rd.dirac(p3, "a")
        with pytest.raises(SpaceMismatch):
            rd.evaluate(mu, rd.PointFunction(two_point, (1, 2)))

    def test_constructors_refuse_what_names_no_measure(self, p3):
        with pytest.raises(InvalidParams, match="needs components"):
            rd.lattice_max([])
        for index in (3, -1):
            with pytest.raises(InvalidParams, match=f"point index {index} out of range"):
                rd.dirac(p3, index)
        params = rd.TwoPointParams((F(1, 4),) * 4, (F(0),) * 4, rd.ShapeFunction.identity())
        with pytest.raises(InvalidParams, match="needs a two-point space"):
            rd.two_point_measure(p3, params)

    def test_a_mixture_with_lattice_parts_evaluates_term_by_term(self, cycle4):
        from riskdist.measures import probe_grid

        rng = derive_rng(7, "exact-combos")
        parts = [rd.choquet_measure(random_capacity(cycle4, rng)) for _ in range(3)]
        hi, lo = rd.lattice_max(parts), rd.lattice_min(parts[:2])
        inner = rd.lattice_max([lo, parts[2]])
        nested = rd.mixture((F(1, 3), F(2, 3)), (hi, inner))
        assert nested.capacity is None and nested.parts == (hi, inner)
        for values in probe_grid(cycle4, 3):
            want = F(1, 3) * evaluate_values(hi, values) + F(2, 3) * evaluate_values(inner, values)
            assert evaluate_values(nested, values) == want
        # its parts' forms give it forms, so its pairs are decided exactly
        res = rd.bottleneck_distance(nested, nested)
        assert res.value == 0 and res.tier == "exact-lattice"
        # a black-box part leaves it to the sampled tier
        boxed = rd.mixture((F(1, 3), F(2, 3)), (hi, rd.black_box(cycle4, inner.evaluator)))
        res = rd.bottleneck_distance(boxed, boxed)
        assert res.value == 0 and res.tier == "witness-found"


#: float weights whose float sum is 1.0 but whose exact sum is not
FLOAT_WEIGHTS = ((0.1, 0.2, 0.3, 0.4), (0.1, 0.9))


def _diracs(space):
    return [rd.dirac(space, label) for label in space.labels]


#: every constructor that takes a weight per point or per component
WEIGHTED = {
    "expectation": rd.expectation,
    "mix_capacities": lambda s, w: rd.mix_capacities(w, [mu.capacity for mu in _diracs(s)]),
    "mixture of capacities": lambda s, w: rd.mixture(w, _diracs(s)),
    "mixture term by term": lambda s, w: rd.mixture(
        w, [rd.lattice_max([mu]) for mu in _diracs(s)]
    ),
    "probability vector": rd.ProbabilityVector,
}


class TestCallerNumbersAreLiftedOnce:
    """A float a Python caller gives is the Fraction it equals, checked and
    summed as that Fraction."""

    @pytest.mark.parametrize("build", sorted(WEIGHTED))
    @pytest.mark.parametrize("weights", FLOAT_WEIGHTS)
    def test_float_weights_that_do_not_sum_to_one_are_refused(self, weights, build):
        n = len(weights)
        space = rd.validate_metric(
            [str(i) for i in range(n)], [[int(i != j) for j in range(n)] for i in range(n)]
        )
        assert sum(weights) == 1.0 and sum(map(F, weights)) != 1
        with pytest.raises(rd.InvalidParams, match="sum to 1"):
            WEIGHTED[build](space, weights)

    def test_a_float_point_function_evaluates_exactly(self, p3):
        mu = rd.choquet_measure(rd.expectation(p3, (F(1, 2), F(1, 4), F(1, 4))))
        phi = rd.PointFunction(p3, (0.25, 0.5, 0.5))
        assert phi.values == (F(1, 4), F(1, 2), F(1, 2))
        got = rd.evaluate(mu, phi)
        assert got == F(3, 8) and type(got) is Fraction

    def test_a_float_weighted_mixture_evaluates_exactly(self, two_point):
        params = rd.TwoPointParams(
            (F(1, 4),) * 4, (F(0),) * 4, rd.ShapeFunction.identity()
        )
        member = rd.two_point_measure(two_point, params)
        mean = rd.choquet_measure(rd.expectation(two_point, (F(1, 2), F(1, 2))))
        exact = rd.PointFunction(two_point, (F(1), F(1, 2)))
        # a family member mixes term by term, two capacities into one
        for a, b in ((member, rd.dirac(two_point, "x")), (mean, rd.dirac(two_point, "y"))):
            got = rd.evaluate(rd.mixture((0.25, 0.75), (a, b)), exact)
            assert got == F(1, 4) * rd.evaluate(a, exact) + F(3, 4) * rd.evaluate(b, exact)
            assert type(got) is Fraction, got

    def test_a_nan_or_an_infinite_value_is_refused(self, p3):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(rd.InvalidParams, match="finite"):
                rd.PointFunction(p3, (0, bad, 1))


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
            evaluate = partial(evaluate_values, combo)
            assert not probe_axioms(evaluate, cycle4, 8, AXIOM_SAMPLES)

    def test_combinations_of_exact_parts_pass_exactly(self, cycle4, two_point):
        rng = derive_rng(7, "exact-combos")
        parts = [rd.choquet_measure(random_capacity(cycle4, rng)) for _ in range(3)]
        hi, lo = rd.lattice_max(parts), rd.lattice_min(parts[:2])
        nested = rd.mixture((F(1, 3), F(2, 3)), (hi, rd.lattice_max([lo, parts[2]])))
        for combo in (hi, lo, nested):
            report = rd.verify_axioms(combo)
            assert report.ok and report.method == "exact" and not report.violations
        # a black-box part leaves only probing
        boxed = rd.lattice_max([parts[0], rd.black_box(cycle4, parts[1].capacity.choquet)])
        assert boxed.exact_report is None
        report = rd.verify_axioms(boxed, seed=2)
        assert report.method == f"sampled(seed=2, count={AXIOM_SAMPLES})"
        # a family member that fails its census also sends the max to probing
        params = rd.TwoPointParams(
            (F(1, 4), F(5, 24), F(1, 3), F(5, 24)),
            (F(0), F(-2), F(0), F(0)),
            rd.ShapeFunction(
                tuple((F(t), F(y)) for t, y in ((-7, "-3/2"), (-4, 0), (-2, 0), (0, 0), (3, "3/4")))
            ),
        )
        member = rd.two_point_measure(two_point, params)
        assert not rd.verify_axioms(member).ok
        combo = rd.lattice_max([member, rd.dirac(two_point, "x")])
        assert rd.verify_axioms(combo, seed=1).method.startswith("sampled")

    def test_a_mixture_fails_where_its_failing_part_jumps(self):
        # the member's g jumps at t = -3, which seeded probing of the
        # mixture misses; its census pair, shrunk, shows the mixture drop
        space = rd.validate_metric(["x", "y"], [[0, 1], [1, 0]])
        params = rd.TwoPointParams(
            (F(6, 17), F(1, 17), F(5, 17), F(5, 17)),
            (F(0), F(0), F(0), F(3)),
            rd.ShapeFunction(
                tuple((F(t), F(y)) for t, y in ((-2, "-5/4"), (-1, "-1/4"), (0, 0), (2, "3/2")))
            ),
        )
        member = rd.two_point_measure(space, params)
        mean = rd.choquet_measure(rd.expectation(space, (F(1, 2), F(1, 2))))
        mixed = rd.mixture((F(1, 3), F(2, 3)), (member, mean))
        assert not rd.verify_axioms(member).ok
        report = rd.verify_axioms(mixed)
        assert report.verdict == "fail" and report.method == "sampled(seed=0, count=200)"
        drops = [v for v in report.violations if v.axiom == "monotonicity"]
        assert drops
        for v in drops:
            lo, hi = v.witness["lo"], v.witness["hi"]
            assert all(a <= b for a, b in zip(lo, hi))
            assert evaluate_values(mixed, lo) > evaluate_values(mixed, hi)
            assert v.values == (evaluate_values(mixed, lo), evaluate_values(mixed, hi))
        # nested one deeper, the failing part is still found
        nested = rd.mixture((F(1, 2), F(1, 2)), (mixed, rd.dirac(space, "y")))
        assert not rd.verify_axioms(nested).ok


class TestNormalForms:
    def test_forms_evaluate_to_the_measure(self, cycle4):
        from riskdist.measures import normal_forms

        rng = derive_rng(8, "forms")
        a, b, c, d = (rd.choquet_measure(random_capacity(cycle4, rng)) for _ in range(4))
        mu = rd.lattice_min([rd.lattice_max([a, b]), rd.lattice_max([c, rd.lattice_min([a, d])])])
        maxmin, minmax = normal_forms(mu)
        caps = lambda *ms: tuple(m.capacity for m in ms)
        assert maxmin == (caps(a, c), caps(a, a, d), caps(b, c), caps(b, a, d))
        assert minmax == (caps(a, b), caps(c, a), caps(c, d))
        for _ in range(30):
            phi = tuple(rng.randint(-9, 9) for _ in range(4))
            want = evaluate_values(mu, phi)
            assert max(min(v.choquet(phi) for v in row) for row in maxmin) == want
            assert min(max(v.choquet(phi) for v in group) for group in minmax) == want

    def test_only_lattices_of_capacities_have_forms(self, p3, two_point):
        from riskdist.measures import MAX_FORM_TERMS, normal_forms

        a, b = rd.dirac(p3, "a"), rd.dirac(p3, "b")
        assert normal_forms(a) == (((a.capacity,),), ((a.capacity,),))
        assert normal_forms(rd.lattice_max([a, rd.black_box(p3, max)])) is None
        boxed = rd.black_box(p3, max)
        boxed_mix = rd.mixture((F(1, 2), F(1, 2)), (rd.lattice_max([a, b]), boxed))
        assert boxed_mix.capacity is None and normal_forms(boxed_mix) is None
        # a nesting whose spread form outgrows the bound keeps no form
        pair = rd.lattice_min([a, b])
        wide = rd.lattice_max([pair] * 7)
        assert 2 ** 7 * 7 > MAX_FORM_TERMS and normal_forms(wide) is None
        assert normal_forms(rd.lattice_max([pair] * 2)) is not None

    def test_a_mixture_of_lattices_has_the_mixed_forms(self, cycle4):
        # sum_c w_c max_i min_j A^c_ij is the max over row picks of the min
        # over column picks of the mixed capacities, and min-of-max likewise
        from riskdist.measures import MAX_FORM_TERMS, indicators, normal_forms, reach

        rng = derive_rng(9, "mixed-forms")
        a, b, c, d = (rd.choquet_measure(random_capacity(cycle4, rng)) for _ in range(4))
        hi, lo = rd.lattice_max([a, b]), rd.lattice_min([c, rd.lattice_max([a, d])])
        w = (F(1, 3), F(2, 3))
        mu = rd.mixture(w, (hi, lo))
        maxmin, minmax = normal_forms(mu)
        mix = lambda x, y: rd.mix_capacities(w, (x.capacity, y.capacity)).table
        tables = lambda form: [[v.table for v in line] for line in form]
        # hi's rows are (a), (b); lo's are (c, a), (c, d)
        assert tables(maxmin) == [
            [mix(a, c), mix(a, a)], [mix(a, c), mix(a, d)],
            [mix(b, c), mix(b, a)], [mix(b, c), mix(b, d)],
        ]
        assert [len(group) for group in minmax] == [2, 4]  # (a, b) with (c), (a, d)
        for _ in range(30):
            phi = tuple(rng.randint(-9, 9) for _ in range(4))
            want = evaluate_values(mu, phi)
            assert max(min(v.choquet(phi) for v in row) for row in maxmin) == want
            assert min(max(v.choquet(phi) for v in group) for group in minmax) == want
        table, scale = indicators(mu)
        for u in range(16):
            assert F(table[u], scale) == evaluate_values(mu, tuple(u >> x & 1 for x in range(4)))
        assert reach(mu) == reach(hi) | reach(lo)
        # a part of weight 0 adds nothing, its support included
        x, y = rd.dirac(cycle4, 0), rd.dirac(cycle4, 1)
        light = rd.mixture((F(1), F(0)), (rd.lattice_max([x, x]), rd.lattice_min([y, y])))
        assert reach(light) == 1 and [len(row) for row in normal_forms(light)[0]] == [1, 1]
        # the product of the parts' term counts is bounded
        pair = rd.lattice_min([x, y])  # two terms in each form
        k = MAX_FORM_TERMS.bit_length() - 1  # 2 ** k <= MAX_FORM_TERMS < 2 ** (k + 1)
        assert normal_forms(rd.mixture((F(1, k),) * k, [pair] * k)) is not None
        assert normal_forms(rd.mixture((F(1, k + 1),) * (k + 1), [pair] * (k + 1))) is None


class TestSupport:
    def test_dirac_singleton(self, p3):
        assert labels_in(rd.support(rd.dirac(p3, "b"))) == ["b"]

    def test_mixture_of_point_masses(self, p3):
        mu = rd.mixture(
            (F(1, 2), F(1, 2)), (rd.dirac(p3, "a"), rd.dirac(p3, "b"))
        )
        assert labels_in(rd.support(mu)) == ["a", "b"]

    def test_choquet_carrier(self, p3):
        table = tuple(F(1) if m & 1 else F(0) for m in range(8))
        mu = rd.choquet_measure(Capacity(p3, table))
        assert labels_in(rd.support(mu)) == ["a"]

    def test_blackbox_probing(self, p3):
        mu = rd.black_box(p3, lambda v: max(v[0], v[2]), name="max-ac")
        assert labels_in(rd.support(mu, seed=3)) == ["a", "c"]


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

    def test_a_target_past_the_table_guard_reads_the_source(self, p3):
        # no capacity table is built past MAX_CAPACITY_POINTS points, so a
        # measure with forms pushed there is read through its source
        big = rd.validate_metric(
            [f"p{i}" for i in range(13)], [[int(i != j) for j in range(13)] for i in range(13)]
        )
        rng = derive_rng(11, "pf-big")
        fmap = (0, 5, 12)
        caps = [rd.choquet_measure(random_capacity(p3, rng)) for _ in range(2)]
        for mu in (caps[0], rd.lattice_max(caps)):
            out = rd.pushforward(fmap, mu, big)
            assert out.kind == "blackbox" and out.name == f"pushforward({mu.name})"
            for _ in range(5):
                values = tuple(rng.randint(-9, 9) for _ in range(13))
                assert evaluate_values(out, values) == evaluate_values(
                    mu, tuple(values[t] for t in fmap)
                )

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
        assert labels_in(rd.support(xi, seed=5)) == ["x*x", "x*y", "y*x"]
        out = rd.pushforward(left_projection_map(two_point, two_point), xi, two_point)
        assert labels_in(rd.support(out, seed=5)) == ["x"]
        # image of the support is strictly larger than the support of the image
        image = {"x", "y"}
        assert set(labels_in(rd.support(out, seed=5))) < image


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

    def test_loaded_capacities_compare_without_their_fraction_tables(self, p3):
        specs = [
            {"type": "expectation", "weights": ["1/2", "1/4", "1/4"]},
            {"type": "expectation", "weights": ["2/4", "1/4", "1/4"]},
            {"type": "expectation", "weights": ["1/2", "1/3", "1/6"]},
        ]
        mu, same, other = (load_measure(spec, p3) for spec in specs)
        assert rd.equal_measures(mu, same).status == "yes"
        eq = rd.equal_measures(mu, other)
        # {b} is the first subset whose masses differ: 1/4 against 1/3
        assert eq.status == "no" and eq.witness == (0, 1, 0)
        for m in (mu, same, other):
            assert "table" not in vars(m.capacity)
        # the verdicts are the tables' verdicts
        assert mu.capacity.table == same.capacity.table != other.capacity.table

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
        found = dict(separating_pairs(mu, 0b101, seed=1))
        assert list(found) == [0]
        values, other = found[0]
        assert values[1:] == other[1:] and values[0] != other[0]
        assert evaluate_values(mu, values) != evaluate_values(mu, other)
