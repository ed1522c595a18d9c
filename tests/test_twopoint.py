import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

import riskdist as rd
from riskdist.ensembles import derive_rng, random_measure, random_two_point_params
from riskdist.errors import InvalidParams
from riskdist.measures import (
    AXIOM_SAMPLES,
    Violation,
    _offset,
    _two_inside,
    _two_point_violations,
    _with_branches,
    evaluate_values,
    normal_forms,
    probe_axioms,
)
from riskdist.numerics import NEG_INF, POS_INF
from riskdist.twopoint import branch_boundaries, breakpoints, scaled_eval, two_point_eval

from test_acceptance import Defect, recheck_two_point_violation, two_point_census

F = Fraction
ZEROS = (F(0), F(0), F(0), F(0))


def params(alphas, lambdas=ZEROS, shape=None):
    return rd.TwoPointParams(alphas, lambdas, shape or rd.ShapeFunction.zero())


def family_stream(count):
    """The first ``count`` parameter sets of criterion 09's stream."""
    rng = derive_rng(909, "family")
    return [random_two_point_params(rng) for _ in range(count)]


def boundary_pairs(p, rng):
    """Monotone pairs straddling the branch boundaries of a family member.

    Random probing rarely lands on the measure-zero switching lines, so the
    prober aims pairs (phi, phi + small bump) across each finite boundary b
    of the difference phi1 - phi0.  Raising phi1 crosses b upwards and
    catches a value that drops; raising phi0 crosses it downwards and
    catches a value that jumps up by more than the bump.
    """
    pairs = []
    eps = F(1, 10)
    for delta in branch_boundaries(p):
        for _ in range(8):
            base = F(rng.randint(-12, 12), 4)
            lo = (base, base + delta)
            pairs.append((lo, (lo[0], lo[1] + eps)))  # b -> b + eps
            pairs.append(((lo[0], lo[1] - eps), lo))  # b - eps -> b
            pairs.append((lo, (lo[0] + eps, lo[1])))  # b -> b - eps
            pairs.append(((lo[0] - eps, lo[1]), lo))  # b + eps -> b
    return pairs


def probe_member(mu, seed, samples=AXIOM_SAMPLES):
    """The violations ``probe_axioms`` finds on a family member with 32
    extra pairs across each branch boundary, each naming the branches it
    evaluated: an oracle for the census, independent of its breakpoints."""
    pairs = boundary_pairs(mu.params, random.Random(seed))
    found = probe_axioms(partial(evaluate_values, mu), mu.space, seed, samples, pairs)
    return [_with_branches(mu.params, v) for v in found]


def assert_rechecks(report, p):
    """Every violation re-checks exactly inside a census defect."""
    defects = two_point_census(p)
    for v in report.violations:
        _, lo, hi, _ = recheck_two_point_violation(v, p)
        assert any(d.meets(lo, hi) for d in defects), (p, v, defects)


class TestShapeFunction:
    def test_zero_and_identity_are_valid(self):
        assert rd.ShapeFunction.zero()(F(3)) == 0
        f = rd.ShapeFunction.identity()
        assert f(F(-20)) == F(-20)
        assert f(F(7, 2)) == F(7, 2)

    def test_knots_must_be_finite(self):
        # an infinite knot made a float slope of 0 out of rational input
        for knots in (((NEG_INF, F(-1)), (F(0), F(0))), ((F(0), F(0)), (POS_INF, POS_INF))):
            with pytest.raises(InvalidParams, match="finite"):
                rd.ShapeFunction(knots)

    def test_must_vanish_at_origin(self):
        # knots may skip 0 when the interpolation still passes through it
        rd.ShapeFunction(((F(-1), F(-1)), (F(1), F(1))))
        with pytest.raises(InvalidParams):
            rd.ShapeFunction(((F(0), F(1)), (F(2), F(2))))

    def test_slope_envelope(self):
        with pytest.raises(InvalidParams):
            rd.ShapeFunction(((F(0), F(0)), (F(1), F(2))))  # slope 2
        with pytest.raises(InvalidParams):
            rd.ShapeFunction(((F(-1), F(1, 2)), (F(0), F(0))))  # f > 0 left

    def test_curvature_sides(self):
        # slopes 0 then 1 meeting left of the origin: convex where concavity
        # is required
        with pytest.raises(InvalidParams):
            rd.ShapeFunction(((F(-3), F(-1)), (F(-1), F(-1)), (F(0), F(0))))
        # growing slopes right of the origin are fine (convex side)
        rd.ShapeFunction(((F(0), F(0)), (F(1), F(0)), (F(3), F(2))))
        # shrinking slopes right of the origin are not
        with pytest.raises(InvalidParams):
            rd.ShapeFunction(((F(0), F(0)), (F(1), F(1)), (F(3), F(1))))

    def test_segments_are_found_as_the_linear_scan_found_them(self):
        """At an interior knot the left segment is used, so float values
        keep their bits."""

        def scan(f, t):
            ks, slopes = f.knots, f._slopes
            if len(ks) == 1:
                return ks[0][1] * 0
            if t <= ks[0][0]:
                return ks[0][1] + slopes[0] * (t - ks[0][0])
            if t >= ks[-1][0]:
                return ks[-1][1] + slopes[-1] * (t - ks[-1][0])
            for i in range(len(ks) - 1):
                if ks[i][0] <= t <= ks[i + 1][0]:
                    return ks[i][1] + slopes[i] * (t - ks[i][0])

        shapes = [
            rd.ShapeFunction.zero(),
            rd.ShapeFunction.identity(),
            rd.ShapeFunction(((F(-2), F(-3, 2)), (F(-1), F(-1, 2)), (F(0), F(0)), (F(2), F(1)))),
            rd.ShapeFunction(((-2.2, -1.1), (-0.7, -0.1), (0.0, 0.0), (0.3, 0.1), (1.9, 1.3))),
            rd.ShapeFunction(((-3.0, -0.9), (-1.0, -0.3), (0.0, 0.0), (0.1, 0.0), (0.7, 0.2), (5.0, 4.1))),
        ]
        for f in shapes:
            ts = [t for t, _ in f.knots]
            probes = ts + [(a + b) / 2 for a, b in zip(ts, ts[1:])] + [ts[0] - 1, ts[-1] + 1]
            probes += [t + d for t in ts for d in (1e-9, -1e-9, 0.1, -0.1)]
            for t in probes:
                value, reference = f(t), scan(f, t)
                assert value == reference and repr(value) == repr(reference), (f, t)

    def test_kinked_valid_shape(self):
        f = rd.ShapeFunction(
            ((F(-2), F(-3, 2)), (F(-1), F(-1, 2)), (F(0), F(0)), (F(2), F(1)))
        )
        assert f(F(-3)) == F(-5, 2)
        assert f(F(1)) == F(1, 2)
        assert f(F(4)) == F(2)


class TestParamValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidParams):
            params((F(1, 2), F(1, 2), F(1, 2), F(0)))

    def test_float_weights_must_sum_to_one_exactly(self):
        # 0.1 + 0.2 + 0.3 + 0.4 == 1.0 in float arithmetic, but the four
        # floats are binary fractions whose exact sum is not 1
        assert 0.1 + 0.2 + 0.3 + 0.4 == 1
        with pytest.raises(InvalidParams, match="weights must sum to 1"):
            params((0.1, 0.2, 0.3, 0.4))

    def test_nan_parameters_are_refused(self):
        nan = float("nan")
        with pytest.raises(InvalidParams):
            params((nan, F(1), F(0), F(0)))
        with pytest.raises(InvalidParams):
            params((F(1), F(0), F(0), F(0)), (F(0), nan, F(0), F(0)))

    def test_shift_signs(self):
        with pytest.raises(InvalidParams):
            rd.TwoPointParams(
                (F(1), F(0), F(0), F(0)),
                (F(1), F(0), F(0), F(0)),
                rd.ShapeFunction.zero(),
            )
        with pytest.raises(InvalidParams):
            rd.TwoPointParams(
                (F(1), F(0), F(0), F(0)),
                (F(-1), F(-1), F(0), F(0)),  # max != 0
                rd.ShapeFunction.zero(),
            )


class TestEvaluation:
    def test_pure_first_point_mass(self):
        p = params((F(1), F(0), F(0), F(0)))
        assert two_point_eval(p, F(5), F(9)).value == 5

    def test_pure_max_term(self):
        p = params((F(0), F(0), F(1), F(0)))
        out = two_point_eval(p, F(1), F(3))
        assert out.value == 3

    def test_shape_term_with_equal_weights(self):
        p = params(
            (F(1, 2), F(1, 2), F(0), F(0)), shape=rd.ShapeFunction.identity()
        )
        out = two_point_eval(p, F(1), F(3))
        # 1/2 + 3/2 + (1/2)(3 - 1), selected by the degenerate first branch
        assert out.value == 3
        assert out.branch == 1 and not out.gap

    def test_infinite_shifts_never_win(self):
        p = rd.TwoPointParams(
            (F(0), F(0), F(1, 2), F(1, 2)),
            (NEG_INF, F(0), F(0), POS_INF),
            rd.ShapeFunction.zero(),
        )
        out = two_point_eval(p, F(4), F(-2))
        # max term collapses to the second point, min term to the first
        assert out.value == F(1, 2) * (-2) + F(1, 2) * 4 == 1

    def test_uncovered_region_flags_gap(self):
        p = rd.TwoPointParams(
            (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
            (NEG_INF, F(0), F(0), POS_INF),
            rd.ShapeFunction.zero(),
        )
        assert two_point_eval(p, F(0), F(1)).gap

    def test_translation_invariance_and_normedness_hold_broadly(self):
        rng = derive_rng(21, "family-ti")
        for _ in range(50):
            p = random_two_point_params(rng)
            base = two_point_eval(p, F(2), F(-1)).value
            shifted = two_point_eval(p, F(5), F(2)).value
            assert shifted == base + 3
            assert two_point_eval(p, F(1), F(1)).value == 1


class TestBranchTableDefect:
    """The printed branch table produces genuine monotonicity violations whose
    evaluations never touch the uncovered region, so the defect is not
    attributable to the fallback.  One kind needs finite nonzero shifts and a
    shape that does not vanish at the branch boundary; the other is branch
    4's weight exceeding the phi0 coefficient on its own region, which needs
    no finite shift at all."""

    def test_documented_counterexample(self):
        p = rd.TwoPointParams(
            (F(1, 2), F(0), F(1, 2), F(0)),
            (F(-1), F(0), F(0), F(0)),
            rd.ShapeFunction.identity(),
        )
        lo = two_point_eval(p, F(1), F(0))
        hi = two_point_eval(p, F(1), F(1, 10))
        assert lo.value == F(1, 2) and lo.branch == 3 and not lo.gap
        assert hi.value == F(1, 10) and hi.branch == 4 and not hi.gap
        # phi <= psi pointwise yet the value drops
        assert lo.value > hi.value

    def test_branch_four_slope_counterexample(self):
        p = rd.TwoPointParams(
            (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
            (NEG_INF, F(0), F(0), F(0)),
            rd.ShapeFunction.identity(),
        )
        lo = two_point_eval(p, F(0), F(-1))
        hi = two_point_eval(p, F(1), F(-1))
        assert lo.value == F(-5, 4) and lo.branch == 4 and not lo.gap
        assert hi.value == F(-3, 2) and hi.branch == 4 and not hi.gap
        # raising phi0 alone lowers the value
        assert lo.value > hi.value

    def test_verifier_catches_it_via_boundary_probes(self, two_point):
        p = rd.TwoPointParams(
            (F(1, 2), F(0), F(1, 2), F(0)),
            (F(-1), F(0), F(0), F(0)),
            rd.ShapeFunction.identity(),
        )
        mono = [
            v
            for v in probe_member(rd.two_point_measure(two_point, p), seed=1)
            if v.axiom == "monotonicity"
        ]
        assert mono
        assert any(
            not v.witness["lo_eval"].gap and not v.witness["hi_eval"].gap
            for v in mono
        )

    def test_exact_tier_catches_it(self, two_point):
        p = rd.TwoPointParams(
            (F(1, 2), F(0), F(1, 2), F(0)),
            (F(-1), F(0), F(0), F(0)),
            rd.ShapeFunction.identity(),
        )
        mu = rd.two_point_measure(two_point, p)
        report = rd.verify_axioms(mu, seed=1)
        assert not report.ok
        assert report.method == "exact"
        assert [v.axiom for v in report.violations] == ["monotonicity"]
        (v,) = report.violations
        # the jump at the covered boundary t = -1, away from the fallback
        assert not v.witness["lo_eval"].gap and not v.witness["hi_eval"].gap
        assert_rechecks(report, p)

    def test_boundary_locations(self):
        p = rd.TwoPointParams(
            (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
            (F(-2), F(0), F(3), F(0)),
            rd.ShapeFunction.zero(),
        )
        assert branch_boundaries(p) == [F(-2), F(3)]

    def test_all_zero_shift_subfamily_is_sound(self, two_point):
        rng = derive_rng(31, "family-sound")
        for _ in range(40):
            base = random_two_point_params(rng)
            p = rd.TwoPointParams(base.alphas, ZEROS, base.shape)
            mu = rd.two_point_measure(two_point, p)
            assert rd.verify_axioms(mu, seed=7).ok
            assert not probe_member(mu, seed=7, samples=300)


class TestBranchTable:
    """Every branch's shape weight, pinned to the table of the module
    docstring through the value two_point_eval returns.

    The table is transcribed here on its own.  With c1: phi0 + l1 >= phi1 +
    l2 and c2: phi0 + l3 <= phi1 + l4, the first matching row wins, and the
    region no row covers falls back to row 5's weight with the gap flag.
    Points are seeded inside each row's region with t = phi1 - phi0 != 0 and
    the identity shape, so f(t) = t and a wrong weight changes the value.
    """

    WEIGHTS = {
        1: lambda a1, a2, a3, a4: min(a1, a2),
        2: lambda a1, a2, a3, a4: min(a1 + a3 + a4, a2),
        3: lambda a1, a2, a3, a4: min(a1 + a3, a2 + a4),
        4: lambda a1, a2, a3, a4: min(a1 + a4, a2 + a3),
        5: lambda a1, a2, a3, a4: min(a1, a2 + a3 + a4),
    }

    @staticmethod
    def row(p, phi0, phi1):
        """(row, gap) of the printed table at phi."""
        _, _, a3, a4 = p.alphas
        l1, l2, l3, l4 = p.lambdas
        if a3 == 0 and a4 == 0:
            return 1, False
        c1 = phi0 + l1 >= phi1 + l2
        c2_le = phi0 + l3 <= phi1 + l4
        c2_ge = phi0 + l3 >= phi1 + l4
        if c1 and c2_le:
            return 2, False
        if c1 and not c2_le:
            return 3, False
        if not c1 and c2_ge:
            return 4, False
        if not c1 and not c2_le:
            return 5, False
        return 5, True

    @staticmethod
    def seeded_params(rng):
        alphas = [F(rng.randint(0, 4)) for _ in range(4)]
        if rng.random() < 0.2:
            alphas[2] = alphas[3] = F(0)
        if not sum(alphas):
            alphas[0] = F(1)
        total = sum(alphas)
        k = F(rng.randint(1, 4))
        neg = rng.choice(((0, 0), (0, -k), (-k, 0), (0, NEG_INF), (NEG_INF, 0)))
        pos = rng.choice(((0, 0), (0, k), (k, 0), (0, POS_INF), (POS_INF, 0)))
        return rd.TwoPointParams(
            tuple(a / total for a in alphas),
            tuple(F(l) if l not in (NEG_INF, POS_INF) else l for l in neg + pos),
            rd.ShapeFunction.identity(),
        )

    def test_weights_match_the_printed_table(self):
        rng = derive_rng(37, "branch-table")
        hits = {state: 0 for state in ((1, False), (2, False), (3, False), (4, False), (5, True))}
        for _ in range(300):
            p = self.seeded_params(rng)
            a1, a2, a3, a4 = p.alphas
            l1, l2, l3, l4 = p.lambdas
            ts = [F(rng.randint(-24, 24), 4) for _ in range(6)]
            for b in branch_boundaries(p):
                ts += [b - F(1, 2), b, b + F(1, 2)]
            for t in ts:
                if t == 0:
                    continue
                phi0 = F(rng.randint(-16, 16), 4)
                phi1 = phi0 + t
                state = self.row(p, phi0, phi1)
                weight = self.WEIGHTS[state[0]](a1, a2, a3, a4)
                want = (
                    a1 * phi0
                    + a2 * phi1
                    + a3 * max(phi0 + l1, phi1 + l2)
                    + a4 * min(phi0 + l3, phi1 + l4)
                    + weight * t
                )
                got = two_point_eval(p, phi0, phi1)
                assert (got.branch, got.gap) == state, (p, phi0, phi1)
                assert got.value == want, (p, phi0, phi1, state)
                # row 5's own region lies inside row 4's
                assert got.branch != 5 or got.gap
                hits[state] += 1
        assert min(hits.values()) >= 50, hits


class TestExactTier:
    """verify_axioms decides family members on an exact space from the
    affine pieces of their formula; the sampled probes stay a cross-check."""

    def test_small_jumps_the_probes_miss_fail(self, two_point):
        # sets 144 and 251 of criterion 09's stream: one jump of 1/48 each,
        # smaller than the boundary probe's bump times the slope
        stream = family_stream(252)
        for index in (144, 251):
            p = stream[index]
            defects = two_point_census(p)
            assert len(defects) == 1 and defects[0].lo == defects[0].hi
            report = rd.verify_axioms(rd.two_point_measure(two_point, p), seed=index)
            assert not report.ok and report.method == "exact"
            assert report.violations
            assert_rechecks(report, p)

    def test_dropped_phi1_term_breaks_translation_invariance(self, two_point, monkeypatch):
        import riskdist.measures

        # the census evaluates through the integer core, on its numerators
        def mutated(k, x0, x1, q):
            total, branch = scaled_eval(k, x0, x1, q)
            return total - k.alphas[1] * x1, branch

        monkeypatch.setattr(riskdist.measures, "scaled_eval", mutated)
        p = params((F(1, 4), F(1, 4), F(1, 4), F(1, 4)), shape=rd.ShapeFunction.identity())
        report = rd.verify_axioms(rd.two_point_measure(two_point, p))
        assert not report.ok and report.method == "exact"
        assert "translation-invariance" in {v.axiom for v in report.violations}

    def test_a_space_of_json_floats_is_censused(self):
        # 2.5 is read as 5/2: the space is exact, and so is the check
        space = rd.validate_metric(["x", "y"], [[0, 2.5], [2.5, 0]])
        assert space.d(0, 1) == F(5, 2)
        mu = rd.two_point_measure(space, params((F(1, 4),) * 4))
        report = rd.verify_axioms(mu, seed=3)
        assert report.ok and report.method == "exact"
        assert report is mu.exact_report

    def test_family_members_are_decided_exactly(self, two_point):
        sound = params((F(1, 4), F(1, 4), F(1, 4), F(1, 4)), shape=rd.ShapeFunction.identity())
        report = rd.verify_axioms(rd.two_point_measure(two_point, sound))
        assert report.ok and report.method == "exact"
        slope = rd.TwoPointParams(
            (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
            (NEG_INF, F(0), F(0), F(0)),
            rd.ShapeFunction.identity(),
        )
        report = rd.verify_axioms(rd.two_point_measure(two_point, slope))
        assert not report.ok and report.method == "exact"
        assert_rechecks(report, slope)


#: a sound member whose g breaks at -4, -2, -1, 0, 1 and 3
KINKED_SHIFTS = (F(-2), F(0), F(0), F(1))
KINKED_KNOTS = ((F(-4), F(-1)), (F(-2), F(0)), (F(0), F(0)), (F(1), F(0)), (F(3), F(1)))


def member(space, alphas, lambdas=ZEROS, knots=None):
    shape = rd.ShapeFunction(knots) if knots else rd.ShapeFunction.zero()
    return rd.two_point_measure(space, rd.TwoPointParams(alphas, lambdas, shape))


def random_family_member(space, rng):
    """A random family member that passes its axioms."""
    while True:
        mu = rd.two_point_measure(space, random_two_point_params(rng))
        if rd.verify_axioms(mu).ok:
            return mu


def assert_affine_between_breakpoints(mu):
    """g(t) = mu(0, t) is affine on each piece between consecutive
    breakpoints, and on the rays past the outer ones, at nine points each."""
    points = mu.breakpoints
    ends = [points[0] - 8, *points, points[-1] + 8]
    for lo, hi in zip(ends, ends[1:]):
        ts = [lo + k * (hi - lo) / 8 for k in range(9)]
        gs = [evaluate_values(mu, (F(0), t)) for t in ts]
        slope = (gs[-1] - gs[0]) / (hi - lo)
        assert all(g == gs[0] + slope * (t - lo) for t, g in zip(ts, gs)), (mu.kind, lo, hi)


class TestBreakpoints:
    def test_family_breakpoints_are_zero_boundaries_and_knots(self):
        p = rd.TwoPointParams((F(1, 4),) * 4, KINKED_SHIFTS, rd.ShapeFunction(KINKED_KNOTS))
        assert branch_boundaries(p) == [-2, -1]
        assert breakpoints(p) == [-4, -2, -1, 0, 1, 3]
        assert breakpoints(params((F(1), F(0), F(0), F(0)))) == [0]

    def test_g_is_affine_between_breakpoints_of_random_measures(self, two_point):
        # random_measure draws, and max, min and mixtures of family members
        # with capacities
        rng = derive_rng(1606, "breakpoints")
        kinds = Counter()
        for _ in range(120):
            mu = random_measure(two_point, rng)
            if rng.random() < 0.5:
                parts = [mu, random_family_member(two_point, rng)]
                combine = rng.choice((rd.lattice_max, rd.lattice_min, rd.mixture))
                if combine is rd.mixture:
                    mu = rd.mixture((F(1, 3), F(2, 3)), parts)
                else:
                    mu = combine(parts)
            # a measure has breakpoints iff it passes its axioms exactly
            report = rd.verify_axioms(mu)
            assert (mu.breakpoints is not None) == (report.ok and report.method == "exact")
            if mu.breakpoints is None:
                continue
            assert_affine_between_breakpoints(mu)
            kinds[mu.kind, normal_forms(mu) is None] += 1
        for kind in ("two-point", "max", "min", "mixture"):
            assert kinds[kind, True] >= 5, kinds

    def test_g_is_affine_between_breakpoints_of_combinations(self, two_point):
        # g_a(t) = t / 2 and g_b(t) = min(3, t) cross at 6, which neither
        # lists: the max and the min add it
        a = member(two_point, (F(1, 2), F(1, 2), F(0), F(0)))
        b = member(two_point, (F(0), F(0), F(0), F(1)), (F(0), F(0), F(3), F(0)))
        assert (a.breakpoints, b.breakpoints) == ((0,), (0, 3))
        kinked = member(two_point, (F(1, 4),) * 4, KINKED_SHIFTS, KINKED_KNOTS)
        expectation = rd.choquet_measure(rd.expectation(two_point, (F(1, 3), F(2, 3))))
        combos = {
            "max": rd.lattice_max([a, b]),
            "min": rd.lattice_min([a, b]),
            "mixture": rd.mixture((F(1, 2), F(1, 2)), [a, b]),
            "nested": rd.lattice_min([rd.lattice_max([a, kinked]), b, expectation]),
            "mixed": rd.mixture((F(1, 3), F(2, 3)), [kinked, rd.lattice_max([b, expectation])]),
        }
        assert 6 in combos["max"].breakpoints and 6 in combos["min"].breakpoints
        assert combos["mixture"].breakpoints == (0, 3)
        for mu in (a, b, kinked, *combos.values()):
            assert rd.verify_axioms(mu).ok
            assert_affine_between_breakpoints(mu)

    def test_homogeneous_measures_break_only_at_zero(self, two_point):
        lattice = rd.lattice_max([rd.dirac(two_point, 0), rd.dirac(two_point, 1)])
        assert lattice.breakpoints == (0,)
        assert rd.dirac(two_point, 1).breakpoints == (0,)

    def test_black_boxes_and_defective_members_have_none(self, two_point):
        a = member(two_point, (F(1, 2), F(1, 2), F(0), F(0)))
        box = rd.black_box(two_point, lambda v: v[0])
        swap = rd.pushforward((1, 0), a, two_point)
        # branch-4 slope defect (class C of the twopoint module)
        identity = rd.ShapeFunction.identity().knots
        slope = member(two_point, (F(1, 4),) * 4, (NEG_INF, F(0), F(0), F(0)), identity)
        assert not rd.verify_axioms(slope).ok
        for mu in (box, swap, slope):
            assert mu.breakpoints is None
            assert rd.lattice_max([a, mu]).breakpoints is None
            assert rd.mixture((F(1, 2), F(1, 2)), [a, mu]).breakpoints is None


def exact_defects(report, p):
    """The defects of g the exact tier reports, as census defects: a pair
    with one end on a breakpoint b is a jump at b on the side of its other
    end, and a pair inside a piece is a slope defect of that piece."""
    points = sorted({F(0), *branch_boundaries(p), *(t for t, _ in p.shape.knots)})
    out = []
    for v in report.violations:
        assert v.axiom == "monotonicity", v
        ts = {phi[1] - phi[0] for phi in (v.witness["lo"], v.witness["hi"])}
        on = ts.intersection(points)
        if on:
            (b,) = on
            (other,) = ts - on
            out.append(Defect(None, b, b, "left" if other < b else "right"))
        else:
            t = min(ts)
            lo = max((b for b in points if b < t), default=NEG_INF)
            hi = min((b for b in points if b > t), default=POS_INF)
            out.append(Defect(None, lo, hi))
    return out


def test_sampled_tier_agrees_with_the_exact_tier(two_point):
    """The sampled probes (``probe_member``), run as an oracle on a prefix
    of criterion 09's stream, never fail a set the exact tier passes, and
    each of their violations re-checks inside a defect the exact tier
    reports."""
    failed = 0
    for index, p in enumerate(family_stream(40)):
        mu = rd.two_point_measure(two_point, p)
        exact = rd.verify_axioms(mu, seed=index)
        sampled = probe_member(mu, seed=index, samples=1000)
        if not sampled:
            continue
        failed += 1
        assert not exact.ok, (p, sampled)
        defects = exact_defects(exact, p)
        for v in sampled:
            _, lo, hi, _ = recheck_two_point_violation(v, p)
            assert any(d.meets(lo, hi) for d in defects), (p, v, defects)
    assert failed >= 10


def reference_two_point_eval(p, phi0, phi1):
    """(value, branch, gap) by two_point_eval's formula as first written,
    with each shifted argument formed again for the branch test."""
    a1, a2, a3, a4 = p.alphas
    l1, l2, l3, l4 = p.lambdas
    total = a1 * phi0 + a2 * phi1
    if a3 != 0:
        total += a3 * max(phi0 + l1, phi1 + l2)
    if a4 != 0:
        total += a4 * min(phi0 + l3, phi1 + l4)
    c1 = phi0 + l1 >= phi1 + l2
    c2_le = phi0 + l3 <= phi1 + l4
    c2_ge = phi0 + l3 >= phi1 + l4
    if a3 == 0 and a4 == 0:
        weight, branch, gap = min(a1, a2), 1, False
    elif c1 and c2_le:
        weight, branch, gap = min(a1 + a3 + a4, a2), 2, False
    elif c1 and not c2_le:
        weight, branch, gap = min(a1 + a3, a2 + a4), 3, False
    elif not c1 and c2_ge:
        weight, branch, gap = min(a1 + a4, a2 + a3), 4, False
    else:
        weight, branch, gap = min(a1, a2 + a3 + a4), 5, True
    if weight != 0:
        total += weight * p.shape(phi1 - phi0)
    return total, branch, gap


def as_float_params(p):
    """p with every number a float, or None when rounding breaks a check:
    each float is held as the ``Fraction`` it equals, so a weight that
    rounds, such as 1/3, leaves weights that do not sum to 1."""
    try:
        return rd.TwoPointParams(
            tuple(map(float, p.alphas)),
            tuple(map(float, p.lambdas)),
            rd.ShapeFunction(tuple((float(t), float(y)) for t, y in p.shape.knots)),
        )
    except InvalidParams:
        return None


#: every placement of infinite shifts: on the max side, the min side, both
INFINITE_SHIFTS = [
    (l1, l2, l3, l4)
    for l1, l2 in ((NEG_INF, F(0)), (F(0), NEG_INF), (F(-1), F(0)))
    for l3, l4 in ((POS_INF, F(0)), (F(0), POS_INF), (F(0), F(2)))
    if NEG_INF in (l1, l2) or POS_INF in (l3, l4)
]


def test_two_point_eval_matches_the_reference_formula():
    rng = derive_rng(41, "two-point-reference")
    exact = family_stream(150) + [TestBranchTable.seeded_params(rng) for _ in range(150)]
    # a zero (single-knot) shape under nonzero weights, and infinite shifts
    # on each side under the identity and a kinked shape
    kinked = rd.ShapeFunction(KINKED_KNOTS)
    exact += [params(alphas) for alphas in ((F(1, 4),) * 4, (F(1, 2), F(1, 3), F(1, 6), F(0)))]
    exact += [
        params((F(1, 4),) * 4, lambdas, shape)
        for lambdas in INFINITE_SHIFTS
        for shape in (rd.ShapeFunction.identity(), kinked)
    ]
    cases = [(p, False) for p in exact]
    cases += [(q, True) for q in map(as_float_params, exact) if q is not None]
    branches = set()
    for p, floats in cases:
        knots = p.shape.knots
        ts = [F(rng.randint(-24, 24), 4) for _ in range(4)]
        for b in branch_boundaries(p):
            ts += [b - F(1, 3), b, b + F(1, 3)]
        ts += [knots[0][0] - F(5, 2), knots[0][0], knots[-1][0], knots[-1][0] + 7]
        inputs = []
        for t in ts:
            phi0 = rng.choice((0, rng.randint(-9, 9), F(rng.randint(-16, 16), 3)))
            inputs.append((phi0, phi0 + t))
        # plain ints, and coprime denominators 7 and 5
        inputs += [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(4)]
        for _ in range(4):
            k0, k1 = rng.randint(-3, 3), rng.randint(-3, 3)
            inputs.append((F(rng.randint(1, 6) + 7 * k0, 7), F(rng.randint(1, 4) + 5 * k1, 5)))
        for phi0, phi1 in inputs:
            if floats:
                phi0, phi1 = float(phi0), float(phi1)
            got = two_point_eval(p, phi0, phi1)
            # a float input is evaluated as the Fraction it equals
            value, branch, gap = reference_two_point_eval(p, F(phi0), F(phi1))
            assert type(got.value) is type(value) and got.value == value, (p, phi0, phi1)
            assert repr(got.value) == repr(value)
            assert (got.branch, got.gap) == (branch, gap)
            branches.add((branch, floats))
    assert branches == {(b, f) for b in range(1, 6) for f in (False, True)}


def reference_two_point_violations(mu):
    """The violations of a family member by the axiom census as first
    written: ``Fraction`` arithmetic on evaluations through the member's
    memo, with each strip's form divided out."""
    zero, one = F(0), F(1)

    def ev(phi0, phi1):
        return evaluate_values(mu, (phi0, phi1))

    def monotone(lo, hi):
        wit = {"lo": lo, "hi": hi}
        return _with_branches(mu.params, Violation("monotonicity", wit, (ev(*lo), ev(*hi))))

    def shifted(t, base, moved):
        return Violation(
            "translation-invariance", {"phi": (zero, t), "shift": one}, (base, moved)
        )

    points = [F(t) for t in breakpoints(mu.params)]
    ends = [None, *points, None]
    out = []
    forms = []
    for lo, hi in zip(ends, ends[1:]):
        t1, t2 = _two_inside(lo, hi)
        g1, g2, moved = ev(zero, t1), ev(zero, t2), ev(one, one + t1)
        beta = (g2 - g1) / (t2 - t1)
        alpha = moved - g1 - beta
        forms.append((alpha, beta, g1 - beta * t1))
        if moved != g1 + 1:
            out.append(shifted(t1, g1, moved))
        if beta < 0:
            out.append(monotone((zero, t1), (zero, t2)))
        if alpha < 0:
            out.append(monotone((zero, t2), (t2 - t1, t2)))
    for k, b in enumerate(points):
        here, moved = ev(zero, b), ev(one, one + b)
        if moved != here + 1:
            out.append(shifted(b, here, moved))
        if b == 0 and here != 0:
            out.append(Violation("normedness", {"constant": zero}, (here,)))
        (la, lb, lc), (_, rb, rc) = forms[k], forms[k + 1]
        left = min(one, (b - points[k - 1]) / 2) if k else one
        right = min(one, (points[k + 1] - b) / 2) if k + 1 < len(points) else one
        jump = lb * b + lc - here
        if jump > 0:
            eps = _offset(jump, lb, left)
            out.append(monotone((zero, b - eps), (zero, b)))
        elif jump < 0:
            eps = _offset(-jump, la, left)
            out.append(monotone((zero, b), (eps, b)))
        jump = here - (rb * b + rc)
        if jump > 0:
            eps = _offset(jump, rb, right)
            out.append(monotone((zero, b), (zero, b + eps)))
        elif jump < 0:
            eps = _offset(-jump, moved - here - rb, right)
            out.append(monotone((zero, b + eps), (eps, b + eps)))
    return out


#: one hand-built member per documented defect class (twopoint module
#: docstring): a fallback jump at t = 1, a covered-branch jump at the
#: boundary -1, and branch 4's slope above 1 with no finite shift
CLASS_DEFECTS = {
    "A": ((F(1, 2), F(0), F(1, 2), F(0)), (F(0), F(-1), F(0), F(0))),
    "B": ((F(1, 2), F(0), F(1, 2), F(0)), (F(-1), F(0), F(0), F(0))),
    "C": ((F(1, 4),) * 4, (NEG_INF, F(0), F(0), F(0))),
}


def test_census_matches_the_fraction_census(two_point):
    """The integer census reports what the ``Fraction`` census reported,
    violation by violation and to the ``repr`` of every witness and value,
    on criterion 09's stream, the infinite shifts and one member per class."""
    kinked = rd.ShapeFunction(KINKED_KNOTS)
    members = family_stream(1000)
    members += [
        params((F(1, 4),) * 4, lambdas, shape)
        for lambdas in INFINITE_SHIFTS
        for shape in (rd.ShapeFunction.identity(), kinked)
    ]
    for cls, (alphas, lambdas) in CLASS_DEFECTS.items():
        p = params(alphas, lambdas, rd.ShapeFunction.identity())
        assert {d.cls for d in two_point_census(p)} == {cls}
        members.append(p)
    failing = 0
    for p in members:
        got = _two_point_violations(rd.two_point_measure(two_point, p))
        want = reference_two_point_violations(rd.two_point_measure(two_point, p))
        assert got == want and repr(got) == repr(want), p
        failing += bool(want)
    # criterion 09's 322, four members with infinite shifts and the three
    # hand-built ones
    assert failing == 322 + 4 + 3


class TestCensusScope:
    """Every member is censused, whatever number types its parameters are
    given in: each float is held as the ``Fraction`` it equals."""

    def test_float_parameters_on_an_exact_space_are_censused(self, two_point):
        p = rd.TwoPointParams((0.25,) * 4, (NEG_INF, 0.0, 0.0, 0.0), rd.ShapeFunction.identity())
        mu = rd.two_point_measure(two_point, p)
        # branch 4's slope defect, decided by the census
        report = rd.verify_axioms(mu, seed=3)
        assert not report.ok and report.method == "exact"
        assert report is mu.exact_report and mu.breakpoints is None
        assert_rechecks(report, p)

    def test_a_float_member_equals_its_fraction_twin(self, two_point):
        identity = rd.ShapeFunction.identity()
        floats = rd.TwoPointParams((0.25,) * 4, (NEG_INF, 0.0, 0.0, 0.0), identity)
        twin = rd.TwoPointParams((F(1, 4),) * 4, (NEG_INF, F(0), F(0), F(0)), identity)
        assert floats == twin
        assert all(type(x) is F for x in (*floats.alphas, *floats.lambdas[1:]))
        assert floats.scaled == twin.scaled
        report = rd.two_point_measure(two_point, floats).exact_report
        assert report == rd.two_point_measure(two_point, twin).exact_report
        assert not report.ok and report.method == "exact"
        # the defect of class C: branch 4's slope passes 1
        assert {d.cls for d in two_point_census(twin)} == {"C"}
        for phi0, phi1 in ((0.5, -1.0), (0.1, 0.3), (-2.75, 7.0), (3.0, 3.0)):
            got = two_point_eval(floats, phi0, phi1)
            assert got == two_point_eval(twin, F(phi0), F(phi1))
            assert type(got.value) is F

    def test_float_knots_are_held_as_their_fractions(self):
        knots = ((-2.5, -1.25), (0.0, 0.0), (0.1, 0.0), (3.0, 2.9))
        shape = rd.ShapeFunction(knots)
        assert shape.knots == tuple((F(t), F(y)) for t, y in knots)
        assert all(type(x) is F for knot in shape.knots for x in knot)
        assert all(type(s) is F for s in shape._slopes)

    def test_int_weights_are_censused_as_fractions(self, two_point):
        for weights in ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            for lambdas in ((F(-1), F(0), F(0), F(2)), (NEG_INF, 0, 0, POS_INF)):
                ints = params(weights, lambdas, rd.ShapeFunction(KINKED_KNOTS))
                fracs = params(tuple(map(F, weights)), lambdas, rd.ShapeFunction(KINKED_KNOTS))
                assert ints.scaled is not None and ints.scaled == fracs.scaled
                report = rd.verify_axioms(rd.two_point_measure(two_point, ints), seed=1)
                assert report.method == "exact"
                assert report == rd.verify_axioms(rd.two_point_measure(two_point, fracs), seed=1)

    def test_int_knots_keep_exact_slopes(self, two_point):
        # int / int is a float: the slopes of int knots are Fractions, so a
        # member with such a shape is censused like its Fraction twin
        int_knots = tuple((int(t), int(y)) for t, y in KINKED_KNOTS)
        for knots in (int_knots, ((-8, -8), (0, 0), (8, 8))):
            ints = rd.ShapeFunction(knots)
            fracs = rd.ShapeFunction(tuple((F(t), F(y)) for t, y in knots))
            assert ints._slopes == fracs._slopes
            assert all(type(s) is F for s in ints._slopes)
            for weights in ((F(1, 4),) * 4, (F(1, 2), F(1, 2), F(0), F(0))):
                p_int, p_frac = params(weights, shape=ints), params(weights, shape=fracs)
                assert p_int.scaled is not None and p_int.scaled == p_frac.scaled
                mu_int = rd.two_point_measure(two_point, p_int)
                mu_frac = rd.two_point_measure(two_point, p_frac)
                assert mu_int.exact_report.method == "exact"
                assert mu_int.exact_report == mu_frac.exact_report
