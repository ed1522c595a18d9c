from fractions import Fraction

import pytest

import riskdist as rd
from riskdist.ensembles import derive_rng, random_two_point_params
from riskdist.errors import InvalidParams
from riskdist.numerics import NEG_INF, POS_INF
from riskdist.twopoint import TwoPointValue, branch_boundaries, two_point_eval

from test_acceptance import Defect, recheck_two_point_violation, two_point_census

F = Fraction
ZEROS = (F(0), F(0), F(0), F(0))


def params(alphas, lambdas=ZEROS, shape=None):
    return rd.TwoPointParams(alphas, lambdas, shape or rd.ShapeFunction.zero())


def family_stream(count):
    """The first ``count`` parameter sets of criterion 09's stream."""
    rng = derive_rng(909, "family")
    return [random_two_point_params(rng) for _ in range(count)]


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
        mu = rd.two_point_measure(two_point, p)
        report = rd.verify_axioms(mu, mode="sampled", seed=1)
        assert not report.ok
        assert report.method == "sampled(seed=1, count=200)"
        mono = [v for v in report.violations if v.axiom == "monotonicity"]
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
            assert rd.verify_axioms(mu, samples=300, seed=7).ok
            assert rd.verify_axioms(mu, mode="sampled", samples=300, seed=7).ok


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

        def mutated(p, phi0, phi1):
            out = two_point_eval(p, phi0, phi1)
            return TwoPointValue(out.value - p.alphas[1] * phi1, out.branch, out.gap)

        monkeypatch.setattr(riskdist.measures, "two_point_eval", mutated)
        p = params((F(1, 4), F(1, 4), F(1, 4), F(1, 4)), shape=rd.ShapeFunction.identity())
        report = rd.verify_axioms(rd.two_point_measure(two_point, p))
        assert not report.ok and report.method == "exact"
        assert "translation-invariance" in {v.axiom for v in report.violations}

    def test_float_space_keeps_the_probes(self):
        space = rd.validate_metric(["x", "y"], [[0, 2.5], [2.5, 0]], mode="float")
        p = rd.TwoPointParams(
            (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.0, 0.0), rd.ShapeFunction.zero()
        )
        mu = rd.two_point_measure(space, p)
        report = rd.verify_axioms(mu, samples=50, seed=3)
        assert report.ok
        assert report.method == "sampled(seed=3, count=50)"
        with pytest.raises(InvalidParams):
            rd.verify_axioms(mu, mode="exact")

    def test_exact_mode_decides_family_members(self, two_point):
        sound = params((F(1, 4), F(1, 4), F(1, 4), F(1, 4)), shape=rd.ShapeFunction.identity())
        report = rd.verify_axioms(rd.two_point_measure(two_point, sound), mode="exact")
        assert report.ok and report.method == "exact"
        slope = rd.TwoPointParams(
            (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
            (NEG_INF, F(0), F(0), F(0)),
            rd.ShapeFunction.identity(),
        )
        report = rd.verify_axioms(rd.two_point_measure(two_point, slope), mode="exact")
        assert not report.ok and report.method == "exact"
        assert_rechecks(report, slope)


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
    """The sampled probes, run as an oracle on a prefix of criterion 09's
    stream, never fail a set the exact tier passes, and each of their
    violations re-checks inside a defect the exact tier reports."""
    failed = 0
    for index, p in enumerate(family_stream(40)):
        mu = rd.two_point_measure(two_point, p)
        exact = rd.verify_axioms(mu, seed=index)
        sampled = rd.verify_axioms(mu, mode="sampled", samples=1000, seed=index)
        if sampled.ok:
            continue
        failed += 1
        assert not exact.ok, (p, sampled.violations)
        defects = exact_defects(exact, p)
        for v in sampled.violations:
            _, lo, hi, _ = recheck_two_point_violation(v, p)
            assert any(d.meets(lo, hi) for d in defects), (p, v, defects)
    assert failed >= 10
