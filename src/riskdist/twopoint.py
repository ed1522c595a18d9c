"""The parametric family of risk measures on a two-point space.

A member is determined by convex weights (a1..a4), shift parameters
(l1, l2 <= 0 with max 0; l3, l4 >= 0 with min 0, infinities allowed) and a
piecewise-linear shape function f.  Its value on phi = (phi0, phi1) is

    a1*phi0 + a2*phi1 + a3*max(phi0 + l1, phi1 + l2)
            + a4*min(phi0 + l3, phi1 + l4) + w(phi)*f(phi1 - phi0)

where the weight w(phi) of the shape term is selected by a branch table on
the two comparisons c1: phi0 + l1 >= phi1 + l2 and c2: phi0 + l3 <= phi1 + l4.
Branches are evaluated in a fixed order with first match winning:

    1. a3 = a4 = 0                 -> min(a1, a2)
    2. c1 and c2                   -> min(a1 + a3 + a4, a2)
    3. c1 and strictly not c2      -> min(a1 + a3, a2 + a4)
    4. not c1 and (>= half of c2)  -> min(a1 + a4, a2 + a3)
    5. not c1 and strictly not c2  -> min(a1, a2 + a3 + a4)

As written the table leaves the region {phi0 + l1 < phi1 + l2 and
phi0 + l3 < phi1 + l4} uncovered (branches 4 and 5 both need the second
comparison to fail at least weakly).  Evaluation in that region falls back
to branch 5's weight and flags the result.  Branch 5's own region lies
inside branch 4's, which is tested first, so branch 5 is reported only
through the fallback.

The table is reproduced as printed, and the family it defines is not
monotone for every valid parameter set.  The branch tests depend on phi only
through t = phi1 - phi0, so mu(phi) = phi0 + g(t) with g piecewise linear,
and mu is monotone iff g is continuous with every slope in [0, 1].
``measures.verify_axioms`` decides each member on an exact space this way:
it reads the affine form of mu on every strip of t between the breakpoints
(0, the shape knots and ``branch_boundaries``) from evaluations, and reports
each jump of g and each slope outside [0, 1] with a monotone pair that
re-checks exactly.  Three classes of defect break monotonicity:

    A. fallback jump: the shape weight jumps where t enters the uncovered
       region, and f does not vanish there;
    B. covered-branch jump: the weight changes between covered branches at
       a finite nonzero boundary b with f(b) != 0;
    C. branch-4 slope: on branch 4's own region both the max and the min
       pick phi1, so the phi0 coefficient is a1 and g has slope
       1 - a1 + w*f' with w = min(a1 + a4, a2 + a3); when w > a1 that slope
       passes 1 wherever f' > a1 / w.  This needs no finite shift: weights
       (1/4, 1/4, 1/4, 1/4), shifts (-inf, 0, 0, 0) and the identity shape
       give mu(0, -1) = -5/4 > mu(1, -1) = -3/2.

Every other entry's weight is min(phi0 coefficient, phi1 coefficient) on its
own region, which keeps the slope of g within [0, 1].  Branch 4's weight is
instead the one that fits the uncovered region, where the max picks phi1 and
the min picks phi0.  Whether that misprint is in the paper or in the
transcription of its table is unsettled: only the abstract is at hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvalidParams
from .numerics import Scalar, is_finite


@dataclass(frozen=True)
class ShapeFunction:
    """Piecewise-linear f with f(0) = 0, nondecreasing, concave-below /
    convex-above the origin, pinched between the identity and zero.

    Knots are (t, f(t)) pairs sorted by t; beyond the end knots the last
    segment slopes extend linearly.  A single knot means f is constant 0.
    """

    knots: tuple[tuple[Scalar, Scalar], ...]

    def __post_init__(self):
        ts = [t for t, _ in self.knots]
        if not ts:
            raise InvalidParams("shape function needs at least one knot")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidParams("shape knots must be strictly increasing in t")
        self._validate()

    @cached_property
    def _slopes(self) -> tuple[Scalar, ...]:
        # derived from the immutable knots once: evaluation is a hot path
        ks = self.knots
        return tuple(
            (ks[i + 1][1] - ks[i][1]) / (ks[i + 1][0] - ks[i][0])
            for i in range(len(ks) - 1)
        )

    def _validate(self):
        if len(self.knots) == 1 and self.knots[0][1] != 0:
            raise InvalidParams("a single knot must have value 0")
        if self(0) != 0:
            raise InvalidParams("shape function must vanish at 0")
        slopes = self._slopes
        if any(s < 0 or s > 1 for s in slopes):
            # outside [0, 1] the function escapes the identity/zero envelope
            raise InvalidParams("shape slopes must lie in [0, 1]")
        # concave left of 0, convex right of 0; a pair of adjacent segments
        # constrains slopes only when both overlap the same side (the shared
        # knot strictly off the origin)
        for i in range(len(slopes) - 1):
            shared = self.knots[i + 1][0]
            if shared < 0 and slopes[i + 1] > slopes[i]:
                raise InvalidParams("shape must be concave left of 0")
            if shared > 0 and slopes[i + 1] < slopes[i]:
                raise InvalidParams("shape must be convex right of 0")
        for t, y in self.knots:
            if t <= 0 and not (t <= y <= 0):
                raise InvalidParams("shape must satisfy t <= f(t) <= 0 left of 0")
            if t >= 0 and not (0 <= y <= t):
                raise InvalidParams("shape must satisfy 0 <= f(t) <= t right of 0")

    def __call__(self, t: Scalar) -> Scalar:
        ks = self.knots
        if len(ks) == 1:
            return ks[0][1] * 0  # constant 0 everywhere
        slopes = self._slopes
        if t <= ks[0][0]:
            return ks[0][1] + slopes[0] * (t - ks[0][0])
        if t >= ks[-1][0]:
            return ks[-1][1] + slopes[-1] * (t - ks[-1][0])
        for i in range(len(ks) - 1):
            if ks[i][0] <= t <= ks[i + 1][0]:
                return ks[i][1] + slopes[i] * (t - ks[i][0])
        raise AssertionError("unreachable")

    @staticmethod
    def zero() -> "ShapeFunction":
        return ShapeFunction(((Fraction(0), Fraction(0)),))

    @staticmethod
    def identity(span: int = 8) -> "ShapeFunction":
        s = Fraction(span)
        return ShapeFunction(((-s, -s), (Fraction(0), Fraction(0)), (s, s)))


@dataclass(frozen=True)
class TwoPointParams:
    alphas: tuple[Scalar, Scalar, Scalar, Scalar]
    lambdas: tuple[Scalar, Scalar, Scalar, Scalar]
    shape: ShapeFunction

    def __post_init__(self):
        a = self.alphas
        tol = 1e-9 if any(isinstance(x, float) for x in a) else 0
        if len(a) != 4 or any(x < 0 for x in a):
            raise InvalidParams("weights must be four nonnegative numbers")
        if abs(sum(a) - 1) > tol:
            raise InvalidParams("weights must sum to 1")
        l1, l2, l3, l4 = self.lambdas
        if not (l1 <= 0 and l2 <= 0):
            raise InvalidParams("first two shifts must be <= 0")
        if max(l1, l2) != 0:
            raise InvalidParams("max of the first two shifts must be 0")
        if not (l3 >= 0 and l4 >= 0):
            raise InvalidParams("last two shifts must be >= 0")
        if min(l3, l4) != 0:
            raise InvalidParams("min of the last two shifts must be 0")


@dataclass(frozen=True)
class TwoPointValue:
    value: Scalar
    branch: int
    gap: bool  # True iff the uncovered-branch fallback fired


def _shape_weight(p: TwoPointParams, phi0: Scalar, phi1: Scalar) -> tuple[Scalar, int, bool]:
    a1, a2, a3, a4 = p.alphas
    l1, l2, l3, l4 = p.lambdas
    if a3 == 0 and a4 == 0:
        return min(a1, a2), 1, False
    c1 = phi0 + l1 >= phi1 + l2  # which argument wins the max term
    c2_le = phi0 + l3 <= phi1 + l4  # which argument wins the min term
    c2_ge = phi0 + l3 >= phi1 + l4
    if c1 and c2_le:
        return min(a1 + a3 + a4, a2), 2, False
    if c1 and not c2_le:
        return min(a1 + a3, a2 + a4), 3, False
    if not c1 and c2_ge:
        return min(a1 + a4, a2 + a3), 4, False
    # branch 5's own condition (not c1, strictly not c2) implies branch 4's,
    # so its weight applies only here, in the uncovered region where both
    # comparisons fail strictly
    return min(a1, a2 + a3 + a4), 5, True


def two_point_eval(p: TwoPointParams, phi0: Scalar, phi1: Scalar) -> TwoPointValue:
    """Evaluate a family member; infinite shifts never win their max/min."""
    a1, a2, a3, a4 = p.alphas
    l1, l2, l3, l4 = p.lambdas
    total = a1 * phi0 + a2 * phi1
    if a3 != 0:
        hi = max(phi0 + l1, phi1 + l2)  # finite: at least one shift is 0
        total += a3 * hi
    if a4 != 0:
        lo = min(phi0 + l3, phi1 + l4)
        total += a4 * lo
    weight, branch, gap = _shape_weight(p, phi0, phi1)
    if weight != 0:
        total += weight * p.shape(phi1 - phi0)
    return TwoPointValue(total, branch, gap)


def branch_boundaries(p: TwoPointParams) -> list[Scalar]:
    """Finite values of phi1 - phi0 where the branch table can switch.

    The comparisons depend on phi only through the difference, switching at
    l1 - l2 and l3 - l4.  The exact axiom check breaks g at these points,
    and the sampled one aims monotone pairs across them.
    """
    out = []
    l1, l2, l3, l4 = p.lambdas
    for a, b in ((l1, l2), (l3, l4)):
        if is_finite(a) and is_finite(b):
            out.append(a - b)
    return sorted(set(out))
