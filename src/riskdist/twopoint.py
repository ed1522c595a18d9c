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
``measures.verify_axioms`` decides every member (below) this way:
it reads the affine form of mu on every strip of t between the
``breakpoints`` (0, the shape knots and ``branch_boundaries``) from
evaluations, and reports each jump of g and each slope outside [0, 1] with
a monotone pair that re-checks exactly.  Three classes of defect break monotonicity:

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

Exact evaluation.  Every member is exact.  ``ShapeFunction`` and
``TwoPointParams`` lift each parameter once on construction with
``numerics.rational``, the one lift of every number a Python caller gives:
a float becomes the ``Fraction`` it equals, so the weights must sum to
exactly 1, a NaN is refused, and only a shift of ``±inf`` stays a float.
Construction then checks the member and builds its integer form in one
pass, with no ``Fraction`` arithmetic.  ``ShapeFunction`` puts the knots on
their least common denominator L and checks each rule on those integers,
comparing slopes by cross-multiplication.  ``TwoPointParams`` takes D, the
least common denominator of the weights, the finite shifts and the knots,
and E, that of the slopes.  It checks the weights as integers over D and
the shifts by their sign, an infinity by its own, and keeps the result as
``TwoPointParams.scaled``: the weights times D*E, the finite shifts, the
two branch boundaries, the five branch weights and the knot positions
times D, and each shape piece as an integer line.  One integer core,
``scaled_eval``, takes phi0 and phi1 as ints on the scale D*q for a
common denominator q and does the max and min, the branch comparisons,
the knot search and the shape term on ints; it returns the value's
numerator over D*D*E*q and the branch.  Two callers share it.
``two_point_eval`` lifts its inputs with the same helper, brings both
onto their q and builds one ``Fraction`` from the numerator, equal to the
formula's value.  The axiom census of ``measures.verify_axioms`` fixes
q = 3 and compares the numerators themselves.  No float is mixed into
this arithmetic: an infinite shift never wins its max or min and decides
its comparison alone.  Only ``ShapeFunction.__call__`` reads the shape's
``Fraction`` slopes, built on its first call.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Optional

from .errors import InvalidParams
from .numerics import Scalar, is_finite, rational


@dataclass(frozen=True)
class ShapeFunction:
    """Piecewise-linear f with f(0) = 0, nondecreasing, concave-below /
    convex-above the origin, pinched between the identity and zero.

    Knots are (t, f(t)) pairs sorted by t; beyond the end knots the last
    segment slopes extend linearly.  A single knot means f is constant 0.
    A float coordinate is held as the ``Fraction`` it equals.  Construction
    puts the knots on their least common denominator L and checks every
    rule on those integers; it keeps them with the shape's pieces as
    integers for ``TwoPointParams``, which scales them to its own
    denominator.  Only ``__call__`` reads the ``Fraction`` slopes.
    """

    knots: tuple[tuple[Scalar, Scalar], ...]

    def __post_init__(self):
        try:
            pairs = [(t, y) for t, y in self.knots]
        except (TypeError, ValueError):
            raise InvalidParams("shape knots must be (t, f(t)) pairs") from None
        error = "shape knots must be finite"
        knots = tuple([(rational(t, error), rational(y, error)) for t, y in pairs])
        object.__setattr__(self, "knots", knots)
        if not knots:
            raise InvalidParams("shape function needs at least one knot")
        den = lcm(*[x.denominator for knot in knots for x in knot])
        ts = [t.numerator * (den // t.denominator) for t, _ in knots]
        ys = [y.numerator * (den // y.denominator) for _, y in knots]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidParams("shape knots must be strictly increasing in t")
        # (L, E, the knots times L, the pieces): ``TwoPointParams`` scales them
        object.__setattr__(self, "_ints", (den, *_checked_pieces(ts, ys)))

    @cached_property
    def _slopes(self) -> tuple[Fraction, ...]:
        # a Fraction, where int / int would be a float
        ks = self.knots
        return tuple([Fraction(y2 - y1, t2 - t1) for (t1, y1), (t2, y2) in zip(ks, ks[1:])])

    @cached_property
    def _ts(self) -> tuple[Scalar, ...]:
        return tuple([t for t, _ in self.knots])

    def __call__(self, t: Scalar) -> Scalar:
        ks = self.knots
        if len(ks) == 1:
            return ks[0][1] * 0  # constant 0 everywhere
        slopes = self._slopes
        if t <= ks[0][0]:
            return ks[0][1] + slopes[0] * (t - ks[0][0])
        if t >= ks[-1][0]:
            return ks[-1][1] + slopes[-1] * (t - ks[-1][0])
        # the segment ending at the first knot >= t: at an interior knot,
        # the one on its left
        i = bisect_left(self._ts, t, 1, len(ks) - 1) - 1
        return ks[i][1] + slopes[i] * (t - ks[i][0])

    @staticmethod
    def zero() -> "ShapeFunction":
        return ShapeFunction(((Fraction(0), Fraction(0)),))

    @staticmethod
    def identity(span: int = 8) -> "ShapeFunction":
        s = Fraction(span)
        return ShapeFunction(((-s, -s), (Fraction(0), Fraction(0)), (s, s)))


def _checked_pieces(ts: list[int], ys: list[int]) -> tuple:
    """Check a shape given as strictly increasing knots (ts[k], ys[k]) over
    one denominator L, in the order and with the messages of its rules,
    and return (E, ts, pieces).  E is the least common denominator of the
    slopes, and the piece from knot k is the integer line (c, s) with
    f(t) * L * E = c + s * (t * L) on it.  Each slope dy / dt is compared
    by cross-multiplication."""
    if len(ts) == 1:
        if ys[0] != 0:
            raise InvalidParams("a single knot must have value 0")
        return 1, (ts[0],), ()  # constant 0: it vanishes at 0 inside the envelope
    dts = [b - a for a, b in zip(ts, ts[1:])]
    dys = [b - a for a, b in zip(ys, ys[1:])]
    # f(0) = y_i + (dy_i / dt_i) * (0 - t_i) on the segment ``__call__`` picks
    last = len(ts) - 1
    i = 0 if ts[0] >= 0 else last - 1 if ts[-1] <= 0 else bisect_left(ts, 0, 1, last) - 1
    if ys[i] * dts[i] != dys[i] * ts[i]:
        raise InvalidParams("shape function must vanish at 0")
    if any(dy < 0 or dy > dt for dy, dt in zip(dys, dts)):
        # outside [0, 1] the function escapes the identity/zero envelope
        raise InvalidParams("shape slopes must lie in [0, 1]")
    # concave left of 0, convex right of 0; a pair of adjacent segments
    # constrains slopes only when both overlap the same side (the shared
    # knot strictly off the origin)
    for k in range(last - 1):
        shared = ts[k + 1]
        # s_(k+1) against s_k, as dy_(k+1) * dt_k against dy_k * dt_(k+1)
        after, before = dys[k + 1] * dts[k], dys[k] * dts[k + 1]
        if shared < 0 and after > before:
            raise InvalidParams("shape must be concave left of 0")
        if shared > 0 and after < before:
            raise InvalidParams("shape must be convex right of 0")
    for t, y in zip(ts, ys):
        if t <= 0 and not (t <= y <= 0):
            raise InvalidParams("shape must satisfy t <= f(t) <= 0 left of 0")
        if t >= 0 and not (0 <= y <= t):
            raise InvalidParams("shape must satisfy 0 <= f(t) <= t right of 0")
    e = lcm(*[dt // gcd(dy, dt) for dy, dt in zip(dys, dts)])
    slopes = [dy * e // dt for dy, dt in zip(dys, dts)]
    return e, tuple(ts), tuple([(y * e - s * t, s) for t, y, s in zip(ts, ys, slopes)])


@dataclass(frozen=True)
class TwoPointParams:
    """A member's weights (a1..a4), shifts (l1..l4) and shape f.  Each
    float among them but a shift of ``±inf`` is held as the ``Fraction`` it
    equals.  Construction checks the weights and the shifts as integers
    over one denominator and keeps the member in that form, ``scaled``:
    a plain attribute, not a field, so equality and reports see the three
    fields only."""

    alphas: tuple[Scalar, Scalar, Scalar, Scalar]
    lambdas: tuple[Scalar, Scalar, Scalar, Scalar]
    shape: ShapeFunction

    def __post_init__(self):
        a = tuple([rational(x, "weights must be finite") for x in self.alphas])
        error = "shifts must be numbers or ±inf"
        lambdas = tuple([rational(x, error) if is_finite(x) else x for x in self.lambdas])
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "lambdas", lambdas)
        if len(a) != 4:
            raise InvalidParams("weights must be four nonnegative numbers")
        # D: the least common denominator of the weights, the finite shifts
        # and the knots; the shape's pieces are on the scale L * E
        den, e, knots, pieces = self.shape._ints
        finite = [x for x in lambdas if not isinstance(x, float)]  # a float is ±inf here
        d = lcm(den, *[x.denominator for x in (*a, *finite)])
        a1, a2, a3, a4 = alphas = [x.numerator * (d // x.denominator) for x in a]
        if a1 < 0 or a2 < 0 or a3 < 0 or a4 < 0:
            raise InvalidParams("weights must be four nonnegative numbers")
        if a1 + a2 + a3 + a4 != d:
            raise InvalidParams("weights must sum to 1")
        if len(lambdas) != 4:
            raise InvalidParams("shifts must be four numbers or ±inf")
        # lists, not generators: a tuple built from a generator is allocated
        # at a guessed length and resized, so it never comes from the
        # interpreter's free list of tuples but is freed into it; one per
        # member grew those lists, and peak memory, run after run
        shifts = tuple([
            None if isinstance(x, float) else x.numerator * (d // x.denominator) for x in lambdas
        ])
        # each shift rule compares with 0, where an infinity counts as its sign
        k1, k2, k3, k4 = [(1 if x > 0 else -1) if s is None else s for x, s in zip(lambdas, shifts)]
        if not (k1 <= 0 and k2 <= 0):
            raise InvalidParams("first two shifts must be <= 0")
        if max(k1, k2) != 0:
            raise InvalidParams("max of the first two shifts must be 0")
        if not (k3 >= 0 and k4 >= 0):
            raise InvalidParams("last two shifts must be >= 0")
        if min(k3, k4) != 0:
            raise InvalidParams("min of the last two shifts must be 0")
        # c1 is t <= l1 - l2 and c2 is t >= l3 - l4; an infinite shift,
        # -inf among the first two and +inf among the last two, fixes its
        # comparison
        l1, l2, l3, l4 = shifts
        c1 = True if l2 is None else False if l1 is None else None
        c2 = False if l3 is None else True if l4 is None else None
        m = d // den
        scaled = ScaledParams(
            d=d,
            scale=d * d * e,
            alphas=tuple([x * e for x in alphas]),
            shifts=shifts,
            bounds=(l1 - l2 if c1 is None else None, l3 - l4 if c2 is None else None),
            fixed=(c1, c2),
            # the shape term's weight on each of the five branches, in order
            weights=(
                min(a1, a2),
                min(a1 + a3 + a4, a2),
                min(a1 + a3, a2 + a4),
                min(a1 + a4, a2 + a3),
                min(a1, a2 + a3 + a4),
            ),
            knots=tuple([t * m for t in knots]),
            pieces=tuple([(c * m, s) for c, s in pieces]),
        )
        object.__setattr__(self, "scaled", scaled)


class ScaledParams(NamedTuple):
    """A member's parameters as integers, built once with the member:
    ``TwoPointParams.scaled``.  D is the least common denominator of the
    weights, the finite shifts and the knots, and E that of the slopes."""

    d: int
    scale: int  # D * D * E: a value's denominator is a divisor of scale * q
    alphas: tuple[int, ...]  # a_i * D * E
    shifts: tuple[Optional[int], ...]  # l_i * D, None where infinite
    bounds: tuple[Optional[int], Optional[int]]  # (l1 - l2, l3 - l4) * D
    fixed: tuple[Optional[bool], Optional[bool]]  # (c1, c2) where a bound is infinite
    weights: tuple[int, ...]  # each branch's shape weight times D
    knots: tuple[int, ...]  # t_k * D
    pieces: tuple[tuple[int, int], ...]  # (y_k * D * E - s_k * E * t_k * D, s_k * E)


@dataclass(frozen=True)
class TwoPointValue:
    value: Scalar
    branch: int
    gap: bool  # True iff the uncovered-branch fallback fired


def two_point_eval(p: TwoPointParams, phi0: Scalar, phi1: Scalar) -> TwoPointValue:
    """Evaluate a family member; infinite shifts never win their max/min.

    Each input is lifted by ``numerics.rational``.  phi0 and phi1
    are brought onto their common denominator q, times D, and evaluated by
    ``scaled_eval`` in ``int`` arithmetic over ``p.scaled``, with one
    ``Fraction`` built at the end.  Branch 5's own condition (not c1,
    strictly not c2) implies branch 4's, so its weight applies only in the
    uncovered region where both comparisons fail strictly.
    """
    k = p.scaled
    error = "inputs must be finite"
    phi0, phi1 = rational(phi0, error), rational(phi1, error)
    d0, d1 = phi0.denominator, phi1.denominator
    q = d0 if d0 == d1 else lcm(d0, d1)
    total, branch = scaled_eval(
        k, phi0.numerator * (q // d0 * k.d), phi1.numerator * (q // d1 * k.d), q
    )
    return TwoPointValue(Fraction(total, k.scale * q), branch, branch == 5)


def scaled_eval(k: ScaledParams, x0: int, x1: int, q: int) -> tuple[int, int]:
    """The value's numerator and the branch at phi = (x0, x1) / (D * q).

    x0 and x1 are on the scale D * q, so t = phi1 - phi0 is x1 - x0 on it
    too; the numerator is on the scale D * D * E * q (``k.scale * q``).
    """
    t = x1 - x0
    a1, a2, a3, a4 = k.alphas
    total = a1 * x0 + a2 * x1
    if not (a3 or a4):
        branch = 1
    else:
        (b1, b2), (c1, c2) = k.bounds, k.fixed
        if c1 is None:
            c1 = t <= b1 * q  # phi0 + l1 >= phi1 + l2
        if b2 is not None:
            c2 = t >= b2 * q  # phi0 + l3 <= phi1 + l4
        l1, l2, l3, l4 = k.shifts
        if a3:
            total += a3 * (x0 + l1 * q if c1 else x1 + l2 * q)
        if a4:
            total += a4 * (x0 + l3 * q if c2 else x1 + l4 * q)
        if c1:
            branch = 2 if c2 else 3
        else:  # phi0 + l3 >= phi1 + l4 picks branch 4
            branch = 4 if (not c2 if b2 is None else t <= b2 * q) else 5
    weight = k.weights[branch - 1]
    if weight and k.pieces:
        # the piece ending at the first knot >= t, as ShapeFunction picks
        # it (knots are on the scale D: t / q rounded up); the end pieces
        # extend past the end knots
        ts = k.knots
        c, s = k.pieces[bisect_left(ts, -(-t // q), 1, len(ts) - 1) - 1]
        total += weight * (c * q + s * t)
    return total, branch


def branch_boundaries(p: TwoPointParams) -> list[Scalar]:
    """Finite values of phi1 - phi0 where the branch table can switch.

    The comparisons depend on phi only through the difference, switching at
    l1 - l2 and l3 - l4, where the axiom census breaks g.
    """
    out = []
    l1, l2, l3, l4 = p.lambdas
    for a, b in ((l1, l2), (l3, l4)):
        if is_finite(a) and is_finite(b):
            out.append(a - b)
    return sorted(set(out))


def breakpoints(p: TwoPointParams) -> list[Scalar]:
    """0, the branch boundaries and the shape knots, sorted: the values of
    t = phi1 - phi0 between which a member is affine on its strip of t.

    The branch tests and the max and min terms switch only at the
    boundaries, and the shape is affine between its knots.
    """
    return sorted({0, *branch_boundaries(p), *(t for t, _ in p.shape.knots)})
