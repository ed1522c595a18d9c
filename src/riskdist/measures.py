"""Normed monetary risk measures on a finite metric space.

A risk measure maps point functions to reals, is monotone, translation
invariant, and sends the constant-one function to 1.  Several evaluable
representations coexist:

* ``dirac`` -- evaluation at a single point,
* ``choquet`` -- the Choquet integral of a capacity (the exact tier),
* ``two-point`` -- the parametric family on a two-point space,
* ``mixture`` / ``max`` / ``min`` -- convex and lattice combinations,
* ``blackbox`` -- an arbitrary evaluator, gated through axiom checks.

Each constructor builds its measure once into the form it is evaluated by.
Dirac measures, Choquet measures and their mixtures carry a single
capacity, which unlocks exact axiom checks, supports and equality.  Every
other measure carries an evaluator: family members and combinations behind
one bounded memo each, black boxes as given.  Family members on an exact
space are still checked exactly, from the affine pieces of their formula;
the others fall back to seeded probing, and reports say so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .capacity import (
    MAX_CAPACITY_POINTS,
    Capacity,
    check_mixture,
    dirac_capacity,
    mix_capacities,
    pushforward_capacity,
)
from .errors import InvalidParams, SpaceMismatch
from .numerics import Scalar
from .space import FiniteMetricSpace, PointFunction, PointSubset
from .twopoint import TwoPointParams, branch_boundaries, two_point_eval

DEFAULT_SUPPORT_PROBES = 256

#: entries kept per measure by the memo of a family member or combination;
#: ladder scans and audits evaluate one probe grid many times over, and the
#: largest grid a benchmark matrix request fills per measure is about 2500
EVAL_MEMO_SIZE = 4096


@dataclass(frozen=True, eq=False)
class RiskMeasure:
    """A normed monetary risk measure in one of the evaluable representations.

    Capacity-tier measures carry ``capacity``; every other measure carries
    ``evaluator``, and so does a Dirac measure, which reads its point.
    Measures compare by identity: functional equality is ``equal_measures``.
    """

    space: FiniteMetricSpace
    kind: str  # dirac | choquet | two-point | mixture | max | min | blackbox
    capacity: Optional[Capacity] = None
    evaluator: Optional[Callable[[tuple[Scalar, ...]], Scalar]] = field(
        default=None, repr=False
    )
    point: Optional[int] = None
    params: Optional[TwoPointParams] = None
    name: str = ""

    def __call__(self, phi: PointFunction) -> Scalar:
        return evaluate(self, phi)


def _memo(evaluator):
    # the evaluator closes over the measure's parts, never the measure, so
    # the memo makes no reference cycle and dies with the measure
    return lru_cache(maxsize=EVAL_MEMO_SIZE)(evaluator)


def dirac(space: FiniteMetricSpace, point) -> RiskMeasure:
    idx = point if isinstance(point, int) else space.index(point)
    if not 0 <= idx < space.n:
        raise InvalidParams(f"point index {idx} out of range")
    # product spaces can outgrow the capacity table guard; a point mass
    # there is still evaluable, just not on the capacity tier
    cap = dirac_capacity(space, idx) if space.n <= MAX_CAPACITY_POINTS else None
    return RiskMeasure(
        space, "dirac", capacity=cap, evaluator=itemgetter(idx), point=idx,
        name=f"dirac({space.labels[idx]})",
    )


def choquet_measure(capacity: Capacity, name: str = "") -> RiskMeasure:
    return RiskMeasure(capacity.space, "choquet", capacity=capacity, name=name or "choquet")


def two_point_measure(space: FiniteMetricSpace, params: TwoPointParams) -> RiskMeasure:
    if space.n != 2:
        raise InvalidParams("the parametric family needs a two-point space")

    def evaluator(values):
        return two_point_eval(params, values[0], values[1]).value

    return RiskMeasure(
        space, "two-point", evaluator=_memo(evaluator), params=params, name="two-point"
    )


def mixture(weights: Sequence[Scalar], components: Sequence[RiskMeasure]) -> RiskMeasure:
    """Convex combination.  Capacity components mix into one capacity (the
    Choquet integral is linear in the capacity); otherwise the weighted sum
    is evaluated term by term."""
    space = check_mixture(weights, components)
    caps = [c.capacity for c in components]
    if None not in caps:
        return RiskMeasure(
            space, "mixture", capacity=mix_capacities(weights, caps), name="mixture"
        )
    terms = tuple(zip(weights, components))

    def evaluator(values):
        return sum(w * evaluate_values(c, values) for w, c in terms)

    return RiskMeasure(space, "mixture", evaluator=_memo(evaluator), name="mixture")


def lattice_max(components: Sequence[RiskMeasure]) -> RiskMeasure:
    return _lattice("max", max, components)


def lattice_min(components: Sequence[RiskMeasure]) -> RiskMeasure:
    return _lattice("min", min, components)


def _lattice(kind: str, pick, components: Sequence[RiskMeasure]) -> RiskMeasure:
    if not components:
        raise InvalidParams("lattice combination needs components")
    space = components[0].space
    if any(c.space != space for c in components):
        raise SpaceMismatch("lattice components live on different spaces")
    parts = tuple(components)

    def evaluator(values):
        return pick(evaluate_values(c, values) for c in parts)

    return RiskMeasure(space, kind, evaluator=_memo(evaluator), name=kind)


def black_box(
    space: FiniteMetricSpace,
    evaluator: Callable[[tuple[Scalar, ...]], Scalar],
    name: str = "blackbox",
) -> RiskMeasure:
    """An arbitrary evaluator, called on every evaluation (no memo)."""
    return RiskMeasure(space, "blackbox", evaluator=evaluator, name=name)


def evaluate(mu: RiskMeasure, phi: PointFunction) -> Scalar:
    if mu.space != phi.space:
        raise SpaceMismatch("measure and function live on different spaces")
    return evaluate_values(mu, phi.values)


def evaluate_values(mu: RiskMeasure, values: tuple[Scalar, ...]) -> Scalar:
    """Evaluate on a raw value tuple (hot path used by couplings and audits)."""
    if mu.evaluator is None:
        return mu.capacity.choquet(values)
    return mu.evaluator(values)


def to_capacity(mu: RiskMeasure) -> Optional[Capacity]:
    """Exact capacity form, when the representation admits one.

    Dirac measures are point-mass capacities; mixtures convert by linearity
    of the Choquet integral in the capacity.  Lattice combinations do not
    convert (the pointwise max of two Choquet integrals is generally not a
    Choquet integral), nor do family members or black boxes.  The
    constructor has built it already.
    """
    return mu.capacity


# ---------------------------------------------------------------------------
# axiom verification


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: dict
    values: tuple


@dataclass(frozen=True)
class AxiomReport:
    verdict: str  # "pass" | "fail"
    violations: tuple[Violation, ...]
    method: str  # "exact" | "sampled(seed=…, count=…)"

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


def _random_values(space: FiniteMetricSpace, rng: random.Random, lo=-32, hi=32):
    # integers are exact and an order of magnitude faster to compare than
    # fractions in the envelope/min loops
    if space.exact:
        return tuple(rng.randint(lo, hi) for _ in range(space.n))
    return tuple(rng.randint(lo * 4, hi * 4) / 4.0 for _ in range(space.n))


def grid_draw(space: FiniteMetricSpace, rng: random.Random, lo: int, hi: int):
    """An integer in [lo, hi] in exact mode, a quarter of it in float mode."""
    k = rng.randint(lo, hi)
    return k if space.exact else k / 4.0


def _monotone_pair(space: FiniteMetricSpace, rng: random.Random):
    lo = _random_values(space, rng)
    return lo, tuple(a + grid_draw(space, rng, 0, 12) for a in lo)


def _attributed(mu: RiskMeasure, lo, hi) -> dict:
    wit = {"lo": lo, "hi": hi}
    if mu.kind == "two-point":
        wit["lo_eval"] = two_point_eval(mu.params, lo[0], lo[1])
        wit["hi_eval"] = two_point_eval(mu.params, hi[0], hi[1])
    return wit


def _two_point_boundary_pairs(mu: RiskMeasure, rng: random.Random):
    """Monotone pairs straddling the branch boundaries of a family member.

    Random probing rarely lands on the measure-zero switching lines, so the
    check aims pairs (phi, phi + small bump) across each finite boundary b of
    the difference phi1 - phi0.  Raising phi1 crosses b upwards and catches a
    value that drops; raising phi0 crosses it downwards and catches a value
    that jumps up by more than the bump.
    """
    pairs = []
    eps = Fraction(1, 10) if mu.space.exact else 0.1
    for delta in branch_boundaries(mu.params):
        for _ in range(8):
            base = Fraction(rng.randint(-12, 12), 4)
            if not mu.space.exact:
                base = float(base)
            lo = (base, base + delta)
            pairs.append((lo, (lo[0], lo[1] + eps)))  # b -> b + eps
            pairs.append(((lo[0], lo[1] - eps), lo))  # b - eps -> b
            pairs.append((lo, (lo[0] + eps, lo[1])))  # b -> b - eps
            pairs.append(((lo[0] - eps, lo[1]), lo))  # b + eps -> b
    return pairs


def _offset(gap, coef, base):
    """Halve ``base`` until ``coef * eps`` stays below ``gap`` > 0."""
    eps = base
    while coef * eps >= gap:
        eps /= 2
    return eps


def _two_point_violations(mu: RiskMeasure) -> list[Violation]:
    """Decide a family member on an exact space from a census of its pieces.

    The branch tests and the max and min terms depend on phi only through
    t = phi1 - phi0 and switch only at the branch boundaries, and the shape
    is affine between its knots.  So between consecutive breakpoints ({0},
    the knots and the boundaries) mu is affine on the strip of t, with form
    alpha*phi0 + beta*phi1 + gamma, and on each breakpoint line it is affine
    along (1, 1).  Every form is read from evaluations, never from the
    parameters: three non-collinear points per strip, two per line.

    mu is then a normed monetary risk measure iff alpha + beta = 1 and
    alpha, beta >= 0 on every strip, the value rises by 1 along every line,
    g(t) = mu(0, t) meets both one-sided limits at every breakpoint and
    g(0) = 0.  Each failure becomes a re-checkable violation: a monotone
    pair inside the strip for a slope outside [0, 1], a monotone pair
    straddling the breakpoint for a jump (the offset shrinks until the drop
    shows), a shift for translation invariance and the constant 0 for
    normedness.
    """
    F = Fraction
    zero, one = F(0), F(1)

    def ev(phi0, phi1):
        return evaluate_values(mu, (phi0, phi1))

    def monotone(lo, hi):
        return Violation("monotonicity", _attributed(mu, lo, hi), (ev(*lo), ev(*hi)))

    def shifted(t, base, moved):
        return Violation(
            "translation-invariance", {"phi": (zero, t), "shift": one}, (base, moved)
        )

    points = sorted(
        {zero, *map(F, branch_boundaries(mu.params)), *(F(t) for t, _ in mu.params.shape.knots)}
    )
    ends = [None, *points, None]
    out: list[Violation] = []
    forms = []  # (alpha, beta, gamma) of each strip, left to right
    for lo, hi in zip(ends, ends[1:]):
        if lo is None:
            t1, t2 = hi - 2, hi - 1
        elif hi is None:
            t1, t2 = lo + 1, lo + 2
        else:
            t1, t2 = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
        g1, g2, moved = ev(zero, t1), ev(zero, t2), ev(one, one + t1)
        beta = (g2 - g1) / (t2 - t1)
        alpha = moved - g1 - beta
        forms.append((alpha, beta, g1 - beta * t1))
        if moved != g1 + 1:
            out.append(shifted(t1, g1, moved))
        if beta < 0:  # raising phi1 lowers the value
            out.append(monotone((zero, t1), (zero, t2)))
        if alpha < 0:  # raising phi0 lowers the value
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
        jump = lb * b + lc - here  # left limit over g(b)
        if jump > 0:  # g drops at b: raise phi1 across it
            eps = _offset(jump, lb, left)
            out.append(monotone((zero, b - eps), (zero, b)))
        elif jump < 0:  # g rises at b: raise phi0 back across it
            eps = _offset(-jump, la, left)
            out.append(monotone((zero, b), (eps, b)))
        jump = here - (rb * b + rc)  # g(b) over the right limit
        if jump > 0:  # g drops after b: raise phi1 across it
            eps = _offset(jump, rb, right)
            out.append(monotone((zero, b), (zero, b + eps)))
        elif jump < 0:  # g rises after b: raise phi0 back across it
            eps = _offset(-jump, moved - here - rb, right)
            out.append(monotone((zero, b + eps), (eps, b + eps)))
    return out


def verify_axioms(
    mu: RiskMeasure,
    mode: str = "auto",
    samples: int = 200,
    seed: int = 0,
) -> AxiomReport:
    """Check monotonicity, translation invariance and normedness.

    Capacity-convertible measures are checked exactly: the Capacity
    constructor has already enforced normalization and monotone covers, so
    the verdict is immediate.  Two-point family members on an exact space
    are decided exactly by a census of the affine pieces of their formula
    (``_two_point_violations``).  Everything else, and every measure in
    ``mode="sampled"``, is probed with seeded samples.  Discovered
    violations carry re-checkable witnesses either way.
    """
    if mode not in ("auto", "exact", "sampled"):
        raise InvalidParams(f"unknown verification mode {mode!r}")
    if mode != "sampled" and mu.capacity is not None:
        # construction already validated the table; re-assert cheaply
        return AxiomReport("pass", (), "exact")
    if mode != "sampled" and mu.kind == "two-point" and mu.space.exact:
        found = tuple(_two_point_violations(mu))
        return AxiomReport("fail" if found else "pass", found, "exact")
    if mode == "exact":
        raise InvalidParams(
            "exact verification needs a capacity-convertible measure "
            "or a two-point family member on an exact space"
        )

    rng = random.Random(seed)
    space = mu.space
    tol = space.tol
    violations: list[Violation] = []

    def record(axiom, witness, values):
        violations.append(Violation(axiom, witness, values))

    def envelope_check(values):
        # monotonicity + translation invariance + normedness pin values to
        # [min phi, max phi]; a breakout is recorded as its own derived axiom
        # so the witness re-verifies standalone
        got = evaluate_values(mu, values)
        if got > max(values) + tol or got < min(values) - tol:
            wit = {"phi": values, "lo": min(values), "hi": max(values)}
            if mu.kind == "two-point":
                wit["phi_eval"] = two_point_eval(mu.params, values[0], values[1])
            record("value-envelope", wit, (got,))

    probe_pairs = [_monotone_pair(space, rng) for _ in range(samples)]
    if mu.kind == "two-point":
        probe_pairs.extend(_two_point_boundary_pairs(mu, rng))
    for lo, hi in probe_pairs:
        a, b = evaluate_values(mu, lo), evaluate_values(mu, hi)
        if a > b + tol:
            record("monotonicity", _attributed(mu, lo, hi), (a, b))
        envelope_check(lo)
        envelope_check(hi)
    for _ in range(samples):
        values = _random_values(space, rng)
        shift = Fraction(rng.randint(-8, 8), 2)
        if not space.exact:
            shift = float(shift)
        base = evaluate_values(mu, values)
        moved = evaluate_values(mu, tuple(v + shift for v in values))
        if abs(moved - (base + shift)) > tol:
            record(
                "translation-invariance",
                {"phi": values, "shift": shift},
                (base, moved),
            )
    for c in (-3, 0, 1, 5):
        cval = Fraction(c) if space.exact else float(c)
        got = evaluate_values(mu, (cval,) * space.n)
        if abs(got - cval) > tol:
            record("normedness", {"constant": cval}, (got,))

    verdict = "pass" if not violations else "fail"
    return AxiomReport(verdict, tuple(violations), f"sampled(seed={seed}, count={samples})")


# ---------------------------------------------------------------------------
# supports


def support(
    mu: RiskMeasure, probes: int = DEFAULT_SUPPORT_PROBES, seed: int = 0
) -> PointSubset:
    """Smallest subset the measure's values depend on.

    On the capacity tier the support is exactly the set of non-null points
    (removing a point never changes the capacity iff no carrier needs it).
    Other representations are probed: a point is kept iff some pair of
    functions differing only there separates the measure.
    """
    if mu.capacity is not None:
        return PointSubset(mu.space, mu.capacity.support_mask())
    rng = random.Random(seed)
    mask = 0
    for i in range(mu.space.n):
        if _separating_pair(mu, i, probes, rng) is not None:
            mask |= 1 << i
    return PointSubset(mu.space, mask)


def separating_pair(mu: RiskMeasure, i: int, probes: int = 256, seed: int = 0):
    """A pair of functions differing only at point i that the measure tells
    apart, or None when probing finds none."""
    return _separating_pair(mu, i, probes, random.Random(seed))


def _separating_pair(mu: RiskMeasure, i: int, probes: int, rng: random.Random):
    space = mu.space
    for _ in range(probes):
        values = list(_random_values(space, rng))
        other = list(values)
        bump = rng.randint(1, 16)
        other[i] = other[i] + (bump if space.exact else bump / 2.0)
        a, b = evaluate_values(mu, tuple(values)), evaluate_values(mu, tuple(other))
        if abs(a - b) > space.tol:
            return tuple(values), tuple(other)
    return None


# ---------------------------------------------------------------------------
# pushforwards and equality


def pushforward(
    point_map: Sequence[int], mu: RiskMeasure, target: FiniteMetricSpace
) -> RiskMeasure:
    """Image measure along a point map: phi |-> mu(phi o f).

    Dirac and capacity measures push forward exactly; other representations
    wrap the evaluator in a black box, which reads the memo of the measure
    it wraps.
    """
    if len(point_map) != mu.space.n:
        raise SpaceMismatch("point map must be total on the source points")
    if any(not 0 <= t < target.n for t in point_map):
        raise SpaceMismatch("point map hits indices outside the target space")
    if mu.kind == "dirac":
        return dirac(target, point_map[mu.point])
    if mu.capacity is not None:
        return choquet_measure(
            pushforward_capacity(mu.capacity, point_map, target),
            name=f"pushforward({mu.name})",
        )
    src = mu

    def pulled(values: tuple[Scalar, ...]) -> Scalar:
        return evaluate_values(src, tuple(values[t] for t in point_map))

    return black_box(target, pulled, name=f"pushforward({mu.name})")


@dataclass(frozen=True)
class EqualityResult:
    status: str  # "yes" | "no" | "undecided"
    witness: Optional[tuple[Scalar, ...]] = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.status == "yes"


def probe_functions(
    space: FiniteMetricSpace, rng: random.Random, randoms: int = 64
) -> list[tuple[Scalar, ...]]:
    """Deterministic probe family: subset indicators, distances to each
    point, and seeded random functions."""
    one, zero = (1, 0) if space.exact else (1.0, 0.0)
    probes = [
        tuple(one if mask >> i & 1 else zero for i in range(space.n))
        for mask in range(1 << space.n)
    ]
    probes.extend(
        tuple(space.dist[j][i] for j in range(space.n)) for i in range(space.n)
    )
    probes.extend(_random_values(space, rng) for _ in range(randoms))
    return probes


@lru_cache(maxsize=2048)
def probe_grid(
    space: FiniteMetricSpace, seed: int, randoms: int = 64
) -> tuple[tuple[Scalar, ...], ...]:
    """Cached probe family; ladder scans reuse it across levels and pairs."""
    return tuple(probe_functions(space, random.Random(seed), randoms))


def equal_measures(
    mu1: RiskMeasure, mu2: RiskMeasure, samples: int = 64, seed: int = 0
) -> EqualityResult:
    """Functional equality.

    Capacity-convertible pairs compare tables (indicators separate distinct
    capacities, so table equality decides).  Other pairs run the probe grid:
    a disagreement yields "no" with the separating function; agreement on
    the whole grid is only "undecided" because the family of probes is not
    exhaustive for unstructured measures.
    """
    if mu1.space != mu2.space:
        raise SpaceMismatch("measures live on different spaces")
    space = mu1.space
    c1, c2 = mu1.capacity, mu2.capacity
    if c1 is not None and c2 is not None:
        for mask in range(1 << space.n):
            if abs(c1.table[mask] - c2.table[mask]) > space.tol:
                return EqualityResult("no", PointFunction.indicator(space, mask).values)
        return EqualityResult("yes")
    for values in probe_grid(space, seed, samples):
        if abs(evaluate_values(mu1, values) - evaluate_values(mu2, values)) > space.tol:
            return EqualityResult("no", values)
    # lattice combinations of the probes sharpen the grid a little
    for values in _combo_grid(space, seed, samples):
        if abs(evaluate_values(mu1, values) - evaluate_values(mu2, values)) > space.tol:
            return EqualityResult("no", values)
    return EqualityResult("undecided", note="probes passed")


@lru_cache(maxsize=2048)
def _combo_grid(space, seed, samples):
    rng = random.Random(seed + 0x5EED)
    out = []
    for _ in range(samples):
        a, b = _random_values(space, rng), _random_values(space, rng)
        out.append(tuple(map(max, a, b)))
        out.append(tuple(map(min, a, b)))
    return tuple(out)
