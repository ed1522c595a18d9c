"""Seeded generators for audit ensembles.

Every audit derives one named generator per subsystem from the run seed, so
identical configurations reproduce identical reports byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .capacity import Capacity, expectation, possibility, unanimity
from .measures import (
    RiskMeasure,
    choquet_measure,
    dirac,
    lattice_max,
    lattice_min,
    mixture,
    two_point_measure,
)
from .space import FiniteMetricSpace
from .twopoint import ShapeFunction, TwoPointParams
from .numerics import NEG_INF, POS_INF


def derive_rng(seed: int, name: str) -> random.Random:
    """A named deterministic generator derived from the run seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _frac(rng: random.Random, num_hi: int = 8, den: int = 8) -> Fraction:
    return Fraction(rng.randint(0, num_hi * den), den)


def random_simplex(rng: random.Random, k: int, exact: bool = True):
    """k weights drawn as integers in [0, 8], redrawn when all are 0, and
    normalized to sum to 1."""
    while True:
        raw = [rng.randint(0, 8) for _ in range(k)]
        total = sum(raw)
        if total:
            break
    if exact:
        return tuple(Fraction(r, total) for r in raw)
    return tuple(r / total for r in raw)


def random_capacity(space: FiniteMetricSpace, rng: random.Random) -> Capacity:
    """A random monotone normalized set function.

    Flavors: additive, belief (nonnegative subset masses accumulated over
    sub-subsets), distorted probability, and monotonized noise.
    """
    flavor = rng.choice(("additive", "belief", "distortion", "monotone"))
    n = space.n
    exact = space.exact
    if flavor == "additive":
        return expectation(space, random_simplex(rng, n, exact))
    if flavor == "belief":
        masses = {}
        for _ in range(rng.randint(1, n + 2)):
            mask = rng.randint(1, (1 << n) - 1)
            masses[mask] = masses.get(mask, 0) + rng.randint(1, 4)
        total = sum(masses.values())
        table = []
        for b in range(1 << n):
            acc = sum(m for sub, m in masses.items() if sub & ~b == 0)
            table.append(Fraction(acc, total) if exact else acc / total)
        return Capacity(space, tuple(table))
    if flavor == "distortion":
        p = expectation(space, random_simplex(rng, n, exact))
        # convex power-style distortion with rational arithmetic
        k = rng.choice((1, 2, 3))
        table = tuple(v**k for v in p.table)
        return Capacity(space, table)
    # monotone noise: random values pushed up to a monotone table
    raw = [_frac(rng, 1, 16) for _ in range(1 << n)]
    raw[0] = Fraction(0)
    table = list(raw)
    for mask in range(1 << n):
        for i in range(n):
            if mask >> i & 1:
                prev = table[mask & ~(1 << i)]
                if prev > table[mask]:
                    table[mask] = prev
    top = table[-1]
    if top == 0:
        return unanimity(space)
    table = [v / top for v in table]
    if not exact:
        table = [float(v) for v in table]
    return Capacity(space, tuple(table))


def random_capacity_measure(space: FiniteMetricSpace, rng: random.Random) -> RiskMeasure:
    return choquet_measure(random_capacity(space, rng), name="choquet[random]")


def random_shape(rng: random.Random) -> ShapeFunction:
    """A random piecewise-linear shape within the validity envelope."""
    style = rng.choice(("zero", "identity", "kinked"))
    if style == "zero":
        return ShapeFunction.zero()
    if style == "identity":
        return ShapeFunction.identity()
    # negative side is concave (slopes shrink left to right), so walking left
    # from the origin the slopes must grow; positive side is convex, so
    # walking right they must grow as well
    neg_slopes = sorted(
        Fraction(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 3))
    )
    pos_slopes = sorted(
        Fraction(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 3))
    )
    knots = [(Fraction(0), Fraction(0))]
    t, y = Fraction(0), Fraction(0)
    for s in pos_slopes:
        t += rng.randint(1, 3)
        y += s * (t - knots[-1][0])
        knots.append((t, y))
    t, y = Fraction(0), Fraction(0)
    left = []
    for s in neg_slopes:
        step = rng.randint(1, 3)
        y -= s * step
        t -= step
        left.append((t, y))
    return ShapeFunction(tuple(reversed(left)) + tuple(knots))


def random_two_point_params(rng: random.Random) -> TwoPointParams:
    """A random valid parameter set covering the full constraint space:
    finite shifts, infinite shifts, and all-zero shifts all occur."""
    alphas = random_simplex(rng, 4)

    def neg_pair():
        pattern = rng.choice(("zero", "one-finite", "one-inf"))
        if pattern == "zero":
            return Fraction(0), Fraction(0)
        other = (
            NEG_INF if pattern == "one-inf" else Fraction(-rng.randint(1, 4))
        )
        pair = [Fraction(0), other]
        rng.shuffle(pair)
        return tuple(pair)

    def pos_pair():
        pattern = rng.choice(("zero", "one-finite", "one-inf"))
        if pattern == "zero":
            return Fraction(0), Fraction(0)
        other = (
            POS_INF if pattern == "one-inf" else Fraction(rng.randint(1, 4))
        )
        pair = [Fraction(0), other]
        rng.shuffle(pair)
        return tuple(pair)

    l1, l2 = neg_pair()
    l3, l4 = pos_pair()
    return TwoPointParams(tuple(alphas), (l1, l2, l3, l4), random_shape(rng))


def random_measure(
    space: FiniteMetricSpace,
    rng: random.Random,
    depth: int = 1,
    allow_family: bool = True,
) -> RiskMeasure:
    """A random measure mixing all the representations.

    Capacity-convertible kinds dominate so bulk audits mostly hit the exact
    tier; lattice combinations keep the sampled tier honest.
    """
    kinds = ["dirac", "choquet", "choquet", "choquet"]
    if depth > 0:
        kinds += ["mixture", "mixture", "max", "min"]
    if allow_family and space.n == 2:
        kinds.append("two-point")
    kind = rng.choice(kinds)
    if kind == "dirac":
        return dirac(space, rng.randrange(space.n))
    if kind == "choquet":
        return random_capacity_measure(space, rng)
    if kind == "two-point":
        return two_point_measure(space, random_two_point_params(rng))
    parts = [
        random_measure(space, rng, depth - 1, allow_family=False)
        for _ in range(rng.randint(2, 3))
    ]
    if kind == "mixture":
        return mixture(random_simplex(rng, len(parts), space.exact), parts)
    if kind == "max":
        return lattice_max(parts)
    return lattice_min(parts)


def extremal_pair(space: FiniteMetricSpace) -> tuple[RiskMeasure, RiskMeasure]:
    """The min (unanimity) and max (possibility) measures, whose distance
    attains the diameter."""
    return (
        choquet_measure(unanimity(space), name="min"),
        choquet_measure(possibility(space), name="max"),
    )


def drifting_mixture_sequence(
    space: FiniteMetricSpace, base: int, far: int, count: int = 8
) -> tuple[list[RiskMeasure], RiskMeasure]:
    """The archived sequence (1 - 1/n) * dirac(base) + (1/n) * dirac(far).

    It converges to dirac(base) pointwise while every term keeps mass on
    ``far``, so its bottleneck distance to the limit never drops below the
    separation of the two points.
    """
    limit = dirac(space, base)
    terms = []
    for n in range(1, count + 1):
        w = Fraction(1, n) if space.exact else 1.0 / n
        terms.append(mixture((1 - w, w), (dirac(space, base), dirac(space, far))))
    return terms, limit
