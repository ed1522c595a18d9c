"""Capacities (normalized monotone set functions) and their Choquet integrals.

A capacity ``v`` assigns every subset of an n-point space a value in [0, 1]
with ``v(empty) = 0``, ``v(X) = 1``, and monotonicity under inclusion.  Its
Choquet integral is computed by the decreasing-rearrangement sum

    C(phi) = sum_i (phi_(i) - phi_(i+1)) * v(top i points) + phi_(n) * v(X),

which is monotone, translation invariant and normed, and therefore the exact
computable tier of the risk-measure machinery.  Linear capacities give
expectations, quantile capacities give value-at-risk, distortions give
expected shortfall, the unanimity capacity gives min, the possibility
capacity gives max.

Tables are stored as full 2^n tuples indexed by subset bitmask.  In exact
mode each capacity also builds its table once as integers over one common
denominator D.  The monotonicity and null-point scans run on those
integers, the coupling module compares two tables by cross-multiplying
them, and a Choquet integral of ``int`` values sums its layers in ``int``
and builds a single ``Fraction`` at the end.  ``Fraction`` or mixed values
and float mode take the ``Fraction`` (or float) loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InputFormatError, InvalidParams, SpaceMismatch
from .numerics import Scalar
from .space import FiniteMetricSpace, PointFunction

MAX_CAPACITY_POINTS = 12  # 2^n table guard

_INT = frozenset((int,))


@dataclass(frozen=True)
class Capacity:
    """A normalized monotone set function over subset bitmasks.

    It also carries ``scaled``, the table times ``scale``.  In exact mode
    ``scale`` is the least common denominator D of the entries and
    ``scaled`` holds integers; in float mode they are the table and 1.
    Both are plain attributes, not fields, so equality and reports see the
    table alone.
    """

    space: FiniteMetricSpace
    table: tuple[Scalar, ...]
    null_mask: int = field(compare=False, default=0)

    def __post_init__(self):
        n = self.space.n
        if n > MAX_CAPACITY_POINTS:
            raise InputFormatError(
                f"capacity tables are guarded to {MAX_CAPACITY_POINTS} points"
            )
        if len(self.table) != 1 << n:
            raise InvalidParams("capacity table must have 2^n entries")
        tol = self.space.tol
        if abs(self.table[0]) > tol:
            raise InvalidParams("capacity of the empty set must be 0")
        if abs(self.table[-1] - 1) > tol:
            raise InvalidParams("capacity of the full space must be 1")
        if self.space.exact and all(type(x) in (int, Fraction) for x in self.table):
            scale = lcm(*(x.denominator for x in self.table))
            scaled = tuple(x.numerator * (scale // x.denominator) for x in self.table)
            # the integer sum gives a Fraction for any nonzero layer, which
            # the Fraction loop does only if every entry a layer can read
            # (a proper nonempty subset) is a Fraction
            layers = all(type(x) is Fraction for x in self.table[1:-1])
        else:
            scaled, scale, layers = self.table, 1, False
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_int_layers", scaled if layers else None)
        # tol is 0 wherever the scaled table is not the table itself
        for mask in range(1 << n):
            for i in range(n):
                if not mask >> i & 1:
                    if scaled[mask] > scaled[mask | 1 << i] + tol:
                        raise InvalidParams(
                            "capacity not monotone: "
                            f"v({mask}) > v({mask | 1 << i})"
                        )
        object.__setattr__(self, "null_mask", _null_mask(scaled, n, tol))

    def choquet(self, values: Sequence[Scalar]) -> Scalar:
        """Choquet integral by the decreasing-rearrangement sum.

        Ties are broken by point index; the sum is tie-independent because
        equal adjacent values contribute zero-width layers.  Zero-width
        layers are skipped (v(X) = 1 absorbs the bottom value).

        Integer path: when every value is an ``int`` and the capacity is
        exact, the layers are summed in ``int`` over ``scaled`` and a single
        ``Fraction`` is built at the end.  It returns what the ``Fraction``
        loop returns, type included: the bottom value itself when no layer
        is nonzero, a ``Fraction`` otherwise.  ``Fraction`` or mixed values,
        and float mode, take that loop.
        """
        n = self.space.n
        order = sorted(range(n), key=values.__getitem__, reverse=True)
        ints = self._int_layers
        if ints is not None and _INT.issuperset(map(type, values)):
            bottom = values[order[-1]]
            if values[order[0]] == bottom:
                return bottom
            # summed by parts: each value times what its point adds to the
            # scaled capacity of the upper set
            acc = 0
            mask = 0
            below = 0
            for i in order:
                mask |= 1 << i
                t = ints[mask]
                acc += values[i] * (t - below)
                below = t
            return Fraction(acc, self.scale)
        total = values[order[-1]]
        table = self.table
        mask = 0
        for rank in range(n - 1):
            mask |= 1 << order[rank]
            d = values[order[rank]] - values[order[rank + 1]]
            if d:
                total += d * table[mask]
        return total

    def support_mask(self) -> int:
        """Smallest carrier: the points that are not null."""
        return self.space.full_mask & ~self.null_mask


def _null_mask(table, n: int, tol) -> int:
    """Points whose presence never changes the capacity."""
    null = 0
    for i in range(n):
        bit = 1 << i
        if all(
            abs(table[mask | bit] - table[mask]) <= tol
            for mask in range(1 << n)
            if not mask & bit
        ):
            null |= bit
    return null


def choquet_eval(v: Capacity, phi: PointFunction) -> Scalar:
    if v.space != phi.space:
        raise SpaceMismatch("capacity and function live on different spaces")
    return v.choquet(phi.values)


def restricts_to(v: Capacity, mask: int) -> bool:
    """True iff v(S) = v(S & mask) for every subset S."""
    tol = v.space.tol
    return all(
        abs(v.table[s] - v.table[s & mask]) <= tol for s in range(len(v.table))
    )


def exhaustive_support_mask(v: Capacity) -> int:
    """Smallest carrier found by scanning candidates in increasing cardinality.

    Reference implementation for the null-point fast path; cost 4^n.
    """
    n = v.space.n
    candidates = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    for mask in candidates:
        if restricts_to(v, mask):
            return mask
    return v.space.full_mask


# ---------------------------------------------------------------------------
# constructors


def _one_zero(space: FiniteMetricSpace) -> tuple[Scalar, Scalar]:
    if space.exact:
        return Fraction(1), Fraction(0)
    return 1.0, 0.0


def expectation(space: FiniteMetricSpace, weights: Sequence[Scalar]) -> Capacity:
    """Additive capacity v(B) = sum of weights over B."""
    if len(weights) != space.n:
        raise InvalidParams("weight vector length must match point count")
    if any(w < 0 for w in weights):
        raise InvalidParams("weights must be nonnegative")
    total = sum(weights)
    if abs(total - 1) > space.tol:
        raise InvalidParams("weights must sum to 1")
    table = []
    for mask in range(1 << space.n):
        table.append(sum(w for i, w in enumerate(weights) if mask >> i & 1))
    return Capacity(space, tuple(table))


def dirac_capacity(space: FiniteMetricSpace, point: int) -> Capacity:
    one, zero = _one_zero(space)
    return Capacity(
        space,
        tuple(one if mask >> point & 1 else zero for mask in range(1 << space.n)),
    )


def unanimity(space: FiniteMetricSpace, mask: int | None = None) -> Capacity:
    """v(B) = 1 iff B contains the given subset (defaults to X); Choquet = min."""
    need = space.full_mask if mask is None else mask
    if need == 0:
        raise InvalidParams("unanimity needs a nonempty subset")
    one, zero = _one_zero(space)
    return Capacity(
        space,
        tuple(one if m & need == need else zero for m in range(1 << space.n)),
    )


def possibility(space: FiniteMetricSpace, mask: int | None = None) -> Capacity:
    """v(B) = 1 iff B meets the given subset (defaults to X); Choquet = max."""
    hit = space.full_mask if mask is None else mask
    if hit == 0:
        raise InvalidParams("possibility needs a nonempty subset")
    one, zero = _one_zero(space)
    return Capacity(
        space,
        tuple(one if m & hit else zero for m in range(1 << space.n)),
    )


def var_quantile(
    space: FiniteMetricSpace, weights: Sequence[Scalar], level: Scalar
) -> Capacity:
    """Quantile capacity of a probability: v(B) = 1 iff p(B) > 1 - level."""
    if not 0 <= level <= 1:
        raise InvalidParams("level must lie in [0, 1]")
    p = expectation(space, weights)
    one, zero = _one_zero(space)
    cut = 1 - level
    table = tuple(
        one if p.table[m] > cut + space.tol else zero
        for m in range(1 << space.n)
    )
    # p(X) = 1 > 1 - level can fail at level = 0; pin normalization
    table = table[:-1] + (one,)
    return Capacity(space, table)


def cvar(
    space: FiniteMetricSpace, weights: Sequence[Scalar], level: Scalar
) -> Capacity:
    """Distortion capacity v(B) = min(p(B) / (1 - level), 1)."""
    if not 0 <= level < 1:
        raise InvalidParams("level must lie in [0, 1)")
    p = expectation(space, weights)
    one = _one_zero(space)[0]
    denom = 1 - level
    return Capacity(
        space,
        tuple(min(p.table[m] / denom, one) for m in range(1 << space.n)),
    )


def check_mixture(weights: Sequence[Scalar], components: Sequence) -> FiniteMetricSpace:
    """Validate convex weights over components on one space (capacities or
    measures); returns that space."""
    if len(weights) != len(components) or not components:
        raise InvalidParams("need one weight per component")
    space = components[0].space
    if any(c.space != space for c in components):
        raise SpaceMismatch("mixture components live on different spaces")
    if any(w < 0 for w in weights):
        raise InvalidParams("mixture weights must be nonnegative")
    if abs(sum(weights) - 1) > space.tol:
        raise InvalidParams("mixture weights must sum to 1")
    return space


def mix_capacities(
    weights: Sequence[Scalar], components: Sequence[Capacity]
) -> Capacity:
    """Convex combination of capacities (the Choquet integral is linear in v)."""
    space = check_mixture(weights, components)
    table = tuple(
        sum(w * c.table[m] for w, c in zip(weights, components))
        for m in range(1 << space.n)
    )
    return Capacity(space, table)


def pushforward_capacity(
    v: Capacity, point_map: Sequence[int], target: FiniteMetricSpace
) -> Capacity:
    """Image capacity v'(B) = v(preimage of B)."""
    if len(point_map) != v.space.n:
        raise SpaceMismatch("point map must be total on the source points")
    table = []
    for mask in range(1 << target.n):
        pre = 0
        for i, fi in enumerate(point_map):
            if mask >> fi & 1:
                pre |= 1 << i
        table.append(v.table[pre])
    return Capacity(target, tuple(table))
