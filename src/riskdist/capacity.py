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

Tables are stored as full 2^n tuples indexed by subset bitmask, and no
table is built past ``MAX_CAPACITY_POINTS`` points.  A capacity also
carries its table as integers over one common denominator D, ``scaled``,
and tables are built as integers first:
expectations, VaR, CVaR, mixtures and the 0/1 capacities compute their
entries times D in ``int`` arithmetic, and a table given by its values (a
JSON table, a pushforward) is scaled once on construction.  The
monotonicity and null-point scans compare those integers.  Fractions
appear only at the JSON edge, where a ``choquet`` spec's entries are
parsed, and in ``table``, which holds each entry as the ``Fraction`` it
equals, typed as the Fraction arithmetic of the definitions types it.  The
coupling module compares two tables as their ``scaled`` integers lifted to
one common scale, and a Choquet integral of ``int`` values sums its layers in
``int`` and builds a single ``Fraction`` at the end.  ``Fraction`` or mixed
values take the ``Fraction`` loop.  A float entry, which only a Python
caller can give, is lifted to the ``Fraction`` it equals on construction,
so no comparison of two tables is a float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, le, mul
from typing import Sequence

from .errors import InputFormatError, InvalidParams, SpaceMismatch
from .numerics import Scalar
from .space import FiniteMetricSpace, PointFunction

MAX_CAPACITY_POINTS = 12  # 2^n table guard

_INT = frozenset((int,))
_FRACTION = frozenset((Fraction,))
_RATIONAL = frozenset((int, Fraction))


@dataclass(frozen=True)
class Capacity:
    """A normalized monotone set function over subset bitmasks.

    It also carries ``scaled``, the table times ``scale``, and
    ``null_mask``, its null points: ``scale`` is the least common
    denominator D of the entries and ``scaled`` holds integers.  All three
    are plain attributes, not fields, so the constructor, equality and
    reports see the table alone.
    """

    space: FiniteMetricSpace
    table: tuple[Scalar, ...]

    def __post_init__(self):
        self._check()

    @classmethod
    def _of_scaled(cls, space, table, scaled, scale) -> "Capacity":
        """A capacity whose entries the caller already has over their least
        common denominator: ``scaled`` is ``table`` times ``scale``, as
        ints.  It is checked as the constructor checks a table."""
        cap = object.__new__(cls)
        object.__setattr__(cap, "space", space)
        object.__setattr__(cap, "table", table)
        cap._check(scaled, scale)
        return cap

    def _check(self, scaled=None, scale=1):
        n = self.space.n
        check_points(n)
        table = self.table
        if len(table) != 1 << n:
            raise InvalidParams("capacity table must have 2^n entries")
        if not _RATIONAL.issuperset(map(type, table)):
            try:
                table = tuple([x if type(x) in _RATIONAL else Fraction(x) for x in table])
            except (ValueError, OverflowError):  # a NaN or an infinity
                raise InvalidParams("capacity entries must be finite") from None
            object.__setattr__(self, "table", table)
        if table[0] != 0:
            raise InvalidParams("capacity of the empty set must be 0")
        if table[-1] != 1:
            raise InvalidParams("capacity of the full space must be 1")
        if scaled is None:
            scale = lcm(*[x.denominator for x in table])
            scaled = tuple([x.numerator * (scale // x.denominator) for x in table])
        # the integer sum gives a Fraction for any nonzero layer, which the
        # Fraction loop does only if every entry a layer can read (a proper
        # nonempty subset) is a Fraction
        layers = _FRACTION.issuperset(map(type, table[1:-1]))
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_int_layers", scaled if layers else None)
        # per point i, the entries of the subsets without i against the same
        # subsets with i: a rise is a monotonicity failure, no change at all
        # makes i a null point
        null = 0
        for i, (without, with_) in enumerate(_covers(n)):
            below, above = without(scaled), with_(scaled)
            if not all(map(le, below, above)):
                _raise_first_rise(scaled, n)
            if below == above:
                null |= 1 << i
        object.__setattr__(self, "null_mask", null)

    def choquet(self, values: Sequence[Scalar]) -> Scalar:
        """Choquet integral by the decreasing-rearrangement sum.

        Ties are broken by point index; the sum is tie-independent because
        equal adjacent values contribute zero-width layers.  Zero-width
        layers are skipped (v(X) = 1 absorbs the bottom value).

        Integer path: when every value is an ``int`` and the capacity is
        exact, the layers are summed in ``int`` over ``scaled`` and a single
        ``Fraction`` is built at the end.  It returns what the ``Fraction``
        loop returns, type included: the bottom value itself when no layer
        is nonzero, a ``Fraction`` otherwise.  ``Fraction`` or mixed values
        take that loop.
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


def check_points(n: int) -> None:
    """Refuse a table of 2^n entries past ``MAX_CAPACITY_POINTS`` points,
    before it is built."""
    if n > MAX_CAPACITY_POINTS:
        raise InputFormatError(
            f"capacity tables are guarded to {MAX_CAPACITY_POINTS} points"
        )


@lru_cache(maxsize=MAX_CAPACITY_POINTS)
def _covers(n: int) -> tuple:
    """Per point i, getters of the entries of the subsets without i and of
    the same subsets with i, in mask order; one entry per table size."""
    out = []
    for i in range(n):
        bit = 1 << i
        without = [m for m in range(1 << n) if not m & bit]
        out.append((_getter(without), _getter([m | bit for m in without])))
    return tuple(out)


def _getter(index: list[int]):
    if len(index) == 1:
        # itemgetter of a single index returns the entry, not a 1-tuple
        k = index[0]
        return lambda t: (t[k],)
    return itemgetter(*index)


def _raise_first_rise(table, n: int):
    """Name the first pair v(mask) > v(mask | bit) in mask-major order."""
    for mask in range(1 << n):
        for i in range(n):
            if not mask >> i & 1 and table[mask] > table[mask | 1 << i]:
                raise InvalidParams(
                    f"capacity not monotone: v({mask}) > v({mask | 1 << i})"
                )


def choquet_eval(v: Capacity, phi: PointFunction) -> Scalar:
    if v.space != phi.space:
        raise SpaceMismatch("capacity and function live on different spaces")
    return v.choquet(phi.values)


def restricts_to(v: Capacity, mask: int) -> bool:
    """True iff v(S) = v(S & mask) for every subset S."""
    return all(v.table[s] == v.table[s & mask] for s in range(len(v.table)))


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


def _from_ints(space: FiniteMetricSpace, scaled, scale: int, empty=None) -> Capacity:
    """The exact capacity with entries scaled[B] / scale, each a Fraction;
    ``empty``, when given, is the entry of the empty set instead."""
    g = gcd(scale, *scaled)
    if g > 1:
        scale //= g
        scaled = [s // g for s in scaled]
    value = {s: Fraction(s, scale) for s in set(scaled)}
    table = tuple(map(value.__getitem__, scaled))
    if empty is not None:
        table = (empty, *table[1:])
    return Capacity._of_scaled(space, table, tuple(scaled), scale)


def _from_bits(space: FiniteMetricSpace, bits) -> Capacity:
    """The capacity that is 1 on the subsets B with bits[B] = 1, else 0."""
    table = tuple(map((Fraction(0), Fraction(1)).__getitem__, bits))
    return Capacity._of_scaled(space, table, tuple(bits), 1)


def _subset_sums(weights: Sequence) -> list:
    """Entry B is the sum of the weights over B, added in point order from
    the int 0, as ``sum`` adds them."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def expectation(space: FiniteMetricSpace, weights: Sequence[Scalar]) -> Capacity:
    """Additive capacity v(B) = sum of weights over B."""
    if len(weights) != space.n:
        raise InvalidParams("weight vector length must match point count")
    check_points(space.n)
    if _FRACTION.issuperset(map(type, weights)):
        scale = lcm(*[w.denominator for w in weights])
        ints = [w.numerator * (scale // w.denominator) for w in weights]
        _check_weights(ints, scale)
        # the empty sum is the int 0, as sum() gives it
        return _from_ints(space, _subset_sums(ints), scale, empty=0)
    _check_weights(weights, 1)
    return Capacity(space, tuple(_subset_sums(weights)))


def _check_weights(weights, total):
    if any(w < 0 for w in weights):
        raise InvalidParams("weights must be nonnegative")
    if sum(weights) != total:
        raise InvalidParams("weights must sum to 1")


def dirac_capacity(space: FiniteMetricSpace, point: int) -> Capacity:
    check_points(space.n)
    return _from_bits(space, [m >> point & 1 for m in range(1 << space.n)])


def unanimity(space: FiniteMetricSpace, mask: int | None = None) -> Capacity:
    """v(B) = 1 iff B contains the given subset (defaults to X); Choquet = min."""
    need = space.full_mask if mask is None else mask
    if need == 0:
        raise InvalidParams("unanimity needs a nonempty subset")
    check_points(space.n)
    return _from_bits(space, [int(m & need == need) for m in range(1 << space.n)])


def possibility(space: FiniteMetricSpace, mask: int | None = None) -> Capacity:
    """v(B) = 1 iff B meets the given subset (defaults to X); Choquet = max."""
    hit = space.full_mask if mask is None else mask
    if hit == 0:
        raise InvalidParams("possibility needs a nonempty subset")
    check_points(space.n)
    return _from_bits(space, [int(m & hit != 0) for m in range(1 << space.n)])


def var_quantile(
    space: FiniteMetricSpace, weights: Sequence[Scalar], level: Scalar
) -> Capacity:
    """Quantile capacity of a probability: v(B) = 1 iff p(B) > 1 - level."""
    if not 0 <= level <= 1:
        raise InvalidParams("level must lie in [0, 1]")
    p = expectation(space, weights)
    # p(B) = s / D > 1 - a / b, multiplied out by D * b
    a, b = Fraction(level).as_integer_ratio()
    bound = p.scale * (b - a)
    bits = [int(s * b > bound) for s in p.scaled]
    # p(X) = 1 > 1 - level can fail at level = 0; pin normalization
    bits[-1] = 1
    return _from_bits(space, bits)


def cvar(
    space: FiniteMetricSpace, weights: Sequence[Scalar], level: Scalar
) -> Capacity:
    """Distortion capacity v(B) = min(p(B) / (1 - level), 1)."""
    if not 0 <= level < 1:
        raise InvalidParams("level must lie in [0, 1)")
    p = expectation(space, weights)
    # (s / D) / ((b - a) / b) = s * b / (D * (b - a)), capped at 1
    a, b = Fraction(level).as_integer_ratio()
    scale = p.scale * (b - a)
    return _from_ints(space, [min(s * b, scale) for s in p.scaled], scale)


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
    if sum(weights) != 1:
        raise InvalidParams("mixture weights must sum to 1")
    return space


def mix_capacities(
    weights: Sequence[Scalar], components: Sequence[Capacity]
) -> Capacity:
    """Convex combination of capacities (the Choquet integral is linear in v)."""
    space = check_mixture(weights, components)
    if _FRACTION.issuperset(map(type, weights)):
        # sum_k (p_k / q_k) * (s_k / D_k) over the lcm of the q_k * D_k
        dens = [w.denominator * c.scale for w, c in zip(weights, components)]
        scale = lcm(*dens)
        coefs = [w.numerator * (scale // d) for w, d in zip(weights, dens)]
        columns = zip(*(c.scaled for c in components))
        return _from_ints(space, [sum(map(mul, coefs, col)) for col in columns], scale)
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
    check_points(target.n)
    table = []
    for mask in range(1 << target.n):
        pre = 0
        for i, fi in enumerate(point_map):
            if mask >> fi & 1:
                pre |= 1 << i
        table.append(v.table[pre])
    return Capacity(target, tuple(table))
