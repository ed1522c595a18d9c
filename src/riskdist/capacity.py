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
table is built past ``MAX_CAPACITY_POINTS`` points.  A capacity carries its
table as integers over their least common denominator D, ``scaled``, and
every capacity the package builds is born as those integers: expectations,
VaR, CVaR, mixtures, the 0/1 capacities and JSON tables compute their
entries times D in ``int`` arithmetic (VaR and CVaR from the probability's
integer subset sums), and the normalization, monotone-cover and
null-point checks run once, on those integers.  ``table``, each entry as
the ``Fraction`` it equals, is built the first time something reads it: a
certificate, equality, hashing or ``repr``; the distance ladder reads
none.  A table given by its values (``Capacity(space, table)``, a
pushforward) is lifted (``numerics.rational``: a float entry, which only a
Python caller can give, becomes the ``Fraction`` it equals), scaled once
on construction and checked the same way.  Weights are lifted the same
way before any sum, so no sum or comparison of the module is a float one.
Fractions appear at the JSON edge, where a ``choquet`` spec's distinct
entries are parsed, and in ``table``.  The coupling module compares two
tables as their ``scaled`` integers lifted to one common scale, and a
Choquet integral sums its layers over ``scaled`` and divides by the scale
once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, le
from typing import Sequence

from .errors import InputFormatError, InvalidParams, SpaceMismatch
from .numerics import Scalar, rational
from .space import FiniteMetricSpace, PointFunction

MAX_CAPACITY_POINTS = 12  # 2^n table guard


@dataclass(frozen=True)
class Capacity:
    """A normalized monotone set function over subset bitmasks.

    It also carries ``scaled``, the table times ``scale``, and
    ``null_mask``, its null points: ``scale`` is the least common
    denominator D of the entries and ``scaled`` holds integers.  All three
    are plain attributes, not fields, so the constructor, equality and
    reports see the table alone.

    A capacity the package builds is born as those integers
    (``_of_scaled``) and checked on them; its ``table`` is built the first
    time something reads it, each entry the ``Fraction`` it equals, so
    equality and hashing, which read ``table``, see what
    ``Capacity(space, table)`` of the same values sees.
    """

    space: FiniteMetricSpace
    table: tuple[Scalar, ...]

    def __post_init__(self):
        n = self.space.n
        check_points(n)
        if len(self.table) != 1 << n:
            raise InvalidParams("capacity table must have 2^n entries")
        table = tuple([rational(x, "capacity entries must be finite") for x in self.table])
        object.__setattr__(self, "table", table)
        scale = lcm(*[x.denominator for x in table])
        self._check(tuple([x.numerator * (scale // x.denominator) for x in table]), scale)

    @classmethod
    def _of_scaled(cls, space, scaled: tuple, scale: int) -> "Capacity":
        """The capacity with entries scaled[B] / scale, where ``scale`` is
        their least common denominator and ``scaled`` has an entry per
        subset of the space, checked on those ints.  Its table is built
        when first read."""
        cap = object.__new__(cls)
        object.__setattr__(cap, "space", space)
        cap._check(scaled, scale)
        return cap

    def __getattr__(self, name):
        # reached only for an attribute that is not set: the table of a
        # capacity born as integers, before its first read
        if name != "table":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        scaled, scale = self.scaled, self.scale
        value = {s: Fraction(s, scale) for s in set(scaled)}
        table = tuple(map(value.__getitem__, scaled))
        object.__setattr__(self, "table", table)
        return table

    def _check(self, scaled: tuple, scale: int):
        """Normalization, monotone covers and null points, on the ints."""
        if scaled[0] != 0:
            raise InvalidParams("capacity of the empty set must be 0")
        if scaled[-1] != scale:
            raise InvalidParams("capacity of the full space must be 1")
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "null_mask", _null_points(scaled, scale, self.space.n))

    def choquet(self, values: Sequence[Scalar]) -> Scalar:
        """Choquet integral by the decreasing-rearrangement sum.

        Ties are broken by point index; the sum is tie-independent because
        equal adjacent values contribute zero-width layers.

        The values are rationals (``int`` or ``Fraction``).  The layers are
        summed over ``scaled``, in ``int`` for ``int`` values, and divided
        by the scale once: the result is a ``Fraction``, or, for a constant
        input, that constant as given.
        """
        order = sorted(range(self.space.n), key=values.__getitem__, reverse=True)
        bottom = values[order[-1]]
        if values[order[0]] == bottom:
            return bottom
        # summed by parts: each value times what its point adds to the
        # scaled capacity of the upper set
        scaled = self.scaled
        acc = 0
        mask = 0
        below = 0
        for i in order:
            mask |= 1 << i
            t = scaled[mask]
            acc += values[i] * (t - below)
            below = t
        return Fraction(acc, self.scale)

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


def _null_points(scaled: tuple, scale: int, n: int) -> int:
    """The mask of the null points of an integer table with scaled[0] = 0
    and scaled[-1] = scale, or ``InvalidParams`` at its first rise.

    Per point i, the entries of the subsets without i are compared with
    the same subsets with i: a rise is a monotonicity failure, no change at
    all makes i a null point.  Between its two ends a monotone table stays
    in [0, scale], so below a scale of 128 each of its entries fits in a
    byte's low seven bits, and a table with an entry that does not is not
    monotone.  Such a table is packed into one integer, a byte per subset,
    and the comparisons of each point run on all subsets at once: the
    entries with i, shifted onto those without, minus those without, keep
    every guard bit 0x80 exactly when no entry drops.  Past that scale,
    getters gather the two sides."""
    null = 0
    if scale < 128:
        try:
            packed = bytes(scaled)
        except ValueError:  # an entry below 0 or past 255
            packed = b"\x80"
        if not packed.isascii():
            _raise_first_rise(scaled, n)
        packed = int.from_bytes(packed, "little")
        for i, (_, _, low, guard) in enumerate(_covers(n)):
            below = packed & low
            above = packed >> (8 << i) & low
            if ((above | guard) - below) & guard != guard:
                _raise_first_rise(scaled, n)
            if above == below:
                null |= 1 << i
        return null
    for i, (without, with_, _, _) in enumerate(_covers(n)):
        below, above = without(scaled), with_(scaled)
        if not all(map(le, below, above)):
            _raise_first_rise(scaled, n)
        if below == above:
            null |= 1 << i
    return null


@lru_cache(maxsize=MAX_CAPACITY_POINTS)
def _covers(n: int) -> tuple:
    """Per point i, over the subsets without i in mask order: getters of
    their entries and of the same subsets' entries with i, and the byte
    lanes of those subsets in a packed table, with 0x7f and with 0x80 in
    each; one entry per table size."""
    out = []
    for i in range(n):
        bit = 1 << i
        without = [m for m in range(1 << n) if not m & bit]
        lanes = [0 if m & bit else 1 for m in range(1 << n)]
        out.append((
            _getter(without),
            _getter([m | bit for m in without]),
            int.from_bytes(bytes([0x7F * x for x in lanes]), "little"),
            int.from_bytes(bytes([0x80 * x for x in lanes]), "little"),
        ))
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


def _from_ints(space: FiniteMetricSpace, scaled, scale: int) -> Capacity:
    """The capacity with entries scaled[B] / scale, born as those integers
    over their least common denominator; its table holds each entry as a
    Fraction."""
    g = gcd(scale, *scaled)
    if g > 1:
        scale //= g
        scaled = [s // g for s in scaled]
    return Capacity._of_scaled(space, tuple(scaled), scale)


def _subset_sums(weights: Sequence[int]) -> list:
    """Entry B is the sum of the weights over B."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _probability(space: FiniteMetricSpace, weights: Sequence[Scalar]) -> tuple[list, int]:
    """p(B) times D for every subset B, as ints, and D, the least common
    denominator of the p(B), for a probability vector p."""
    if len(weights) != space.n:
        raise InvalidParams("weight vector length must match point count")
    check_points(space.n)
    weights = [rational(w, "weights must be finite") for w in weights]
    scale = lcm(*[w.denominator for w in weights])
    ints = [w.numerator * (scale // w.denominator) for w in weights]
    if any(w < 0 for w in ints):
        raise InvalidParams("weights must be nonnegative")
    if sum(ints) != scale:
        raise InvalidParams("weights must sum to 1")
    return _subset_sums(ints), scale


def expectation(space: FiniteMetricSpace, weights: Sequence[Scalar]) -> Capacity:
    """Additive capacity v(B) = sum of weights over B."""
    return _from_ints(space, *_probability(space, weights))


def dirac_capacity(space: FiniteMetricSpace, point: int) -> Capacity:
    check_points(space.n)
    return _from_ints(space, [m >> point & 1 for m in range(1 << space.n)], 1)


def unanimity(space: FiniteMetricSpace, mask: int | None = None) -> Capacity:
    """v(B) = 1 iff B contains the given subset (defaults to X); Choquet = min."""
    need = space.full_mask if mask is None else mask
    if need == 0:
        raise InvalidParams("unanimity needs a nonempty subset")
    check_points(space.n)
    return _from_ints(space, [int(m & need == need) for m in range(1 << space.n)], 1)


def possibility(space: FiniteMetricSpace, mask: int | None = None) -> Capacity:
    """v(B) = 1 iff B meets the given subset (defaults to X); Choquet = max."""
    hit = space.full_mask if mask is None else mask
    if hit == 0:
        raise InvalidParams("possibility needs a nonempty subset")
    check_points(space.n)
    return _from_ints(space, [int(m & hit != 0) for m in range(1 << space.n)], 1)


def var_quantile(
    space: FiniteMetricSpace, weights: Sequence[Scalar], level: Scalar
) -> Capacity:
    """Quantile capacity of a probability: v(B) = 1 iff p(B) > 1 - level."""
    if not 0 <= level <= 1:
        raise InvalidParams("level must lie in [0, 1]")
    sums, scale = _probability(space, weights)
    # p(B) = s / D > 1 - a / b, multiplied out by D * b
    a, b = Fraction(level).as_integer_ratio()
    bound = scale * (b - a)
    bits = [int(s * b > bound) for s in sums]
    # p(X) = 1 > 1 - level can fail at level = 0; pin normalization
    bits[-1] = 1
    return _from_ints(space, bits, 1)


def cvar(
    space: FiniteMetricSpace, weights: Sequence[Scalar], level: Scalar
) -> Capacity:
    """Distortion capacity v(B) = min(p(B) / (1 - level), 1)."""
    if not 0 <= level < 1:
        raise InvalidParams("level must lie in [0, 1)")
    sums, scale = _probability(space, weights)
    # (s / D) / ((b - a) / b) = s * b / (D * (b - a)), capped at 1
    a, b = Fraction(level).as_integer_ratio()
    scale *= b - a
    return _from_ints(space, [min(s * b, scale) for s in sums], scale)


def check_mixture(
    weights: Sequence[Scalar], components: Sequence
) -> tuple[FiniteMetricSpace, list]:
    """Validate convex weights over components on one space (capacities or
    measures); returns that space and the weights, lifted to rationals."""
    if len(weights) != len(components) or not components:
        raise InvalidParams("need one weight per component")
    space = components[0].space
    if any(c.space != space for c in components):
        raise SpaceMismatch("mixture components live on different spaces")
    weights = [rational(w, "mixture weights must be finite") for w in weights]
    if any(w < 0 for w in weights):
        raise InvalidParams("mixture weights must be nonnegative")
    if sum(weights) != 1:
        raise InvalidParams("mixture weights must sum to 1")
    return space, weights


def mix_capacities(
    weights: Sequence[Scalar], components: Sequence[Capacity]
) -> Capacity:
    """Convex combination of capacities (the Choquet integral is linear in v)."""
    space, weights = check_mixture(weights, components)
    scaled, scale = mix_tables(weights, [(c.scaled, c.scale) for c in components])
    return _from_ints(space, scaled, scale)


def mix_tables(weights: Sequence[Fraction], tables) -> tuple[list, int]:
    """sum_k w_k s_k / D_k over (s_k, D_k) in ``tables``, integer tables
    over their scales, as integers over one scale, and that scale: the lcm
    of the w_k denominators times D_k, not reduced."""
    # sum_k (p_k / q_k) * (s_k / D_k) over the lcm of the q_k * D_k
    dens = [w.denominator * d for w, (_, d) in zip(weights, tables)]
    scale = lcm(*dens)
    mixed = [0] * len(tables[0][0])
    for w, den, (table, _) in zip(weights, dens, tables):
        coef = w.numerator * (scale // den)
        mixed = [t + coef * s for t, s in zip(mixed, table)]
    return mixed, scale


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
