"""Finite metric spaces, point functions, subsets, and binary relations.

Subsets of an ``n``-point space are bitmasks (bit ``i`` set means point ``i``
is in the subset), which keeps the exhaustive 2^n loops of the capacity and
coupling machinery cheap.  All values are immutable after construction and
every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isfinite
from operator import itemgetter
from typing import Iterable, Sequence
from weakref import WeakValueDictionary

from .errors import (
    Asymmetry,
    EmptySubset,
    InputFormatError,
    NegativeDistance,
    NonzeroDiagonal,
    SpaceMismatch,
    TriangleViolation,
    ZeroOffDiagonal,
)
from .numerics import Scalar, parse_scalar, rational


def _hash_once(self) -> int:
    """The dataclass hash of the compared fields, computed on first use.

    Spaces and relations key the module caches, and a product space's
    distance matrix is too large to rehash on every lookup.
    """
    try:
        return self._hash
    except AttributeError:
        h = hash(tuple(getattr(self, f.name) for f in fields(self) if f.compare))
        object.__setattr__(self, "_hash", h)
        return h


def _state_without_hash(self) -> dict:
    # string hashes differ between processes: a pickled or copied value
    # computes its own
    state = self.__dict__.copy()
    state.pop("_hash", None)
    return state


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A labelled finite metric space with an explicit distance matrix."""

    labels: tuple[str, ...]
    dist: tuple[tuple[Scalar, ...], ...]

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def _label_index(self) -> dict[str, int]:
        """Point index by label, built once per (interned) space."""
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def _subset_masks(self) -> dict[str, int]:
        """Subset bitmask by the canonical key of a capacity table: the
        subset's labels joined by commas in point order (``"a,c"``).

        Built once per (interned) space.  It is empty past the capacity
        table guard, or when a label is blank or padded with spaces, which
        the label-by-label reading of a key strips; keys are then read that
        way.
        """
        from .capacity import MAX_CAPACITY_POINTS  # capacity imports this module

        labels = self.labels
        if self.n > MAX_CAPACITY_POINTS or not all(l and l == l.strip() for l in labels):
            return {}
        keys = [""]
        for label in labels:  # mask order: the subsets with point i follow
            keys += [f"{k},{label}" if k else label for k in keys]
        return {k: m for m, k in enumerate(keys)}

    @cached_property
    def _levels(self) -> tuple[Scalar, ...]:
        """The distinct distances, sorted."""
        return tuple(sorted({v for row in self.dist for v in row}))

    @cached_property
    def _ranks(self) -> tuple[int, ...]:
        """The rank of each distance in ``_levels``, row by row over the
        flat pair index ``i * n + j``, built once per space: a maximum of
        distances is a maximum of these ints."""
        rank = {v: r for r, v in enumerate(self._levels)}
        return tuple([rank[v] for row in self.dist for v in row])

    @cached_property
    def _ladder(self) -> tuple[tuple[Scalar, "Relation"], ...]:
        """(level, sublevel relation) per distance level, built once per
        space; each relation builds its ``inner_masks`` on first use."""
        return tuple((t, sublevel_relation(self, t)) for t in self._levels)

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise InputFormatError(f"unknown point label {label!r}") from None

    def d(self, i: int, j: int) -> Scalar:
        return self.dist[i][j]

    def diameter(self) -> Scalar:
        return max(max(row) for row in self.dist)


def validate_metric(labels: Sequence[str], dist: Sequence[Sequence]) -> FiniteMetricSpace:
    """Validate a distance matrix and build a space of exact distances.

    Checks squareness, finite entries, zero diagonal, symmetry, positivity
    off the diagonal, and the triangle inequality; each failure names the
    offending indices.
    Equal inputs give one shared space while it is alive, so the module
    caches keyed by spaces and the space checks of later requests compare
    it with itself instead of entry by entry.  The intern table ``_loaded``
    keys a space two ways: here by ``(labels, parsed rows)``, which finds
    it under any spelling of equal values, and in ``io.load_space`` by
    ``(labels, JSON text of the matrix)``, which finds it before any entry
    is parsed.
    """
    n = len(labels)
    if n < 1:
        raise InputFormatError("a space needs at least one point")
    if len(set(labels)) != n:
        raise InputFormatError("point labels must be unique")
    if len(dist) != n or any(len(row) != n for row in dist):
        raise InputFormatError("distance matrix must be square of size n")

    rows = tuple(tuple(parse_scalar(v) for v in row) for row in dist)
    key = (tuple(labels), rows)
    space = _loaded.get(key)
    if space is not None:
        return space  # validated when it was first loaded
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, float) and not isfinite(v):
                raise InputFormatError(f"dist[{i}][{j}] = {v} is not finite")
    for i in range(n):
        if rows[i][i] != 0:
            raise NonzeroDiagonal(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise Asymmetry(i, j)
            if rows[i][j] < 0:
                raise NegativeDistance(i, j)
            if rows[i][j] == 0:
                raise ZeroOffDiagonal(i, j)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    raise TriangleViolation(i, j, k)
    space = _loaded[key] = FiniteMetricSpace(*key)
    return space


#: every validated space still alive, by (labels, dist) and, when it was
#: loaded from JSON, by (labels, json.dumps(dist))
_loaded: WeakValueDictionary = WeakValueDictionary()


@dataclass(frozen=True)
class PointFunction:
    """A real-valued function on the points of a space, each value held as
    a rational (``numerics.rational``)."""

    space: FiniteMetricSpace
    values: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.values) != self.space.n:
            raise SpaceMismatch("function length does not match point count")
        values = tuple([rational(x, "function values must be finite") for x in self.values])
        object.__setattr__(self, "values", values)

    def __call__(self, i: int) -> Scalar:
        return self.values[i]

    @staticmethod
    def indicator(space: FiniteMetricSpace, mask: int) -> "PointFunction":
        one, zero = Fraction(1), Fraction(0)
        return PointFunction(
            space, tuple(one if mask >> i & 1 else zero for i in range(space.n))
        )


@dataclass(frozen=True)
class PointSubset:
    """A subset of a space's points, stored as a bitmask."""

    space: FiniteMetricSpace
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.space.full_mask:
            raise SpaceMismatch("subset mask out of range")

    @property
    def empty(self) -> bool:
        return self.mask == 0

    def indices(self) -> list[int]:
        return [i for i in range(self.space.n) if self.mask >> i & 1]

    @staticmethod
    def of(space: FiniteMetricSpace, labels: Iterable[str]) -> "PointSubset":
        mask = 0
        for lab in labels:
            mask |= 1 << space.index(lab)
        return PointSubset(space, mask)


@dataclass(frozen=True)
class Relation:
    """A set of (left point, right point) pairs between two spaces.

    It also carries derived views of ``matrix``, per left point (inverse:
    per right point): ``sections`` and ``inv_sections`` as masks,
    ``section_lists`` and ``inv_section_lists`` as factor indices, and
    ``pair_lists`` and ``inv_pair_lists`` as flat product indices; and the
    masks ``left_projection`` and ``right_projection`` of the points with a
    nonempty section (inverse section).  They are plain attributes, not
    fields, so the constructor takes the matrix alone.  ``inner_masks``,
    2^n entries per side, and their readers ``inner_readers`` are built on
    first use.
    """

    left: FiniteMetricSpace
    right: FiniteMetricSpace
    matrix: tuple[tuple[bool, ...], ...]

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    def __post_init__(self):
        if len(self.matrix) != self.left.n or any(
            len(row) != self.right.n for row in self.matrix
        ):
            raise SpaceMismatch("relation matrix shape does not match spaces")
        # lists, not generators: a tuple built from a generator is allocated
        # at a guessed length and resized, so it never comes from the
        # interpreter's free lists of tuples but is freed into them, and
        # every Dirac witness builds a relation
        matrix, n1, n2 = self.matrix, self.left.n, self.right.n
        sec_lists = tuple([tuple([j for j in range(n2) if row[j]]) for row in matrix])
        inv_lists = tuple([
            tuple([i for i in range(n1) if matrix[i][j]]) for j in range(n2)
        ])
        object.__setattr__(self, "sections", tuple([sum(1 << j for j in lst) for lst in sec_lists]))
        object.__setattr__(self, "inv_sections", tuple([sum(1 << i for i in lst) for lst in inv_lists]))
        object.__setattr__(self, "section_lists", sec_lists)
        object.__setattr__(self, "inv_section_lists", inv_lists)
        object.__setattr__(self, "pair_lists", tuple([
            tuple([i * n2 + j for j in lst]) for i, lst in enumerate(sec_lists)
        ]))
        object.__setattr__(self, "inv_pair_lists", tuple([
            tuple([i * n2 + j for i in lst]) for j, lst in enumerate(inv_lists)
        ]))
        object.__setattr__(self, "left_projection", sum(1 << i for i, l in enumerate(sec_lists) if l))
        object.__setattr__(self, "right_projection", sum(1 << j for j, l in enumerate(inv_lists) if l))

    @cached_property
    def inner_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """For each subset B of the right (left) factor, the mask of the
        left (right) points whose nonempty section (inverse section) fits
        inside B.  A symmetric relation, as every relation of the distance
        ladder is, has one table for both sides."""
        left = _inner_table(self.sections, self.right.n)
        if self.sections == self.inv_sections:
            return left, left
        return left, _inner_table(self.inv_sections, self.left.n)

    @cached_property
    def inner_readers(self) -> tuple:
        """Per side, the ``itemgetter`` of that side's ``inner_masks``: of a
        table indexed by subset, it reads the tuple of the entries at the
        inner mask of every subset.  One reader serves both sides of a
        symmetric relation."""
        left, right = self.inner_masks
        read = itemgetter(*left)
        return read, read if right is left else itemgetter(*right)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return self.matrix[i][j]

    def pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.left.n)
            for j in range(self.right.n)
            if self.matrix[i][j]
        ]

    @staticmethod
    def from_pairs(
        left: FiniteMetricSpace,
        right: FiniteMetricSpace,
        pairs: Iterable[tuple[int, int]],
    ) -> "Relation":
        grid = [[False] * right.n for _ in range(left.n)]
        for i, j in pairs:
            if not (0 <= i < left.n and 0 <= j < right.n):
                raise SpaceMismatch(f"pair ({i},{j}) out of range")
            grid[i][j] = True
        return Relation(left, right, tuple([tuple(row) for row in grid]))


def _inner_table(sections, n: int) -> tuple[int, ...]:
    # each point x lands in the entries of the supersets of its section
    full = (1 << n) - 1
    table = [0] * (1 << n)
    for x, sec in enumerate(sections):
        if sec:
            bit, rest = 1 << x, full & ~sec
            extra = rest
            while True:
                table[sec | extra] |= bit
                if not extra:
                    break
                extra = (extra - 1) & rest
    return tuple(table)


def full_relation(left: FiniteMetricSpace, right: FiniteMetricSpace) -> Relation:
    return Relation(
        left, right, tuple(tuple([True] * right.n) for _ in range(left.n))
    )


def sublevel_relation(space: FiniteMetricSpace, t: Scalar) -> Relation:
    """Pairs at distance <= t; always contains the diagonal for t >= 0."""
    if t < 0:
        raise InputFormatError("sublevel threshold must be nonnegative")
    return _sublevel_cached(space, t)


@lru_cache(maxsize=4096)
def _sublevel_cached(space: FiniteMetricSpace, t: Scalar) -> Relation:
    return Relation(
        space,
        space,
        tuple(
            tuple(space.dist[i][j] <= t for j in range(space.n))
            for i in range(space.n)
        ),
    )


def distance_levels(space: FiniteMetricSpace) -> list[Scalar]:
    """Sorted distinct distance values, starting at 0.

    They are computed once per space; each call returns a new list.
    """
    return list(space._levels)


def sublevel_ladder(space: FiniteMetricSpace) -> tuple[tuple[Scalar, Relation], ...]:
    """(level, ``sublevel_relation(space, level)``) for each distance level,
    built once per space and kept while it lives."""
    return space._ladder


def hausdorff_distance(a: PointSubset, b: PointSubset) -> Scalar:
    """max-min distance between two nonempty subsets of one space."""
    if a.space != b.space:
        raise SpaceMismatch("subsets live on different spaces")
    if a.empty or b.empty:
        raise EmptySubset("hausdorff distance needs nonempty subsets")
    d = a.space.dist
    ai, bi = a.indices(), b.indices()
    forward = max(min(d[x][y] for y in bi) for x in ai)
    backward = max(min(d[x][y] for x in ai) for y in bi)
    return max(forward, backward)


def modulus_of_continuity(phi: PointFunction, t: Scalar) -> Scalar:
    """Largest |phi(x) - phi(y)| over pairs within distance t."""
    if t < 0:
        raise InputFormatError("threshold must be nonnegative")
    space = phi.space
    best = 0
    for i in range(space.n):
        for j in range(space.n):
            if space.dist[i][j] <= t:
                gap = abs(phi.values[i] - phi.values[j])
                if gap > best:
                    best = gap
    return best


# ---------------------------------------------------------------------------
# products and projections


def pair_label(a: str, b: str) -> str:
    return f"{a}*{b}"


@lru_cache(maxsize=512)
def product_space(
    left: FiniteMetricSpace, right: FiniteMetricSpace
) -> FiniteMetricSpace:
    """Product of two spaces under the max metric.

    Point (i, j) gets flat index ``i * right.n + j``; labels are joined with
    ``*`` so capacity keys over products stay comma-free.
    """
    labels = tuple(
        pair_label(a, b) for a in left.labels for b in right.labels
    )
    n1, n2 = left.n, right.n
    dist = []
    for i in range(n1):
        for j in range(n2):
            row = []
            for k in range(n1):
                for l in range(n2):
                    row.append(max(left.dist[i][k], right.dist[j][l]))
            dist.append(tuple(row))
    return FiniteMetricSpace(labels, tuple(dist))


def left_projection_map(left: FiniteMetricSpace, right: FiniteMetricSpace) -> tuple[int, ...]:
    return tuple(i for i in range(left.n) for _ in range(right.n))


def right_projection_map(left: FiniteMetricSpace, right: FiniteMetricSpace) -> tuple[int, ...]:
    return tuple(j for _ in range(left.n) for j in range(right.n))
