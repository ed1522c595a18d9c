"""Finite metric spaces, point functions, subsets, and binary relations.

Subsets of an ``n``-point space are bitmasks (bit ``i`` set means point ``i``
is in the subset), which keeps the exhaustive 2^n loops of the capacity and
coupling machinery cheap.  All values are immutable after construction and
every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    Asymmetry,
    EmptySubset,
    InputFormatError,
    NegativeDistance,
    NonzeroDiagonal,
    PointCountExceeded,
    SpaceMismatch,
    TriangleViolation,
    ZeroOffDiagonal,
)
from .numerics import FLOAT_TOL, Scalar, parse_scalar

#: exact-mode point guard; capacity tables are full 2^n vectors
MAX_EXACT_POINTS = 12


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A labelled finite metric space with an explicit distance matrix."""

    labels: tuple[str, ...]
    dist: tuple[tuple[Scalar, ...], ...]
    tol: float = 0  # 0 in exact mode, FLOAT_TOL in float mode

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def exact(self) -> bool:
        return self.tol == 0

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputFormatError(f"unknown point label {label!r}") from None

    def d(self, i: int, j: int) -> Scalar:
        return self.dist[i][j]

    def diameter(self) -> Scalar:
        return max(max(row) for row in self.dist)


def validate_metric(
    labels: Sequence[str],
    dist: Sequence[Sequence],
    mode: str = "exact",
) -> FiniteMetricSpace:
    """Validate a distance matrix and build a space.

    Checks squareness, zero diagonal, symmetry, positivity off the diagonal,
    and the triangle inequality; each failure names the offending indices.
    """
    if mode not in ("exact", "float"):
        raise InputFormatError(f"unknown arithmetic mode {mode!r}")
    exact = mode == "exact"
    n = len(labels)
    if n < 1:
        raise InputFormatError("a space needs at least one point")
    if len(set(labels)) != n:
        raise InputFormatError("point labels must be unique")
    if exact and n > MAX_EXACT_POINTS:
        raise PointCountExceeded(
            f"{n} points exceeds the exact-mode guard of {MAX_EXACT_POINTS}"
        )
    if len(dist) != n or any(len(row) != n for row in dist):
        raise InputFormatError("distance matrix must be square of size n")

    tol = 0 if exact else FLOAT_TOL
    rows = tuple(
        tuple(parse_scalar(v, exact=exact) for v in row) for row in dist
    )
    for i in range(n):
        if abs(rows[i][i]) > tol:
            raise NonzeroDiagonal(i)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(rows[i][j] - rows[j][i]) > tol:
                raise Asymmetry(i, j)
            if rows[i][j] < -tol:
                raise NegativeDistance(i, j)
            if rows[i][j] <= tol:
                raise ZeroOffDiagonal(i, j)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j] + tol:
                    raise TriangleViolation(i, j, k)
    return FiniteMetricSpace(tuple(labels), rows, tol)


@dataclass(frozen=True)
class PointFunction:
    """A real-valued function on the points of a space."""

    space: FiniteMetricSpace
    values: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.values) != self.space.n:
            raise SpaceMismatch("function length does not match point count")

    def __call__(self, i: int) -> Scalar:
        return self.values[i]

    @staticmethod
    def indicator(space: FiniteMetricSpace, mask: int) -> "PointFunction":
        one = Fraction(1) if space.exact else 1.0
        zero = Fraction(0) if space.exact else 0.0
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

    def labels_in(self) -> list[str]:
        return [self.space.labels[i] for i in self.indices()]

    @staticmethod
    def of(space: FiniteMetricSpace, labels: Iterable[str]) -> "PointSubset":
        mask = 0
        for lab in labels:
            mask |= 1 << space.index(lab)
        return PointSubset(space, mask)


@dataclass(frozen=True)
class Relation:
    """A set of (left point, right point) pairs between two spaces."""

    left: FiniteMetricSpace
    right: FiniteMetricSpace
    matrix: tuple[tuple[bool, ...], ...]
    # derived views of matrix: per-point masks and index lists, the latter
    # both into the factor points and into the flat product points
    sections: tuple[int, ...] = field(compare=False, default=())
    inv_sections: tuple[int, ...] = field(compare=False, default=())
    section_lists: tuple[tuple[int, ...], ...] = field(compare=False, default=())
    inv_section_lists: tuple[tuple[int, ...], ...] = field(compare=False, default=())
    pair_lists: tuple[tuple[int, ...], ...] = field(compare=False, default=())
    inv_pair_lists: tuple[tuple[int, ...], ...] = field(compare=False, default=())

    def __post_init__(self):
        if len(self.matrix) != self.left.n or any(
            len(row) != self.right.n for row in self.matrix
        ):
            raise SpaceMismatch("relation matrix shape does not match spaces")
        sec_lists = tuple(
            tuple(j for j in range(self.right.n) if row[j]) for row in self.matrix
        )
        inv_lists = tuple(
            tuple(i for i in range(self.left.n) if self.matrix[i][j])
            for j in range(self.right.n)
        )
        object.__setattr__(self, "sections", tuple(sum(1 << j for j in lst) for lst in sec_lists))
        object.__setattr__(self, "inv_sections", tuple(sum(1 << i for i in lst) for lst in inv_lists))
        object.__setattr__(self, "section_lists", sec_lists)
        object.__setattr__(self, "inv_section_lists", inv_lists)
        n2 = self.right.n
        object.__setattr__(self, "pair_lists", tuple(
            tuple(i * n2 + j for j in lst) for i, lst in enumerate(sec_lists)
        ))
        object.__setattr__(self, "inv_pair_lists", tuple(
            tuple(i * n2 + j for i in lst) for j, lst in enumerate(inv_lists)
        ))

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

    @property
    def left_projection(self) -> int:
        return sum(1 << i for i, s in enumerate(self.sections) if s)

    @property
    def right_projection(self) -> int:
        return sum(1 << j for j, s in enumerate(self.inv_sections) if s)

    def is_subrelation(self, other: "Relation") -> bool:
        return all(
            s & ~t == 0 for s, t in zip(self.sections, other.sections)
        )

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
        return Relation(left, right, tuple(tuple(row) for row in grid))


def diagonal_relation(space: FiniteMetricSpace) -> Relation:
    return Relation.from_pairs(space, space, [(i, i) for i in range(space.n)])


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
    tol = space.tol
    return Relation(
        space,
        space,
        tuple(
            tuple(space.dist[i][j] <= t + tol for j in range(space.n))
            for i in range(space.n)
        ),
    )


def compose_relations(s: Relation, r: Relation) -> Relation:
    """Relation composition: (x, z) related iff some y links x to z."""
    if s.right is not r.left and s.right != r.left:
        raise SpaceMismatch("composition needs matching middle spaces")
    out = []
    for i in range(s.left.n):
        mask = 0
        sec = s.sections[i]
        for y in range(s.right.n):
            if sec >> y & 1:
                mask |= r.sections[y]
        out.append(tuple(mask >> z & 1 == 1 for z in range(r.right.n)))
    return Relation(s.left, r.right, tuple(out))


def distance_levels(space: FiniteMetricSpace) -> list[Scalar]:
    """Sorted distinct distance values, starting at 0.

    In float mode, values within the tolerance of each other are merged.
    """
    values = sorted({space.dist[i][j] for i in range(space.n) for j in range(space.n)})
    if space.exact:
        return values
    merged: list[Scalar] = []
    for v in values:
        if not merged or v - merged[-1] > space.tol:
            merged.append(v)
    return merged


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
    tol = space.tol
    best = 0
    for i in range(space.n):
        for j in range(space.n):
            if space.dist[i][j] <= t + tol:
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
    return FiniteMetricSpace(labels, tuple(dist), max(left.tol, right.tol))


def left_projection_map(left: FiniteMetricSpace, right: FiniteMetricSpace) -> tuple[int, ...]:
    return tuple(i for i in range(left.n) for _ in range(right.n))


def right_projection_map(left: FiniteMetricSpace, right: FiniteMetricSpace) -> tuple[int, ...]:
    return tuple(j for _ in range(left.n) for j in range(right.n))
