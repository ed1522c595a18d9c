"""Coupling feasibility over a constrained support relation, explicit witness
couplings via the lower-extension formula, and gluing.

A coupling of (mu1, mu2) is a normed monetary risk measure on the product
space whose projection pushforwards are mu1 and mu2.  Feasibility of a
coupling supported inside a relation S is decided by three conditions:

  (a) each marginal's support sits inside the matching projection of S,
  (b) mu1(P_S psi) <= mu2(psi) for every psi, where P_S takes section minima
      from right to left,
  (c) the mirror of (b) from left to right.

Necessity: a coupling xi supported in S depends only on values over S and is
monotone there, and P_S(psi) composed with the left projection is below psi
composed with the right projection on S.  Sufficiency: the lower extension

    xi(chi) = max(mu1(left min-envelope of chi), mu2(right min-envelope))

is monotone, translation invariant, normed, reads chi only on S, and under
(a)+(b)+(c) reproduces both marginals.  The lower extension is the only
witness formula the module builds, and every envelope the module takes,
gluing's included, goes through one section-minimum routine.

One exact decider takes every pair where each measure is a capacity or a
max, min or mixture of such (``measures.normal_forms``): two capacities on any
space ("exact-choquet"), any other such pair whose relation's
projections contain every part's support ("exact-lattice"; the
reflexive relations of the distance ladder always do).  Take mu1 = max_i
min_j A_ij and mu2 = min_q max_p B_pq.  Then (b) holds iff for every check
(i, q)

    min_j A_ij(P_S psi) <= max_p B_pq(psi)   for every psi,

and (c) is the mirror with the forms of mu2 and mu1 swapped.  Fix a maximal
chain U_1 > ... > U_(n-1) of proper nonempty subsets.  On its cone psi =
c + sum_k t_k 1_(U_k) with t >= 0, and P_S psi = c + sum_k t_k
1_(inner U_k), because section minima of a comonotone sum are the sum over
the inner sets; so every Choquet part is linear in t there (Schmeidler
1986; Denneberg 1994).  With columns c = (j, p) and m_c(U) = A_j(inner U) -
B_p(U), the check fails on the chain iff some t >= 0 makes sum_k t_k
m_c(U_k) > 0 for every column; by Ville's alternative it holds iff some
convex lambda over the columns has sum_c lambda_c m_c(U_k) <= 0 on every
set of the chain.  The decider runs three steps:

  1. indicator scan: each measure's table of mu(1_B), a capacity's own
     ``scaled`` table or the table a lattice builds with its normal forms
     (``measures.indicators``), lifted to the common scale of its pool, is
     read at inner U against U for every U.  A subset where the pair
     compares the wrong way refutes (b) or (c) outright.  A check with one
     column fails iff some U has m(U) > 0, which this scan sees, so for
     two capacities it is the whole decision: the subset test A(inner U)
     <= B(U), cross-validated against independent brute-force oracles in
     the oracles module;
  2. chain cover, for checks with more than one column, over the parts'
     tables on the same scale: a search down the chains from the
     full set, with state (U, columns nonpositive on every set so far),
     proves each chain on which some column survives (lambda a unit
     vector);
  3. exact LP: on each chain no column covers, a simplex in integers looks
     for t >= 0 with sum_k t_k m_c(U_k) >= 1 for every column; one refutes
     with psi = sum_k t_k 1_(U_k), scaled to integers, and none proves the
     chain.  Sets where every column is nonpositive are left out, and
     chains with the same remaining sets share one LP.  The LP's integer
     psi is the same on every common scale: scaling all columns scales t
     and leaves the pivots, and psi is t's primitive integer direction.

A second exact decider takes every other pair on a two-point space whose
relation has full projections, so that (a) holds, when both measures
have ``RiskMeasure.breakpoints`` ("exact-two-point"): family members that
pass their exact axiom check, capacities, and mixtures, max and min of
these.  By translation invariance (b) and (c) need only psi = (0, t).  The
section minima of psi are 0, t or min(0, t), and mu(a, b) = a + g(b - a)
with g(t) = mu(0, t), so each side's gap mua(section_minima(psi, lists)) -
mub(psi) is piecewise affine in t with kinks in T = {0} and +-K1 and +-K2,
K the breakpoints of each measure.  Monotone translation invariant measures
are 1-Lipschitz in the sup norm (Foellmer and Schied, Stochastic Finance,
2004), so the gap is continuous, and its supremum is reached at a point of
T unless it rises without bound along one of the two rays past T.  The
decider reads the gap on T and one step past each end: a positive value
refutes, and so does a ray on which the gap rises, at the first whole step
where it turns positive; otherwise the pair is feasible.  Either verdict is
a proof.  Reading the gap is a lookup, not an evaluation: each section
minimum (a, b) of psi has a and b in {0, t}, so b - a is 0, t or -t, which
all lie in T (T is symmetric), and mua(a, b) = a + ga(b - a) is read from
ga on T.  Each measure's lookup tables are read at T off its pool's one
grid, which holds the points T of every pair of the pool, as integers over
one denominator: comparisons, and the whole step -gap // rise, are the
same on every common positive scale, so a level costs |T| integer
comparisons per side.

Deciding is split in three.  A ``Pool`` holds what the pairs of a set of
measures share, built the first time a pair needs it.  Each member has one
entry (``Member``): its route class, its indicator table and the part
tables of its normal forms, all lifted to one common scale, and its
reach.  One column memo, ``Pool.covered``, holds whether a(inner U) <=
b(U) for every U, per two lifted part tables and side of a relation, for
the chain cover to share across pairs; each lifted table is read through
a relation's inner masks once.  On two points, one grid holds the points
T of every pair, and each member's lookup tables are read on it once.
``distance_matrix`` prepares every pair of its measures from one pool
(``pooled``), which dies with the call; a lone pair is a pool of two, on
the same code.  ``prepare_pair`` then does, per pair, what does not
depend on S: it takes the two entries, the route of their larger rank,
and on the two-point tier the grid read at the pair's own points.
``refutes`` is the one exact test on a relation: the indicator scan,
the chain cover of the two members' rows and groups and the LP, or the
two-point lookup, or a Dirac pair's read of S, returning None when
nothing refutes and otherwise the side and the psi it found, and building
nothing else.  ``admissible`` gives the verdict on one relation: it
prepares the pair, checks (a) and the parts' supports against the
projections, runs ``refutes`` on an exact route and builds the verdict,
its certificate and its witness from the answer, and probes the rest
(``probe``).  The distance ladder prepares once and, its relations
holding the diagonal, runs ``refutes`` alone per level on an exact route
and ``probe`` on the rest.  What outlives a pool is built where it
belongs: each measure's indicator table and reach (the union of its
parts' supports, ``measures.reach``) with the measure, each relation's
inner-mask tables and their readers (``Relation.inner_masks`` and
``inner_readers``) with the relation on first use, and the ladder's
levels and relations once per space (``space.sublevel_ladder``).

An infeasible verdict carries a certificate that re-checks by evaluation
(``FeasibilityVerdict`` lists the kinds); a feasible one carries the lower
extension.  Black boxes, pushforwards and combinations with such parts stay
on the sampled tier, and so do relations with a projection that misses a
point, defective family members and a pair whose uncovered chains outgrow
``CHAIN_BUDGET``.  That tier scans (a), (b) and (c) over one fixed grid,
whatever the caller: ``probe_grid(space, seed, REFUTATION_RANDOMS)``.  A
probe that refutes gives an infeasible verdict with a certificate, and a
scan with no refutation gives the lower extension as a "witness-found"
verdict, which says that no probe refuted and proves nothing more.
``verify_coupling`` re-checks such a witness with
``measures.probe_axioms``, the seeded prober that also checks measures:
with the default 64 samples, 64 monotone pairs, 32 integer shifts and four
constants on the product, then the product-point indicators, support
confinement on 32 of the pairs and the marginal identities.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import add, gt, itemgetter, le
from typing import Optional

from .errors import EmptySection, InvalidParams, MarginalMismatch, SpaceMismatch
from .measures import (
    AxiomReport,
    RiskMeasure,
    Violation,
    black_box,
    equal_measures,
    evaluate_values,
    indicators,
    normal_forms,
    probe_axioms,
    probe_batch,
    probe_grid,
    pushforward,
    reach,
    sampled_report,
    separating_pairs,
    times,
)
from .numerics import Scalar
from .space import (
    FiniteMetricSpace,
    PointFunction,
    Relation,
    full_relation,
    left_projection_map,
    product_space,
    right_projection_map,
)

#: seeded random functions on the sampled tier's probe grid, after its subset
#: indicators and point-distance functions
REFUTATION_RANDOMS = 90

#: most chain traces the exact lattice tier keeps while it searches one
#: check; past it the pair goes to the sampled tier, and is labelled so
CHAIN_BUDGET = 4096

#: the sides of a refutation, by index: (b) is "left", (c) is "right"
SIDES = ("left", "right")


# ---------------------------------------------------------------------------
# envelopes


def section_minima(values, lists) -> tuple:
    """The minimum of ``values`` over each index list in ``lists``.

    This is every envelope the module takes: of a product function over the
    sections of a relation, of a factor function pulled through a relation,
    and of a triple-product function over one coordinate.  An empty list
    takes the maximum over the union of the lists (the maximum of all the
    values when that union is empty too), which is harmless whenever the
    relevant marginal is supported inside the projection, as condition (a)
    guarantees.
    """
    get = values.__getitem__
    mins = [min(map(get, lst)) if lst else None for lst in lists]
    if None in mins:
        reachable = [values[q] for lst in lists for q in lst]
        top = max(reachable) if reachable else max(values)
        mins = [top if m is None else m for m in mins]
    return tuple(mins)


def min_envelope(chi: PointFunction, s: Relation, side: str) -> PointFunction:
    """Largest function on one factor whose pullback stays below chi on S.

    ``side="left"`` maps x to the minimum of chi over the section of x;
    ``side="right"`` uses inverse sections.  A point with an empty section
    raises ``EmptySection``.
    """
    if side not in ("left", "right"):
        raise InvalidParams(f"unknown side {side!r}")
    lists = s.pair_lists if side == "left" else s.inv_pair_lists
    if () in lists:
        raise EmptySection(side, lists.index(()))
    return PointFunction(
        s.left if side == "left" else s.right, section_minima(chi.values, lists)
    )


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class CouplingWitness:
    """An evaluable coupling with a declared support superset: the lower
    extension, the only witness formula the module builds."""

    left: RiskMeasure
    right: RiskMeasure
    support: Relation
    formula = "lower-extension"  # a class constant, not a field

    def __post_init__(self):
        # the product space is a plain attribute, not a field
        object.__setattr__(
            self, "product", product_space(self.support.left, self.support.right)
        )

    def evaluate_values(self, chi: tuple[Scalar, ...]) -> Scalar:
        s = self.support
        return max(
            evaluate_values(self.left, section_minima(chi, s.pair_lists)),
            evaluate_values(self.right, section_minima(chi, s.inv_pair_lists)),
        )

    def __call__(self, chi: PointFunction) -> Scalar:
        if chi.space != self.product:
            raise SpaceMismatch("witness expects a function on its product space")
        return self.evaluate_values(chi.values)

    def as_measure(self) -> RiskMeasure:
        return black_box(
            self.product, self.evaluate_values, name=f"coupling[{self.formula}]"
        )

    def cost(self) -> Scalar:
        """Maximal base distance over the declared support: the distance
        of the largest rank (``FiniteMetricSpace._ranks``) among its pairs,
        an integer maximum."""
        space = self.support.left
        pairs = chain.from_iterable(self.support.matrix)
        return space._levels[max(compress(space._ranks, pairs))]


def lower_coupling(mu1: RiskMeasure, mu2: RiskMeasure, s: Relation) -> CouplingWitness:
    _check_coupling_spaces(mu1, mu2, s)
    if mu1.kind == "dirac" and mu2.kind == "dirac" and s.matrix[mu1.point][mu2.point]:
        # the canonical coupling of two point masses is the product point mass
        s = Relation.from_pairs(s.left, s.right, [(mu1.point, mu2.point)])
    return CouplingWitness(mu1, mu2, s)


def _check_coupling_spaces(mu1, mu2, s: Relation):
    if (mu1.space is not s.left and mu1.space != s.left) or (
        mu2.space is not s.right and mu2.space != s.right
    ):
        raise SpaceMismatch("marginals must live on the relation's factor spaces")


# ---------------------------------------------------------------------------
# feasibility


@dataclass(frozen=True)
class FeasibilityVerdict:
    """The answer of ``admissible``.

    ``tier`` names how it was reached: the proofs "dirac" (two point
    masses), "exact-choquet" (two capacities), "exact-lattice" (any other
    pair with normal forms) and "exact-two-point" (any other pair with
    breakpoints, on a two-point space with full projections), or the sampled
    "refutation-sampled" (a probe refuted) and "witness-found" (no probe
    refuted).  A feasible verdict carries the lower extension as
    ``witness``; an infeasible one a ``certificate`` of one "kind":

    * "pair-outside-support", ``pair`` = (i, j): two point masses whose
      pair is not in S; re-checks by reading ``S.matrix[i][j]``.
    * "support-escape", ``side``: that side's measure reads a point outside
      its projection of S.  On "exact-choquet", ``point`` is not null for
      the capacity, which its table shows; on "refutation-sampled",
      ``point`` with ``separating``, two functions equal off that point,
      or ``separating`` = (psi, trim), trim equal to psi on the projection,
      with ``values`` = (mu(psi), mu(trim)); the measure differs on the
      pair, which re-checks by evaluation.
    * "envelope-domination", ``side``, ``psi``, ``values``: with (mua, mub,
      lists) = (mu1, mu2, ``S.section_lists``) on side "left" and (mu2,
      mu1, ``S.inv_section_lists``) on "right", ``values`` = (mua(
      section_minima(psi, lists)), mub(psi)) and values[0] > values[1],
      which breaks (b) or (c); re-checks by evaluation on every tier.

    The exact tiers find, while deciding, only what the decision needs
    (step 2's psi, a two-point level's refuting t); ``admissible`` finds
    the rest of the certificate's psi and evaluates its values.
    """

    status: str  # "feasible" | "infeasible"
    tier: str
    witness: Optional[CouplingWitness] = None
    certificate: Optional[dict] = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


#: a pair's route, by the larger rank of its two members (``Member.rank``)
ROUTES = ("dirac", "exact-choquet", "exact-lattice", "exact-two-point", "sampled")


class Member:
    """A pool member's entry: what deciding any pair of the member reads
    of it, built once per member by ``Pool.entry``.

    * ``rank``: the member's route class, an index into ``ROUTES``: 0 a
      point mass, 1 a capacity, 2 a measure with normal forms, 3 on a
      two-point space a measure with ``RiskMeasure.breakpoints``, 4 none of
      these.  A pair's route is the route of its larger rank.  A point
      mass without a capacity lives on a space past
      ``MAX_CAPACITY_POINTS`` points, where every other measure ranks 4.
    * ``table``, ``reach``, ``rows`` and ``groups``, for ranks 0 to 2: the
      indicator table on the pool's scale, ``measures.reach``, and the
      rows of the max-of-min form and the groups of the min-of-max form,
      each part a table on the pool's scale.
    * ``kinks``, ``ends`` and ``lookup``, filled in by the pool's two-point
      grid (``Pool.two_point_tables``) for ranks 0 to 3: the grid indices
      of {0}, the member's breakpoints and their negatives; the indices of
      -(m + 1) and m + 1, m the largest of those points; and the lookup
      tables of mu(a, b) for a and b in {0, t}, t on the whole grid, as
      integers over the grid's one denominator.
    """

    __slots__ = ("rank", "table", "reach", "rows", "groups", "kinks", "ends", "lookup")

    def __init__(self, pool: Pool, mu: RiskMeasure):
        forms = normal_forms(mu)
        if forms is None:
            self.table = self.reach = self.rows = self.groups = None
            if mu.kind == "dirac":
                self.rank = 0
            else:
                self.rank = 3 if mu.space.n == 2 and mu.breakpoints is not None else 4
            return
        lift = pool._lift
        self.table = lift(*indicators(mu))
        self.reach = reach(mu)
        if mu.capacity is not None:  # its one form is itself
            self.rank = 0 if mu.kind == "dirac" else 1
            self.rows = self.groups = ((self.table,),)
        else:
            self.rank = 2
            self.rows, self.groups = (
                [[lift(c.scaled, c.scale) for c in part] for part in form] for form in forms
            )


class Pool:
    """What the pairs of a set of measures on one space share, built once
    for all of them: by ``pooled`` for one ``distance_matrix`` call, or by
    ``prepare_pair`` for a lone pair, a pool of two.

    * ``scale``: one common scale L, the least common multiple of the
      indicator scales of the measures with normal forms.  A
      combination's scale is a multiple of its parts' scales (a max's and
      a min's is theirs, a mixture's carries its weights' denominators
      too), so L is a multiple of every part capacity's scale, and every
      table of the pool is read as integers over L.  Each table is lifted
      to L once, however many members and pairs hold it.
    * ``entry``: each member's ``Member`` entry, the first time a pair of
      it is prepared.
    * ``inner_values``: a lifted table read at one side's inner masks of a
      relation, once per table and side, the first time a pair needs it.
    * ``covered``: the column verdict a(inner U) <= b(U) for every U, once
      per two lifted part tables and side of a relation.  The chain cover
      reads it for each column of a check, so members that share parts,
      as lattices built from one set of capacities do, share these
      verdicts across pairs.
    * the two-point grid (``two_point_tables``), once per pool: every
      member's points {0}, its breakpoints and their negatives, and -(m +
      1) and m + 1 for each member, m its largest point.  It holds the
      points T of every pair, and each member's lookup tables are read on
      it once, as integers over one denominator.

    The memos are keyed by identity, and the pool holds every object a
    key names, so no key is reused while the pool lives.
    """

    def __init__(self, measures):
        self.measures = tuple(measures)
        self._members = set(map(id, self.measures))
        self.scale = lcm(*[ind[1] for ind in map(indicators, self.measures) if ind])
        self._lifted: dict = {}
        self._entries: dict = {}
        self._inner: dict = {}
        self._covered: dict = {}
        self._grid: Optional[tuple] = None

    def holds(self, mu1, mu2) -> bool:
        return id(mu1) in self._members and id(mu2) in self._members

    def entry(self, mu) -> Member:
        got = self._entries.get(id(mu))
        if got is None:
            got = self._entries[id(mu)] = Member(self, mu)
        return got

    def _lift(self, table, scale) -> tuple:
        got = self._lifted.get(id(table))
        if got is None:
            got = self._lifted[id(table)] = times(table, self.scale // scale), table
        return got[0]

    def inner_values(self, table, read) -> tuple:
        """table[inner B] for every subset B, with ``read`` one side's
        reader of a relation's inner masks (``Relation.inner_readers``)."""
        key = id(table), id(read)
        got = self._inner.get(key)
        if got is None:
            got = self._inner[key] = read(table), read
        return got[0]

    def covered(self, a, b, read) -> bool:
        """Whether a(inner U) <= b(U) for every subset U, a and b lifted
        tables and ``read`` as in ``inner_values``."""
        key = id(a), id(b), read
        got = self._covered.get(key)
        if got is None:
            got = self._covered[key] = all(map(le, self.inner_values(a, read), b))
        return got

    def two_point_tables(self, e1: Member, e2: Member) -> tuple:
        """The points of a pair of members on the two-point tier, its
        kinks and their negatives with one step past each end, and each
        member's lookup tables on them: the pool grid read at the pair's
        own indices."""
        points = self._grid or self._two_point_grid()
        lo, hi = min(e1.ends[0], e2.ends[0]), max(e1.ends[1], e2.ends[1])
        pick = itemgetter(lo, *sorted(e1.kinks | e2.kinks), hi)
        return pick(points), tuple(tuple(map(pick, e.lookup)) for e in (e1, e2))

    def _two_point_grid(self) -> tuple:
        """The pool's two-point grid, with each member's ``kinks``,
        ``ends`` and ``lookup`` filled in.  A member with normal forms is
        positively homogeneous and translation invariant, so its table
        gives g(t) = mu(0, t) = t mu(1_{1}) for t >= 0 and t (1 -
        mu(1_{0})) for t < 0 without an evaluation; any other member is
        evaluated once per point of the grid."""
        zero, scale = Fraction(0), self.scale
        members = {id(mu): (mu, self.entry(mu)) for mu in self.measures}
        members = [(mu, e) for mu, e in members.values() if e.rank <= 3]
        kinks = [{zero, *mu.breakpoints} for mu, _ in members]
        kinks = [k | {-t for t in k} for k in kinks]
        tops = [max(k) + 1 for k in kinks]
        points = tuple(sorted({*chain(*kinks), *tops, *(-t for t in tops)}))
        where = {t: i for i, t in enumerate(points)}
        gs = [
            [evaluate_values(mu, (zero, t)) for t in points] if e.table is None else
            [t * Fraction(e.table[2] if t >= 0 else scale - e.table[1], scale) for t in points]
            for mu, e in members
        ]
        den = lcm(*[x.denominator for x in chain(points, *gs)])
        ts = [t.numerator * (den // t.denominator) for t in points]
        zeros = [0] * len(ts)
        for (_, e), k, top, g in zip(members, kinks, tops, gs):
            e.kinks = {where[t] for t in k}
            e.ends = where[-top], where[top]
            g = [x.numerator * (den // x.denominator) for x in g]
            # mu(a, b) = a + g(b - a), by which of a and b is t: mu(0, 0) = 0,
            # mu(0, t) = g(t), mu(t, 0) = t + g(-t), and the grid is symmetric,
            # so -t is the grid read backwards
            e.lookup = (zeros, g, list(map(add, ts, reversed(g))), ts)
        self._grid = points
        return points


#: the pool of the ``distance_matrix`` call running in this context, or None
_POOL: ContextVar[Optional[Pool]] = ContextVar("_POOL", default=None)


@contextmanager
def pooled(measures):
    """Inside the block, ``prepare_pair`` prepares every pair of
    ``measures`` from one ``Pool`` of them, which dies with the block."""
    token = _POOL.set(Pool(measures))
    try:
        yield
    finally:
        _POOL.reset(token)


class PreparedPair:
    """A pair (mu1, mu2) as ``prepare_pair`` gives it: its two ``Member``
    entries in its ``pool``, its ``route``, and on the two-point tier its
    ``points`` and per measure its ``tables``, the pool grid read at the
    pair's own indices (``Pool.two_point_tables``)."""

    __slots__ = ("mu1", "mu2", "route", "pool", "members", "points", "tables")

    def __init__(self, mu1, mu2, route, pool, members, points=(), tables=()):
        self.mu1, self.mu2, self.route, self.pool = mu1, mu2, route, pool
        self.members, self.points, self.tables = members, points, tables

    @property
    def reach(self) -> tuple:
        """Per side, the measure's own ``measures.reach``."""
        return self.members[0].reach, self.members[1].reach

    @property
    def scan(self) -> tuple:
        """Per side, the tables (a, b) of the indicator scan, the two
        members' indicator tables on the pool's scale."""
        a, b = self.members[0].table, self.members[1].table
        return (a, b), (b, a)


def prepare_pair(mu1: RiskMeasure, mu2: RiskMeasure) -> PreparedPair:
    """The level-invariant part of ``admissible``, for ``admissible`` and
    the distance ladder to read on any relation: the two members' entries
    and the route of their larger rank, and on the two-point tier the
    pair's points and lookup tables.

    The entries come from the pool of the running ``distance_matrix`` call
    when it holds both measures, and from a pool of the two otherwise, so
    a matrix builds each member's entry, and the two-point grid, once for
    all its pairs, and a lone pair builds its own.  What is left per pair
    is the route and, on the two-point tier, reading the pool grid at the
    pair's points."""
    if mu1.space != mu2.space:
        raise SpaceMismatch("marginals live on different spaces")
    pool = _POOL.get()
    if pool is None or not pool.holds(mu1, mu2):
        pool = Pool((mu1, mu2))
    e1, e2 = pool.entry(mu1), pool.entry(mu2)
    route = ROUTES[max(e1.rank, e2.rank)]
    if route == "exact-two-point":
        return PreparedPair(mu1, mu2, route, pool, (e1, e2), *pool.two_point_tables(e1, e2))
    return PreparedPair(mu1, mu2, route, pool, (e1, e2))


def admissible(
    mu1: RiskMeasure,
    mu2: RiskMeasure,
    s: Relation,
    seed: int = 0,
) -> FeasibilityVerdict:
    """Decide whether some coupling of (mu1, mu2) is supported inside S.

    Two point masses read S at their pair.  Every other pair that has
    normal forms goes to one exact decider: two capacities on any space
    ("exact-choquet", after a support check of each capacity against its
    projection of S), any other such pair when the projections hold every
    part's support ("exact-lattice").  On a two-point space with full
    projections, any other pair whose measures
    both have breakpoints goes to the second ("exact-two-point").  The
    rest, and a lattice pair past ``CHAIN_BUDGET``, go to the sampled tier.
    Each exact route checks what ``refutes`` takes as given, (a) and the
    parts inside the projections, and then runs that one test; the
    verdict, its certificate and its witness are built from its answer.

    ``prepare_pair`` does the work that does not depend on S, once: the
    two members' entries in a pool of the two measures (or of the running
    ``distance_matrix`` call), their route and, on the two-point tier, the
    pair's points and lookup tables.  Each measure's own indicator table
    and reach are built with its normal forms, and each relation's
    inner-mask tables with the relation.

    Both measures must pass their axioms (``verify_axioms``); callers gate
    them first, as ``bottleneck_distance`` and the CLI do.  The lower
    extension couples only such measures, and the sampled tier's
    "witness-found" verdict relies on it: that tier probes the coupling
    conditions, not the witness's own axioms.

    Supports are probed only on the sampled tier, and there only for a side
    whose projection of S misses a point.  The reflexive relations of the
    distance ladder have full projections, so a ladder scan probes none.
    """
    pair = prepare_pair(mu1, mu2)
    _check_coupling_spaces(mu1, mu2, s)
    route = pair.route
    projections = s.left_projection, s.right_projection
    if route == "exact-choquet":
        for side, mask, proj in zip(SIDES, pair.reach, projections):
            escaped = mask & ~proj
            if escaped:
                point = (escaped & -escaped).bit_length() - 1
                certificate = {"kind": "support-escape", "side": side, "point": point}
                return FeasibilityVerdict("infeasible", route, certificate=certificate)
    elif route == "exact-lattice":
        if any(mask & ~proj for mask, proj in zip(pair.reach, projections)):
            route = "sampled"
    elif route == "exact-two-point" and projections != (mu1.space.full_mask,) * 2:
        route = "sampled"
    if route != "sampled":
        try:
            found = refutes(pair, s)
        except ChainBudgetExceeded:
            return probe(mu1, mu2, s, seed)  # too many chains
        if found is None:
            return FeasibilityVerdict("feasible", route, witness=lower_coupling(mu1, mu2, s))
        return FeasibilityVerdict("infeasible", route, certificate=_certificate(pair, s, *found))
    return probe(mu1, mu2, s, seed)


def refutes(pair: PreparedPair, s: Relation) -> Optional[tuple]:
    """The exact test of a pair on an exact route: None when (b) and (c)
    hold on S, else what refutes them, (side, psi) with ``SIDES[side]``
    the broken condition.  psi is the refuting function where the test
    found one (a chain's LP, a two-point level) and None where the
    certificate finds it (the indicator scan); two point masses off S give
    (None, None).

    The indicator scan compares the two members' tables, and the chain
    cover takes one check per row of one member and group of the other,
    skipping a check with one column, which the scan has made, and one
    with a column the pool's memo finds covered (``Pool.covered``), which
    holds on every chain.

    It builds no verdict: ``admissible`` wraps it, and the distance ladder
    reads only whether it is None.  It takes (a) as given, with every
    part's support inside the projections of S on "exact-lattice" and
    full projections on "exact-two-point": ``admissible`` checks these first,
    and every ladder relation, holding the diagonal, has them.  A lattice
    pair whose uncovered chains outgrow ``CHAIN_BUDGET`` raises
    ``ChainBudgetExceeded``.
    """
    route = pair.route
    if route == "dirac":
        return None if s.matrix[pair.mu1.point][pair.mu2.point] else (None, None)
    if route == "exact-two-point":
        return _two_point_refutation(pair, s)
    inner_values = pair.pool.inner_values
    readers = s.inner_readers
    e1, e2 = pair.members
    sides = ((e1, e2), (e2, e1))
    # 1. indicator scan: mua(1_(inner U)) against mub(1_U), both tables on
    # the pool's scale.  Other pairs seldom compare these two tables, so
    # the scan keeps no verdict: storing one per pair and level costs more
    # than the few it would save
    for side, ((own, other), read) in enumerate(zip(sides, readers)):
        if any(map(gt, inner_values(own.table, read), other.table)):
            return side, None
    if route != "exact-lattice":
        return None  # two capacities have no check with two columns
    # 2. and 3., one check per row of one side and group of the other, over
    # the parts' tables on the pool's scale.  A check with one column is a
    # comparison the scan has made, and one with a covered column holds
    covered = pair.pool.covered
    n = pair.mu1.space.n
    for side, ((own, other), read) in enumerate(zip(sides, readers)):
        for row in own.rows:
            for group in other.groups:
                if len(row) * len(group) == 1 or any(
                    covered(a, b, read) for a in row for b in group
                ):
                    continue
                columns = [(inner_values(a, read), b) for a in row for b in group]
                psi = _refuting_chain(columns, n)
                if psi is not None:
                    return side, psi
    return None


def _certificate(pair: PreparedPair, s: Relation, side, psi) -> dict:
    """The certificate of what ``refutes`` found on S."""
    mu1, mu2 = pair.mu1, pair.mu2
    if side is None:
        return {"kind": "pair-outside-support", "pair": (mu1.point, mu2.point)}
    if psi is None:  # the indicator scan: its first set U, read on the pool's scale
        n, scale = mu1.space.n, pair.pool.scale
        a, b = pair.scan[side]
        inner = pair.pool.inner_values(a, s.inner_readers[side])
        u = next(u for u in range(1 << n) if inner[u] > b[u])
        psi = tuple([u >> x & 1 for x in range(n)])
        values = Fraction(inner[u], scale), Fraction(b[u], scale)
    else:
        mua, mub = (mu1, mu2) if side == 0 else (mu2, mu1)
        lists = (s.section_lists, s.inv_section_lists)[side]
        values = evaluate_values(mua, section_minima(psi, lists)), evaluate_values(mub, psi)
    return {"kind": "envelope-domination", "side": SIDES[side], "psi": psi, "values": values}


def _refuting_chain(columns, n: int):
    """psi = sum_k t_k 1_(U_k) over the sets U_k of one chain's trace, with
    integers t_k >= 0 and sum_k t_k (a(U_k) - b(U_k)) > 0 for every column
    (a, b), or None when every maximal chain admits none.  Every column
    is positive on some subset: ``refutes`` skips a check with a column
    nonpositive on every subset (``Pool.covered``)."""
    everything = (1 << len(columns)) - 1
    covered = [0] * (1 << n)  # columns with a(U) <= b(U), per subset U
    for c, (a, b) in enumerate(columns):
        bit = 1 << c
        for u in compress(range(1 << n), map(le, a, b)):
            covered[u] |= bit
    for live in sorted(_uncovered_traces(covered, n, everything)):
        t = _positive_combination([[a[u] - b[u] for a, b in columns] for u in live])
        if t is not None:
            den = lcm(*(x.denominator for x in t))
            weights = [int(x * den) for x in t]
            return tuple(
                sum(w for u, w in zip(live, weights) if u >> x & 1) for x in range(n)
            )
    return None


class ChainBudgetExceeded(Exception):
    """More chain traces than ``CHAIN_BUDGET``; the pair is probed instead."""


def _uncovered_traces(covered, n: int, everything: int) -> set:
    """The traces of the maximal chains of proper nonempty subsets on which
    no column stays nonpositive throughout.

    A chain's trace is its sets where some column is positive, largest
    first: a set where every column is nonpositive only lowers the sums, so
    the LP of a chain is the LP of its trace, and chains with one trace
    share it.  A search down from the full set with state (U, the columns
    still nonpositive on every set so far), memoised per state.
    """
    memo = {}
    kept = 0

    def traces(u, mask):
        nonlocal kept
        if not u & (u - 1):  # a singleton ends the chain
            return {()} if not mask else set()
        key = (u, mask)
        if key not in memo:
            out = set()
            for x in range(n):
                if u >> x & 1:
                    v = u & ~(1 << x)
                    head = (v,) if covered[v] != everything else ()
                    out.update(head + t for t in traces(v, mask & covered[v]))
            kept += len(out)
            if kept > CHAIN_BUDGET:
                raise ChainBudgetExceeded
            memo[key] = out
        return memo[key]

    return traces((1 << n) - 1, everything)


def _positive_combination(rows):
    """Weights t >= 0 with sum_k t_k rows[k][c] >= 1 for every column c, or
    None when there are none.

    Phase one of the simplex method with Bland's rule, on sum_k rows[k][c]
    t_k - s_c + r_c = 1 with surplus s and artificial r, minimising sum r.
    A positive minimum means no t exists.  The rows are ints.  Each
    tableau line is kept as integers over one positive denominator, its last
    entry, reduced by their gcd.  A pivot and the ratio test cross-multiply,
    so every comparison, and with it every pivot, is the one the same
    simplex makes in ``Fraction``s; t is returned in ``Fraction``s.
    """
    K, C = len(rows), len(rows[0])
    width = K + 2 * C
    table = []  # per line: the coefficients, the value, the denominator
    for c in range(C):
        line = [row[c] for row in rows] + [0] * (2 * C) + [1, 1]
        line[K + c] = -1
        line[K + C + c] = 1
        table.append(line)
    basis = [K + C + c for c in range(C)]
    # reduced costs of sum r over the starting basis, the value negated
    cost = [-sum(line[v] for line in table) for v in range(width + 1)] + [1]
    for c in range(C):
        cost[K + C + c] = 0
    while True:
        enter = next((v for v in range(width) if cost[v] < 0), None)
        if enter is None:
            break
        leave = None
        for c, line in enumerate(table):
            x = line[enter]
            # the ratio value / x, against the best one so far, both x > 0
            if x > 0 and (
                leave is None or (line[-2] * best[1], basis[c]) < (best[0] * x, basis[leave])
            ):
                leave, best = c, (line[-2], x)
        pivot = table[leave]
        pivot[-1] = pivot[enter]  # the line over its entering entry
        _reduced(pivot)
        d = pivot[-1]
        for line in (*table, cost):
            f = line[enter]
            if line is not pivot and f:
                line[:] = [x * d - f * y for x, y in zip(line[:-1], pivot)] + [line[-1] * d]
                _reduced(line)
        basis[leave] = enter
    if cost[-2]:
        return None
    t = [Fraction(0)] * K
    for c, v in enumerate(basis):
        if v < K:
            t[v] = Fraction(table[c][-2], table[c][-1])
    return t


def _reduced(line):
    """Divide a tableau line, its denominator included, by their gcd."""
    g = gcd(*line)
    if g != 1:
        line[:] = [x // g for x in line]


def _two_point_refutation(pair: PreparedPair, s: Relation) -> Optional[tuple]:
    """``refutes`` on a two-point space with full projections, from the
    measures' breakpoints; the module docstring gives the argument.

    Each side's gap at psi = (0, t) is read from the pair's lookup tables
    with integer comparisons only: the section minima of psi are 0 or t,
    by the sign of t and the relation's sections, so each side picks one
    table of mua below 0 and one above, and compares it with mub(0, t).
    Nothing is evaluated: ``admissible`` evaluates a refutation's
    certificate.
    """
    points = pair.points
    last = len(points) - 1
    middle = last // 2  # t = 0: the points are symmetric
    tables = pair.tables
    for side, lists, (own, other) in (
        (0, s.section_lists, tables), (1, s.inv_section_lists, tables[::-1])
    ):
        # a section's minimum of psi is t for t < 0 when the section holds
        # point 1, and for t > 0 when it holds point 1 alone
        first, second = lists
        below = own[2 * (1 in first) + (1 in second)]
        above = own[2 * (first == (1,)) + (second == (1,))]
        lhs, rhs = below[:middle] + above[middle:], other[1]
        k = next(compress(range(last + 1), map(gt, lhs, rhs)), None)
        if k is not None:
            return side, (Fraction(0), points[k])
        # past the outer points the gap is affine: one that rises outwards
        # turns positive some whole number of steps further out
        for end, near, step in ((0, 1, -1), (last, last - 1, 1)):
            gap = lhs[end] - rhs[end]
            rise = gap - (lhs[near] - rhs[near])
            if rise > 0:
                return side, (Fraction(0), points[end] + step * (-gap // rise + 1))
    return None


def probe(mu1, mu2, s: Relation, seed) -> FeasibilityVerdict:
    """The sampled tier: probe (a), (b) and (c) on the fixed grid; with no
    refutation, return the lower extension as "witness-found".  ``admissible``
    runs it on the sampled route and on a lattice pair past
    ``CHAIN_BUDGET``, and the distance ladder runs it on those levels
    directly, its relations being on the pair's space.

    (a) is probed only on a side whose projection misses a point: first by
    pairs that differ at one point outside it (each such point is probed
    once, on one seeded stream, and a capacity's null points not at all),
    then, after (b) and (c), by each probe against its trim, the probe set
    to its projection maximum off the projection (all of it that the lower
    extension reads).  A marginal identity of the lower extension holds at
    phi when the other side's envelope comparison and the trim comparison
    hold there, and the grid, ``probe_grid(space, seed, REFUTATION_RANDOMS)``,
    starts with the marginal grid of ``verify_coupling(witness)`` at its
    default 64 samples, ``probe_grid(space, seed, 32)``, so that check cannot
    refute a witness this returns.
    """
    space = mu1.space
    everything = (1 << space.n) - 1
    gaps = [
        (side, mu, proj)
        for side, mu, proj in (
            ("left", mu1, s.left_projection),
            ("right", mu2, s.right_projection),
        )
        if proj != everything
    ]
    for side, mu, proj in gaps:
        outside = everything & ~proj
        if mu.capacity is not None:
            outside &= mu.capacity.support_mask()  # null points never separate
        escape = next(separating_pairs(mu, outside, seed=seed), None)
        if escape is not None:
            point, separating = escape
            cert = {
                "kind": "support-escape", "side": side, "point": point, "separating": separating
            }
            return FeasibilityVerdict("infeasible", "refutation-sampled", certificate=cert)
    probes = probe_grid(space, seed, REFUTATION_RANDOMS)
    for side, mua, mub, lists in (
        ("left", mu1, mu2, s.section_lists),
        ("right", mu2, mu1, s.inv_section_lists),
    ):
        for psi in probes:
            env = section_minima(psi, lists)
            lhs = evaluate_values(mua, env)
            rhs = evaluate_values(mub, psi)
            if lhs > rhs:
                cert = {
                    "kind": "envelope-domination", "side": side, "psi": psi, "values": (lhs, rhs)
                }
                return FeasibilityVerdict("infeasible", "refutation-sampled", certificate=cert)
    for side, mu, proj in gaps:
        inside = [i for i in range(space.n) if proj >> i & 1] or range(space.n)
        for psi in probes:
            top = max(psi[i] for i in inside)
            trim = tuple(v if proj >> i & 1 else top for i, v in enumerate(psi))
            a, b = evaluate_values(mu, psi), evaluate_values(mu, trim)
            if a != b:
                cert = {
                    "kind": "support-escape", "side": side,
                    "separating": (psi, trim), "values": (a, b),
                }
                return FeasibilityVerdict("infeasible", "refutation-sampled", certificate=cert)
    return FeasibilityVerdict(
        "feasible", "witness-found", witness=lower_coupling(mu1, mu2, s)
    )


# ---------------------------------------------------------------------------
# witness verification


def verify_coupling(
    witness: CouplingWitness, samples: int = 64, seed: int = 0
) -> AxiomReport:
    """Probe-grid check of the coupling contract.

    The axioms go through ``probe_axioms``, the prober ``verify_axioms``
    runs on measures: ``samples`` monotone pairs held to the value
    envelope, ``samples // 2`` shifts and four constants on the product.
    What is specific to couplings follows: every product-point indicator
    stays inside [0, 1]; the first ``samples // 2`` monotone pairs, with the
    lower end kept on S and the upper end taken off it, check that values
    off S never matter; and the marginal identities are checked on
    ``probe_grid(factor, seed, samples // 2)`` of each factor, which holds
    the pullback of every subset indicator and every point-distance
    function (the identities quantify over those) and seeded random
    functions.
    """
    space = witness.product
    support = witness.support
    evaluate = witness.evaluate_values

    if not support.pairs():
        # an empty support admits no normed functional at all
        return sampled_report([Violation("empty-support", {}, ())], seed, samples)

    violations = probe_axioms(evaluate, space, seed, samples)
    for p in range(space.n):
        got = evaluate(tuple(int(q == p) for q in range(space.n)))
        if got < 0 or got > 1:
            violations.append(Violation("monotonicity", {"indicator": p}, (got,)))

    # support confinement: values off S never matter
    off = [not x for row in support.matrix for x in row]
    if any(off):
        pairs = probe_batch(space, seed, samples)[0][: samples // 2]
        for chi, hi, *_ in pairs:
            other = tuple(h if o else v for v, h, o in zip(chi, hi, off))
            a, b = evaluate(chi), evaluate(other)
            if a != b:
                wit = {"chi": chi, "other": other}
                violations.append(Violation("support-confinement", wit, (a, b)))

    # marginal identities over the factor probe grids
    left, right = support.left, support.right
    for axiom, mu, factor, points in (
        ("marginal-left", witness.left, left, left_projection_map(left, right)),
        ("marginal-right", witness.right, right, right_projection_map(left, right)),
    ):
        for phi in probe_grid(factor, seed, samples // 2):
            got = evaluate(tuple(map(phi.__getitem__, points)))
            want = evaluate_values(mu, phi)
            if got != want:
                violations.append(Violation(axiom, {"phi": phi}, (got, want)))

    return sampled_report(violations, seed, samples)


# ---------------------------------------------------------------------------
# gluing


def triple_space(space: FiniteMetricSpace) -> FiniteMetricSpace:
    return product_space(product_space(space, space), space)


def glue(
    m12: RiskMeasure,
    m23: RiskMeasure,
    base: FiniteMetricSpace,
    seed: int = 0,
) -> RiskMeasure:
    """Glue two product measures sharing their middle marginal.

    The result lives on the triple product and evaluates chi as the larger
    of m12 on (x1,x2) -> min over x3 of chi and m23 on (x2,x3) -> min over
    x1 of chi.  Whenever the middle marginals genuinely coincide, both
    projection identities hold exactly: the competing term is dominated
    because partial minimisation only lowers a pulled-back function.
    """
    n = base.n
    prod = product_space(base, base)
    if m12.space != prod or m23.space != prod:
        raise SpaceMismatch("glue inputs must live on the square of the base space")
    mid12 = pushforward(right_projection_map(base, base), m12, base)
    mid23 = pushforward(left_projection_map(base, base), m23, base)
    eq = equal_measures(mid12, mid23, seed=seed)
    if eq.status == "no":
        raise MarginalMismatch(
            "glue inputs disagree on the shared marginal", witness=eq.witness
        )
    if m12.kind == "dirac" and m23.kind == "dirac":
        # both projections pin the support to one triple, whose point mass
        # is the unique gluing
        i, j = divmod(m12.point, n)
        _, k = divmod(m23.point, n)
        from .measures import dirac

        return dirac(triple_space(base), i * n * n + j * n + k)

    # flat triple index (i * n + j) * n + k: the front minimum runs over k,
    # the section of (i, j) in prod x base; the back one over i, the inverse
    # section of (j, k) in base x prod
    front = full_relation(prod, base).pair_lists
    back = full_relation(base, prod).inv_pair_lists

    def glued(chi: tuple[Scalar, ...]) -> Scalar:
        return max(
            evaluate_values(m12, section_minima(chi, front)),
            evaluate_values(m23, section_minima(chi, back)),
        )

    return black_box(triple_space(base), glued, name="glue")


def triple_projection_map(base: FiniteMetricSpace, keep: tuple[int, int]) -> tuple[int, ...]:
    """Point map from the triple product onto the product of two coordinates."""
    n = base.n
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                coords = (i, j, k)
                out.append(coords[keep[0]] * n + coords[keep[1]])
    return tuple(out)
