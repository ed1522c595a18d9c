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
one bounded memo each, black boxes as given.  Combinations also keep their
parts, so the axiom check can pass them from their parts: max, min and
convex combinations keep monotonicity, translation invariance and
normedness.  Every family member is checked exactly, from the affine pieces
of its formula.  Only a measure without such structure, a black box, a
pushforward or a combination with one of them or with a failing part, is
left to seeded probing, and its report says so.

Lattice normal forms.  A max, min or mixture whose parts are capacities,
or max, min and mixtures of such, keeps two normal forms over ``Capacity``
objects:

    max-of-min   mu = max_i min_j A_ij      (rows of capacities)
    min-of-max   mu = min_q max_p B_pq      (groups of capacities)

max joins the parts' rows and spreads their groups (one group per choice of
a group from each part: max distributes over min); min is the dual.  A
mixture mixes one pick from each part, row by row and column by column
(``_mixture_forms``).  A capacity is its own one-entry form.  With its
forms a combination builds its indicator table, mu(1_B) for every subset
B: the max, min or weighted sum of its parts' tables, as integers over one
scale (``indicators``), and its reach, the union of its form's supports
(``reach``).  The coupling module decides pairs of such measures exactly
from these forms and tables.

Breakpoints.  On a two-point space a measure is mu(phi) = phi0 +
g(phi1 - phi0) by translation invariance, and ``RiskMeasure.breakpoints``
lists finitely many t between which g(t) = mu(0, t) is affine, or is None
where no such list is known.  A measure with normal forms is positively
homogeneous, so g is affine on each side of 0; a family member that passes
its exact axiom check breaks at ``twopoint.breakpoints``; a mixture
without a capacity at its parts' points; a max or min at its parts' points
and at every crossing of two parts' affine pieces, each piece read from two
evaluations.  Black boxes, pushforwards and defective family members have
none, and neither has a combination with one of them among its parts.  So
a measure with breakpoints passes its axioms exactly, and its g is
continuous.  The coupling module decides two-point pairs exactly from these
points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, combinations, product
from math import lcm, prod
from operator import add, itemgetter, or_, sub
from typing import Callable, Optional, Sequence

from .capacity import (
    MAX_CAPACITY_POINTS,
    Capacity,
    check_mixture,
    dirac_capacity,
    mix_capacities,
    mix_tables,
    pushforward_capacity,
)
from .errors import InvalidParams, SpaceMismatch
from .numerics import Scalar
from .space import FiniteMetricSpace, PointFunction, PointSubset
from .twopoint import TwoPointParams, breakpoints, scaled_eval, two_point_eval

#: seeded function pairs tried per point when probing a support
SUPPORT_PROBES = 256

#: seeded random functions in the probe grid ``equal_measures`` compares
#: measures without capacities on
EQUALITY_PROBES = 192

#: seeded monotone pairs ``verify_axioms`` probes a measure without an exact
#: verdict with, with half as many shifts
AXIOM_SAMPLES = 200

#: entries kept per measure by the memo of a family member or combination;
#: ladder scans and audits evaluate one probe grid many times over, and the
#: largest grid a benchmark matrix request fills per measure is about 2500
EVAL_MEMO_SIZE = 4096

#: most capacities one normal form may list; a nesting whose spread or mixed
#: form would list more keeps no form, and its pairs stay on the sampled tier
#: except on a two-point space, where its breakpoints decide them
MAX_FORM_TERMS = 64

#: halvings of the offset of a failing part's census pair that a combination
#: of that part is probed at, until the part's drop shows through the others
SHRINK_STEPS = 32

#: rows of a max-of-min form, or groups of a min-of-max form
Form = tuple[tuple[Capacity, ...], ...]


@dataclass(frozen=True, eq=False)
class RiskMeasure:
    """A normed monetary risk measure in one of the evaluable representations.

    Capacity-tier measures carry ``capacity``; every other measure carries
    ``evaluator``, and so does a Dirac measure, which reads its point.  A
    mixture without a capacity, a max and a min keep their ``parts``; a
    max, min or mixture of measures with forms keeps its own ``forms``
    (max-of-min, min-of-max, indicator table, reach).
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
    parts: tuple["RiskMeasure", ...] = field(default=(), repr=False)
    forms: Optional[tuple[Form, Form, tuple, int]] = field(default=None, repr=False)

    def __call__(self, phi: PointFunction) -> Scalar:
        return evaluate(self, phi)

    @cached_property
    def breakpoints(self) -> Optional[tuple[Fraction, ...]]:
        """The sorted t between which g(t) = mu(0, t) is affine, on a
        two-point space, or None for a black box, a pushforward, a
        defective family member and any combination with one among its
        parts; the module docstring lists the cases."""
        return _breakpoints(self)

    @cached_property
    def exact_report(self) -> Optional["AxiomReport"]:
        """The exact verdict on this measure, or None where only probing can
        check it.  Held on the measure, so that the axiom gate and
        ``breakpoints`` share one census of a family member."""
        return _exact_report(self)


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
    is evaluated term by term, and components that all have normal forms
    give the mixture its own (``_mixture_forms``)."""
    space, weights = check_mixture(weights, components)
    caps = [c.capacity for c in components]
    if None not in caps:
        return RiskMeasure(
            space, "mixture", capacity=mix_capacities(weights, caps), name="mixture"
        )
    terms = tuple(zip(weights, components))

    def evaluator(values):
        return sum(w * evaluate_values(c, values) for w, c in terms)

    return RiskMeasure(
        space, "mixture", evaluator=_memo(evaluator), name="mixture",
        parts=tuple(components), forms=_mixture_forms(terms),
    )


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

    return RiskMeasure(
        space, kind, evaluator=_memo(evaluator), name=kind, parts=parts,
        forms=_lattice_forms(kind, pick, parts),
    )


def normal_forms(mu: RiskMeasure) -> Optional[tuple[Form, Form]]:
    """mu's (max-of-min, min-of-max) forms over capacities, or None when mu
    is no lattice combination of capacities."""
    if mu.capacity is not None:
        form = ((mu.capacity,),)
        return form, form
    return None if mu.forms is None else mu.forms[:2]


def indicators(mu: RiskMeasure) -> Optional[tuple[tuple, Scalar]]:
    """mu(1_B) for every subset B times a scale, and that scale, for a
    measure with normal forms, or None.  A capacity gives its ``scaled`` and
    ``scale``; a lattice the table it built with its forms."""
    if mu.capacity is not None:
        return mu.capacity.scaled, mu.capacity.scale
    return None if mu.forms is None else mu.forms[2]


def reach(mu: RiskMeasure) -> Optional[int]:
    """The union of the supports of the capacities in mu's max-of-min form,
    a capacity's own support, for a measure with normal forms, or None.  A
    combination builds it with its forms, as the union of its parts'
    reaches: its rows are its parts' rows (max) or unions of one row of
    each (min, and a mixture over its parts of positive weight)."""
    if mu.capacity is not None:
        return mu.capacity.support_mask()
    return None if mu.forms is None else mu.forms[3]


def lift(tables) -> tuple[Scalar, list]:
    """The least common scale of (table, scale) pairs, and each table as
    integers over it."""
    tables = list(tables)
    scale = lcm(*(d for _, d in tables))
    return scale, [times(t, scale // d) for t, d in tables]


def times(table: tuple, k) -> tuple:
    """The table with every entry multiplied by k."""
    return table if k == 1 else tuple([x * k for x in table])


def _breakpoints(mu: RiskMeasure) -> Optional[tuple[Fraction, ...]]:
    zero = Fraction(0)
    if normal_forms(mu) is not None:
        return (zero,)  # positively homogeneous
    if mu.kind == "two-point":
        report = mu.exact_report
        if report is None or not report.ok:
            return None  # g may jump, where no list of points can show it
        return tuple(map(Fraction, breakpoints(mu.params)))
    if not mu.parts:
        return None  # a black box or a pushforward
    parts = [p.breakpoints for p in mu.parts]
    if None in parts:
        return None
    points = sorted(set(chain.from_iterable(parts)))
    if mu.kind == "mixture":
        return tuple(points)
    # a max or min: each part is affine between consecutive points, and so
    # is the pick, except where two parts cross
    crossings = set()
    ends = [None, *points, None]
    for lo, hi in zip(ends, ends[1:]):
        t1, t2 = _two_inside(lo, hi)
        lines = []  # (slope, value at t1) of each part
        for p in mu.parts:
            y1, y2 = evaluate_values(p, (zero, t1)), evaluate_values(p, (zero, t2))
            lines.append(((y2 - y1) / (t2 - t1), y1))
        for (s1, y1), (s2, y2) in combinations(lines, 2):
            if s1 != s2:
                t = t1 + (y2 - y1) / (s1 - s2)
                if (lo is None or t > lo) and (hi is None or t < hi):
                    crossings.add(t)
    return tuple(sorted({*points, *crossings}))


def _two_inside(lo, hi):
    """Two points inside the interval from lo to hi; None is an open end."""
    if lo is None:
        return hi - 2, hi - 1
    if hi is None:
        return lo + 1, lo + 2
    return lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3


def _lattice_forms(kind: str, pick, parts) -> Optional[tuple[Form, Form, tuple, int]]:
    forms = [normal_forms(c) for c in parts]
    if None in forms:
        return None
    # max(min_j A1j, min_j A2j) lists both rows, and
    # max(min_q max_p B1pq, min_r max_p B2pr) = min_(q,r) max(B1.q, B2.r):
    # max joins rows and spreads groups; min joins groups and spreads rows
    join, spread = (0, 1) if kind == "max" else (1, 0)
    joined = tuple(row for f in forms for row in f[join])
    spreads = [f[spread] for f in forms]
    widest = sum(max(map(len, form)) for form in spreads)
    if (
        sum(map(len, joined)) > MAX_FORM_TERMS
        or prod(map(len, spreads)) * widest > MAX_FORM_TERMS
    ):
        return None
    spread_out = tuple(sum(choice, ()) for choice in product(*spreads))
    # the table of a max (min) is the max (min) of its parts' tables
    scale, lifted = lift(map(indicators, parts))
    table = lifted[0] if len(lifted) == 1 else tuple(map(pick, *lifted))
    forms = (joined, spread_out) if kind == "max" else (spread_out, joined)
    return (*forms, (table, scale), reduce(or_, map(reach, parts)))


def _mixture_forms(terms) -> Optional[tuple[Form, Form, tuple, int]]:
    """The forms, indicator table and reach of sum_c w_c mu_c, when every
    mu_c with w_c > 0 has normal forms and the result fits
    ``MAX_FORM_TERMS``.

    For positive weights, sum_c w_c max_i min_j A^c_ij is the max over row
    picks (i_c) of the min over column picks (j_c) of sum_c w_c
    A^c_(i_c j_c), and each such sum is a capacity (``mix_capacities``);
    min-of-max likewise.  A form then lists the product of its parts' term
    counts.  The table is sum_c w_c table_c and the reach the union of the
    parts' reaches.  A part of weight 0 adds nothing and is left out.
    """
    terms = [(w, c) for w, c in terms if w]
    forms = [normal_forms(c) for _, c in terms]
    if None in forms or any(
        prod(sum(map(len, f[k])) for f in forms) > MAX_FORM_TERMS for k in (0, 1)
    ):
        return None
    weights = [w for w, _ in terms]
    mixed = tuple(
        tuple(
            tuple(mix_capacities(weights, caps) for caps in product(*lines))
            for lines in product(*(f[k] for f in forms))
        )
        for k in (0, 1)
    )
    table, scale = mix_tables(weights, [indicators(c) for _, c in terms])
    return (*mixed, (tuple(table), scale), reduce(or_, [reach(c) for _, c in terms]))


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
    return tuple(rng.randint(lo, hi) for _ in range(space.n))


def _monotone_pair(space: FiniteMetricSpace, rng: random.Random):
    lo = _random_values(space, rng)
    return lo, tuple([v + rng.randint(0, 12) for v in lo])


def _bounded(lo, hi):
    """A monotone pair with the value envelope (min, max) of each end."""
    return lo, hi, (min(lo), max(lo)), (min(hi), max(hi))


@lru_cache(maxsize=2048)
def probe_batch(space: FiniteMetricSpace, seed: int, samples: int):
    """The draws of every sampled axiom check: ``samples`` monotone pairs,
    each with its ends' envelopes, and ``samples // 2`` (function, integer
    shift) probes, on one seeded stream.  Integer shifts keep exact probes
    on the integer Choquet kernel.
    """
    rng = random.Random(seed)
    pairs = tuple(_bounded(*_monotone_pair(space, rng)) for _ in range(samples))
    shifts = tuple(
        (_random_values(space, rng), rng.randint(-8, 8)) for _ in range(samples // 2)
    )
    return pairs, shifts


def probe_axioms(
    evaluate: Callable[[tuple[Scalar, ...]], Scalar],
    space: FiniteMetricSpace,
    seed: int,
    samples: int,
    pairs: Sequence = (),
) -> list[Violation]:
    """Probe monotonicity, translation invariance and normedness of
    ``evaluate`` on ``space`` with ``probe_batch(space, seed, samples)``.

    Each monotone pair, the batch's and then the extra ``pairs``, costs two
    evaluations, and both values are also held to the value envelope [min
    phi, max phi] that the three axioms together force: a breakout is
    reported as its own derived axiom, so its witness re-checks standalone.
    Each shift probe costs two evaluations and the constants -3, 0, 1 and 5
    one each.
    """
    batch, shifts = probe_batch(space, seed, samples)
    out: list[Violation] = []
    for lo, hi, lo_env, hi_env in chain(batch, (_bounded(*p) for p in pairs)):
        a, b = evaluate(lo), evaluate(hi)
        if a > b:
            out.append(Violation("monotonicity", {"lo": lo, "hi": hi}, (a, b)))
        for phi, got, (least, most) in ((lo, a, lo_env), (hi, b, hi_env)):
            if got > most or got < least:
                wit = {"phi": phi, "lo": least, "hi": most}
                out.append(Violation("value-envelope", wit, (got,)))
    for phi, shift in shifts:
        base, moved = evaluate(phi), evaluate(tuple(v + shift for v in phi))
        if moved != base + shift:
            wit = {"phi": phi, "shift": shift}
            out.append(Violation("translation-invariance", wit, (base, moved)))
    for c in (-3, 0, 1, 5):
        got = evaluate((c,) * space.n)
        if got != c:
            out.append(Violation("normedness", {"constant": c}, (got,)))
    return out


def sampled_report(violations, seed: int, samples: int) -> AxiomReport:
    return AxiomReport(
        "fail" if violations else "pass",
        tuple(violations),
        f"sampled(seed={seed}, count={samples})",
    )


def _with_branches(params: TwoPointParams, v: Violation) -> Violation:
    """v with the family's evaluation (value, branch, gap) of each function
    its witness names, so that a report shows which branches it crossed."""
    names = {"monotonicity": ("lo", "hi"), "value-envelope": ("phi",)}.get(v.axiom, ())
    for name in names:
        v.witness[f"{name}_eval"] = two_point_eval(params, *v.witness[name])
    return v


def _offset(gap, coef, base):
    """Halve ``base`` until ``coef * eps`` stays below ``gap`` > 0."""
    eps = base
    while coef * eps >= gap:
        eps /= 2
    return eps


def _two_point_violations(mu: RiskMeasure) -> list[Violation]:
    """Decide an exact family member from a census of its pieces.

    The branch tests and the max and min terms depend on phi only through
    t = phi1 - phi0 and switch only at the branch boundaries, and the shape
    is affine between its knots.  So between consecutive breakpoints ({0},
    the knots and the boundaries) mu is affine on the strip of t, with form
    alpha*phi0 + beta*phi1 + gamma, and on each breakpoint line it is affine
    along (1, 1).  Every form is read from evaluations, never from the
    parameters: three non-collinear points per strip, two per line, so
    5k + 3 evaluations for k breakpoints.  They run on one integer grid,
    q = 3: every breakpoint is an int on the scale D of
    ``TwoPointParams.scaled``, the integer form the member built and
    checked on construction, so on the scale 3 * D the thirds of each
    strip and the end probes 1 and 2 beyond the outer breakpoints are ints
    too.  Each evaluation is one call of ``scaled_eval``, past the member's
    memo, and every value is its numerator over 3 * D * D * E.  No
    ``Fraction`` arithmetic runs between a sound member's parameters and
    its verdict.

    mu is then a normed monetary risk measure iff alpha + beta = 1 and
    alpha, beta >= 0 on every strip, the value rises by 1 along every line,
    g(t) = mu(0, t) meets both one-sided limits at every breakpoint and
    g(0) = 0.  Each check compares numerators by cross-multiplication,
    with no division.  ``Fraction``s are built only for a failure, which
    becomes a re-checkable violation: a monotone pair inside the strip for
    a slope outside [0, 1], a monotone pair straddling the breakpoint for a
    jump (the offset shrinks until the drop shows), a shift for translation
    invariance and the constant 0 for normedness.  Each monotonicity
    witness costs two evaluations through the memo, which name its
    branches.
    """
    k = mu.params.scaled
    q = 3
    unit = k.d * q  # phi = 1 on the grid
    n = k.scale * q  # the denominator of every value
    F = Fraction
    zero, one = F(0), F(1)

    def num(x0, t):
        return scaled_eval(k, x0, x0 + t, q)[0]

    def ev(phi0, phi1):
        return evaluate_values(mu, (phi0, phi1))

    def monotone(lo, hi):
        wit = {"lo": lo, "hi": hi}
        return _with_branches(mu.params, Violation("monotonicity", wit, (ev(*lo), ev(*hi))))

    def shifted(t, base, moved):
        return Violation(
            "translation-invariance", {"phi": (zero, F(t, unit)), "shift": one},
            (F(base, n), F(moved, n)),
        )

    def form(strip):
        """(alpha, beta, gamma) of a strip, as ``Fraction``s."""
        t1, t2, g1, g2, moved = strip
        t1, g1 = F(t1, unit), F(g1, n)
        beta = (F(g2, n) - g1) / (F(t2, unit) - t1)
        return F(moved, n) - g1 - beta, beta, g1 - beta * t1

    # ``breakpoints(mu.params)`` on the scale D: the finite bounds are the
    # branch boundaries
    points = sorted({0, *k.knots, *[b for b in k.bounds if b is not None]})
    ends = [None, *points, None]
    out: list[Violation] = []
    strips = []  # (t1, t2, g1, g2, moved) of each strip, left to right
    for lo, hi in zip(ends, ends[1:]):
        if lo is None:
            t1, t2 = q * hi - 2 * unit, q * hi - unit
        elif hi is None:
            t1, t2 = q * lo + unit, q * lo + 2 * unit
        else:
            t1, t2 = 2 * lo + hi, lo + 2 * hi  # the thirds of the strip
        g1, g2, moved = num(0, t1), num(0, t2), num(unit, t1)
        strips.append((t1, t2, g1, g2, moved))
        if moved != g1 + n:
            out.append(shifted(t1, g1, moved))
        if g2 < g1:  # beta < 0: raising phi1 lowers the value
            out.append(monotone((zero, F(t1, unit)), (zero, F(t2, unit))))
        if (moved - g1) * (t2 - t1) < (g2 - g1) * unit:  # alpha < 0
            t1, t2 = F(t1, unit), F(t2, unit)
            out.append(monotone((zero, t2), (t2 - t1, t2)))
    for i, b in enumerate(points):
        x = q * b
        here, moved = num(0, x), num(unit, x)
        if moved != here + n:
            out.append(shifted(x, here, moved))
        if b == 0 and here:
            out.append(Violation("normedness", {"constant": zero}, (F(here, n),)))
        # the left limit over g(b), and g(b) over the right limit, each
        # times its strip's n * (t2 - t1) > 0
        l1, l2, lg1, lg2, _ = strips[i]
        r1, r2, rg1, rg2, _ = strips[i + 1]
        left = (lg1 - here) * (l2 - l1) + (lg2 - lg1) * (x - l1)
        right = (here - rg1) * (r2 - r1) - (rg2 - rg1) * (x - r1)
        if not (left or right):
            continue
        b, here, moved = F(b, k.d), F(here, n), F(moved, n)
        if left:
            la, lb, lc = form(strips[i])
            width = min(one, (b - F(points[i - 1], k.d)) / 2) if i else one
            jump = lb * b + lc - here
            if left > 0:  # g drops at b: raise phi1 across it
                eps = _offset(jump, lb, width)
                out.append(monotone((zero, b - eps), (zero, b)))
            else:  # g rises at b: raise phi0 back across it
                eps = _offset(-jump, la, width)
                out.append(monotone((zero, b), (eps, b)))
        if right:
            _, rb, rc = form(strips[i + 1])
            width = min(one, (F(points[i + 1], k.d) - b) / 2) if i + 1 < len(points) else one
            jump = here - (rb * b + rc)
            if right > 0:  # g drops after b: raise phi1 across it
                eps = _offset(jump, rb, width)
                out.append(monotone((zero, b), (zero, b + eps)))
            else:  # g rises after b: raise phi0 back across it
                eps = _offset(-jump, moved - here - rb, width)
                out.append(monotone((zero, b + eps), (eps, b + eps)))
    return out


def _exact_report(mu: RiskMeasure) -> Optional[AxiomReport]:
    """The exact verdict on mu, or None where only probing can check it."""
    if mu.capacity is not None:
        # construction already validated the table; re-assert cheaply
        return AxiomReport("pass", (), "exact")
    if mu.kind == "two-point":
        found = tuple(_two_point_violations(mu))
        return AxiomReport("fail" if found else "pass", found, "exact")
    if mu.parts and all(
        (report := p.exact_report) is not None and report.ok for p in mu.parts
    ):
        return AxiomReport("pass", (), "exact")
    return None


def _failing_part_pairs(mu: RiskMeasure):
    """The monotone pairs of the exact census of each part of mu, at any
    depth, that fails it."""
    for part in mu.parts:
        report = part.exact_report
        if report is None:
            yield from _failing_part_pairs(part)
        elif not report.ok:
            for v in report.violations:
                if v.axiom == "monotonicity":
                    yield v.witness["lo"], v.witness["hi"]


def _shrunk_pairs(mu: RiskMeasure, pairs) -> list:
    """For each pair, the first on which mu drops, with the offset halved up
    to ``SHRINK_STEPS`` times and one end kept, either one.

    A census pair straddles a part's jump, which sits at one of its ends.
    The other parts are continuous, so as the offset shrinks their rise
    across it vanishes while the jump's weighted share stays.
    """
    found = []
    for lo, hi in pairs:
        offset = tuple(map(sub, hi, lo))
        for _ in range(SHRINK_STEPS):
            tries = ((tuple(map(sub, hi, offset)), hi), (lo, tuple(map(add, lo, offset))))
            drop = next(
                (p for p in tries if evaluate_values(mu, p[0]) > evaluate_values(mu, p[1])),
                None,
            )
            if drop is not None:
                found.append(drop)
                break
            offset = tuple(x / 2 for x in offset)
    return found


def verify_axioms(
    mu: RiskMeasure, seed: int = 0, *, samples: int = AXIOM_SAMPLES
) -> AxiomReport:
    """Check monotonicity, translation invariance and normedness.

    The exact verdict (``RiskMeasure.exact_report``) is returned wherever
    one exists.  A capacity passes at once: the Capacity constructor has
    already enforced normalization and monotone covers.  Every two-point
    family member is decided by a census of the affine pieces of its
    formula (``_two_point_violations``), on any space: its parameters are
    exact integers, ``TwoPointParams.scaled``.  A max, min or mixture whose
    parts all pass exactly passes exactly too: max, min and convex
    combinations keep the three axioms.  The verdict is held on the
    measure, so the census runs once per member however often the gate and
    ``breakpoints`` ask.

    Everything else, a black box, a pushforward or a combination with one
    of them or with a failing part, is probed by ``probe_axioms``, the
    prober ``verify_coupling`` runs on witnesses too, on ``seed``:
    ``samples`` monotone pairs, ``samples // 2`` shifts and four constants,
    plus the monotone pairs of each failing part's exact census, shrunk
    until the combination drops across them (``_shrunk_pairs``).  Every
    caller in the package probes at ``AXIOM_SAMPLES``; the benchmark's
    single-call timings (``bench/baselines.py``) pass ``samples``.
    Discovered violations carry re-checkable witnesses either way.
    """
    report = mu.exact_report
    if report is not None:
        return report
    pairs = _shrunk_pairs(mu, _failing_part_pairs(mu))
    found = probe_axioms(partial(evaluate_values, mu), mu.space, seed, samples, pairs)
    return sampled_report(found, seed, samples)


# ---------------------------------------------------------------------------
# supports


def support(mu: RiskMeasure, seed: int = 0) -> PointSubset:
    """Smallest subset the measure's values depend on.

    On the capacity tier the support is exactly the set of non-null points
    (removing a point never changes the capacity iff no carrier needs it).
    Other representations are probed: a point is kept iff one of
    ``SUPPORT_PROBES`` seeded pairs of functions differing only there
    separates the measure.
    """
    if mu.capacity is not None:
        return PointSubset(mu.space, mu.capacity.support_mask())
    found = separating_pairs(mu, mu.space.full_mask, seed=seed)
    return PointSubset(mu.space, sum(1 << i for i, _ in found))


def separating_pairs(mu: RiskMeasure, mask: int, seed: int = 0):
    """Yield (i, pair) for each point i of ``mask`` at which probing finds a
    pair of functions differing only there that the measure tells apart.

    The points are probed lazily, in index order, on one seeded stream.
    """
    rng = random.Random(seed)
    for i in range(mu.space.n):
        if mask >> i & 1:
            pair = _separating_pair(mu, i, rng)
            if pair is not None:
                yield i, pair


def _separating_pair(mu: RiskMeasure, i: int, rng: random.Random):
    space = mu.space
    for _ in range(SUPPORT_PROBES):
        values = list(_random_values(space, rng))
        other = list(values)
        other[i] += rng.randint(1, 16)
        a, b = evaluate_values(mu, tuple(values)), evaluate_values(mu, tuple(other))
        if a != b:
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


@lru_cache(maxsize=2048)
def probe_grid(
    space: FiniteMetricSpace, seed: int, randoms: int = 64
) -> tuple[tuple[Scalar, ...], ...]:
    """Deterministic probe family: subset indicators, distances to each
    point, and ``randoms`` random functions drawn from ``Random(seed)``, so
    a grid with fewer randoms is a prefix of one with more.  Past
    ``MAX_CAPACITY_POINTS`` points the 2^n indicators are left out, as
    capacity tables are, and the grid keeps the rest.  Cached; ladder
    scans reuse it across levels and pairs."""
    probes = []
    if space.n <= MAX_CAPACITY_POINTS:
        probes.extend(
            tuple(mask >> i & 1 for i in range(space.n)) for mask in range(1 << space.n)
        )
    probes.extend(
        tuple(space.dist[j][i] for j in range(space.n)) for i in range(space.n)
    )
    rng = random.Random(seed)
    probes.extend(_random_values(space, rng) for _ in range(randoms))
    return tuple(probes)


def equal_measures(mu1: RiskMeasure, mu2: RiskMeasure, seed: int = 0) -> EqualityResult:
    """Functional equality.

    Capacity-convertible pairs compare tables (indicators separate distinct
    capacities, so table equality decides), each entry's integer times the
    other's scale, so neither ``Fraction`` table is built.  Other pairs run
    the probe grid: a disagreement yields "no" with the separating
    function; agreement on the whole grid is only "undecided" because the
    family of probes is not exhaustive for unstructured measures.
    """
    if mu1.space != mu2.space:
        raise SpaceMismatch("measures live on different spaces")
    space = mu1.space
    c1, c2 = mu1.capacity, mu2.capacity
    if c1 is not None and c2 is not None:
        s1, s2 = c1.scale, c2.scale
        for mask, (x1, x2) in enumerate(zip(c1.scaled, c2.scaled)):
            if x1 * s2 != x2 * s1:
                return EqualityResult("no", PointFunction.indicator(space, mask).values)
        return EqualityResult("yes")
    for values in probe_grid(space, seed, EQUALITY_PROBES):
        if evaluate_values(mu1, values) != evaluate_values(mu2, values):
            return EqualityResult("no", values)
    return EqualityResult("undecided", note="probes passed")
