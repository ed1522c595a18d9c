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
gluing's included, goes through one section-minimum routine.  On the
capacity tier (b) and (c) reduce by comonotone layer decomposition to one
subset inequality per subset, which is checked exhaustively; that reduction
is cross-validated against independent brute-force oracles in the oracles
module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import EmptySection, InvalidParams, MarginalMismatch, SpaceMismatch
from .measures import (
    AxiomReport,
    RiskMeasure,
    Violation,
    black_box,
    equal_measures,
    evaluate_values,
    grid_draw,
    probe_grid,
    pushforward,
    separating_pair,
    support,
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

REFUTATION_SAMPLES = 512


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
    mins = [min(values[q] for q in lst) if lst else None for lst in lists]
    if None in mins:
        reachable = [values[q] for lst in lists for q in lst]
        top = max(reachable) if reachable else max(values)
        mins = [top if m is None else m for m in mins]
    return tuple(mins)


def min_envelope(
    chi: PointFunction, s: Relation, side: str, extend: bool = False
) -> PointFunction:
    """Largest function on one factor whose pullback stays below chi on S.

    ``side="left"`` maps x to the minimum of chi over the section of x;
    ``side="right"`` uses inverse sections.  Points with empty sections
    raise, unless ``extend`` fills them with the maximum of chi over S (see
    ``section_minima``); an empty S raises either way.
    """
    if side not in ("left", "right"):
        raise InvalidParams(f"unknown side {side!r}")
    lists = s.pair_lists if side == "left" else s.inv_pair_lists
    if () in lists and (not extend or not any(lists)):
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
    formula: str = "lower-extension"
    product: FiniteMetricSpace = field(init=False, compare=False, default=None)

    def __post_init__(self):
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
        """Maximal base distance over the declared support."""
        d = self.support.left.dist
        return max(d[i][j] for i, j in self.support.pairs())


def lower_coupling(mu1: RiskMeasure, mu2: RiskMeasure, s: Relation) -> CouplingWitness:
    _check_coupling_spaces(mu1, mu2, s)
    if mu1.kind == "dirac" and mu2.kind == "dirac" and s.matrix[mu1.point][mu2.point]:
        # the canonical coupling of two point masses is the product point mass
        s = Relation.from_pairs(s.left, s.right, [(mu1.point, mu2.point)])
    return CouplingWitness(mu1, mu2, s, "lower-extension")


def _check_coupling_spaces(mu1, mu2, s: Relation):
    if mu1.space != s.left or mu2.space != s.right:
        raise SpaceMismatch("marginals must live on the relation's factor spaces")


# ---------------------------------------------------------------------------
# feasibility


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: str  # "feasible" | "infeasible" | "unknown"
    tier: str  # "exact-choquet" | "dirac" | "refutation-sampled" | "witness-found"
    certificate: Optional[dict] = None
    witness: Optional[CouplingWitness] = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def admissible(
    mu1: RiskMeasure,
    mu2: RiskMeasure,
    s: Relation,
    seed: int = 0,
    samples: int = REFUTATION_SAMPLES,
    supports: Optional[tuple[int, int]] = None,
) -> FeasibilityVerdict:
    """Decide whether some coupling of (mu1, mu2) is supported inside S.

    ``supports`` optionally carries precomputed support masks so callers
    scanning many relations do not re-probe them per level.
    """
    if mu1.space != mu2.space:
        raise SpaceMismatch("marginals live on different spaces")
    _check_coupling_spaces(mu1, mu2, s)
    if mu1.kind == "dirac" and mu2.kind == "dirac":
        if s.matrix[mu1.point][mu2.point]:
            return FeasibilityVerdict(
                "feasible", "dirac", witness=lower_coupling(mu1, mu2, s)
            )
        return FeasibilityVerdict(
            "infeasible",
            "dirac",
            certificate={
                "kind": "pair-outside-support",
                "pair": (mu1.point, mu2.point),
            },
        )
    v1, v2 = mu1.capacity, mu2.capacity
    if v1 is not None and v2 is not None:
        return _admissible_exact(mu1, mu2, v1, v2, s)
    return _admissible_sampled(mu1, mu2, s, seed, samples, supports)


@lru_cache(maxsize=4096)
def _inner_mask_tables(s: Relation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each subset B, the points whose (inverse) section fits inside B.

    These depend on the relation alone, so ladder scans over many measure
    pairs share them.
    """
    n = s.left.n
    out = []
    for sections in (s.sections, s.inv_sections):
        table = []
        for b in range(1 << n):
            inner = 0
            for x, sec in enumerate(sections):
                if sec and sec & ~b == 0:
                    inner |= 1 << x
            table.append(inner)
        out.append(tuple(table))
    return tuple(out)


def _admissible_exact(mu1, mu2, v1, v2, s: Relation) -> FeasibilityVerdict:
    space = mu1.space
    tol = space.tol
    n = space.n
    for side, cap, proj in (
        ("left", v1, s.left_projection),
        ("right", v2, s.right_projection),
    ):
        escaped = cap.support_mask() & ~proj
        if escaped:
            point = next(i for i in range(n) if escaped >> i & 1)
            return FeasibilityVerdict(
                "infeasible",
                "exact-choquet",
                certificate={
                    "kind": "support-escape",
                    "side": side,
                    "point": point,
                },
            )
    left_inner, right_inner = _inner_mask_tables(s)
    for side, va, vb, inners in (
        ("left", v1, v2, left_inner),
        ("right", v2, v1, right_inner),
    ):
        for b in range(1 << n):
            inner = inners[b]
            if va.table[inner] > vb.table[b] + tol:
                return FeasibilityVerdict(
                    "infeasible",
                    "exact-choquet",
                    certificate={
                        "kind": "envelope-domination",
                        "side": side,
                        "subset": b,
                        "inner": inner,
                        "values": (va.table[inner], vb.table[b]),
                    },
                )
    return FeasibilityVerdict(
        "feasible", "exact-choquet", witness=lower_coupling(mu1, mu2, s)
    )


def _admissible_sampled(
    mu1, mu2, s: Relation, seed, samples, supports=None
) -> FeasibilityVerdict:
    space = mu1.space
    tol = space.tol
    rng = random.Random(seed)
    if supports is None:
        supports = (support(mu1, seed=seed).mask, support(mu2, seed=seed).mask)
    for side, mu, own_mask, proj in (
        ("left", mu1, supports[0], s.left_projection),
        ("right", mu2, supports[1], s.right_projection),
    ):
        outside = own_mask & ~proj
        for i in range(space.n):
            if outside >> i & 1:
                pair = separating_pair(mu, i, seed=seed)
                if pair is not None:
                    return FeasibilityVerdict(
                        "infeasible",
                        "refutation-sampled",
                        certificate={
                            "kind": "support-escape",
                            "side": side,
                            "point": i,
                            "separating": pair,
                        },
                    )
    probes = probe_grid(space, seed, max(0, samples - (1 << space.n) - space.n))
    for side, mua, mub, lists in (
        ("left", mu1, mu2, s.section_lists),
        ("right", mu2, mu1, s.inv_section_lists),
    ):
        for psi in probes:
            env = section_minima(psi, lists)
            lhs = evaluate_values(mua, env)
            rhs = evaluate_values(mub, psi)
            if lhs > rhs + tol:
                return FeasibilityVerdict(
                    "infeasible",
                    "refutation-sampled",
                    certificate={
                        "kind": "envelope-domination",
                        "side": side,
                        "psi": psi,
                        "values": (lhs, rhs),
                    },
                )
    witness = lower_coupling(mu1, mu2, s)
    report = verify_coupling(witness, samples=32, seed=seed)
    if report.ok:
        return FeasibilityVerdict("feasible", "witness-found", witness=witness)
    cert = _diagnose_marginal_failure(mu1, mu2, s, report)
    if cert is not None:
        return FeasibilityVerdict("infeasible", "refutation-sampled", certificate=cert)
    return FeasibilityVerdict("unknown", "refutation-sampled")


def _diagnose_marginal_failure(mu1, mu2, s: Relation, report: AxiomReport):
    """Turn a failed marginal identity into a re-checkable certificate.

    The lower extension evaluates a pulled-back phi as the max of the honest
    marginal and the opposite envelope term, so a mismatch means either the
    envelope condition fails at phi, or phi separates a marginal from its
    projection-trimmed copy (a support escape).
    """
    tol = mu1.space.tol
    for v in report.violations:
        if v.axiom not in ("marginal-left", "marginal-right"):
            continue
        phi = v.witness["phi"]
        own_left = v.axiom == "marginal-left"
        own, other = (mu1, mu2) if own_left else (mu2, mu1)
        # phi on the own factor, pulled through to the other one
        env = section_minima(phi, s.inv_section_lists if own_left else s.section_lists)
        lhs, rhs = evaluate_values(other, env), evaluate_values(own, phi)
        if lhs > rhs + tol:
            return {
                "kind": "envelope-domination",
                "side": "right" if own_left else "left",
                "psi": phi,
                "values": (lhs, rhs),
            }
        tilde = _projection_trim(phi, s, left=own_left)
        a, b = evaluate_values(own, tilde), evaluate_values(own, phi)
        if abs(a - b) > tol:
            return {
                "kind": "support-escape",
                "side": "left" if own_left else "right",
                "separating": (phi, tilde),
                "values": (b, a),
            }
    return None


def _projection_trim(phi, s: Relation, left: bool):
    """phi on the projection, its projection maximum elsewhere."""
    proj = s.left_projection if left else s.right_projection
    on_proj = [v for i, v in enumerate(phi) if proj >> i & 1]
    top = max(on_proj) if on_proj else max(phi)
    return tuple(v if proj >> i & 1 else top for i, v in enumerate(phi))


# ---------------------------------------------------------------------------
# witness verification


def verify_coupling(
    witness: CouplingWitness, samples: int = 64, seed: int = 0
) -> AxiomReport:
    """Probe-grid check of the coupling contract.

    The grid holds every product-point indicator, the pullback of every
    subset indicator and every point-distance function on both factors (the
    marginal identities quantify over those), and seeded random functions.
    Support confinement is checked with pairs that agree on S and differ
    elsewhere.
    """
    space = witness.product
    left_space = witness.support.left
    right_space = witness.support.right
    n1, n2 = left_space.n, right_space.n
    tol = max(space.tol, left_space.tol)
    rng = random.Random(seed)
    violations: list[Violation] = []

    if not witness.support.pairs():
        # an empty support admits no normed functional at all
        return AxiomReport(
            "fail",
            (Violation("empty-support", {}, ()),),
            f"sampled(seed={seed}, count={samples})",
        )

    def record(axiom, wit, values):
        violations.append(Violation(axiom, wit, values))

    one, zero = (1, 0) if space.exact else (1.0, 0.0)

    # normedness and product-point indicators stay inside [0, 1]
    for c in (0, 1, -2):
        cval = c if space.exact else float(c)
        got = witness.evaluate_values((cval,) * space.n)
        if abs(got - cval) > tol:
            record("normedness", {"constant": cval}, (got,))
    for p in range(space.n):
        chi = tuple(one if q == p else zero for q in range(space.n))
        got = witness.evaluate_values(chi)
        if got < -tol or got > 1 + tol:
            record("monotonicity", {"indicator": p}, (got,))

    # marginal identities over the factor probe grids
    for axiom, mu, on_left in (
        ("marginal-left", witness.left, True),
        ("marginal-right", witness.right, False),
    ):
        factor = left_space if on_left else right_space
        for phi in probe_grid(factor, seed, samples // 2):
            if on_left:
                chi = tuple(phi[p // n2] for p in range(space.n))
            else:
                chi = tuple(phi[p % n2] for p in range(space.n))
            got = witness.evaluate_values(chi)
            want = evaluate_values(mu, phi)
            if abs(got - want) > tol:
                record(axiom, {"phi": phi}, (got, want))

    # monotone pairs and translation invariance on the product
    mono, shifts, bumps = _product_probe_batches(space, seed, samples)
    for lo, hi in mono:
        a, b = witness.evaluate_values(lo), witness.evaluate_values(hi)
        if a > b + tol:
            record("monotonicity", {"lo": lo, "hi": hi}, (a, b))
    for chi, shift in shifts:
        a = witness.evaluate_values(chi)
        b = witness.evaluate_values(tuple(v + shift for v in chi))
        if abs(b - (a + shift)) > tol:
            record("translation-invariance", {"chi": chi, "shift": shift}, (a, b))

    # support confinement: values off S never matter
    off = [
        i * n2 + j
        for i in range(n1)
        for j in range(n2)
        if not witness.support.matrix[i][j]
    ]
    if off:
        for chi, bump_row in bumps:
            other = list(chi)
            for p in off:
                other[p] = other[p] + bump_row[p]
            a = witness.evaluate_values(chi)
            b = witness.evaluate_values(tuple(other))
            if abs(a - b) > tol:
                record(
                    "support-confinement",
                    {"chi": chi, "other": tuple(other)},
                    (a, b),
                )

    verdict = "pass" if not violations else "fail"
    return AxiomReport(
        verdict, tuple(violations), f"sampled(seed={seed}, count={samples})"
    )


def _random_product_values(space, rng):
    return tuple(grid_draw(space, rng, -32, 32) for _ in range(space.n))


@lru_cache(maxsize=2048)
def _product_probe_batches(space, seed, samples):
    """Cached random batches for monotone / shift / off-support probes."""
    rng = random.Random(seed + 0xC0FFEE)
    mono = []
    for _ in range(samples):
        lo = _random_product_values(space, rng)
        hi = tuple(v + grid_draw(space, rng, 0, 12) for v in lo)
        mono.append((lo, hi))
    shifts = []
    for _ in range(samples // 2):
        chi = _random_product_values(space, rng)
        shift = rng.randint(-8, 8)
        if not space.exact:
            shift = shift / 2.0
        shifts.append((chi, shift))
    bumps = []
    for _ in range(samples // 2):
        chi = _random_product_values(space, rng)
        row = tuple(grid_draw(space, rng, 0, 12) for _ in range(space.n))
        bumps.append((chi, row))
    return tuple(mono), tuple(shifts), tuple(bumps)


# ---------------------------------------------------------------------------
# gluing


def triple_space(space: FiniteMetricSpace) -> FiniteMetricSpace:
    return product_space(product_space(space, space), space)


def glue(
    m12: RiskMeasure,
    m23: RiskMeasure,
    base: FiniteMetricSpace,
    samples: int = 64,
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
    eq = equal_measures(mid12, mid23, samples=samples, seed=seed)
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
