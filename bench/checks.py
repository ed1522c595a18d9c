"""Output checkers that compute their own answers.

Nothing here compares with a stored copy of earlier output.  Each checker
rebuilds what it needs from the request JSON: capacity tables from their
definitions, Choquet sums, the two-point family's branch table as the
package documents it, the exact capacity-tier coupling criterion, and
properties every bottleneck distance has (Lipschitz control, the metric
axioms, the lattice bound).  The only call into the package is the
transport oracle, which decides additive pairs by subset exhaustion plus
max flow and shares no code with the coupling module.

Every ``check_*`` function returns a list of error strings; empty means the
output is correct.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple, Optional

F = Fraction
INF = float("inf")


def num(x):
    """Parse a JSON scalar as the package writes and reads it."""
    if isinstance(x, str):
        s = x.strip()
        if s in ("inf", "+inf"):
            return INF
        if s == "-inf":
            return -INF
        return F(s)
    return F(x)


class Space(NamedTuple):
    labels: list
    dist: list  # Fractions

    @classmethod
    def from_json(cls, obj: dict) -> "Space":
        return cls(list(obj["points"]), [[num(v) for v in row] for row in obj["dist"]])

    @property
    def n(self) -> int:
        return len(self.labels)

    def levels(self) -> list:
        return sorted({v for row in self.dist for v in row})

    def diameter(self):
        return max(max(row) for row in self.dist)


# ---------------------------------------------------------------------------
# capacity tables and Choquet sums


def _mask(space: Space, labels) -> int:
    return sum(1 << space.labels.index(lab) for lab in labels)


def table_of(spec: dict, space: Space) -> Optional[list]:
    """The capacity table of a capacity-tier spec, built from the documented
    definition of its type; None for lattice and family members."""
    kind = spec["type"]
    n = space.n
    size = 1 << n
    if kind == "dirac":
        i = space.labels.index(spec["point"])
        return [F(m >> i & 1) for m in range(size)]
    if kind == "choquet":
        table = [F(0)] * size
        for key, v in spec["capacity"].items():
            table[_mask(space, [k for k in key.split(",") if k])] = num(v)
        return table
    if kind in ("expectation", "var", "cvar"):
        w = [num(x) for x in spec["weights"]]
        p = [sum(w[i] for i in range(n) if m >> i & 1) for m in range(size)]
        if kind == "expectation":
            return p
        level = num(spec["level"])
        if kind == "var":
            return [F(p[m] > 1 - level or m == size - 1) for m in range(size)]
        return [min(p[m] / (1 - level), F(1)) for m in range(size)]
    if kind in ("unanimity", "possibility"):
        sub = _mask(space, spec["points"]) if "points" in spec else size - 1
        if kind == "unanimity":
            return [F(m & sub == sub) for m in range(size)]
        return [F(m & sub != 0) for m in range(size)]
    if kind == "mixture":
        parts = [table_of(c, space) for c in spec["components"]]
        if any(p is None for p in parts):
            return None
        w = [num(x) for x in spec["weights"]]
        return [sum(wi * p[m] for wi, p in zip(w, parts)) for m in range(size)]
    return None


def choquet_sum(table: list, phi) -> Fraction:
    """Layer-cake form: min phi plus, for each step up between consecutive
    distinct values u < u', (u' - u) times the capacity of {phi >= u'}."""
    steps = sorted(set(phi))
    total = steps[0]
    for lo, hi in zip(steps, steps[1:]):
        upper = sum(1 << i for i, v in enumerate(phi) if v >= hi)
        total += (hi - lo) * table[upper]
    return total


def value(spec: dict, space: Space, phi) -> Fraction:
    """mu(phi) for any spec the workloads send."""
    kind = spec["type"]
    if kind == "max":
        return max(value(c, space, phi) for c in spec["components"])
    if kind == "min":
        return min(value(c, space, phi) for c in spec["components"])
    if kind == "two-point":
        return two_point_value(parse_two_point(spec), phi[0], phi[1])[0]
    return choquet_sum(table_of(spec, space), phi)


# ---------------------------------------------------------------------------
# the exact capacity-tier criterion, recomputed


def capacity_distance(space: Space, t1: list, t2: list):
    """Smallest distance level t whose sublevel relation S admits a coupling.

    S holds the diagonal, so both projections are full.  A coupling exists
    iff t1(inner(B)) <= t2(B) and t2(inner'(B)) <= t1(B) for every subset B,
    where inner(B) holds the points whose whole S-section lies in B and
    inner' does the same with inverse sections.  S is symmetric here, so
    both use the same sections.
    """
    n = space.n
    for t in space.levels():
        sections = [sum(1 << j for j in range(n) if space.dist[i][j] <= t) for i in range(n)]
        ok = True
        for b in range(1 << n):
            inner = sum(1 << i for i in range(n) if sections[i] & ~b == 0)
            if t1[inner] > t2[b] or t2[inner] > t1[b]:
                ok = False
                break
        if ok:
            return t
    raise AssertionError("the diameter level always admits a coupling")


# ---------------------------------------------------------------------------
# Lipschitz control


def probes(space: Space, rng: random.Random, randoms: int) -> list:
    """Subset indicators, distance-to-point functions and seeded integers."""
    n = space.n
    out = [tuple(F(m >> i & 1) for i in range(n)) for m in range(1 << n)]
    out += [tuple(space.dist[j][i] for j in range(n)) for i in range(n)]
    out += [tuple(F(rng.randint(-16, 16)) for _ in range(n)) for _ in range(randoms)]
    return out


def modulus(space: Space, phi, t) -> Fraction:
    n = space.n
    return max(
        abs(phi[i] - phi[j]) for i in range(n) for j in range(n) if space.dist[i][j] <= t
    )


def lipschitz_errors(space, values_a, values_b, d, grid, label) -> list:
    """|mu(phi) - nu(phi)| <= omega_phi(d) on every probe: a coupling at
    level d moves mass only between points at most d apart."""
    for phi, a, b in zip(grid, values_a, values_b):
        if abs(a - b) > modulus(space, phi, d):
            return [f"lipschitz: {label}: |mu-nu| = {abs(a - b)} at phi={phi} exceeds the modulus at d={d}"]
    return []


# ---------------------------------------------------------------------------
# the two-point family, from the branch table the package documents


class TwoPoint(NamedTuple):
    alphas: tuple
    lambdas: tuple
    knots: tuple


def parse_two_point(spec: dict) -> TwoPoint:
    return TwoPoint(
        tuple(num(a) for a in spec["alpha"]),
        tuple(num(x) for x in spec["lambda"]),
        tuple((num(t), num(y)) for t, y in spec["f"]["knots"]),
    )


def shape(knots, t) -> Fraction:
    """Piecewise-linear f through the knots, extended linearly past the
    end knots; a single knot is the zero function."""
    if len(knots) == 1:
        return F(0)
    segments = list(zip(knots, knots[1:]))
    if t <= knots[0][0]:
        (t0, y0), (t1, y1) = segments[0]
    elif t >= knots[-1][0]:
        (t0, y0), (t1, y1) = segments[-1]
    else:
        (t0, y0), (t1, y1) = next(s for s in segments if s[0][0] <= t <= s[1][0])
    return y0 + (y1 - y0) / (t1 - t0) * (t - t0)


def two_point_value(p: TwoPoint, phi0, phi1) -> tuple:
    """(value, branch) of a family member.

    value = a1 phi0 + a2 phi1 + a3 max(phi0 + l1, phi1 + l2)
            + a4 min(phi0 + l3, phi1 + l4) + w f(phi1 - phi0),
    with w from the first matching row of the printed table:
      1. a3 = a4 = 0                          min(a1, a2)
      2. c1 and c2 (<=)                       min(a1 + a3 + a4, a2)
      3. c1 and not c2 (<=)                   min(a1 + a3, a2 + a4)
      4. not c1 and c2 (>=)                   min(a1 + a4, a2 + a3)
      5. not c1 and not c2 (<=)               min(a1, a2 + a3 + a4)
      otherwise (uncovered region)            row 5's weight, branch 0
    where c1: phi0 + l1 >= phi1 + l2 and c2 compares phi0 + l3 with
    phi1 + l4.
    """
    a1, a2, a3, a4 = p.alphas
    l1, l2, l3, l4 = p.lambdas
    total = a1 * phi0 + a2 * phi1
    if a3:
        total += a3 * max(phi0 + l1, phi1 + l2)
    if a4:
        total += a4 * min(phi0 + l3, phi1 + l4)
    c1 = phi0 + l1 >= phi1 + l2
    le = phi0 + l3 <= phi1 + l4
    ge = phi0 + l3 >= phi1 + l4
    if a3 == 0 and a4 == 0:
        w, branch = min(a1, a2), 1
    elif c1 and le:
        w, branch = min(a1 + a3 + a4, a2), 2
    elif c1:
        w, branch = min(a1 + a3, a2 + a4), 3
    elif ge:
        w, branch = min(a1 + a4, a2 + a3), 4
    elif not le:
        w, branch = min(a1, a2 + a3 + a4), 5
    else:
        w, branch = min(a1, a2 + a3 + a4), 0
    if w:
        total += w * shape(p.knots, phi1 - phi0)
    return total, branch


class Defect(NamedTuple):
    lo: object  # a slope defect spans (lo, hi); a jump has lo = hi
    hi: object
    jump: Optional[Fraction] = None  # signed size of a jump, None for a slope


def boundaries(p: TwoPoint) -> set:
    """The finite values of t = phi1 - phi0 where a branch test switches."""
    l1, l2, l3, l4 = p.lambdas
    return {a - b for a, b in ((l1, l2), (l3, l4)) if abs(a) != INF and abs(b) != INF}


def census(p: TwoPoint) -> list:
    """Every defect of a family member, decided exactly.

    The member is translation invariant and normed by construction, and
    mu(phi) = phi0 + g(phi1 - phi0) with g(t) = mu(0, t).  The branch tests
    depend on t alone and switch only at l1 - l2 and l3 - l4, and f is
    affine between its knots, so g is affine between consecutive
    breakpoints.  mu is monotone iff g is continuous and every slope of g
    lies in [0, 1].
    """
    points = sorted({F(0), *(t for t, _ in p.knots), *boundaries(p)})
    ends = [-INF, *points, INF]
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        if lo == -INF:
            x1, x2 = hi - 2, hi - 1
        elif hi == INF:
            x1, x2 = lo + 1, lo + 2
        else:
            x1, x2 = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
        (g1, b1), (g2, b2) = two_point_value(p, F(0), x1), two_point_value(p, F(0), x2)
        if b1 != b2:
            raise AssertionError("branch switch between breakpoints")
        slope = (g2 - g1) / (x2 - x1)
        pieces.append((lo, hi, slope, g1 - slope * x1))
    defects = [Defect(lo, hi) for lo, hi, slope, _ in pieces if not 0 <= slope <= 1]
    for b, left, right in zip(points, pieces, pieces[1:]):
        here = two_point_value(p, F(0), b)[0]
        for jump in (here - (left[2] * b + left[3]), right[2] * b + right[3] - here):
            if jump:
                defects.append(Defect(b, b, jump))
    return defects


def recheck_violation(p: TwoPoint, violation: dict) -> list:
    """Re-derive a reported axiom violation from its witness alone."""
    axiom = violation["axiom"]
    wit = violation["witness"]
    got = [num(v) for v in violation["values"]]
    if axiom == "monotonicity":
        lo, hi = [num(v) for v in wit["lo"]], [num(v) for v in wit["hi"]]
        a, b = two_point_value(p, *lo)[0], two_point_value(p, *hi)[0]
        if not (lo[0] <= hi[0] and lo[1] <= hi[1] and a > b and got == [a, b]):
            return [f"recheck: monotonicity witness lo={lo} hi={hi} gives {a}, {b}"]
        return []
    if axiom == "value-envelope":
        phi = [num(v) for v in wit["phi"]]
        a = two_point_value(p, *phi)[0]
        if min(phi) <= a <= max(phi) or got != [a]:
            return [f"recheck: value-envelope witness phi={phi} gives {a}"]
        return []
    # the family is translation invariant and normed by construction
    return [f"recheck: {axiom} violation reported on a family member"]


# ---------------------------------------------------------------------------
# per-request checkers; each error starts with the name of the check that
# raised it


def check_distance(req: dict, report: dict, rng: random.Random) -> list:
    space = Space.from_json(req["space_json"])
    spec_a, spec_b = req["measures"]
    res = report["distance"]
    d = num(res["value"])
    errs = []
    ladder = [(num(step["level"]), step["status"]) for step in res["ladder"]]
    if [lv for lv, _ in ladder] != space.levels()[: len(ladder)]:
        errs.append(f"ladder: levels not scanned in order from 0: {ladder}")
    if [s for _, s in ladder] != ["infeasible"] * (len(ladder) - 1) + ["feasible"]:
        errs.append(f"ladder: not infeasible up to one feasible level: {ladder}")
    if ladder and ladder[-1][0] != d:
        errs.append(f"ladder: value {d} is not the feasible level {ladder[-1][0]}")
    if res["certification"] != "exact" or res["tier"] not in ("exact-choquet", "dirac"):
        errs.append(f"certification: capacity-tier pair certified {res['certification']}/{res['tier']}")
    idx = space.labels.index
    pairs = res["witness"]["support-pairs"] if res["witness"] else []
    cost = max((space.dist[idx(a)][idx(b)] for a, b in pairs), default=None)
    if cost != d:
        errs.append(f"witness: support cost {cost} differs from the value {d}")

    t1, t2 = table_of(spec_a, space), table_of(spec_b, space)
    want = capacity_distance(space, t1, t2)
    if d != want:
        errs.append(f"criterion: value {d}, the recomputed criterion gives {want}")
    kinds = (spec_a["type"], spec_b["type"])
    if kinds == ("dirac", "dirac"):
        want = space.dist[idx(spec_a["point"])][idx(spec_b["point"])]
        if d != want:
            errs.append(f"dirac: Dirac pair at {d}, d(x, y) = {want}")
    if sorted(kinds) == ["possibility", "unanimity"] and d != space.diameter():
        errs.append(f"diameter: (unanimity, possibility) at {d}, the diameter is {space.diameter()}")
    if kinds == ("expectation", "expectation"):
        want = transport_distance(req["space_json"], spec_a, spec_b)
        if d != want:
            errs.append(f"transport: additive pair at {d}, the transport oracle gives {want}")
    grid = probes(space, rng, 24)
    va = [choquet_sum(t1, phi) for phi in grid]
    vb = [choquet_sum(t2, phi) for phi in grid]
    return errs + lipschitz_errors(space, va, vb, d, grid, "pair")


def transport_distance(space_json: dict, spec_a: dict, spec_b: dict):
    """Bottleneck transport distance of two probability vectors, from the
    package's brute-force oracle (subset exhaustion plus max flow)."""
    from riskdist.io import load_space
    from riskdist.oracles import ProbabilityVector, winf_distance

    space = load_space(space_json)
    p, q = (
        ProbabilityVector(space, tuple(num(w) for w in s["weights"])) for s in (spec_a, spec_b)
    )
    return winf_distance(p, q)


def check_matrix(req: dict, report: dict, rng: random.Random) -> list:
    space = Space.from_json(req["space_json"])
    pool = req["pool"]
    k = len(pool)
    cells = [[num(v) for v in row] for row in report["matrix"]]
    if len(cells) != k or any(len(row) != k for row in cells):
        return [f"shape: matrix is not {k} x {k}"]
    errs = []
    audit = report["audit"]["checks"]
    if not audit or not all(audit.values()):
        errs.append(f"audit: the program's own matrix audit failed: {audit}")
    levels = set(space.levels())
    for i, j in itertools.product(range(k), repeat=2):
        c = cells[i][j]
        if c != cells[j][i]:
            errs.append(f"symmetry: cell ({i},{j}) = {c}, ({j},{i}) = {cells[j][i]}")
        if i == j and c != 0:
            errs.append(f"diagonal: cell ({i},{i}) = {c}")
        if c not in levels:
            errs.append(f"levels: cell ({i},{j}) = {c} is not a ladder level")
    for i, j, l in itertools.product(range(k), repeat=3):
        if cells[i][j] > cells[i][l] + cells[l][j]:
            errs.append(f"triangle: ({i},{j},{l}): {cells[i][j]} > {cells[i][l]} + {cells[l][j]}")

    specs = [m["spec"] for m in pool]
    tables = [table_of(s, space) for s in specs]
    for i, j in itertools.combinations(range(k), 2):
        if tables[i] is not None and tables[j] is not None:
            want = capacity_distance(space, tables[i], tables[j])
            if cells[i][j] != want:
                errs.append(f"criterion: cell ({i},{j}) = {cells[i][j]}, recomputed {want}")
    errs += lattice_errors(pool, cells)
    grid = probes(space, rng, 16)
    values = [[value(s, space, phi) for phi in grid] for s in specs]
    for i, j in itertools.combinations(range(k), 2):
        errs += lipschitz_errors(space, values[i], values[j], cells[i][j], grid, f"cell ({i},{j})")
    return errs


def lattice_errors(pool: list, cells: list) -> list:
    """d(max A, max C) <= the Hausdorff distance between the part sets A and
    C under d, and the same for min: the max of couplings of matched parts
    couples the two maxima.  A plain member c counts as max {c} and min {c}.
    """
    errs = []

    def parts(i):
        return pool[i].get("parts", [i])

    def kind(i):
        return pool[i]["spec"]["type"] if "parts" in pool[i] else None

    for i, j in itertools.permutations(range(len(pool)), 2):
        if kind(i) is None or kind(j) not in (None, kind(i)):
            continue
        a, c = parts(i), parts(j)
        bound = max(
            max(min(cells[x][y] for y in c) for x in a),
            max(min(cells[x][y] for x in a) for y in c),
        )
        if cells[i][j] > bound:
            errs.append(f"lattice: cell ({i},{j}) = {cells[i][j]} exceeds the part bound {bound}")
    return errs


def check_validate(req: dict, report: dict) -> tuple[list, bool]:
    """Errors, and whether the request failed: a census-defective set that
    validate passes.  A fail verdict on a census-sound set is an error."""
    p = parse_two_point(req["spec"])
    defects = census(p)
    entries = report.get("measures") or []
    if len(entries) != 1:
        return [f"report: expected one verdict, got {len(entries)}"], False
    verdict, violations = entries[0]["verdict"], entries[0].get("violations", [])
    if verdict == "pass" and not violations:
        return [], bool(defects)
    if verdict != "fail" or not violations:
        return [f"report: verdict {verdict!r} with {len(violations)} violations"], False
    if not defects:
        return ["census: fail verdict on a census-sound set"], False
    errs = []
    for v in violations:
        errs += recheck_violation(p, v)
    return errs, False
