"""Seeded request generators for the three benchmark workloads.

The generators are the benchmark's own code: they build the JSON inputs that
``riskdist`` receives and never call into the package, so a change to the
package's samplers cannot change what is measured.  Every value is an exact
rational written as a ``"p/q"`` string.

A round is the workload's fixed list of requests; a run repeats whole rounds.
"""

from __future__ import annotations

import random
from fractions import Fraction

from checks import boundaries, census, parse_two_point

F = Fraction
FLAVOURS = ("additive", "belief", "distortion", "monotone")


# ---------------------------------------------------------------------------
# spaces: the five fixture spaces of the test suite


def _grid6():
    pts = [f"{i}{j}" for i in range(2) for j in range(3)]
    return pts, [[abs(a // 3 - b // 3) + abs(a % 3 - b % 3) for b in range(6)] for a in range(6)]


def _star5():
    w = {"o": 0, "p": 1, "q": 2, "r": 3, "s": 4}
    return list(w), [[0 if a == b else w[a] + w[b] for b in w] for a in w]


def _cycle4():
    return list("abcd"), [[min(abs(i - j), 4 - abs(i - j)) for j in range(4)] for i in range(4)]


SPACES = {
    "two-point": (["x", "y"], [[0, F(5, 2)], [F(5, 2), 0]]),
    "path3": (list("abc"), [[abs(i - j) for j in range(3)] for i in range(3)]),
    "cycle4": _cycle4(),
    "star5": _star5(),
    "grid6": _grid6(),
}


def space_json(name: str) -> dict:
    labels, dist = SPACES[name]
    return {"points": labels, "dist": [[str(F(v)) for v in row] for row in dist]}


def rng_for(seed: int, name: str) -> random.Random:
    # str seeds hash with sha512, so streams are stable across processes
    return random.Random(f"riskdist-bench:{seed}:{name}")


# ---------------------------------------------------------------------------
# capacity-tier measures


def _simplex(rng: random.Random, k: int) -> list[Fraction]:
    while True:
        raw = [rng.randint(0, 8) for _ in range(k)]
        if sum(raw):
            return [F(r, sum(raw)) for r in raw]


def _key(labels, mask: int) -> str:
    return ",".join(labels[i] for i in range(len(labels)) if mask >> i & 1)


def _table_json(labels, table) -> dict:
    return {
        "type": "choquet",
        "capacity": {_key(labels, m): str(v) for m, v in enumerate(table) if m},
    }


def random_choquet(rng: random.Random, labels, flavour: str) -> dict:
    """A random capacity of one of four flavours, as a full table."""
    n = len(labels)
    size = 1 << n
    if flavour == "additive":
        w = _simplex(rng, n)
        table = [sum(w[i] for i in range(n) if m >> i & 1) for m in range(size)]
    elif flavour == "belief":
        masses: dict[int, int] = {}
        for _ in range(rng.randint(1, n + 2)):
            focal = rng.randint(1, size - 1)
            masses[focal] = masses.get(focal, 0) + rng.randint(1, 4)
        total = sum(masses.values())
        table = [F(sum(v for s, v in masses.items() if s & ~m == 0), total) for m in range(size)]
    elif flavour == "distortion":
        w = _simplex(rng, n)
        k = rng.choice((1, 2, 3))
        table = [sum(w[i] for i in range(n) if m >> i & 1) ** k for m in range(size)]
    else:  # monotone noise pushed up to a monotone table, then normalised
        table = [F(0)] + [F(rng.randint(0, 16), 16) for _ in range(size - 1)]
        for m in range(size):
            for i in range(n):
                if m >> i & 1:
                    table[m] = max(table[m], table[m & ~(1 << i)])
        top = table[-1]
        if top == 0:
            table = [F(m == size - 1) for m in range(size)]
        else:
            table = [v / top for v in table]
    return _table_json(labels, table)


LEVELS = ("1/4", "1/2", "3/4", "9/10")


def capacity_measure(rng: random.Random, labels, kind: str, flavour: str = "") -> dict:
    """One capacity-tier measure spec of the given kind."""
    n = len(labels)
    if kind == "dirac":
        return {"type": "dirac", "point": rng.choice(labels)}
    if kind == "choquet":
        return random_choquet(rng, labels, flavour or rng.choice(FLAVOURS))
    if kind == "expectation":
        return {"type": "expectation", "weights": [str(w) for w in _simplex(rng, n)]}
    if kind in ("var", "cvar"):
        return {
            "type": kind,
            "level": rng.choice(LEVELS),
            "weights": [str(w) for w in _simplex(rng, n)],
        }
    if kind in ("unanimity", "possibility"):
        return {"type": kind}
    if kind == "mixture":
        parts = [
            capacity_measure(rng, labels, "dirac"),
            capacity_measure(rng, labels, "choquet"),
        ]
        return {
            "type": "mixture",
            "weights": [str(w) for w in _simplex(rng, 2)],
            "components": parts,
        }
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# exact-distance

# Pair slots per space instance.  The special slots have closed-form answers
# the checker knows: Dirac pairs give d(x, y), (unanimity, possibility) the
# diameter, additive pairs the transport oracle.
DISTANCE_SLOTS = (
    ("dirac", "dirac"),
    ("unanimity", "possibility"),
    ("expectation", "expectation"),
    ("choquet", "choquet"),
    ("var", "cvar"),
    ("mixture", "choquet"),
    ("cvar", "expectation"),
    ("choquet", "dirac"),
)
REVERSED_SLOTS = (3, 5)  # also sent with the measures swapped
# Instances per space, weighted toward the larger spaces: 140 requests a
# round, so more than ten lie beyond the 90th percentile.
DISTANCE_WEIGHTS = {"two-point": 2, "path3": 2, "cycle4": 2, "star5": 4, "grid6": 4}


def exact_distance_round(seed: int) -> list[dict]:
    rng = rng_for(seed, "exact-distance")
    out = []
    for space, copies in DISTANCE_WEIGHTS.items():
        labels = SPACES[space][0]
        for copy in range(copies):
            for slot, (ka, kb) in enumerate(DISTANCE_SLOTS):
                # cycle the capacity flavours so every round holds all four
                fa = FLAVOURS[(slot + copy) % 4]
                fb = FLAVOURS[(slot + copy + 1) % 4]
                a = capacity_measure(rng, labels, ka, fa)
                b = capacity_measure(rng, labels, kb, fb)
                out.append({"space": space, "measures": [a, b]})
                if slot in REVERSED_SLOTS:
                    out.append({"space": space, "measures": [b, a]})
    return out


# ---------------------------------------------------------------------------
# mixed-matrix

BASE_KINDS = ("choquet", "choquet", "expectation", "cvar", "var", "mixture")
# (kind, arity) of the lattice members; components are drawn from the base
LATTICE_SHAPES = (("max", 2), ("min", 2), ("max", 3), ("min", 3))
FAMILY_MEMBERS = 2  # census-sound family members, on the two-point space only
# Pools per space and round.  The median command then falls inside the
# star5 cluster of costs, not in a gap between two spaces' clusters.
MATRIX_POOLS = {"two-point": 1, "path3": 1, "cycle4": 1, "star5": 3, "grid6": 2}


def mixed_matrix_round(seed: int) -> list[dict]:
    """Pools on every fixture space.  Each pool entry carries the spec, plus
    the pool indices of its parts when it is a lattice member."""
    out = []
    for space, copies in MATRIX_POOLS.items():
        labels = SPACES[space][0]
        for copy in range(copies):
            rng = rng_for(seed, f"mixed-matrix:{space}:{copy}")
            pool = [
                {"spec": capacity_measure(rng, labels, kind, FLAVOURS[(i + copy) % 4])}
                for i, kind in enumerate(BASE_KINDS)
            ]
            base = len(pool)
            for kind, arity in LATTICE_SHAPES:
                parts = sorted(rng.sample(range(base), arity))
                pool.append(
                    {
                        "spec": {"type": kind, "components": [pool[p]["spec"] for p in parts]},
                        "parts": parts,
                    }
                )
            if space == "two-point":
                while len(pool) < base + len(LATTICE_SHAPES) + FAMILY_MEMBERS:
                    spec = two_point_spec(rng)
                    if not census(parse_two_point(spec)):
                        pool.append({"spec": spec})
            out.append({"space": space, "pool": pool})
    return out


# ---------------------------------------------------------------------------
# two-point-validate


def _neg_pair(rng):
    pattern = rng.choice(("zero", "one-finite", "one-inf"))
    if pattern == "zero":
        return ["0", "0"]
    other = "-inf" if pattern == "one-inf" else str(-rng.randint(1, 4))
    pair = ["0", other]
    rng.shuffle(pair)
    return pair


def _pos_pair(rng):
    pattern = rng.choice(("zero", "one-finite", "one-inf"))
    if pattern == "zero":
        return ["0", "0"]
    other = "inf" if pattern == "one-inf" else str(rng.randint(1, 4))
    pair = ["0", other]
    rng.shuffle(pair)
    return pair


def _shape_knots(rng):
    style = rng.choice(("zero", "identity", "kinked"))
    if style == "zero":
        return [[F(0), F(0)]]
    if style == "identity":
        return [[F(-8), F(-8)], [F(0), F(0)], [F(8), F(8)]]
    # concave left of 0, convex right of 0: walking away from the origin on
    # either side the slopes grow
    neg = sorted(F(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 3)))
    pos = sorted(F(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 3)))
    right = [[F(0), F(0)]]
    for s in pos:
        t = right[-1][0] + rng.randint(1, 3)
        right.append([t, right[-1][1] + s * (t - right[-1][0])])
    left = []
    t = y = F(0)
    for s in neg:
        step = rng.randint(1, 3)
        t, y = t - step, y - s * step
        left.append([t, y])
    return list(reversed(left)) + right


def two_point_spec(rng: random.Random) -> dict:
    """A family member drawn the way the package's ensemble draws one:
    simplex weights, each shift pair zero, one finite or one infinite, and a
    zero, identity or kinked shape."""
    alphas = _simplex(rng, 4)
    return {
        "type": "two-point",
        "alpha": [str(a) for a in alphas],
        "lambda": _neg_pair(rng) + _pos_pair(rng),
        "f": {"knots": [[str(t), str(y)] for t, y in _shape_knots(rng)]},
    }


# Whether validate's random probes see a small defect depends on the set, so
# which seeded sets fail would change with the workload seed.  A seeded
# defective set is therefore kept only when it has a jump of at least
# GROSS_JUMP: jumps sit at branch boundaries, which validate probes with a
# bump of 1/10 on either side, and g has slopes in [0, 2], so validate sees
# every jump above 1/5.  The filter drops 18.7 % of the stream.
GROSS_JUMP = F(1, 4)

# Seeded sets per round, by stratum (kind, number of branch boundaries,
# whether the census finds a slope defect): the shares of the filtered
# stream times 108, by largest remainder.  ``python3 bench/workloads.py
# 20000`` measures them: 11.9, 49.8 and 18.3 % sound sets with 0, 1 and 2
# boundaries; 5.6 and 8.1 % gross sets with 1 and 2 boundaries and no slope
# defect, 2.3 and 4.0 % with a slope defect.  Filling fixed quotas in the
# order the stream draws the sets keeps the mix, and so the cost of a
# round, the same for every seed: each boundary adds 32 probe pairs, and a
# slope defect makes validate record hundreds of violations.
QUOTAS = {
    ("sound", 0, False): 13,
    ("sound", 1, False): 54,
    ("sound", 2, False): 20,
    ("gross", 1, False): 6,
    ("gross", 1, True): 2,
    ("gross", 2, False): 9,
    ("gross", 2, True): 4,
}

# Seed-independent sets, in every round: sets 144 and 251 of the acceptance
# suite's two-point stream.  Each has one jump of 1/48 at a branch boundary,
# smaller than the boundary probe's bump times the slope, so validate passes
# them although the census finds them defective.  They are the workload's
# failed requests until that fault is mended.
FIXED_SETS = (
    {
        "type": "two-point",
        "alpha": ["1/4", "5/24", "1/3", "5/24"],
        "lambda": ["0", "-2", "0", "0"],
        "f": {"knots": [["-7", "-3/2"], ["-4", "0"], ["-2", "0"], ["0", "0"], ["3", "3/4"]]},
    },
    {
        "type": "two-point",
        "alpha": ["1/4", "1/6", "1/12", "1/2"],
        "lambda": ["0", "-1", "0", "0"],
        "f": {
            "knots": [["-4", "-2"], ["-1", "-1/2"], ["0", "0"], ["1", "1/4"], ["3", "5/4"], ["5", "11/4"]]
        },
    },
)


def stratum(spec: dict):
    """The QUOTAS key of a seeded set, or None when the filter drops it."""
    params = parse_two_point(spec)
    defects = census(params)
    if not defects:
        kind = "sound"
    elif any(d.jump is not None and abs(d.jump) >= GROSS_JUMP for d in defects):
        kind = "gross"
    else:
        return None
    return kind, len(boundaries(params)), any(d.jump is None for d in defects)


def two_point_validate_round(seed: int) -> list[dict]:
    rng = rng_for(seed, "two-point-validate")
    need = dict(QUOTAS)
    seeded = []
    while any(need.values()):
        spec = two_point_spec(rng)
        key = stratum(spec)
        if need.get(key):
            need[key] -= 1
            seeded.append(spec)
    return [{"spec": s} for s in seeded + list(FIXED_SETS)]


ROUNDS = {
    "exact-distance": exact_distance_round,
    "mixed-matrix": mixed_matrix_round,
    "two-point-validate": two_point_validate_round,
}


if __name__ == "__main__":
    # python3 bench/workloads.py DRAWS: the stratum shares behind QUOTAS
    import sys
    from collections import Counter

    draws = int(sys.argv[1])
    rng = rng_for(0, "stream-shares")
    counts = Counter(stratum(two_point_spec(rng)) for _ in range(draws))
    kept = draws - counts.pop(None, 0)
    print(f"kept {kept} of {draws} draws ({kept / draws:.1%})")
    for key, n in sorted(counts.items()):
        print(key, f"{n / kept:.1%}", f"{n / kept * 108:.1f} of 108")
