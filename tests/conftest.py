from fractions import Fraction

import pytest

import riskdist as rd
from riskdist.errors import SpaceMismatch
from riskdist.space import Relation


def make_two_point():
    h = Fraction(5, 2)
    return rd.validate_metric(["x", "y"], [[0, h], [h, 0]])


def make_path3():
    return rd.validate_metric(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def make_cycle4():
    d = [
        [0, 1, 2, 1],
        [1, 0, 1, 2],
        [2, 1, 0, 1],
        [1, 2, 1, 0],
    ]
    return rd.validate_metric(["a", "b", "c", "d"], d)


def make_star5():
    # tree metric: center o, leaves at weights 1, 2, 3, 4
    w = {"o": 0, "p": 1, "q": 2, "r": 3, "s": 4}
    labels = list(w)
    d = [
        [
            0 if a == b else (w[a] + w[b] if "o" not in (a, b) else w[a] + w[b])
            for b in labels
        ]
        for a in labels
    ]
    return rd.validate_metric(labels, d)


def make_grid6():
    # 2 x 3 grid with L1 distances
    pts = [f"{i}{j}" for i in range(2) for j in range(3)]
    d = [
        [abs(a // 3 - b // 3) + abs(a % 3 - b % 3) for b in range(6)]
        for a in range(6)
    ]
    return rd.validate_metric(pts, d)


def as_measure(witness):
    """A coupling witness as a black box on its product space."""
    return rd.black_box(
        witness.product, witness.evaluate_values, name=f"coupling[{witness.formula}]"
    )


def compose_relations(s, r):
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


def restricts_to(v, mask):
    """True iff v(S) = v(S & mask) for every subset S."""
    return all(v.table[s] == v.table[s & mask] for s in range(len(v.table)))


def exhaustive_support_mask(v):
    """Smallest carrier found by scanning candidates in increasing
    cardinality: the reference for the null-point fast path; cost 4^n."""
    n = v.space.n
    candidates = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    for mask in candidates:
        if restricts_to(v, mask):
            return mask
    return v.space.full_mask


def fixture_spaces():
    return [make_two_point(), make_path3(), make_cycle4(), make_star5(), make_grid6()]


@pytest.fixture
def two_point():
    return make_two_point()


@pytest.fixture
def p3():
    return make_path3()


@pytest.fixture
def cycle4():
    return make_cycle4()


@pytest.fixture
def grid6():
    return make_grid6()
