import dataclasses
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import riskdist as rd
from riskdist.capacity import (
    Capacity,
    exhaustive_support_mask,
    pushforward_capacity,
)
from riskdist.ensembles import derive_rng, random_capacity
from riskdist.errors import InvalidParams

F = Fraction


def layer_cake(cap: Capacity, values) -> Fraction:
    """Independent Choquet oracle: sum of layer widths times capacities."""
    levels = sorted(set(values))
    total = levels[0]
    for lo, hi in zip(levels, levels[1:]):
        mask = sum(1 << i for i, v in enumerate(values) if v >= hi)
        total += (hi - lo) * cap.table[mask]
    return total


class TestChoquetEval:
    def test_additive_is_expectation(self):
        space = rd.validate_metric(["a", "b"], [[0, 1], [1, 0]])
        cap = rd.expectation(space, (F(1, 2), F(1, 2)))
        phi = rd.PointFunction(space, (2, 4))
        assert rd.choquet_eval(cap, phi) == 3

    def test_unanimity_is_min(self, p3):
        cap = rd.unanimity(p3)
        phi = rd.PointFunction(p3, (2, 4, 1))
        assert rd.choquet_eval(cap, phi) == 1

    def test_hand_example_against_layer_cake(self):
        space = rd.validate_metric(["a", "b"], [[0, 1], [1, 0]])
        cap = Capacity(space, (F(0), F(3, 10), F(1, 2), F(1)))
        phi = rd.PointFunction(space, (2, 1))
        # (2 - 1) * v({a}) + 1 * v(X)
        assert rd.choquet_eval(cap, phi) == F(13, 10)
        assert layer_cake(cap, phi.values) == F(13, 10)

    def test_layer_cake_agreement_on_random_instances(self, cycle4):
        rng = derive_rng(11, "layer-cake")
        for _ in range(60):
            cap = random_capacity(cycle4, rng)
            values = tuple(rng.randint(-6, 6) for _ in range(4))
            assert cap.choquet(values) == layer_cake(cap, values)

    def test_indicator_recovers_capacity(self, cycle4):
        rng = derive_rng(3, "indicators")
        cap = random_capacity(cycle4, rng)
        for mask in range(16):
            phi = rd.PointFunction.indicator(cycle4, mask)
            assert rd.choquet_eval(cap, phi) == cap.table[mask]

    def test_tie_breaking_irrelevant(self, cycle4):
        rng = derive_rng(5, "ties")
        for _ in range(30):
            cap = random_capacity(cycle4, rng)
            values = tuple(rng.choice((0, 1, 1, 2)) for _ in range(4))
            want = cap.choquet(values)
            # every total order consistent with descending values gives the
            # same rearrangement sum
            for order in permutations(range(4)):
                if any(
                    values[order[k]] < values[order[k + 1]] for k in range(3)
                ):
                    continue
                total = values[order[-1]]
                mask = 0
                for k in range(3):
                    mask |= 1 << order[k]
                    total += (values[order[k]] - values[order[k + 1]]) * cap.table[mask]
                assert total == want

    def test_comonotone_additivity(self, cycle4):
        rng = derive_rng(7, "comonotone")
        for _ in range(40):
            cap = random_capacity(cycle4, rng)
            order = list(range(4))
            rng.shuffle(order)
            steps1 = sorted(rng.randint(-5, 5) for _ in range(4))
            steps2 = sorted(rng.randint(-5, 5) for _ in range(4))
            phi = [0] * 4
            psi = [0] * 4
            for rank, point in enumerate(order):
                phi[point] = steps1[rank]
                psi[point] = steps2[rank]
            both = tuple(a + b for a, b in zip(phi, psi))
            assert cap.choquet(both) == cap.choquet(tuple(phi)) + cap.choquet(
                tuple(psi)
            )


class TestCapacityValidation:
    def test_rejects_nonmonotone(self):
        space = rd.validate_metric(["a", "b"], [[0, 1], [1, 0]])
        # v({a}) > v({a,b})
        with pytest.raises(InvalidParams):
            Capacity(space, (F(0), F(3, 2), F(1, 4), F(1)))
        # v(X) != 1
        with pytest.raises(InvalidParams):
            Capacity(space, (F(0), F(1, 4), F(1, 4), F(1, 2)))

    def test_rejects_table_size(self, p3):
        with pytest.raises(InvalidParams):
            Capacity(p3, (F(0), F(1)))


class TestConstructors:
    def test_var_quantile_definition(self, p3):
        weights = (F(1, 20), F(9, 20), F(1, 2))
        level = F(19, 20)
        cap = rd.var_quantile(p3, weights, level)
        p = rd.expectation(p3, weights)
        for mask in range(1, 8):
            expected = 1 if p.table[mask] > 1 - level else 0
            assert cap.table[mask] == expected

    def test_cvar_distortion(self, p3):
        weights = (F(1, 2), F(1, 4), F(1, 4))
        cap = rd.cvar(p3, weights, F(1, 2))
        p = rd.expectation(p3, weights)
        for mask in range(8):
            assert cap.table[mask] == min(p.table[mask] / F(1, 2), F(1))

    def test_possibility_is_max(self, p3):
        cap = rd.possibility(p3)
        phi = rd.PointFunction(p3, (2, 4, 1))
        assert rd.choquet_eval(cap, phi) == 4

    def test_cvar_level_one_rejected(self, p3):
        with pytest.raises(InvalidParams):
            rd.cvar(p3, (F(1), F(0), F(0)), F(1))


class TestPushforwardCapacity:
    def test_identity(self, p3):
        rng = derive_rng(13, "push")
        cap = random_capacity(p3, rng)
        assert pushforward_capacity(cap, (0, 1, 2), p3).table == cap.table

    def test_constant_map_gives_point_mass(self, p3):
        rng = derive_rng(17, "push2")
        cap = random_capacity(p3, rng)
        out = pushforward_capacity(cap, (1, 1, 1), p3)
        assert out.table == rd.dirac_capacity(p3, 1).table

    def test_indicator_equivalence(self, p3, cycle4):
        rng = derive_rng(19, "push3")
        for _ in range(20):
            cap = random_capacity(cycle4, rng)
            fmap = tuple(rng.randrange(3) for _ in range(4))
            out = pushforward_capacity(cap, fmap, p3)
            for mask in range(8):
                pre = sum(1 << i for i, t in enumerate(fmap) if mask >> t & 1)
                assert out.table[mask] == cap.table[pre]


class TestCapacitySupport:
    def test_carrier_by_construction(self, p3):
        # v(S) = v(S & {a}) for all S
        table = tuple(F(1) if m & 1 else F(0) for m in range(8))
        cap = Capacity(p3, table)
        assert cap.support_mask() == 1
        assert exhaustive_support_mask(cap) == 1

    def test_fast_path_matches_exhaustive(self, grid6):
        rng = derive_rng(23, "support")
        spaces = [grid6]
        for space in spaces:
            for _ in range(25):
                cap = random_capacity(space, rng)
                assert cap.support_mask() == exhaustive_support_mask(cap)

    def test_null_points_from_pushforward(self, p3, cycle4):
        rng = derive_rng(29, "support2")
        cap = random_capacity(p3, rng)
        # land everything inside two points of the 4-point space
        out = pushforward_capacity(cap, (0, 0, 1), cycle4)
        assert out.support_mask() | 0b0011 == 0b0011
        assert out.support_mask() == exhaustive_support_mask(out)


@given(seed=st.integers(0, 400))
@settings(deadline=None, max_examples=40)
def test_random_capacities_are_valid(seed):
    space = rd.validate_metric(
        ["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    )
    cap = random_capacity(space, derive_rng(seed, "gen"))
    assert cap.table[0] == 0
    assert cap.table[-1] == 1


# ---------------------------------------------------------------------------
# integer kernel: exact Choquet sums of int values against Fraction sums


FLAVOURS = ("additive", "belief", "distortion", "monotone")


def uniform_space(n: int, mode: str = "exact"):
    return rd.validate_metric(
        [f"p{i}" for i in range(n)],
        [[0 if i == j else 1 for j in range(n)] for i in range(n)],
        mode=mode,
    )


def rearrangement_sum(table, values):
    """The Fraction loop of the decreasing-rearrangement sum, as it ran
    before the integer kernel: the reference for result types."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    total = values[order[-1]]
    mask = 0
    for rank in range(len(values) - 1):
        mask |= 1 << order[rank]
        d = values[order[rank]] - values[order[rank + 1]]
        if d:
            total += d * table[mask]
    return total


@st.composite
def flavour_tables(draw):
    """(point count, table) of one of the four capacity flavours the
    benchmark generates, with Fraction entries as the JSON loader makes
    them; zero weights, masses and draws give zero entries."""
    n = draw(st.integers(1, 4))
    size = 1 << n
    flavour = draw(st.sampled_from(FLAVOURS))
    if flavour in ("additive", "distortion"):
        raw = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n).filter(any))
        w = [F(r, sum(raw)) for r in raw]
        k = 1 if flavour == "additive" else draw(st.sampled_from((1, 2, 3)))
        table = [
            sum((w[i] for i in range(n) if m >> i & 1), F(0)) ** k for m in range(size)
        ]
    elif flavour == "belief":
        masses = draw(
            st.dictionaries(
                st.integers(1, size - 1), st.integers(1, 4), min_size=1, max_size=n + 2
            )
        )
        total = sum(masses.values())
        table = [
            F(sum(v for s, v in masses.items() if s & ~m == 0), total)
            for m in range(size)
        ]
    else:
        draws = draw(st.lists(st.integers(0, 16), min_size=size - 1, max_size=size - 1))
        table = [F(0)] + [F(r, 16) for r in draws]
        for m in range(size):
            for i in range(n):
                if m >> i & 1:
                    table[m] = max(table[m], table[m & ~(1 << i)])
        top = table[-1]
        if top == 0:
            table = [F(m == size - 1) for m in range(size)]
        else:
            table = [v / top for v in table]
    return n, tuple(table)


INTS = st.integers(-32, 32)
FRACS = st.fractions(min_value=-32, max_value=32, max_denominator=12)


@st.composite
def kernel_inputs(draw, n):
    kind = draw(st.sampled_from(("int", "fraction", "mixed", "constant")))
    if kind == "constant":
        return (draw(st.one_of(INTS, FRACS)),) * n
    element = {"int": INTS, "fraction": FRACS, "mixed": st.one_of(INTS, FRACS)}[kind]
    return tuple(draw(st.lists(element, min_size=n, max_size=n)))


class TestIntegerKernel:
    @given(data=st.data())
    @settings(deadline=None, max_examples=300)
    def test_matches_fraction_sums_in_value_and_type(self, data):
        n, table = data.draw(flavour_tables())
        cap = Capacity(uniform_space(n), table)
        values = data.draw(kernel_inputs(n))
        got = cap.choquet(values)
        want = rearrangement_sum(table, values)
        assert got == want and type(got) is type(want)
        assert got == layer_cake(cap, values)
        if len(set(values)) == 1:
            # a constant input is returned as it is
            assert any(got is v for v in values)
        else:
            assert type(got) is Fraction

    def test_scaled_table_is_the_table_over_one_denominator(self):
        space = uniform_space(2)
        cap = Capacity(space, (F(0), F(1, 6), F(3, 4), F(1)))
        assert cap.scale == 12
        assert cap.scaled == (0, 2, 9, 12)
        assert cap == Capacity(space, cap.table)
        assert [f.name for f in dataclasses.fields(Capacity)] == [
            "space", "table", "null_mask",
        ]

    def test_int_entries_keep_the_fraction_loop_types(self, p3, cycle4):
        # the pushforward of an expectation reads v(empty) = int 0 on
        # subsets with an empty preimage; an int layer stays an int
        cap = pushforward_capacity(
            rd.expectation(p3, (F(1, 2), F(1, 4), F(1, 4))), (0, 0, 1), cycle4
        )
        assert type(cap.table[0b1000]) is int
        got = cap.choquet((0, 0, 0, 5))
        assert got == 0 and type(got) is int
        assert type(cap.choquet((3, 0, 0, 5))) is Fraction

    @given(data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_float_mode_is_bit_identical_to_the_loop(self, data):
        n, table = data.draw(flavour_tables())
        ftable = tuple(float(v) for v in table)
        cap = Capacity(uniform_space(n, mode="float"), ftable)
        values = tuple(
            data.draw(st.lists(st.integers(-128, 128), min_size=n, max_size=n))
        )
        values = tuple(v / 4.0 for v in values)
        got, want = cap.choquet(values), rearrangement_sum(ftable, values)
        assert type(got) is type(want) and repr(got) == repr(want)
