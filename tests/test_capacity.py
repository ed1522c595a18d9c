import dataclasses
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import riskdist as rd
from riskdist.capacity import (
    Capacity,
    exhaustive_support_mask,
    pushforward_capacity,
)
from riskdist.ensembles import derive_rng, random_capacity, random_simplex
from riskdist.errors import InputFormatError, InvalidParams
from riskdist.io import load_measure

from conftest import fixture_spaces

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


def uniform_space(n: int):
    return rd.validate_metric(
        [f"p{i}" for i in range(n)],
        [[0 if i == j else 1 for j in range(n)] for i in range(n)],
    )


def rearrangement_sum(table, values):
    """The decreasing-rearrangement sum read off the table, layer by layer:
    the reference for values, and, over a table of Fractions, for types."""
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


def INT_VALUES(rng):
    return rng.randint(-32, 32)


def FRACTION_VALUES(rng):
    return F(rng.randint(-64, 64), rng.randint(1, 12))


def MIXED_VALUES(rng):
    return rng.choice((INT_VALUES, FRACTION_VALUES))(rng)


def integer_built(space, rng) -> list:
    """One capacity of each constructor that builds it as integers."""
    n = space.n
    weights = random_simplex(rng, n)
    level = F(rng.randint(0, 9), 10)
    mask = rng.randrange(1, 1 << n)
    parts = [random_capacity(space, rng), rd.dirac_capacity(space, rng.randrange(n))]
    spec = {
        ",".join(space.labels[i] for i in range(n) if m >> i & 1): str(parts[0].table[m])
        for m in range(1, 1 << n)
    }
    return [
        rd.expectation(space, weights),
        rd.var_quantile(space, weights, level),
        rd.cvar(space, weights, level),
        rd.dirac_capacity(space, rng.randrange(n)),
        rd.unanimity(space, mask),
        rd.possibility(space, mask),
        rd.mix_capacities(random_simplex(rng, 2), parts),
        load_measure({"type": "choquet", "capacity": spec}, space).capacity,
    ]


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

    @pytest.mark.parametrize("space", fixture_spaces(), ids=lambda s: f"{s.n}-points")
    def test_integer_built_capacities_sum_as_their_tables(self, space):
        # each constructor that builds its capacity as integers, against the
        # reference sum over Capacity(space, table) of the same values
        rng = derive_rng(space.n, "integer-built")
        for cap in integer_built(space, rng):
            ref = Capacity(space, cap.table)
            assert cap == ref and hash(cap) == hash(ref) and repr(cap) == repr(ref)
            assert cap.scaled == ref.scaled and cap.scale == ref.scale
            assert cap.null_mask == ref.null_mask
            for _ in range(12):
                kind = rng.choice((INT_VALUES, FRACTION_VALUES, MIXED_VALUES))
                values = tuple(kind(rng) for _ in range(space.n))
                got = cap.choquet(values)
                want = rearrangement_sum(ref.table, values)
                assert got == want and type(got) is type(want), values

    def test_scaled_table_is_the_table_over_one_denominator(self):
        space = uniform_space(2)
        cap = Capacity(space, (F(0), F(1, 6), F(3, 4), F(1)))
        assert cap.scale == 12
        assert cap.scaled == (0, 2, 9, 12)
        assert cap == Capacity(space, cap.table)
        assert [f.name for f in dataclasses.fields(Capacity)] == ["space", "table"]
        with pytest.raises(TypeError):
            Capacity(space, cap.table, null_mask=0)

    @given(data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_float_entries_build_the_capacity_of_their_rationals(self, data):
        # a float entry from a Python caller is lifted to the Fraction it
        # equals, so the scans and the kernel never compare floats
        n, table = data.draw(flavour_tables())
        ftable = tuple(float(v) for v in table)
        lifted = tuple(F(x) for x in ftable)
        try:
            cap = Capacity(uniform_space(n), ftable)
        except InvalidParams:  # rounding broke monotonicity
            with pytest.raises(InvalidParams):
                Capacity(uniform_space(n), lifted)
            return
        assert cap.table == lifted and all(type(x) is F for x in cap.table)
        assert cap == Capacity(uniform_space(n), lifted)
        assert all(type(x) is int for x in cap.scaled)
        values = tuple(
            data.draw(st.lists(st.integers(-128, 128), min_size=n, max_size=n))
        )
        assert cap.choquet(values) == rearrangement_sum(lifted, values)


def test_float_entries_are_not_their_decimal_spellings():
    # a Python float 0.1 is the double nearest 1/10, not 1/10: the exact
    # tier sees two capacities, and neither distance nor equality says equal
    space = rd.validate_metric(["x", "y"], [[0, 1], [1, 0]])
    floats = rd.choquet_measure(Capacity(space, (0, 0.1, 0.9, 1)))
    decimals = rd.choquet_measure(Capacity(space, (F(0), F(1, 10), F(9, 10), F(1))))
    res = rd.bottleneck_distance(floats, decimals)
    assert res.value > 0 and res.tier == "exact-choquet"
    assert rd.equal_measures(floats, decimals).status == "no"


# ---------------------------------------------------------------------------
# constructors built on integers against the Fraction formulas they replace


def formula_expectation(space, weights):
    return tuple(
        sum(w for i, w in enumerate(weights) if mask >> i & 1)
        for mask in range(1 << space.n)
    )


def formula_var(space, weights, level):
    p = formula_expectation(space, weights)
    cut = 1 - level
    table = tuple(F(1) if v > cut else F(0) for v in p)
    return table[:-1] + (F(1),)


def formula_cvar(space, weights, level):
    p = formula_expectation(space, weights)
    return tuple(min(F(v) / (1 - level), F(1)) for v in p)


def formula_mixture(weights, tables):
    return tuple(
        sum(w * t[m] for w, t in zip(weights, tables)) for m in range(len(tables[0]))
    )


def formula_zero_one(space, member):
    return tuple(F(1) if member(m) else F(0) for m in range(1 << space.n))


def formula_json_table(space, capacity):
    table = [F(0)] + [None] * (space.full_mask)
    for key, raw in capacity.items():
        mask = 0
        if key.strip():
            for label in key.split(","):
                mask |= 1 << space.labels.index(label.strip())
        table[mask] = F(raw.strip())
    return tuple(table)


def formula_null_mask(table, n):
    null = 0
    for i in range(n):
        bit = 1 << i
        if all(table[m | bit] == table[m] for m in range(1 << n) if not m & bit):
            null |= bit
    return null


def formula_first_rise(table, n):
    for mask in range(1 << n):
        for i in range(n):
            if not mask >> i & 1 and table[mask] > table[mask | 1 << i]:
                return f"capacity not monotone: v({mask}) > v({mask | 1 << i})"
    return None


def same_entries(got, want):
    """Equal entry by entry, in value."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b, (a, b)


#: Choquet inputs of each kind the kernel tells apart: ints, Fractions,
#: mixed, and constants of either type
def choquet_inputs(n):
    ints = tuple(range(n, 0, -1))
    fracs = tuple(F(2 * i + 1, 3) for i in range(n))
    mixed = tuple(F(i, 2) if i % 2 else i for i in range(n))
    return [ints, ints[::-1], fracs, mixed, (3,) * n, (F(1, 3),) * n]


def assert_built_like(cap: Capacity, want):
    """``cap`` is the capacity of the table ``want``: it equals and hashes
    like ``Capacity(space, want)``, holds the same entries, and integrates
    to the same values."""
    space = cap.space
    ref = Capacity(space, want)
    assert cap == ref and hash(cap) == hash(ref)
    same_entries(cap.table, want)
    for values in choquet_inputs(space.n):
        assert cap.choquet(values) == ref.choquet(values), values
    assert cap.null_mask == formula_null_mask(want, space.n)
    scale = lcm(*(x.denominator for x in want))
    assert cap.scale == scale
    assert cap.scaled == tuple(x.numerator * (scale // x.denominator) for x in want)
    assert all(type(x) is int for x in cap.scaled)


def one_point():
    return rd.validate_metric(["o"], [[0]])


def as_float_space(space):
    """The same space with its distances written as floats, as JSON spells them."""
    return rd.validate_metric(
        list(space.labels), [[float(d) for d in row] for row in space.dist]
    )


def all_spaces():
    exact = [*fixture_spaces(), one_point()]
    return [pytest.param(s, id=f"{s.n}-exact") for s in exact] + [
        pytest.param(as_float_space(s), id=f"{s.n}-float") for s in exact
    ]


def weight_vectors(space, rng):
    """Fraction simplices with zeros, an int point mass and mixed types."""
    n = space.n
    out = [random_simplex(rng, n) for _ in range(4)]
    out.append(tuple(1 if i == n - 1 else 0 for i in range(n)))
    out.append((F(1, 1),) + (0,) * (n - 1))
    return out


LEVELS = (F(0), F(1, 4), F(1, 2), F(3, 4), F(9, 10), F(1), 0, 1)


@pytest.mark.parametrize("space", all_spaces())
class TestConstructorsKeepTheFractionFormulas:
    def test_expectation_var_and_cvar(self, space):
        rng = derive_rng(space.n, "formulas")
        for weights in weight_vectors(space, rng):
            assert_built_like(rd.expectation(space, weights), formula_expectation(space, weights))
            for level in LEVELS:
                assert_built_like(
                    rd.var_quantile(space, weights, level), formula_var(space, weights, level)
                )
                if level < 1:
                    assert_built_like(
                        rd.cvar(space, weights, level), formula_cvar(space, weights, level)
                    )

    def test_zero_one_capacities(self, space):
        for point in range(space.n):
            assert_built_like(
                rd.dirac_capacity(space, point),
                formula_zero_one(space, lambda m: m >> point & 1),
            )
        for mask in range(1, 1 << space.n):
            assert_built_like(
                rd.unanimity(space, mask), formula_zero_one(space, lambda m: m & mask == mask)
            )
            assert_built_like(
                rd.possibility(space, mask), formula_zero_one(space, lambda m: m & mask)
            )

    def test_mixtures(self, space):
        rng = derive_rng(space.n, "mixtures")
        for _ in range(6):
            parts = [random_capacity(space, rng) for _ in range(rng.randint(1, 3))]
            parts.append(rd.dirac_capacity(space, rng.randrange(space.n)))
            for weights in (random_simplex(rng, len(parts)),
                            (1,) + (0,) * (len(parts) - 1)):
                want = formula_mixture(weights, [c.table for c in parts])
                assert_built_like(rd.mix_capacities(weights, parts), want)

    def test_pushforwards(self, space):
        rng = derive_rng(space.n, "pushforwards")
        for target in (one_point(), space):
            for _ in range(6):
                cap = random_capacity(space, rng)
                fmap = tuple(rng.randrange(target.n) for _ in range(space.n))
                want = tuple(
                    cap.table[sum(1 << i for i, t in enumerate(fmap) if m >> t & 1)]
                    for m in range(1 << target.n)
                )
                assert_built_like(pushforward_capacity(cap, fmap, target), want)

    def test_json_tables(self, space):
        rng = derive_rng(space.n, "json")
        for _ in range(6):
            cap = random_capacity(space, rng)
            spec = {}
            for m in range(1, 1 << space.n):
                labels = [space.labels[i] for i in range(space.n) if m >> i & 1]
                rng.shuffle(labels)
                spec[" , ".join(labels)] = f" {F(cap.table[m])} "
            loaded = load_measure({"type": "choquet", "capacity": spec}, space).capacity
            assert_built_like(loaded, formula_json_table(space, spec))

    def test_tables_are_built_on_first_read(self, space):
        # every integer-built capacity holds its ints alone until its table
        # is read, and equality, hashing and repr build it as they read it
        weights = random_simplex(derive_rng(space.n, "lazy"), space.n)
        built = [
            rd.expectation(space, weights),
            rd.var_quantile(space, weights, F(1, 2)),
            rd.cvar(space, weights, F(1, 2)),
            rd.dirac_capacity(space, 0),
            rd.unanimity(space),
            rd.possibility(space),
        ]
        built.append(rd.mix_capacities((F(1, 3), F(2, 3)), built[:2]))
        for cap in built:
            assert "table" not in vars(cap)
        for read in (lambda c: c.table, lambda c: c == c, hash, repr):
            for cap in built:
                twin = Capacity._of_scaled(cap.space, cap.scaled, cap.scale)
                assert "table" not in vars(twin)
                read(twin)
                assert vars(twin)["table"] == cap.table


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_non_monotone_table_names_the_mask_major_first_rise(n, mode):
    # eighths are exact in binary, so the float spelling of a table is
    # lifted to the very Fractions the formulas scan
    space = uniform_space(n)
    rng = derive_rng(n, f"rises-{mode}")
    hits = 0
    for _ in range(40):
        table = [F(rng.randint(0, 12), 8) for _ in range(1 << n)]
        table[0], table[-1] = F(0), F(1)
        entries = tuple(float(v) for v in table) if mode == "float" else tuple(table)
        want = formula_first_rise(table, n)
        if want is None:
            cap = Capacity(space, entries)
            same_entries(cap.table, tuple(table))
            assert cap.null_mask == formula_null_mask(table, n)
            continue
        hits += 1
        with pytest.raises(InvalidParams) as err:
            Capacity(space, entries)
        assert str(err.value) == want
    assert hits


# the weights spelled as rational strings, and as JSON floats, which parse
# to the same Fractions
P3_EXACT = ("exact", ["1/2", "1/4", "1/4"])
P3_FLOAT = ("float", [0.5, 0.25, 0.25])
PAIR = [{"type": "possibility"}, {"type": "unanimity"}]
P3_KEYS = ("a", "b", "c", "a,b", "a,c", "b,c", "a,b,c")


def p3_table(*values, **extra):
    """A choquet spec on path3 with the values in P3_KEYS order."""
    return {"type": "choquet", "capacity": {**dict(zip(P3_KEYS, values)), **extra}}


HALVES = ("1/2", "1/2", "1/2")


@pytest.mark.parametrize("spelling,weights", [P3_EXACT, P3_FLOAT])
@pytest.mark.parametrize(
    "spec,message",
    [
        ({"type": "expectation", "weights": ["-1/2", "1", "1/2"]}, "weights must be nonnegative"),
        ({"type": "expectation", "weights": ["1/2", "1/4", "1/2"]}, "weights must sum to 1"),
        ({"type": "expectation", "weights": ["1/2", "1/2"]},
         "weight vector length must match point count"),
        ({"type": "var", "level": "5/4", "weights": None}, "level must lie in [0, 1]"),
        ({"type": "cvar", "level": "1", "weights": None}, "level must lie in [0, 1)"),
        ({"type": "cvar", "level": "1/2", "weights": ["1/2", "-1/4", "3/4"]},
         "weights must be nonnegative"),
        ({"type": "mixture", "weights": ["1/2", "1/4"], "components": PAIR},
         "mixture weights must sum to 1"),
        ({"type": "mixture", "weights": ["3/2", "-1/2"], "components": PAIR},
         "mixture weights must be nonnegative"),
        (p3_table(*HALVES, "1/4", "1", "1", "1"), "capacity not monotone: v(1) > v(3)"),
        (p3_table(*HALVES, "1", "1", "1", "2"), "capacity of the full space must be 1"),
        (p3_table(*HALVES, "inf", "1", "1", "1"), "capacity entries must be finite"),
        (p3_table(*HALVES, "1", "1", "1", "1", **{"": "1/4"}),
         "capacity of the empty set must be 0"),
        (p3_table(*HALVES, "1", "1", "1"),
         "capacity table is missing 1 subsets (full table required)"),
    ],
)
def test_constructors_reject_with_the_same_messages(spec, message, spelling, weights, p3):
    spec = dict(spec)
    if spec.get("weights", ()) is None:
        spec["weights"] = weights
    with pytest.raises((InvalidParams, InputFormatError)) as err:
        load_measure(spec, p3)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the two cover scans: packed byte lanes below a scale of 128, getters past it


def random_scaled(rng, n, scale):
    """A table of ints with entry 0 at the empty set and ``scale`` at the
    full one: monotone with some null points, a monotone one with one entry
    moved by one, or noise, some of it outside [0, scale] and past a byte."""
    size = 1 << n
    g = [0] + [rng.randint(0, scale) for _ in range(size - 1)]
    for m in range(size):
        for i in range(n):
            if m >> i & 1:
                g[m] = max(g[m], g[m & ~(1 << i)])
    drop = rng.randrange(size - 1)  # null points: never the whole space
    keep = ~drop & (size - 1)
    for m in range(size):
        if m & keep == keep:
            g[m] = scale
    table = [g[m & keep] for m in range(size)]
    style = rng.choice(("monotone", "nudged", "noise"))
    if style == "nudged" and size > 2:
        m = rng.randrange(1, size - 1)
        table[m] += rng.choice((-1, 1))
    elif style == "noise":
        table = [rng.randint(-2, max(2 * scale, 300)) for _ in range(size)]
    table[0], table[-1] = 0, scale
    return tuple(table)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_both_cover_scans_match_the_formulas(n):
    space = uniform_space(n)
    rng = derive_rng(n, "cover-scans")
    for scale in (1, 2, 3, 7, 64, 127, 128, 129, 255, 256, 1000, 2**70):
        for _ in range(25):
            scaled = random_scaled(rng, n, scale)
            table = tuple(F(s, scale) for s in scaled)
            rise = formula_first_rise(table, n)
            # the int path takes the scale as given; the table path reduces
            # it to the least common denominator, which may pick the other scan
            builds = (
                lambda: Capacity._of_scaled(space, scaled, scale),
                lambda: Capacity(space, table),
            )
            for build in builds:
                if rise is None:
                    assert build().null_mask == formula_null_mask(table, n)
                else:
                    with pytest.raises(InvalidParams) as err:
                        build()
                    assert str(err.value) == rise


def test_deciding_a_loaded_pair_builds_no_fraction_table(grid6, monkeypatch):
    # the ladder reads the integer tables alone: an expectation, a CVaR and
    # a mixture of a Dirac and a JSON table load and decide without a
    # Fraction table, and the CVaR without an expectation capacity
    import riskdist.capacity as capacity

    born = []
    of_scaled = Capacity._of_scaled.__func__

    def recording(cls, *args):
        cap = of_scaled(cls, *args)
        born.append(cap)
        return cap

    expectations = []

    def counting(space, weights):
        expectations.append(weights)
        return real_expectation(space, weights)

    real_expectation = capacity.expectation
    monkeypatch.setattr(Capacity, "_of_scaled", classmethod(recording))
    monkeypatch.setattr(capacity, "expectation", counting)
    labels = grid6.labels
    table = {
        ",".join(labels[i] for i in range(6) if m >> i & 1): f"{bin(m).count('1') ** 2}/36"
        for m in range(1, 64)
    }
    specs = [
        {"type": "expectation", "weights": ["1/6"] * 6},
        {"type": "cvar", "level": "3/4", "weights": ["1/3", "1/6", "0", "1/6", "1/12", "1/4"]},
        {"type": "mixture", "weights": ["1/3", "2/3"],
         "components": [{"type": "dirac", "point": labels[5]},
                        {"type": "choquet", "capacity": table}]},
    ]
    measures = [load_measure(spec, grid6) for spec in specs]
    values = [
        rd.bottleneck_distance(a, b).value
        for a in measures for b in measures if a is not b
    ]
    assert len(expectations) == 1  # the expectation measure's own
    assert len(born) == 5 and all(any(m.capacity is c for c in born) for m in measures)
    assert all("table" not in vars(c) for c in born)
    assert values == [
        rd.bottleneck_distance(rd.choquet_measure(Capacity(grid6, a.capacity.table)),
                               rd.choquet_measure(Capacity(grid6, b.capacity.table))).value
        for a in measures for b in measures if a is not b
    ]
