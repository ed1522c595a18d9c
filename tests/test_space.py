import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import riskdist as rd
from riskdist.errors import (
    Asymmetry,
    EmptySubset,
    InputFormatError,
    NegativeDistance,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroOffDiagonal,
)
from riskdist.io import load_space
from riskdist.space import (
    full_relation,
    left_projection_map,
    product_space,
    right_projection_map,
)

from conftest import compose_relations


class TestValidateMetric:
    def test_minimal_two_point(self):
        space = rd.validate_metric(["a", "b"], [[0, 1], [1, 0]])
        assert space.n == 2
        assert space.d(0, 1) == 1

    def test_path_space(self, p3):
        assert p3.diameter() == 2

    def test_asymmetry_names_indices(self):
        with pytest.raises(Asymmetry) as err:
            rd.validate_metric(["a", "b"], [[0, 3], [1, 0]])
        assert err.value.indices == (0, 1)

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            rd.validate_metric(["a"], [[1]])

    @pytest.mark.parametrize(
        "entry", [float("nan"), "inf", float("inf")], ids=["nan", "inf-string", "inf-float"]
    )
    def test_non_finite_entry(self, entry):
        dist = [[0, entry, 1], [entry, 0, 1], [1, 1, 0]]
        with pytest.raises(InputFormatError, match="not finite"):
            rd.validate_metric(["a", "b", "c"], dist)

    def test_no_points_and_a_non_square_matrix(self):
        with pytest.raises(InputFormatError, match="at least one point"):
            rd.validate_metric([], [])
        with pytest.raises(InputFormatError, match="square"):
            rd.validate_metric(["a", "b"], [[0, 1]])

    def test_negative_distance_names_indices(self):
        with pytest.raises(NegativeDistance) as err:
            rd.validate_metric(["a", "b", "c"], [[0, 1, 1], [1, 0, -1], [1, -1, 0]])
        assert err.value.indices == (1, 2)

    def test_load_space_refuses_a_non_object_and_non_string_points(self):
        with pytest.raises(InputFormatError, match='needs "points" and "dist"'):
            load_space([["a", "b"], [[0, 1], [1, 0]]])
        with pytest.raises(InputFormatError, match="list of strings"):
            load_space({"points": [0, 1], "dist": [[0, 1], [1, 0]]})

    def test_zero_off_diagonal(self):
        with pytest.raises(ZeroOffDiagonal):
            rd.validate_metric(["a", "b"], [[0, 0], [0, 0]])

    def test_triangle_violation(self):
        with pytest.raises(TriangleViolation):
            rd.validate_metric(
                ["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
            )

    def test_duplicate_labels(self):
        with pytest.raises(InputFormatError):
            rd.validate_metric(["a", "a"], [[0, 1], [1, 0]])

    def test_the_capacity_guard_is_the_only_point_guard(self, capsys):
        # a 13-point space loads; only a 2^13 capacity table is refused
        from riskdist.cli import main

        n = 13
        labels = [f"p{i}" for i in range(n)]
        d = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        space = json.dumps({"points": labels, "dist": d})
        assert rd.validate_metric(labels, d).n == n
        diracs = [{"type": "dirac", "point": p} for p in ("p0", "p5", "p12")]
        for mode in ("exact", "float"):
            pair = ["--measure", json.dumps(diracs[0]), "--measure", json.dumps(diracs[1])]
            assert main(["distance", "--space", space, *pair, "--mode", mode]) == 0
            value = "1" if mode == "exact" else "1.0"
            assert capsys.readouterr().out.startswith(f"{value} (exact, dirac)")
            pool = ["--measure", json.dumps(diracs)]
            assert main(["matrix", "--space", space, *pool, "--mode", mode]) == 0
            assert capsys.readouterr().out.endswith("audit: ok\n")
        weights = [1] + [0] * (n - 1)
        expectation = json.dumps({"type": "expectation", "weights": weights})
        assert main(["distance", "--space", space, "--measure", expectation,
                     "--measure", json.dumps(diracs[0])]) == 2
        err = capsys.readouterr().err
        assert err == "input error: capacity tables are guarded to 12 points\n"

    def test_rational_strings(self):
        space = rd.validate_metric(["a", "b"], [["0", "5/2"], ["5/2", 0]])
        assert space.d(0, 1) == Fraction(5, 2)

    def test_float_entries_are_read_as_their_decimals(self):
        space = rd.validate_metric(["a", "b"], [[0, 0.1], [0.1, 0]])
        assert space.d(0, 1) == Fraction(1, 10) and type(space.d(0, 1)) is Fraction


class TestSublevel:
    def test_zero_is_diagonal(self, p3):
        rel = rd.sublevel_relation(p3, 0)
        assert sorted(rel.pairs()) == [(0, 0), (1, 1), (2, 2)]

    def test_middle_level(self, p3):
        rel = rd.sublevel_relation(p3, 1)
        assert sorted(rel.pairs()) == [
            (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_diameter_level_is_full(self, p3):
        assert len(rd.sublevel_relation(p3, 2).pairs()) == 9

    @given(a=st.integers(0, 8), b=st.integers(0, 8))
    @settings(deadline=None, max_examples=30)
    def test_monotone_in_threshold(self, a, b):
        space = make_space()
        lo, hi = sorted((Fraction(a, 2), Fraction(b, 2)))
        assert is_subrelation(rd.sublevel_relation(space, lo), rd.sublevel_relation(space, hi))


def is_subrelation(s, other):
    return all(a & ~b == 0 for a, b in zip(s.sections, other.sections))


def make_space():
    return rd.validate_metric(
        ["a", "b", "c", "d"],
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
    )


class TestDistanceLevels:
    def test_path(self, p3):
        assert rd.distance_levels(p3) == [0, 1, 2]

    def test_two_point(self, two_point):
        assert rd.distance_levels(two_point) == [0, Fraction(5, 2)]

    def test_single_point(self):
        space = rd.validate_metric(["a"], [[0]])
        assert rd.distance_levels(space) == [0]

    def test_each_call_returns_a_new_list(self, p3):
        levels = rd.distance_levels(p3)
        levels.append(99)
        levels[0] = -1
        assert rd.distance_levels(p3) == [0, 1, 2]
        assert rd.distance_levels(p3) is not rd.distance_levels(p3)

    def test_levels_are_computed_once_per_space(self):
        # built directly, not interned: the planted tuple stays in this test
        space = rd.FiniteMetricSpace(("a", "b"), ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
        assert rd.distance_levels(space) == [0, 1]
        assert vars(space)["_levels"] == (0, 1)
        vars(space)["_levels"] = (0, 7)
        assert rd.distance_levels(space) == [0, 7]

    def test_near_distances_are_two_levels(self):
        space = rd.validate_metric(
            ["a", "b", "c"], [[0, 1, 1 + 1e-12], [1, 0, 2], [1 + 1e-12, 2, 0]]
        )
        assert rd.distance_levels(space) == [0, 1, Fraction("1.000000000001"), 2]


class TestHausdorff:
    def test_identical_sets(self, p3):
        a = rd.PointSubset.of(p3, ["a"])
        assert rd.hausdorff_distance(a, a) == 0

    def test_uncovered_point(self, p3):
        a = rd.PointSubset.of(p3, ["a"])
        ac = rd.PointSubset.of(p3, ["a", "c"])
        assert rd.hausdorff_distance(a, ac) == 2

    def test_overlapping_pairs(self, p3):
        ab = rd.PointSubset.of(p3, ["a", "b"])
        bc = rd.PointSubset.of(p3, ["b", "c"])
        # independent evaluation of the two max-min terms
        fwd = max(min(p3.d(x, y) for y in bc.indices()) for x in ab.indices())
        bwd = max(min(p3.d(x, y) for x in ab.indices()) for y in bc.indices())
        assert max(fwd, bwd) == 1
        assert rd.hausdorff_distance(ab, bc) == 1

    def test_empty_subset_rejected(self, p3):
        with pytest.raises(EmptySubset):
            rd.hausdorff_distance(
                rd.PointSubset(p3, 0), rd.PointSubset.of(p3, ["a"])
            )

    def test_metric_axioms_exhaustive_four_points(self, cycle4):
        subsets = [rd.PointSubset(cycle4, m) for m in range(1, 16)]
        for a, b in product(subsets, repeat=2):
            dab = rd.hausdorff_distance(a, b)
            assert dab == rd.hausdorff_distance(b, a)
            assert (dab == 0) == (a.mask == b.mask)
        for a, b, c in product(subsets, repeat=3):
            assert rd.hausdorff_distance(a, b) <= rd.hausdorff_distance(
                a, c
            ) + rd.hausdorff_distance(c, b)


class TestModulus:
    def test_zero_threshold(self, p3):
        phi = rd.PointFunction(p3, (0, 1, 5))
        assert rd.modulus_of_continuity(phi, 0) == 0

    def test_path_values(self, p3):
        phi = rd.PointFunction(p3, (0, 1, 5))
        # brute force over pairs within the threshold
        pairs1 = [(i, j) for i in range(3) for j in range(3) if p3.d(i, j) <= 1]
        assert max(abs(phi(i) - phi(j)) for i, j in pairs1) == 4
        assert rd.modulus_of_continuity(phi, 1) == 4
        assert rd.modulus_of_continuity(phi, 2) == 5

    @given(t1=st.integers(0, 4), t2=st.integers(0, 4))
    @settings(deadline=None, max_examples=30)
    def test_monotone_in_threshold(self, t1, t2):
        space = make_space()
        phi = rd.PointFunction(space, (3, -1, 4, 0))
        lo, hi = sorted((t1, t2))
        assert rd.modulus_of_continuity(phi, lo) <= rd.modulus_of_continuity(
            phi, hi
        )


class TestProducts:
    def test_labels_and_metric(self, two_point):
        prod = product_space(two_point, two_point)
        assert prod.labels == ("x*x", "x*y", "y*x", "y*y")
        # max metric: (x,x) vs (y,y) is max(d, d) = d
        assert prod.d(0, 3) == Fraction(5, 2)
        assert prod.d(0, 1) == Fraction(5, 2)

    def test_projection_maps(self, p3):
        left = left_projection_map(p3, p3)
        right = right_projection_map(p3, p3)
        assert left[4] == 1 and right[4] == 1  # (b, b)
        assert left[5] == 1 and right[5] == 2  # (b, c)

    def test_relation_composition(self, p3):
        s = rd.sublevel_relation(p3, 1)
        composed = compose_relations(s, s)
        # two steps of radius 1 reach everything on the path
        assert len(composed.pairs()) == 9
        diag = rd.sublevel_relation(p3, 0)
        assert compose_relations(diag, s).pairs() == s.pairs()

    def test_full_relation(self, p3):
        assert len(full_relation(p3, p3).pairs()) == 9

    def test_derived_views_are_not_constructor_arguments(self, p3):
        s = rd.sublevel_relation(p3, 1)
        with pytest.raises(TypeError):
            rd.Relation(p3, p3, s.matrix, sections=(0b111,) * 3)
        assert rd.Relation(p3, p3, s.matrix).sections == s.sections == (0b011, 0b111, 0b110)


class TestCachedHashes:
    def test_equal_values_built_twice_share_cache_entries(self):
        # loaded spaces are interned, so build the equal twin directly
        a = make_space()
        b = rd.FiniteMetricSpace(a.labels, a.dist)
        assert a is not b and a == b and hash(a) == hash(b)
        assert product_space(a, a) is product_space(b, b)
        assert rd.sublevel_relation(a, 1) is rd.sublevel_relation(b, 1)
        r1 = rd.Relation.from_pairs(a, b, [(0, 0), (1, 2), (2, 1)])
        r2 = rd.Relation.from_pairs(b, a, [(0, 0), (1, 2), (2, 1)])
        assert r1 is not r2 and r1 == r2 and hash(r1) == hash(r2)
        assert r1.inner_masks == r2.inner_masks

    def test_equal_loads_are_one_object(self):
        a, b = make_space(), make_space()
        assert a is b
        labels = ["a", "b", "c", "d"]
        dist = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
        # the same values written another way load to the same space
        assert rd.validate_metric(labels, [[str(v) for v in row] for row in dist]) is a
        longer = [[2 * v for v in row] for row in dist]
        assert rd.validate_metric(labels, longer) is not a
        assert rd.validate_metric(labels, [[float(v) for v in row] for row in dist]) is a
        # an interned space pickles without its cached hash
        import pickle

        hash(a)
        clone = pickle.loads(pickle.dumps(a))
        assert "_hash" not in vars(clone)
        assert clone == a and hash(clone) == hash(a)

    def test_interned_space_still_validates_new_inputs(self):
        make_space()
        with pytest.raises(rd.MetricError):
            rd.validate_metric(["a", "b"], [[0, 1], [2, 0]])

    def test_json_text_finds_the_space_without_parsing(self, monkeypatch):
        import riskdist.space

        obj = {"points": ["a", "b"], "dist": [[0, "3/2"], ["3/2", 0]]}
        first = load_space(obj)

        def refuse(*args, **kwargs):
            raise AssertionError("a loaded space's text was parsed again")

        monkeypatch.setattr(riskdist.space, "parse_scalar", refuse)
        assert load_space(json.loads(json.dumps(obj))) is first
        assert load_space(obj) is first

    def test_text_key_tells_spellings_apart(self):
        first = load_space({"points": ["a", "b"], "dist": [[0, 1], [1, 0]]})
        # a JSON true is not the number 1, however the text is keyed
        with pytest.raises(InputFormatError):
            load_space({"points": ["a", "b"], "dist": [[0, True], [True, 0]]})
        # equal values written another way are the same space, by value
        for spelling in ("1", 1.0, " 1 ", "2/2"):
            dist = [[0, spelling], [spelling, 0]]
            assert load_space({"points": ["a", "b"], "dist": dist}) is first
            assert load_space({"points": ["a", "b"], "dist": dist}) is first
        relabelled = load_space({"points": ["b", "a"], "dist": [[0, 1], [1, 0]]})
        assert relabelled is not first

    def test_text_key_dies_with_the_space(self):
        import gc

        from riskdist.space import _loaded

        labels = ("short-lived", "space")
        space = load_space({"points": list(labels), "dist": [[0, "17/3"], ["17/3", 0]]})
        # both keys, by value and by text, hold the labels
        assert len([k for k in _loaded.keys() if labels in k]) == 2
        del space
        gc.collect()
        # load_space holds the space it returned last, and only that one
        assert len([k for k in _loaded.keys() if labels in k]) == 2
        load_space({"points": ["other"], "dist": [[0]]})
        gc.collect()
        assert not [k for k in _loaded.keys() if labels in k]

    def test_hash_is_the_dataclass_hash_of_the_compared_fields(self):
        space = make_space()
        rel = rd.sublevel_relation(space, 0)
        assert hash(space) == hash((space.labels, space.dist))
        assert hash(rel) == hash((rel.left, rel.right, rel.matrix))

    def test_copies_recompute_the_hash(self):
        import copy
        import pickle

        space = make_space()
        rel = rd.sublevel_relation(space, 0)
        for value in (space, rel):
            hash(value)
            for clone in (
                pickle.loads(pickle.dumps(value)),
                copy.copy(value),
                copy.deepcopy(value),
            ):
                assert "_hash" not in vars(clone)
                assert clone == value and hash(clone) == hash(value)

    def test_pickled_space_hashes_as_one_built_in_the_loading_process(self):
        # string hashes differ between processes, so a hash pickled with
        # the space would be wrong wherever it is loaded
        import os
        import subprocess
        import sys

        build = (
            "import riskdist as rd; "
            "s = rd.validate_metric(['a', 'b'], [[0, 1], [1, 0]]); "
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        blob = subprocess.run(
            [sys.executable, "-c", build + "import pickle, sys; hash(s); "
             "sys.stdout.buffer.write(pickle.dumps(s))"],
            env=dict(env, PYTHONHASHSEED="1"), capture_output=True, check=True,
        ).stdout
        check = subprocess.run(
            [sys.executable, "-c", build + "import pickle, sys; "
             "t = pickle.loads(sys.stdin.buffer.read()); "
             "print(hash(t) == hash(s) and {t: 1}.get(s) == 1)"],
            env=dict(env, PYTHONHASHSEED="2"), input=blob, capture_output=True,
            check=True,
        )
        assert check.stdout.decode().strip() == "True"
