import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import riskdist as rd
from riskdist.cli import main
from riskdist.io import load_space

P3 = {"points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
DIRAC_A = {"type": "dirac", "point": "a"}
DIRAC_C = {"type": "dirac", "point": "c"}
# class C's example member in twopoint.py: a branch-4 slope above 1
NONMONOTONE_MEMBER = {
    "type": "two-point",
    "alpha": ["1/4", "1/4", "1/4", "1/4"],
    "lambda": ["-inf", "0", "0", "0"],
    "f": {"knots": [["0", "0"], ["1", "1"]]},
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def space_file(tmp_path):
    return write(tmp_path, "space.json", P3)


class TestValidate:
    def test_valid_inputs_exit_zero(self, space_file, tmp_path, capsys):
        measures = write(tmp_path, "ms.json", [DIRAC_A, DIRAC_C])
        assert main(["validate", "--space", space_file, "--measure", measures]) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_nonmonotone_capacity_exits_one(self, space_file, tmp_path, capsys):
        bad = {
            "type": "choquet",
            "capacity": {
                "a": "3/2", "b": 0, "c": 0,
                "a,b": "1/4", "a,c": 1, "b,c": 0, "a,b,c": 1,
            },
        }
        code = main(
            ["validate", "--space", space_file, "--measure", write(tmp_path, "bad.json", bad)]
        )
        assert code == 1
        assert "fail" in capsys.readouterr().out

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--space", str(path)]) == 2

    def test_bad_metric_exits_one(self, tmp_path):
        bad_space = write(
            tmp_path, "bad_space.json",
            {"points": ["a", "b"], "dist": [[0, 3], [1, 0]]},
        )
        assert main(["validate", "--space", bad_space]) == 1

    def test_an_infinite_shift_meets_huge_exact_knots(self, tmp_path, capsys):
        # the shift -inf is never added to a knot of 10^400, which no float holds
        big = str(10**400)
        member = {
            "type": "two-point",
            "alpha": ["1/4", "1/4", "1/4", "1/4"],
            "lambda": ["0", "-inf", "0", "0"],
            "f": {"knots": [["-" + big, "-" + big], ["0", "0"], [big, big]]},
        }
        space = write(tmp_path, "space.json", TWO_POINT)
        code = main(["validate", "--space", space, "--measure", json.dumps(member)])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert "measure #0 (two-point): pass [exact]" in out
        assert "Traceback" not in out + err

    def test_knots_beyond_the_float_range_load_in_both_print_modes(self, tmp_path, capsys):
        # float mode only prints: it reads and checks the member exactly
        big = str(10**400)
        member = {
            "type": "two-point",
            "alpha": ["1/4", "1/4", "1/4", "1/4"],
            "lambda": ["0", "-inf", "0", "0"],
            "f": {"knots": [["-" + big, "-" + big], ["0", "0"], [big, big]]},
        }
        space = write(tmp_path, "space.json", TWO_POINT)
        argv = ["validate", "--space", space, "--measure", json.dumps(member)]
        for knot in (big, 10**400):  # a string, and a JSON integer as large
            member["f"]["knots"][2] = [knot, knot]
            argv[-1] = json.dumps(member)
            for mode in ("exact", "float"):
                code = main([*argv, "--mode", mode])
                out, err = capsys.readouterr()
                assert code == 0, err
                assert "measure #0 (two-point): pass [exact]" in out
                assert "Traceback" not in out + err

    # the two defective members of the two-point-validate benchmark workload:
    # a jump smaller than the boundary probe's bump times the slope, which
    # only the exact census sees
    DEFECTIVE_MEMBERS = (
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
                "knots": [["-4", "-2"], ["-1", "-1/2"], ["0", "0"], ["1", "1/4"], ["3", "5/4"],
                          ["5", "11/4"]]
            },
        },
    )

    @pytest.mark.parametrize("member", [0, 1])
    def test_float_verdicts_are_the_exact_verdicts(self, member, tmp_path, capsys):
        space = write(tmp_path, "space.json", TWO_POINT)
        argv = ["validate", "--space", space, "--measure", json.dumps(self.DEFECTIVE_MEMBERS[member])]
        for mode in ("exact", "float"):
            assert main([*argv, "--mode", mode]) == 1
            assert "measure #0 (two-point): fail [exact]" in capsys.readouterr().out


class TestDistance:
    def test_point_mass_pair(self, space_file, capsys):
        code = main(
            [
                "distance",
                "--space", space_file,
                "--measure", json.dumps(DIRAC_A),
                "--measure", json.dumps(DIRAC_C),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("2 (exact")

    def test_equal_measures_give_zero(self, space_file, capsys):
        code = main(
            [
                "distance",
                "--space", space_file,
                "--measure", json.dumps(DIRAC_A),
                "--measure", json.dumps(DIRAC_A),
                "--format", "json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["distance"]["value"] == "0"
        assert report["distance"]["certification"] == "exact"

    def test_expectation_pair(self, space_file, capsys):
        m1 = {"type": "expectation", "weights": [1, 0, 0]}
        m2 = {"type": "expectation", "weights": ["1/2", 0, "1/2"]}
        code = main(
            [
                "distance",
                "--space", space_file,
                "--measure", json.dumps(m1),
                "--measure", json.dumps(m2),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("2 (exact")

    def test_sampled_witness_is_labelled_sampled(self, space_file, monkeypatch, capsys):
        import riskdist.io

        uniform = ["1/3", "1/3", "1/3"]
        cv = {"type": "cvar", "level": "1/2", "weights": uniform}
        lattice = {
            "type": "max",
            "components": [DIRAC_A, {"type": "expectation", "weights": uniform}],
        }
        argv = [
            "distance",
            "--space", space_file,
            "--measure", json.dumps(cv),
            "--measure", json.dumps(lattice),
        ]
        # the lattice itself is decided exactly
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("1 (exact, exact-lattice)")
        # a black-box copy of it, with no normal form, goes to the sampled tier
        real = riskdist.io.lattice_max

        def black_box_copy(components):
            mu = real(components)
            return rd.black_box(mu.space, mu.evaluator, name=mu.name)

        monkeypatch.setattr(riskdist.io, "lattice_max", black_box_copy)
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("1 (sampled, witness-found)")

    def test_a_mixture_of_a_max_is_decided_exactly(self, space_file, capsys):
        # the mixture takes its forms from its parts, so no level is probed
        uniform = ["1/3", "1/3", "1/3"]
        cv = {"type": "cvar", "level": "1/2", "weights": uniform}
        lattice = {
            "type": "max",
            "components": [DIRAC_A, {"type": "expectation", "weights": uniform}],
        }
        mixed = {"type": "mixture", "weights": ["1/2", "1/2"], "components": [lattice, DIRAC_C]}
        argv = [
            "distance",
            "--space", space_file,
            "--measure", json.dumps(cv),
            "--measure", json.dumps(mixed),
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "2 (exact, exact-lattice)"
        assert lines[1:3] == ["  level 0: infeasible [exact-lattice]", "  level 1: infeasible [exact-lattice]"]

    def test_undecided_ladder_exits_one(self, space_file, monkeypatch, capsys):
        from riskdist import metric

        # two point masses are scanned by the exact test alone: refute
        # every level
        monkeypatch.setattr(metric, "refutes", lambda pair, s: (None, None))
        code = main(
            [
                "distance",
                "--space", space_file,
                "--measure", json.dumps(DIRAC_A),
                "--measure", json.dumps(DIRAC_C),
            ]
        )
        assert code == 1
        assert "no feasible level" in capsys.readouterr().err


class TestMatrix:
    def test_point_mass_matrix_is_the_distance_matrix(self, space_file, capsys):
        measures = json.dumps([DIRAC_A, {"type": "dirac", "point": "b"}, DIRAC_C])
        code = main(
            [
                "matrix",
                "--space", space_file,
                "--measure", measures,
                "--format", "csv",
            ]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert rows == [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]

    def test_each_family_member_is_censused_once_per_matrix(self, tmp_path, monkeypatch, capsys):
        # the axiom gate and the two-point tier's breakpoints share a census
        import riskdist.measures

        censused = Counter()
        real = riskdist.measures._two_point_violations

        def counting(mu):
            censused[mu] += 1
            return real(mu)

        monkeypatch.setattr(riskdist.measures, "_two_point_violations", counting)
        # two sound members: moving class C's -inf to l2 removes its defect
        members = [FAMILY_MEMBER, {**NONMONOTONE_MEMBER, "lambda": ["0", "-inf", "0", "0"]}]
        code = main(
            [
                "matrix",
                "--space", write(tmp_path, "space.json", TWO_POINT),
                "--measure", json.dumps([*members, {"type": "dirac", "point": "x"}]),
            ]
        )
        assert code == 0, capsys.readouterr().err
        assert sorted(censused.values()) == [1, 1]

    def test_a_pool_loads_each_spec_once(self, space_file, tmp_path, monkeypatch, capsys):
        # lattice members repeat the pool's base entries, one of them with
        # its keys in another order, and a nested member repeats a member
        import types

        import riskdist.io
        from riskdist.cli import _load_measures
        from riskdist.io import audit_summary, dump_report, load_measure
        from riskdist.numerics import format_scalar

        a = {"type": "choquet", "capacity": {"a": "1/4", "b": "1/4", "c": "1/2", "a,b": "1/2",
                                             "a,c": "3/4", "b,c": "3/4", "a,b,c": 1}}
        b = {"type": "choquet", "capacity": {"a": 0, "b": "1/3", "c": 0, "a,b": "1/3",
                                             "a,c": "1/2", "b,c": "1/2", "a,b,c": 1}}
        c = {"type": "cvar", "level": "1/2", "weights": ["1/3", "1/3", "1/3"]}
        b_reordered = {"capacity": dict(reversed(b["capacity"].items())), "type": "choquet"}
        low = {"type": "min", "components": [b, c]}
        pool = [a, b, c, {"type": "max", "components": [a, b_reordered]}, low,
                {"type": "max", "components": [a, low]}, DIRAC_A]
        built = Counter()
        real = riskdist.io._capacity_from_json

        def counting(space, obj):
            built[json.dumps(obj, sort_keys=True)] += 1
            return real(space, obj)

        monkeypatch.setattr(riskdist.io, "_capacity_from_json", counting)
        path = write(tmp_path, "pool.json", pool)
        space = load_space(P3)
        measures = _load_measures(types.SimpleNamespace(measure=[path]), space, {})
        assert sorted(built.values()) == [1, 1]
        mu_a, mu_b, mu_c, high, mu_low, nested, _ = measures
        assert high.parts[0] is mu_a and high.parts[1] is mu_b
        assert mu_low.parts[0] is mu_b and mu_low.parts[1] is mu_c
        assert nested.parts[0] is mu_a and nested.parts[1] is mu_low

        code = main(["matrix", "--space", space_file, "--measure", path, "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        apart = [load_measure(spec, space) for spec in pool]
        assert apart[3].parts[0] is not apart[0]
        results, audit = rd.distance_matrix(apart)
        assert report["matrix"] == [[format_scalar(r.value) for r in row] for row in results]
        assert report["audit"] == json.loads(dump_report(audit_summary(audit)))


class TestCouple:
    def test_threshold_feasibility(self, space_file, capsys):
        code = main(
            [
                "couple",
                "--space", space_file,
                "--measure", json.dumps(DIRAC_A),
                "--measure", json.dumps(DIRAC_C),
                "--threshold", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # a Dirac pair's witness is a proof: it is not re-sampled
        assert "feasible [dirac]" in out and "witness: proved" in out

    def test_explicit_pairs(self, space_file, tmp_path, capsys):
        pairs = write(tmp_path, "pairs.json", {"pairs": [["a", "a"], ["b", "b"], ["c", "c"]]})
        code = main(
            [
                "couple",
                "--space", space_file,
                "--measure", json.dumps(DIRAC_A),
                "--measure", json.dumps(DIRAC_C),
                "--pairs", pairs,
            ]
        )
        assert code == 0
        assert "infeasible" in capsys.readouterr().out

    @pytest.mark.parametrize("threshold", ["0", "5/2"])
    def test_measure_failing_its_axioms_exits_one(self, threshold, capsys):
        code = main(
            [
                "couple",
                "--space", json.dumps(TWO_POINT),
                "--measure", json.dumps(NONMONOTONE_MEMBER),
                "--measure", json.dumps(NONMONOTONE_MEMBER),
                "--threshold", threshold,
            ]
        )
        assert code == 1
        assert "fails the risk-measure axioms" in capsys.readouterr().err


class TestGlue:
    def test_point_mass_glue(self, space_file, capsys):
        first = {"type": "dirac", "point": "a*b"}
        second = {"type": "dirac", "point": "b*c"}
        code = main(
            [
                "glue",
                "--space", space_file,
                "--first", json.dumps(first),
                "--second", json.dumps(second),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "front projection" in out

    def test_mismatch_exits_one(self, space_file, capsys):
        first = {"type": "dirac", "point": "a*b"}
        second = {"type": "dirac", "point": "a*c"}
        code = main(
            [
                "glue",
                "--space", space_file,
                "--first", json.dumps(first),
                "--second", json.dumps(second),
            ]
        )
        assert code == 1


class TestOracle:
    def test_strassen(self, space_file, capsys):
        code = main(
            [
                "oracle", "strassen",
                "--space", space_file,
                "--measure", json.dumps({"weights": [1, 0, 0]}),
                "--measure", json.dumps({"weights": ["1/2", 0, "1/2"]}),
                "--threshold", "1",
            ]
        )
        assert code == 0
        assert "feasible: False" in capsys.readouterr().out

    def test_winf(self, space_file, capsys):
        code = main(
            [
                "oracle", "winf",
                "--space", space_file,
                "--measure", json.dumps({"weights": [1, 0, 0]}),
                "--measure", json.dumps({"weights": ["1/2", 0, "1/2"]}),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_winf_past_the_table_guard_decides_by_the_flow(self, tmp_path, capsys, monkeypatch):
        # on 13 points the 2^13 subsets are left out, and the flow decides
        import riskdist.oracles

        def exhaust(*args):
            raise AssertionError("subset exhaustion past the guard")

        monkeypatch.setattr(riskdist.oracles, "_subset_condition", exhaust)
        n = 13
        labels = [f"p{i}" for i in range(n)]
        space = {"points": labels, "dist": [[abs(i - j) for j in range(n)] for i in range(n)]}
        ends = [[1] + [0] * (n - 1), [0] * (n - 1) + [1]]
        code = main(
            [
                "oracle", "winf",
                "--space", write(tmp_path, "path13.json", space),
                "--measure", json.dumps({"weights": ends[0]}),
                "--measure", json.dumps({"weights": ends[1]}),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "12"

    def test_cross_check(self, space_file, capsys):
        code = main(
            [
                "oracle", "cross-check",
                "--space", space_file,
                "--size", "12",
                "--seed", "3",
            ]
        )
        assert code == 0
        assert "disagreements: 0" in capsys.readouterr().out


class TestConvergeAndAudit:
    def test_converge_emits_discrepancy(self, tmp_path, capsys):
        seq = {
            "space": P3,
            "generator": {"type": "drifting-mixture", "base": "a", "far": "c", "count": 6},
        }
        code = main(
            [
                "converge",
                "--sequence", write(tmp_path, "seq.json", seq),
                "--format", "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,pointwise_gap,metric,support_gap"
        assert ",2,2" in out

    def test_a_converge_past_the_table_guard_finishes_and_reports(self, tmp_path, capsys):
        # on 13 points the probe grid leaves out its 2^13 indicators and
        # keeps the distance and random probes
        from riskdist.measures import probe_grid

        n = 13
        labels = [f"p{i}" for i in range(n)]
        space = {"points": labels, "dist": [[abs(i - j) for j in range(n)] for i in range(n)]}
        generator = {"type": "drifting-mixture", "base": "p0", "far": "p12", "count": 3}
        seq = write(tmp_path, "seq.json", {"space": space, "generator": generator})
        assert main(["converge", "--sequence", seq, "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "n,pointwise_gap,metric,support_gap"
        assert [row.split(",")[0] for row in rows[1:]] == ["1", "2", "3"]
        assert all(row.split(",")[2] == "12" for row in rows[1:])
        grid = probe_grid(load_space(space), 7, 5)
        assert len(grid) == n + 5
        assert grid[0] == tuple(range(n))  # the distances to p0
        # up to the guard the grid starts with every subset's indicator
        small = probe_grid(load_space(P3), 7, 5)
        assert len(small) == 8 + 3 + 5
        assert small[:8] == tuple(tuple(m >> i & 1 for i in range(3)) for m in range(8))

    def test_converge_reads_its_space_from_the_sequence(self, capsys):
        # converge takes no --space: the sequence carries its own
        seq = {"space": P3, "limit": DIRAC_A, "terms": [DIRAC_C, DIRAC_A]}
        assert main(["converge", "--sequence", json.dumps(seq), "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert [row.split(",")[2] for row in rows] == ["2", "0"]  # the metric

    def test_converge_prints_an_exact_integer_gap_as_an_integer(self, capsys):
        # Dirac measures read integer probes back as ints, which print as
        # written, not as floats
        seq = {"space": P3, "limit": DIRAC_A, "terms": [DIRAC_C, DIRAC_A]}
        assert main(["converge", "--sequence", json.dumps(seq), "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:3]
        gaps = [row.split(",")[1] for row in rows]
        assert all(gap.lstrip("-").isdigit() for gap in gaps), gaps
        assert gaps[1] == "0"

    def test_audit_metric(self, space_file, capsys):
        code = main(
            [
                "audit", "metric",
                "--space", space_file,
                "--size", "10",
                "--seed", "5",
            ]
        )
        assert code == 0
        assert "triangle: ok" in capsys.readouterr().out


DRIFT = {"type": "drifting-mixture", "base": "a", "far": "c"}
TWO_POINT = {"points": ["x", "y"], "dist": [[0, "5/2"], ["5/2", 0]]}
FAMILY_MEMBER = {
    "type": "two-point",
    "alpha": ["1/2", "1/2", "0", "0"],
    "lambda": ["0", "0", "0", "0"],
    "f": {"knots": [["0", "0"], ["1", "1"]]},
}
PAIR_OF_A = ["--measure", json.dumps(DIRAC_A), "--measure", json.dumps(DIRAC_A)]
MALFORMED = {
    "couple threshold": ["couple", *PAIR_OF_A, "--threshold", "abc"],
    "couple pairs": ["couple", *PAIR_OF_A, "--pairs", "{}"],
    "couple pair entry": ["couple", *PAIR_OF_A, "--pairs", '{"pairs": [["a"]]}'],
    "oracle weight": [
        "oracle", "winf",
        "--measure", '{"weights": ["x", 0, 0]}', "--measure", '{"weights": [1, 0, 0]}',
    ],
    "converge space": ["converge", "--sequence", json.dumps({"generator": DRIFT})],
    "converge count": [
        "converge", "--sequence", json.dumps({"space": P3, "generator": dict(DRIFT, count="x")}),
    ],
    "converge no terms": [
        "converge", "--sequence", json.dumps({"space": P3, "limit": DIRAC_A, "terms": []}),
    ],
    "dirac point not a label": ["validate", "--measure", '{"type": "dirac", "point": true}'],
    "matrix no measures": ["matrix"],
    "audit size": ["audit", "metric", "--size", "0"],
    # ran 2 * size + 16 instances, 10 here, and exited 0
    "cross-check negative size": ["oracle", "cross-check", "--size", "-3"],
    "validate nan": [
        "validate", "--mode", "float",
        "--space", '{"points": ["a", "b"], "dist": [[0, NaN], [NaN, 0]]}',
    ],
    "validate nan weight": [
        "validate", "--mode", "float",
        "--measure", '{"type": "expectation", "weights": [NaN, 1, 0]}',
    ],
    "validate nan capacity": [
        "validate", "--mode", "float",
        "--measure", json.dumps({
            "type": "choquet",
            "capacity": {"a": float("nan"), "b": 0, "c": 0, "a,b": 1, "a,c": 1, "b,c": 1, "a,b,c": 1},
        }),
    ],
    "validate zero denominator distance": [
        "validate", "--space", '{"points": ["a", "b"], "dist": [[0, "1/0"], ["1/0", 0]]}',
    ],
    "validate zero denominator weight": [
        "validate", "--measure", '{"type": "expectation", "weights": ["1/0", 0, 0]}',
    ],
    "validate capacity not an object": [
        "validate", "--measure", '{"type": "choquet", "capacity": [0, 1, 1, 1, 1, 1, 1, 1]}',
    ],
    "validate unanimity points a string": [
        "validate", "--measure", '{"type": "unanimity", "points": "ba"}',
    ],
    # a string where a list belongs was read one character at a time
    "validate expectation weights a string": [
        "validate", "--measure", '{"type": "expectation", "weights": "100"}',
    ],
    "validate mixture weights a string": [
        "validate", "--measure",
        json.dumps({"type": "mixture", "weights": "11", "components": [DIRAC_A, DIRAC_C]}),
    ],
    "validate two-point alpha a string": [
        "validate", "--space", json.dumps(TWO_POINT),
        "--measure", json.dumps(dict(FAMILY_MEMBER, alpha="1000")),
    ],
    "validate two-point lambda a string": [
        "validate", "--space", json.dumps(TWO_POINT),
        "--measure", json.dumps(dict(FAMILY_MEMBER, **{"lambda": "0000"})),
    ],
    "validate two-point knot a string": [
        "validate", "--space", json.dumps(TWO_POINT),
        "--measure", json.dumps(dict(FAMILY_MEMBER, f={"knots": ["00", "11"]})),
    ],
    "validate distance rows strings": [
        "validate", "--space", '{"points": ["a", "b", "c"], "dist": ["012", "101", "210"]}',
    ],
    "couple pair entry a string": ["couple", *PAIR_OF_A, "--pairs", '{"pairs": ["ab"]}'],
    "oracle weights a string": [
        "oracle", "winf",
        "--measure", '{"weights": "100"}', "--measure", '{"weights": [1, 0, 0]}',
    ],
    "converge count a float": [
        "converge", "--sequence", json.dumps({"space": P3, "generator": dict(DRIFT, count=2.9)}),
    ],
    "converge count a bool": [
        "converge", "--sequence", json.dumps({"space": P3, "generator": dict(DRIFT, count=True)}),
    ],
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_two_with_input_error(self, case, space_file, capsys):
        argv = MALFORMED[case]
        if "--space" not in argv and argv[0] != "converge":
            argv = [*argv, "--space", space_file]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("input error")


DRIFTING = json.dumps({"space": P3, "generator": DRIFT})
UNREAD_OPTIONS = {
    "converge --space": ["converge", "--sequence", DRIFTING, "--space", json.dumps(P3)],
    "converge --measure": ["converge", "--sequence", DRIFTING, "--measure", json.dumps(DIRAC_A)],
    "audit metric --measure": ["audit", "metric", "--measure", "garbage"],
    "glue --measure": ["glue", "--first", "{}", "--second", "{}", "--measure", "garbage"],
    "oracle cross-check --measure": ["oracle", "cross-check", "--measure", "garbage"],
}


class TestUnreadOptions:
    @pytest.mark.parametrize("case", sorted(UNREAD_OPTIONS))
    def test_argparse_refuses_an_option_the_command_does_not_read(self, case, space_file, capsys):
        argv = UNREAD_OPTIONS[case]
        if argv[0] != "converge":
            argv = [*argv, "--space", space_file]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_the_top_level_parser_reports_an_argument_no_command_takes(self, space_file, capsys):
        # the command's parser reads argv alone; what it leaves over is
        # reported as the whole tree reports it, with the top-level usage
        with pytest.raises(SystemExit) as exc:
            main(["distance", "--space", space_file, "--bogus", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: riskdist [-h] [--version]\n")
        assert err.endswith("\nriskdist: error: unrecognized arguments: --bogus 1\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "--space", "s", "--measure", "a", "--measure", "b", "--format", "json"],
            ["matrix", "--space", "s", "--measure", "p", "--seed", "3", "--mode", "float"],
            ["validate", "--space", "s", "--out", "o"],
            ["audit", "metric", "--space", "s", "--size", "5"],
            ["converge", "--sequence", "q", "--format", "csv"],
            ["couple", "--space", "s", "--measure", "a", "--threshold", "1/2"],
            ["glue", "--space", "s", "--first", "a", "--second", "b"],
            ["oracle", "strassen", "--space", "s", "--measure", "a", "--pairs", "p"],
            ["oracle", "cross-check", "--space", "s", "--size", "4"],
        ],
    )
    def test_a_command_parses_as_the_whole_tree_parses_it(self, argv):
        from riskdist.cli import _parse, build_parser

        assert vars(_parse(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["distance"], "usage: riskdist distance "),
            (["audit", "metric", "--size", "x"], "usage: riskdist audit metric "),
            (["nonsense"], "usage: riskdist [-h] [--version]"),
        ],
    )
    def test_other_parse_errors_keep_their_parser(self, argv, usage, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(usage)


class TestInputEncoding:
    """Input files are read as UTF-8 whatever the locale says."""

    def run(self, tmp_path, files):
        import os
        import subprocess
        import sys

        paths = []
        for name, data in files:
            (tmp_path / name).write_bytes(data)
            paths.append(str(tmp_path / name))
        argv = ["distance", "--space", paths[0], "--measure", paths[1],
                "--measure", paths[2], "--format", "json"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), LC_ALL="C", PYTHONUTF8="0")
        env.pop("PYTHONIOENCODING", None)
        return subprocess.run(
            [sys.executable, "-m", "riskdist.cli", *argv],
            env=env, capture_output=True, timeout=120,
        )

    def test_a_non_ascii_label_loads_under_an_ascii_locale(self, tmp_path):
        space = {"points": ["a", "b", "\u00e7"], "dist": P3["dist"]}
        far = {"type": "dirac", "point": "\u00e7"}
        done = self.run(tmp_path, [
            ("space.json", json.dumps(space, ensure_ascii=False).encode("utf-8")),
            ("a.json", json.dumps(DIRAC_A).encode()),
            ("far.json", json.dumps(far, ensure_ascii=False).encode("utf-8")),
        ])
        assert done.returncode == 0, done.stderr.decode()
        report = json.loads(done.stdout)
        assert report["distance"]["value"] == "2"
        digest = hashlib.sha256(json.dumps(space, ensure_ascii=False).encode("utf-8")).hexdigest()
        assert report["inputs"][str(tmp_path / "space.json")] == digest

    def test_line_ends_are_digested_as_a_text_mode_read_reads_them(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        # CRLF, a lone CR and a lone LF
        path.write_bytes(b'{"points": ["a", "b", "c"],\r\n "dist": [[0, 1, 2],\r'
                         b' [1, 0, 1],\n [2, 1, 0]]}\r\n')
        code = main(["distance", "--space", str(path), "--measure", json.dumps(DIRAC_A),
                     "--measure", json.dumps(DIRAC_C), "--format", "json"])
        assert code == 0
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert "\r" not in text
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert json.loads(capsys.readouterr().out)["inputs"][str(path)] == digest

    def test_bytes_that_are_not_utf8_are_an_input_error(self, tmp_path):
        done = self.run(tmp_path, [
            ("space.json", json.dumps(P3).encode()),
            ("a.json", json.dumps(DIRAC_A).encode()),
            ("latin.json", '{"type": "dirac", "point": "\u00e7"}'.encode("latin-1")),
        ])
        assert done.returncode == 2
        assert done.stderr.decode().startswith("input error: cannot read ")
        assert b"Traceback" not in done.stderr


class TestInternedSpaces:
    """A space loaded earlier in the process is found again by its JSON
    text; a matrix written any other way is still validated."""

    PAIR = {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}

    def test_a_true_entry_exits_two_after_the_number(self, capsys):
        kept = load_space(self.PAIR)
        bad = {"points": ["a", "b"], "dist": [[0, True], [True, 0]]}
        assert main(["validate", "--space", json.dumps(bad)]) == 2
        assert capsys.readouterr().err.startswith("input error")
        assert load_space(self.PAIR) is kept

    @pytest.mark.parametrize("entry", ["1", 1.0, 1])
    def test_other_spellings_validate_to_the_same_space(self, entry, capsys):
        kept = load_space(self.PAIR)
        obj = {"points": ["a", "b"], "dist": [[0, entry], [entry, 0]]}
        assert main(["validate", "--space", json.dumps(obj)]) == 0
        assert capsys.readouterr().out == "space: 2 points, ok\n"
        assert load_space(obj) is kept

    def test_float_mode_loads_the_same_space(self, capsys):
        kept = load_space(self.PAIR)
        assert main(["validate", "--mode", "float", "--space", json.dumps(self.PAIR)]) == 0
        assert load_space(self.PAIR) is kept

    def test_a_bad_matrix_still_fails_after_a_good_one(self, capsys):
        kept = load_space(self.PAIR)
        bad = {"points": ["a", "b"], "dist": [[0, 1], [2, 0]]}
        assert main(["validate", "--space", json.dumps(bad)]) == 1
        assert load_space(self.PAIR) is kept


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self, space_file, tmp_path):
        args = [
            "audit", "metric",
            "--space", space_file,
            "--size", "8",
            "--seed", "9",
            "--format", "json",
        ]
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_embeds_version_mode_and_digests(self, space_file, capsys):
        code = main(
            [
                "distance",
                "--space", space_file,
                "--measure", json.dumps(DIRAC_A),
                "--measure", json.dumps(DIRAC_A),
                "--format", "json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "riskdist"
        assert report["mode"] == "exact"
        assert report["version"]
        assert all(len(d) == 64 for d in report["inputs"].values())


class TestFloatMode:
    def test_float_space_distance(self, tmp_path, capsys):
        space = {
            "points": ["a", "b", "c"],
            "dist": [[0, 1.0, 2.0], [1.0, 0, 1.0], [2.0, 1.0, 0]],
        }
        code = main(
            [
                "distance",
                "--space", json.dumps(space),
                "--measure", json.dumps(DIRAC_A),
                "--measure", json.dumps(DIRAC_C),
                "--mode", "float",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("2.0 (exact")


# Reports pinned byte for byte, as the program wrote them before exact
# Choquet sums of integer values moved to integer arithmetic.  A JSON report
# tells a Fraction ("1") from an int (1) and a float (1.0), so a change in a
# result's type shows here even where the value is equal.  The "distance" and
# "couple" reports were re-pinned when lattice pairs moved to the exact
# lattice tier: only their certification and tier labels changed.
GOLDEN_SPACE = json.dumps(P3)
UNIFORM = ["1/3", "1/3", "1/3"]
CVAR_HALF = {"type": "cvar", "level": "1/2", "weights": UNIFORM}
LATTICE_MAX = {
    "type": "max",
    "components": [DIRAC_A, {"type": "expectation", "weights": UNIFORM}],
}
LATTICE_MIN = {"type": "min", "components": [DIRAC_C, CVAR_HALF]}
GOLDEN_POOL = [
    DIRAC_A,
    DIRAC_C,
    {"type": "expectation", "weights": ["1/2", "1/4", "1/4"]},
    CVAR_HALF,
    LATTICE_MAX,
    LATTICE_MIN,
]
CONVERGE_SEQUENCE = {
    "space": P3,
    "generator": {"type": "drifting-mixture", "base": "a", "far": "c", "count": 4},
}
GOLDEN = {
    "distance": (
        ["--measure", json.dumps(CVAR_HALF), "--measure", json.dumps(LATTICE_MAX)],
        '{"command":"distance","distance":{"certification":"exact","ladder":'
        '[{"level":"0","status":"infeasible","tier":"exact-lattice"},'
        '{"level":"1","status":"feasible","tier":"exact-lattice"}],'
        '"tier":"exact-lattice","value":"1","witness":{"formula":"lower-extension",'
        '"marginals":["cvar","max"],"support-pairs":[["a","a"],["a","b"],["b","a"],'
        '["b","b"],["b","c"],["c","b"],["c","c"]]}},"inputs":{"<inline>":'
        '"7dd20cbbb07c2ff8448baa1f506d35c84a8ad9f781200f33fc663622c9cb43f3"},'
        '"mode":"exact","seed":0,"tool":"riskdist","version":"0.1.0"}',
    ),
    "matrix": (
        ["--measure", json.dumps(GOLDEN_POOL)],
        '{"audit":{"checks":{"symmetry":true,"triangle":true,"witnesses":true,'
        '"zero-diagonal":true},"discrepancies":[],"failures":[],"instances":15,'
        '"stats":{"symmetry-rechecks":7},"suite":"distance-matrix"},'
        '"command":"matrix","csv":"0,2,2,2,2,2\\n2,0,2,2,2,1\\n2,2,0,2,2,2\\n'
        '2,2,2,0,1,2\\n2,2,2,1,0,2\\n2,1,2,2,2,0\\n","inputs":{"<inline>":'
        '"59d9e03c2dfd98be10a821217e16e08b32be249a71436c09e036af125b3f9b97"},'
        '"matrix":[["0","2","2","2","2","2"],["2","0","2","2","2","1"],'
        '["2","2","0","2","2","2"],["2","2","2","0","1","2"],'
        '["2","2","2","1","0","2"],["2","1","2","2","2","0"]],'
        '"mode":"exact","seed":0,"tool":"riskdist","version":"0.1.0"}',
    ),
    # the certificate's values come from the two measures' indicator tables,
    # so both are Fractions, the lattice min's included
    "couple": (
        [
            "--measure", json.dumps({"type": "possibility"}),
            "--measure", json.dumps(LATTICE_MIN),
            "--threshold", "0",
        ],
        '{"command":"couple","inputs":{"<inline>":'
        '"496b1b7ce6eb82ff0a507a23a16f2c9d51dd5c5a854954bdffe099b8d44f2aea"},'
        '"mode":"exact","seed":0,"tool":"riskdist","verdict":{"certificate":'
        '{"kind":"envelope-domination","psi":[1,0,0],"side":"left","values":["1","0"]},'
        '"status":"infeasible","tier":"exact-lattice"},"version":"0.1.0"}',
    ),
    # the relation's left projection misses y, which the family member
    # reads, so the sampled tier probes its support and pins the seeded
    # separating pair of the support escape
    "couple on two-point": (
        [
            "--space", json.dumps(TWO_POINT),
            "--measure", json.dumps(FAMILY_MEMBER),
            "--measure", json.dumps({"type": "dirac", "point": "y"}),
            "--pairs", json.dumps({"pairs": [["x", "y"]]}),
        ],
        (
            '{"command":"couple","inputs":{"<inline>":'
            '"637780835b73f7d6e2c3e9ed117df8d90387c823fedfda7e1ae602b9948bb71d"},'
            '"mode":"exact","seed":0,"tool":"riskdist","verdict":{"certificate":'
            '{"kind":"support-escape","point":1,"separating":[[17,21],[17,23]],'
            '"side":"left"},"status":"infeasible","tier":"refutation-sampled"},'
            '"version":"0.1.0"}'
        ),
    ),
    # these pin the seeded witness sample of the matrix audit, the
    # cross-check's instance count and the convergence probe family
    "audit metric": (
        ["--size", "6"],
        '{"audit":{"checks":{"diameter":true,"identity":true,"symmetry":true,'
        '"triangle":true,"witnesses":true,"zero-diagonal":true},'
        '"discrepancies":[],"failures":[],"instances":6,'
        '"stats":{"excluded-by-axiom-gate":0,"seed":0,'
        '"symmetry-rechecks":7},"suite":"metric-axioms"},'
        '"command":"audit metric",'
        '"inputs":{"<inline>":'
        '"f524644de100a8a6a10dc9cb66ed485961a48b201aea6d24e7041478bc0c0da8"},'
        '"mode":"exact","seed":0,"tool":"riskdist","version":"0.1.0"}',
    ),
    "oracle cross-check": (
        ["--size", "10"],
        '{"command":"oracle cross-check","cross-check":{"disagreements":[],'
        '"instances":36,"stats":{"feasible":4,"seed":0}},'
        '"inputs":{"<inline>":'
        '"f524644de100a8a6a10dc9cb66ed485961a48b201aea6d24e7041478bc0c0da8"},'
        '"mode":"exact","seed":0,"tool":"riskdist","version":"0.1.0"}',
    ),
    "converge": (
        ["--sequence", json.dumps(CONVERGE_SEQUENCE)],
        '{"audit":{"checks":{"lipschitz-control":true,'
        '"metric-vanishes":false,"pointwise-gaps-vanish":true,'
        '"supports-converge":false},'
        '"discrepancies":[{"kind":"pointwise-convergence-without-metric-convergence",'
        '"rows":[{"metric":"2","n":1,"pointwise-gap":"41","support-gap":"2"},'
        '{"metric":"2","n":2,"pointwise-gap":"41/2","support-gap":"2"},'
        '{"metric":"2","n":3,"pointwise-gap":"41/3","support-gap":"2"},'
        '{"metric":"2","n":4,"pointwise-gap":"41/4","support-gap":"2"}]}],'
        '"failures":[],"instances":4,"stats":{"rows":[{"metric":"2","n":1,'
        '"pointwise-gap":"41","support-gap":"2"},{"metric":"2","n":2,'
        '"pointwise-gap":"41/2","support-gap":"2"},{"metric":"2","n":3,'
        '"pointwise-gap":"41/3","support-gap":"2"},{"metric":"2","n":4,'
        '"pointwise-gap":"41/4","support-gap":"2"}],"seed":0},'
        '"suite":"convergence"},"command":"converge","csv":"n,pointwise_gap,'
        'metric,support_gap\\n1,41,2,2\\n2,41/2,2,2\\n3,41/3,2,2\\n4,41/4,2,2\\n",'
        '"inputs":{"<inline>":'
        '"37f02b872ad109abc6c679b2e82a935e111c254908d2324bff4bfb0f50a0d09e"},'
        '"mode":"exact","seed":0,"tool":"riskdist","version":"0.1.0"}',
    ),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_report_bytes_are_pinned(self, command, capsys):
        # a key is the command's words, then " on <space>" when its args
        # give a space of their own
        args, golden = GOLDEN[command]
        words = command.split(" on ")[0].split()
        if "--space" not in args and command != "converge":
            args = ["--space", GOLDEN_SPACE, *args]
        code = main([*words, *args, "--format", "json"])
        assert code == 0
        # the golden strings are compact; the report is that JSON, indented
        expected = json.dumps(json.loads(golden), indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected


# The float printer is a print format and nothing more: each request below,
# run with --mode float, reports what the exact run reports, with every
# scalar string s printed as repr(float(Fraction(s))).
NONMONOTONE_CAPACITY = {
    "type": "choquet",
    "capacity": {"a": "3/2", "b": 0, "c": 0, "a,b": "1/4", "a,c": 1, "b,c": 0, "a,b,c": 1},
}
PRINTED = {
    "distance": GOLDEN["distance"][0],
    "matrix": GOLDEN["matrix"][0],
    "couple": GOLDEN["couple"][0],
    "converge": GOLDEN["converge"][0],
    "validate": ["--measure", json.dumps([*GOLDEN_POOL, NONMONOTONE_CAPACITY])],
    "validate on two-point": [
        "--space", json.dumps(TWO_POINT), "--measure", json.dumps(NONMONOTONE_MEMBER),
    ],
}


def as_float_text(text: str) -> str:
    try:
        return repr(float(Fraction(text)))
    except ValueError:
        return text  # a label, a tier, a digest, "+inf": no rational


def floated(report):
    """The float-mode report the exact-mode ``report`` stands for."""
    if isinstance(report, dict):
        return {k: floated_csv(v) if k == "csv" else floated(v) for k, v in report.items()}
    if isinstance(report, list):
        return [floated(v) for v in report]
    if isinstance(report, str):
        return as_float_text(report)
    return report  # a count, an int of a payload, a bool: printed alike


def floated_csv(text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    counts = {k for k, name in enumerate(rows[0]) if name == "n"}  # a header's count column
    return "".join(
        ",".join(c if k in counts else as_float_text(c) for k, c in enumerate(row)) + "\n"
        for row in rows
    )


class TestFloatPrinting:
    @pytest.mark.parametrize("command", sorted(PRINTED))
    def test_float_reports_are_exact_reports_printed_as_floats(self, command, capsys):
        args = PRINTED[command]
        words = command.split(" on ")[0].split()
        if "--space" not in args and command != "converge":
            args = ["--space", GOLDEN_SPACE, *args]
        reports = {}
        for mode in ("exact", "float"):
            code = main([*words, *args, "--format", "json", "--mode", mode])
            reports[mode] = code, json.loads(capsys.readouterr().out)
        (exact_code, exact), (float_code, printed) = reports["exact"], reports["float"]
        assert exact_code == float_code
        assert exact.pop("mode") == "exact" and printed.pop("mode") == "float"
        assert printed == floated(exact)
        if command != "validate":  # whose report on path3 holds no scalar
            assert printed != exact
