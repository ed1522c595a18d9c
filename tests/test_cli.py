import json
from pathlib import Path

import pytest

from riskdist.cli import main

P3 = {"points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
DIRAC_A = {"type": "dirac", "point": "a"}
DIRAC_C = {"type": "dirac", "point": "c"}


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

    def test_sampled_witness_is_labelled_sampled(self, space_file, capsys):
        uniform = ["1/3", "1/3", "1/3"]
        cv = {"type": "cvar", "level": "1/2", "weights": uniform}
        lattice = {
            "type": "max",
            "components": [DIRAC_A, {"type": "expectation", "weights": uniform}],
        }
        code = main(
            [
                "distance",
                "--space", space_file,
                "--measure", json.dumps(cv),
                "--measure", json.dumps(lattice),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("1 (sampled, witness-found)")

    def test_undecided_ladder_exits_one(self, space_file, monkeypatch, capsys):
        from riskdist import metric
        from riskdist.coupling import FeasibilityVerdict

        monkeypatch.setattr(
            metric,
            "admissible",
            lambda *args, **kwargs: FeasibilityVerdict("unknown", "refutation-sampled"),
        )
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
        assert "feasible" in out and "witness: pass" in out

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
                "--space", json.dumps(P3),
                "--sequence", write(tmp_path, "seq.json", seq),
                "--format", "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,pointwise_gap,metric,support_gap"
        assert ",2,2" in out

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
