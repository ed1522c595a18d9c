"""Fingerprint the CLI's output on every benchmark request of seeds 1-3,
in exact and in float mode, on ``couple`` runs of each exact-distance
request at threshold 0 and at the smallest positive level of its space,
and on ``distance`` and ``couple`` runs, at the same two thresholds, of
every pair of every mixed-matrix pool.

    python3 tools/output_identity.py --src src > new.txt
    python3 tools/output_identity.py --src ../old/src > old.txt
    diff old.txt new.txt

Run from the repository root.  The requests are the rounds of seeds 1, 2
and 3 of each workload in ``bench/workloads.py``, written by ``bench/run.py``'s
``write_inputs`` into one fixed work directory, so that the input paths,
and with them the input digests in the reports, are the same for every tree
compared.  A run holds an exclusive ``flock`` on the lock file beside that
directory, ``riskdist-output-identity.lock``, from before it writes its
first input until it has removed the directory, so a second run started
meanwhile waits for it instead of overwriting its inputs.  Each request
goes through ``riskdist.cli.main`` of the ``src`` tree given, in this
process, once as written (exact mode) and once more with ``--mode
float``.  One line per request and mode: workload, seed, index, mode,
exit code and the sha256 of its standard output.  Each
exact-distance request is also run as ``couple`` on the same space and
measures, whose report holds the verdict's certificate bytes: once with
``--threshold 0``, where the relation is the diagonal and every inner set
of a certificate is its set itself, and once with the smallest positive
distance of the space as the threshold, where the relation links
neighbours and a certificate reads the measures at inner sets that differ
from their sets.  Their lines name the workloads ``exact-distance/couple``
and ``exact-distance/couple-min-level``.
Each pair (a, b), a before b, of every mixed-matrix pool is run as
``distance`` and as ``couple`` at the same two thresholds on its measures,
each written to its own file.  So every tier's certificates are
fingerprinted byte for byte: the two-point pool's family members reach
the two-point tier, and the lattice members of the pools on three to six
points reach the lattice tier.  Their lines name the workloads
``mixed-matrix/distance``, ``mixed-matrix/couple`` and
``mixed-matrix/couple-min-level``, with the index ``<request>:<a>:<b>``.
Last, on each space of ``bench/workloads.py``, one fixed mixture with a
lattice part, half max(Dirac at the first point, uniform expectation) and
half the Dirac at the last point, which no benchmark pool holds, is run as
``distance`` against the uniform CVaR at level 1/2 and as ``matrix`` on
the pool of the mixture, that CVaR, its max part and that Dirac; their
lines name the workloads ``mixture-lattice/distance`` and
``mixture-lattice/matrix``, with seed 0 and the space's name as the index.
Each member of ``INVALID_MEMBERS``, a sound family member changed to
break one rule of the member checks, is run as ``validate`` on the
two-point space; their lines name the workload ``two-point-invalid/validate``,
with seed 0 and the rule's name as the index.

``tools/output_identity.sha256`` pins the sha256 of the whole output under
``TMPDIR=/tmp`` (the input paths appear in the reports), which CI compares
on every interpreter it runs:

    TMPDIR=/tmp python3 tools/output_identity.py --src src | sha256sum

A change that changes any output line updates that digest with it.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import io
import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (1, 2, 3)
MODES = ("exact", "float")

#: a sound family member, and one change of it per rule of the member
#: checks that a JSON spec can break (a NaN is refused as it is read, so
#: the rule against a NaN shift is out of reach, and the envelope t <=
#: f(t) <= 0, 0 <= f(t) <= t follows from f(0) = 0 and slopes in [0, 1])
SOUND_MEMBER = {
    "type": "two-point", "alpha": ["1/4", "1/4", "1/4", "1/4"], "lambda": ["0", "-1", "0", "0"],
    "f": {"knots": [["-2", "-1"], ["0", "0"], ["3", "1"]]},
}
INVALID_MEMBERS = {
    "knot-not-a-pair": {"f": {"knots": [["-2", "-1"], ["0"], ["3", "1"]]}},
    "knot-infinite": {"f": {"knots": [["-2", "-1"], ["0", "0"], ["inf", "1"]]}},
    "no-knot": {"f": {"knots": []}},
    "knots-not-increasing": {"f": {"knots": [["0", "0"], ["0", "0"]]}},
    "single-knot-nonzero": {"f": {"knots": [["1", "1/2"]]}},
    "nonzero-at-0": {"f": {"knots": [["1", "1/2"], ["3", "5/2"]]}},
    "slope-above-1": {"f": {"knots": [["0", "0"], ["1", "2"]]}},
    "not-concave-left": {"f": {"knots": [["-3", "-1"], ["-1", "-1"], ["0", "0"]]}},
    "not-convex-right": {"f": {"knots": [["0", "0"], ["1", "1"], ["3", "1"]]}},
    "weight-infinite": {"alpha": ["1/4", "1/4", "1/4", "inf"]},
    "weight-count": {"alpha": ["1/2", "1/2", "0"]},
    "weight-negative": {"alpha": ["3/4", "1/2", "-1/4", "0"]},
    "weight-sum": {"alpha": ["1/4", "1/4", "1/4", "1/5"]},
    "shift-count": {"lambda": ["0", "-1", "0"]},
    "shift-positive": {"lambda": ["+inf", "0", "0", "0"]},
    "shift-max": {"lambda": ["-1/2", "-inf", "0", "0"]},
    "shift-negative": {"lambda": ["0", "-1", "-1/3", "0"]},
    "shift-min": {"lambda": ["0", "-1", "inf", "1/3"]},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory whose riskdist runs")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH)]
    import run  # noqa: E402  (bench/run.py)
    import workloads  # noqa: E402
    from riskdist.cli import main as cli_main  # noqa: E402

    workdir = Path(tempfile.gettempdir()) / "riskdist-output-identity"
    with open(workdir.with_name(f"{workdir.name}.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        run_all(run, workloads, cli_main, workdir)
    return 0


def run_all(run, workloads, cli_main, workdir: Path):
    """Print the line of every request, with ``workdir`` for the inputs."""
    try:
        for workload in sorted(workloads.ROUNDS):
            for seed in SEEDS:
                for i, op in enumerate(run.write_inputs(workload, seed, workdir)):
                    runs = [(workload, i, op.argv)]
                    if workload == "exact-distance":
                        couple = ["couple", *op.argv[1:], "--threshold"]
                        runs.append((f"{workload}/couple", i, [*couple, "0"]))
                        level = str(min_level(op.req["space_json"]))
                        runs.append((f"{workload}/couple-min-level", i, [*couple, level]))
                    if workload == "mixed-matrix":
                        runs.extend(pair_runs(i, op, workdir))
                    for name, index, argv in runs:
                        for mode in MODES:
                            print(f"{name} {seed} {index} {mode} {cli_run(cli_main, argv + ['--mode', mode])}")
        fixed = mixture_runs(workloads, workdir) + invalid_runs(workloads, workdir)
        for name, index, argv in fixed:
            for mode in MODES:
                print(f"{name} 0 {index} {mode} {cli_run(cli_main, argv + ['--mode', mode])}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cli_run(cli_main, argv) -> str:
    """The exit code and the sha256 of the standard output of one CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def mixture_runs(workloads, workdir: Path) -> list:
    """(name, index, argv) of ``distance`` and ``matrix`` on the fixed
    mixture with a lattice part of each benchmark space."""
    workdir.mkdir(parents=True, exist_ok=True)
    runs = []
    for space, (labels, _) in workloads.SPACES.items():
        uniform = [f"1/{len(labels)}"] * len(labels)
        last = {"type": "dirac", "point": labels[-1]}
        lattice = {
            "type": "max",
            "components": [{"type": "dirac", "point": labels[0]}, {"type": "expectation", "weights": uniform}],
        }
        mixed = {"type": "mixture", "weights": ["1/2", "1/2"], "components": [lattice, last]}
        cvar = {"type": "cvar", "level": "1/2", "weights": uniform}
        files = {}
        for key, obj in (
            ("space", workloads.space_json(space)), ("mixed", mixed), ("cvar", cvar),
            ("pool", [mixed, cvar, lattice, last]),
        ):
            files[key] = workdir / f"mixture-{space}-{key}.json"
            files[key].write_text(json.dumps(obj))
        common = ["--space", str(files["space"]), "--seed", "0", "--format", "json"]
        pair = ["--measure", str(files["mixed"]), "--measure", str(files["cvar"])]
        runs.append(("mixture-lattice/distance", space, ["distance", *common, *pair]))
        runs.append(("mixture-lattice/matrix", space, ["matrix", *common, "--measure", str(files["pool"])]))
    return runs


def invalid_runs(workloads, workdir: Path) -> list:
    """(name, index, argv) of ``validate`` on each of ``INVALID_MEMBERS``."""
    workdir.mkdir(parents=True, exist_ok=True)
    space = workdir / "invalid-space.json"
    space.write_text(json.dumps(workloads.space_json("two-point")))
    runs = []
    for rule, change in INVALID_MEMBERS.items():
        path = workdir / f"invalid-{rule}.json"
        path.write_text(json.dumps(dict(SOUND_MEMBER, **change)))
        argv = ["validate", "--space", str(space), "--measure", str(path), "--seed", "0"]
        runs.append(("two-point-invalid/validate", rule, [*argv, "--format", "json"]))
    return runs


def min_level(space_json: dict) -> Fraction:
    """The smallest positive distance of a space given as JSON."""
    return min(Fraction(str(d)) for row in space_json["dist"] for d in row if Fraction(str(d)))


def pair_runs(i: int, op, workdir: Path) -> list:
    """(name, index, argv) of ``distance`` and of ``couple`` at threshold 0
    and at the smallest positive level on every pair of the pool of matrix
    request ``i``."""
    space, common = op.argv[1:3], op.argv[-4:]  # --space FILE; --seed 0 --format json
    level = str(min_level(op.req["space_json"]))
    files = []
    for k, member in enumerate(op.req["pool"]):
        path = workdir / f"pool{i}-member{k}.json"
        path.write_text(json.dumps(member["spec"]))
        files.append(str(path))
    runs = []
    for a in range(len(files)):
        for b in range(a + 1, len(files)):
            argv = [*space, "--measure", files[a], "--measure", files[b], *common]
            runs.append(("mixed-matrix/distance", f"{i}:{a}:{b}", ["distance", *argv]))
            couple = ["couple", *argv, "--threshold"]
            runs.append(("mixed-matrix/couple", f"{i}:{a}:{b}", [*couple, "0"]))
            runs.append(("mixed-matrix/couple-min-level", f"{i}:{a}:{b}", [*couple, level]))
    return runs


if __name__ == "__main__":
    sys.exit(main())
