"""A/B benchmark of the working tree against a base commit: alternating
``bench/run.py`` runs of both, summarised per workload, seed and
end-to-end metric.

    python3 tools/ab.py --base HEAD --out BENCH_<n>.json \\
        --run mixed-matrix:1:10 --run mixed-matrix:4:10 --run exact-distance:1:5

Run from the repository root.  ``--base`` is ``git archive``d into a
temporary directory, and both trees are compiled with ``compileall`` first,
so that neither side's first run pays for writing its bytecode (the
benchmark's ``setup_s`` times a fresh import).  Each ``--run
WORKLOAD:SEED:PAIRS`` makes PAIRS pairs of runs of ``bench/run.py
--workload WORKLOAD --seed SEED --seconds SECONDS --trace 0``, SECONDS being
``BENCHMARK.json``'s ``run_seconds``, one per tree and each in its own
tree, one at a time; the base runs first in even pairs and the working
tree first in odd ones.

The output file holds, per run and end-to-end metric of ``BENCHMARK.json``,
each side's median, quartiles and values, and how many pairs the working
tree won, lost and tied (by the metric's ``better`` direction), with each
side's summed ``failed`` and ``attempted`` counts and whether every run
checked ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git ref to compare against")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    runs = []
    for item in args.run:
        workload, seed, pairs = item.split(":")
        if int(pairs) < 2:
            parser.error(f"--run {item}: quartiles need at least 2 pairs")
        runs.append((workload, int(seed), int(pairs)))
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(
            ["git", "archive", args.base], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        trees = {"base": base, "head": ROOT}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
        results = [
            _compare(trees, workload, seed, pairs, spec["run_seconds"], metrics)
            for workload, seed, pairs in runs
        ]

    commit = subprocess.run(
        ["git", "rev-parse", args.base], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    report = {
        "base": {"ref": args.base, "commit": commit},
        "head": "working tree",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seconds": spec["run_seconds"],
        "runs": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _compare(trees, workload, seed, pairs, seconds, metrics) -> dict:
    """Alternating runs of both trees on one workload and seed, summarised."""
    got = {side: [] for side in trees}
    for k in range(pairs):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for side in order:
            got[side].append(_bench(trees[side], workload, seed, seconds))
            print(f"{workload} seed {seed} pair {k + 1}/{pairs} {side}: "
                  f"{got[side][-1]['metrics']['items_per_s']['value']:.0f} items/s", file=sys.stderr)
    summary = {}
    for name, m in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in got[side]] for side in trees}
        sign = 1 if m["better"] == "higher" else -1
        diffs = [sign * (h - b) for b, h in zip(values["base"], values["head"])]
        summary[name] = {
            "unit": m["unit"],
            "better": m["better"],
            **{side: _quartiles(values[side]) for side in trees},
            "wins": sum(d > 0 for d in diffs),
            "losses": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
        }
    return {
        "workload": workload,
        "seed": seed,
        "pairs": pairs,
        "correct": all(r["correct"] for side in trees for r in got[side]),
        **{
            f"{side}_failed": [sum(r["failed"] for r in got[side]), sum(r["attempted"] for r in got[side])]
            for side in trees
        },
        "metrics": summary,
    }


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one ``bench/run.py`` run in ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True,
                         timeout=seconds * 10 + 300).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


if __name__ == "__main__":
    sys.exit(main())
