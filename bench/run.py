"""Benchmark of the riskdist CLI: one workload per run, checked outputs.

    python3 bench/run.py --workload exact-distance --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workload seed makes the inputs; the
program receives only the generated JSON files.  Each request goes through
``riskdist.cli.main`` with ``--format json`` in this process, as a closed
loop with one client: the next request starts when the previous one has
returned.  A run repeats the workload's round, a fixed list of requests,
until ``--seconds`` have passed, and checks every output with the
independent checkers of ``checks.py``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones of a
traced run (see README.md).  A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9

import checks  # noqa: E402  (the script's directory is on sys.path)
import workloads  # noqa: E402
from clock import SpeedClock  # noqa: E402


class Op(NamedTuple):
    """One request: its argv, what its checker needs, and how many items
    (distances or validated measures) it computes."""

    argv: list
    kind: str
    req: dict
    items: int


def write_inputs(workload: str, seed: int, workdir: Path) -> list:
    """Generate the round and write its JSON inputs; returns the ops."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    def put(name, obj):
        path = workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    space_files = {s: put(f"space-{s}.json", workloads.space_json(s)) for s in workloads.SPACES}
    # Every request carries --seed 0: the program's own sampling (which
    # matrix pairs it re-verifies, its refutation probes) then does not vary
    # with the workload seed, which only changes the measures.
    common = ["--seed", "0", "--format", "json"]
    ops = []
    for i, r in enumerate(workloads.ROUNDS[workload](seed)):
        if workload == "exact-distance":
            a, b = (put(f"req{i}-{side}.json", m) for side, m in zip("ab", r["measures"]))
            argv = ["distance", "--space", space_files[r["space"]], "--measure", a, "--measure", b]
            req = {"space_json": workloads.space_json(r["space"]), "measures": r["measures"]}
            ops.append(Op(argv + common, "distance", req, 1))
        elif workload == "mixed-matrix":
            pool = put(f"pool{i}-{r['space']}.json", [m["spec"] for m in r["pool"]])
            argv = ["matrix", "--space", space_files[r["space"]], "--measure", pool]
            req = {"space_json": workloads.space_json(r["space"]), "pool": r["pool"]}
            k = len(r["pool"])
            ops.append(Op(argv + common, "matrix", req, k * (k + 1) // 2))
        else:
            spec = put(f"set{i}.json", r["spec"])
            argv = ["validate", "--space", space_files["two-point"], "--measure", spec]
            ops.append(Op(argv + common, "validate", {"spec": r["spec"]}, 1))
    return ops


def start_up(clock: SpeedClock) -> float:
    """Seconds, at reference speed, for a fresh interpreter to start and
    import ``riskdist.cli``: what a request pays before it can run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import riskdist.cli"], env=env, check=True, timeout=60)
    end = perf_counter()
    # the child runs on its own core, so the handler's time is not taken off
    return (end - start) * clock.factor(start, end)


def set_up(workload: str, seed: int, workdir: Path, clock: SpeedClock):
    """setup_s, the import times and the input times: interpreter start-up
    and import, then generating the round and writing its inputs, each
    repeated SETUP_REPEATS times; setup_s is the sum of the two medians."""
    imports = [start_up(clock) for _ in range(SETUP_REPEATS)]
    inputs = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        ops = write_inputs(workload, seed, workdir)
        inputs.append(clock.scaled(start, perf_counter()))
    return statistics.median(imports) + statistics.median(inputs), imports, inputs, ops


def call(cli_main, op: Op):
    """(start, end, exit code, stdout, stderr) of one in-process request.
    A crash is an output like any other: its checker reports it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli_main(op.argv)
        except Exception:
            code = None
            traceback.print_exc()
        end = perf_counter()
    return start, end, code, out.getvalue(), err.getvalue()


def check(op: Op, code: int, text: str, err: str, rng) -> tuple[list, bool]:
    """(errors, failed) for one output."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return [f"exit {code}, no JSON report: {err.strip()[:200]}"], False
    if op.kind == "distance":
        errs, failed = checks.check_distance(op.req, report, rng), False
    elif op.kind == "matrix":
        errs, failed = checks.check_matrix(op.req, report, rng), False
    else:
        errs, failed = checks.check_validate(op.req, report)
        verdict = (report.get("measures") or [{}])[0].get("verdict")
        if code != (1 if verdict == "fail" else 0):
            errs.append(f"exit code {code} with verdict {verdict}")
        return errs, failed
    if code != 0:
        errs.append(f"exit code {code}: {err.strip()[:200]}")
    return errs, failed


class Runner:
    """Runs whole rounds and checks outputs; an output identical to one
    already checked for the same request shares its verdict."""

    def __init__(self, cli_main, ops, seed, clock: SpeedClock):
        self.cli_main, self.ops, self.seed, self.clock = cli_main, ops, seed, clock
        self.checked: dict = {}
        self.first_outputs: list = [None] * len(ops)
        self.errors: list = []
        self.samples: list = [[] for _ in ops]  # scaled latency of each repeat
        self.spans: list = []  # (start, end) of each round
        self.attempted = self.failed = 0

    def round(self, before=None):
        round_start = perf_counter()
        for i, op in enumerate(self.ops):
            if before:
                before(i)
            start, end, code, text, err = call(self.cli_main, op)
            self.samples[i].append(self.clock.scaled(start, end))
            key = (i, code, hashlib.sha256(text.encode()).digest())
            if key not in self.checked:
                rng = random.Random(f"check:{self.seed}:{i}")
                self.checked[key] = check(op, code, text, err, rng)
                errs = self.checked[key][0]
                self.errors.extend(f"request {i} ({op.argv[0]}): {e}" for e in errs)
            if self.first_outputs[i] is None:
                self.first_outputs[i] = (code, text)
            self.attempted += 1
            self.failed += self.checked[key][1]
        self.spans.append((round_start, perf_counter()))

    def run_for(self, seconds, before=None):
        start = perf_counter()
        while True:
            self.round(before)
            if perf_counter() - start >= seconds:
                return

    def typical(self, rounds=slice(None)) -> list:
        """Each request's median scaled latency over its repeats."""
        return [statistics.median(s[rounds]) for s in self.samples]


def end_to_end(runner: Runner, setup_s: float) -> dict:
    lat = runner.typical()
    busy = sum(lat)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "items_per_s": (sum(op.items for op in runner.ops) / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        # inclusive: on a short round the exclusive method extrapolates
        # past the slowest request
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mib": (peak, "MiB"),
    }


def self_test(workload: str, runner: Runner) -> list:
    """Feed each checker a corrupted copy of a real output; every corruption
    must be flagged by the checker it targets.  Returns what was missed."""
    import selftest

    missed = []
    for name, op, code, text in selftest.corruptions(workload, runner.ops, runner.first_outputs):
        errs, failed = check(op, code, text, "", random.Random(f"selftest:{name}"))
        hit = failed if name == "census-missed" else any(e.startswith(name + ":") for e in errs)
        if not hit:
            missed.append(name)
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "riskdist" / "cli.py").is_file():
        print(f"error: no riskdist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riskdist.cli as cli

    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with SpeedClock() as clock:
            setup_s, imports, inputs, ops = set_up(args.workload, args.seed, workdir, clock)
            runner = Runner(cli.main, ops, args.seed, clock)
            if args.trace:
                metrics = traced_run(args, runner)
            else:
                runner.run_for(args.seconds)
                metrics = end_to_end(runner, setup_s)
        missed = self_test(args.workload, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in runner.errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    if missed:
        print(f"self-test: corruptions not flagged: {missed}", file=sys.stderr)
    first, last = runner.spans[0][0], runner.spans[-1][1]
    print(
        f"{args.workload} seed={args.seed}: {len(runner.spans)} rounds of {len(runner.ops)} "
        f"requests, {runner.failed}/{runner.attempted} failed, {len(runner.errors)} check "
        f"errors; start-up and import {[round(t, 4) for t in imports]} s, inputs "
        f"{[round(t, 4) for t in inputs]} s; machine speed factor "
        f"{clock.factor(first, last):.3f}",
        file=sys.stderr,
    )
    result = {
        "correct": not runner.errors and not missed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, runner: Runner) -> dict:
    """Untraced rounds for half the time, then traced rounds for the other
    half.  Counts are per round; times are the median over traced rounds of
    each layer's self time, scaled like the latencies."""
    from spans import LAYER_METRICS, Tracer

    runner.run_for(args.seconds / 2)
    plain = len(runner.spans)
    tracer = Tracer()
    tracer.install()
    # the clock's sampling handler runs inside spans: keep it out of self times
    runner.clock.on_sample = tracer.exclude
    snapshots = [tracer.snapshot()]

    def before(i):
        tracer.request = runner.attempted

    runner.cli_main = tracer.wrap(runner.cli_main, ("cli.request",), keep=True)
    tracer.active = True
    start = perf_counter()
    try:
        while True:
            runner.round(before)
            snapshots.append(tracer.snapshot())
            if perf_counter() - start >= args.seconds / 2:
                break
    finally:
        tracer.active = False
        runner.clock.on_sample = None
        tracer.uninstall()
    calls, times = [], []
    for (old_calls, old_times), (new_calls, new_times) in zip(snapshots, snapshots[1:]):
        calls.append({k: v - old_calls.get(k, 0) for k, v in new_calls.items()})
        times.append({k: v - old_times.get(k, 0.0) for k, v in new_times.items()})
    for r, c in enumerate(calls[1:], 1):
        if c != calls[0]:
            diff = sorted(k for k in c.keys() | calls[0].keys() if c.get(k) != calls[0].get(k))
            runner.errors.append(f"trace: traced round {r} counts differ from round 0 in {diff}")
    if args.workload == "exact-distance":
        for tier in ("refutation-sampled", "witness-found"):
            if calls[0].get(f"coupling.tier.{tier}"):
                runner.errors.append(f"trace: {calls[0][f'coupling.tier.{tier}']} {tier} verdicts")
    factors = [runner.clock.factor(a, b) for a, b in runner.spans[plain:]]
    metrics = {}
    for name, (counter, kind) in LAYER_METRICS.items():
        if kind == "count":
            metrics[name] = (calls[0].get(counter, 0), "count")
        else:
            scaled = [t.get(counter, 0.0) * f * 1e3 for t, f in zip(times, factors)]
            metrics[name] = (statistics.median(scaled), "ms")
    traced = sum(runner.typical(slice(plain, None)))
    untraced = sum(runner.typical(slice(0, plain)))
    metrics["trace.overhead_pct"] = ((traced / untraced - 1) * 100, "%")
    OUT.mkdir(exist_ok=True)
    tracer.dump(
        OUT / f"trace-{args.workload}-{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "traced_rounds": len(calls)},
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
