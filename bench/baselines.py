"""Re-measure the single-call timings quoted in ROADMAP.md.

    python3 bench/baselines.py

Each figure is the median of REPEATS calls on a fixed input, in wall
milliseconds and in milliseconds at the reference speed of ``clock.py``:

* a grid6 distance on the exact capacity tier, without the witness check;
* a grid6 distance with a lattice max/min member (the sampled tier);
* one ``verify_coupling`` of a grid6 lower-extension witness;
* one two-point axiom check at 1000 samples.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from clock import SpeedClock  # noqa: E402
from riskdist.coupling import lower_coupling, verify_coupling  # noqa: E402
from riskdist.io import load_measure, load_space  # noqa: E402
from riskdist.measures import verify_axioms  # noqa: E402
from riskdist.metric import bottleneck_distance  # noqa: E402
from riskdist.space import sublevel_relation  # noqa: E402

REPEATS = 15


def timed(clock, fn, make_args):
    """Median time of fn on fresh arguments, built outside the timed call:
    measures memoise their evaluations, so each call gets new ones."""
    wall, scaled = [], []
    for args in [make_args() for _ in range(REPEATS)]:
        start = perf_counter()
        fn(*args)
        end = perf_counter()
        wall.append(end - start)
        scaled.append(clock.scaled(start, end))
    return statistics.median(wall) * 1e3, statistics.median(scaled) * 1e3


def main():
    rng = random.Random("baselines")
    grid = load_space(workloads.space_json("grid6"))
    two = load_space(workloads.space_json("two-point"))
    labels = workloads.SPACES["grid6"][0]
    a, b, c = (workloads.capacity_measure(rng, labels, "choquet", f) for f in workloads.FLAVOURS[1:])
    parts = [workloads.capacity_measure(rng, labels, k) for k in ("dirac", "expectation")]
    lattice = {"type": "max", "components": parts}
    exact = bottleneck_distance(load_measure(a, grid), load_measure(b, grid))
    relation = sublevel_relation(grid, exact.value)

    def fresh(*specs, space=grid):
        return lambda: [load_measure(spec, space) for spec in specs]

    cases = {
        "grid6 exact-tier distance": (bottleneck_distance, fresh(a, b)),
        "grid6 sampled-tier distance (lattice member)": (bottleneck_distance, fresh(c, lattice)),
        "verify_coupling, grid6 witness": (
            verify_coupling,
            lambda: [lower_coupling(*fresh(a, b)(), relation)],
        ),
        "two-point axiom check, 1000 samples": (
            lambda mu: verify_axioms(mu, samples=1000),
            fresh(workloads.FIXED_SETS[0], space=two),
        ),
    }
    print(f"nproc {os.cpu_count()}, CPython {platform.python_version()}, median of {REPEATS}")
    with SpeedClock() as clock:
        for name, (fn, make_args) in cases.items():
            wall, scaled = timed(clock, fn, make_args)
            print(f"{name}: {wall:.1f} ms wall, {scaled:.1f} ms at reference speed")


if __name__ == "__main__":
    main()
