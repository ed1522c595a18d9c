"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` rebinds each traced function at its import sites in the
``riskdist`` modules (and in the defining module where the package calls it
internally), so the package itself is unchanged.  A wrapper does nothing
but call through while the tracer is inactive; the benchmark activates it
only around requests.

Each span knows its duration and how much of it its child spans covered, so
a layer's self time is its duration minus its children.  Spans of the
coarse layers (requests, distances, admissibility, witness checks, axiom
checks, supports) are kept in memory with their parent and request ids and
written out at the end; the hot leaves (measure, Choquet, family and witness
evaluations, run hundreds of thousands of times per request) are only
counted and timed, which keeps memory bounded.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.request = 0
        self.stack: list[list] = []  # open spans: [child seconds, kept span id]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self._restore: list[tuple] = []

    def wrap(self, fn, names, keep=False, after=None):
        """A wrapper recording one span under each of ``names``; ``after``
        sees the result and the span's self time."""
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            frame = [0.0, None]
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(tr.spans) + 1
                tr.spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                for name in names:
                    tr.calls[name] += 1
                    tr.self_s[name] += own
                if keep:
                    tr.spans[frame[1] - 1] = (frame[1], parent, tr.request, names[0], start, end)
            if after is not None:
                after(tr, result, own)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def exclude(self, seconds: float):
        """Count time spent outside the program (the speed clock's sampling
        handler) as a child of the innermost open span."""
        if self.stack:
            self.stack[-1][0] += seconds

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        from riskdist import capacity, coupling, io, measures, metric, twopoint

        def ladder(tr, result, own):
            tr.calls["metric.ladder_levels"] += len(result.ladder)

        def tier(tr, result, own):
            # an unknown verdict carries the tier that failed to decide it
            key = "unknown" if result.status == "unknown" else result.tier
            tr.calls[f"coupling.tier.{key}"] += 1
            side = "coupling.exact" if result.tier in ("exact-choquet", "dirac") else "coupling.sampled"
            tr.calls[side] += 1
            tr.self_s[side] += own

        # (function, span names, keep spans, result hook, also its own module)
        targets = [
            (io.load_space, ("io.load",), False, None, False),
            (io.load_measure, ("io.load",), False, None, False),
            (io.dump_report, ("io.dump",), False, None, False),
            (io.distance_summary, ("io.dump",), False, None, False),
            (io.audit_summary, ("io.dump",), False, None, False),
            (io.jsonable, ("io.dump",), False, None, False),
            (metric.bottleneck_distance, ("metric.distance",), True, ladder, True),
            (metric.distance_matrix, ("metric.matrix",), True, None, False),
            (coupling.admissible, ("coupling.admissible",), True, tier, False),
            (coupling.verify_coupling, ("coupling.verify",), True, None, True),
            (measures.verify_axioms, ("measures.verify_axioms",), True, None, False),
            (measures.support, ("measures.support",), True, None, False),
            (measures.evaluate_values, ("measures.eval",), False, None, True),
            (twopoint.two_point_eval, ("twopoint.eval",), False, None, False),
        ]
        modules = [m for name, m in sys.modules.items() if name.startswith("riskdist")]
        for fn, names, keep, after, internal in targets:
            for module in modules:
                if module.__name__ == fn.__module__ and not internal:
                    continue
                for attr, bound in list(vars(module).items()):
                    if bound is not fn:
                        continue
                    span_names = names
                    if module is metric and attr == "verify_axioms":
                        # the axiom gate in front of every distance
                        span_names = names + ("metric.gate",)
                    self._rebind(module, attr, self.wrap(fn, span_names, keep, after))
        self._rebind(capacity.Capacity, "choquet", self.wrap(capacity.Capacity.choquet, ("capacity.choquet",)))
        self._rebind(
            coupling.CouplingWitness,
            "evaluate_values",
            self.wrap(coupling.CouplingWitness.evaluate_values, ("coupling.witness_eval",)),
        )

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.calls), dict(self.self_s)

    def dump(self, path, header: dict):
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][4] if spans else 0.0
        payload = {
            **header,
            "columns": ["id", "parent", "request", "name", "start_ms", "end_ms"],
            "spans": [
                [i, p, r, n, round((a - t0) * 1e3, 4), round((b - t0) * 1e3, 4)]
                for i, p, r, n, a, b in spans
            ],
            "calls": dict(self.calls),
            "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# per-layer metric -> (counter, kind); "ms" reads self time, "count" calls
LAYER_METRICS = {
    "cli.self_ms": ("cli.request", "ms"),
    "io.load_ms": ("io.load", "ms"),
    "io.dump_ms": ("io.dump", "ms"),
    "metric.distance_calls": ("metric.distance", "count"),
    "metric.ladder_levels": ("metric.ladder_levels", "count"),
    "metric.distance_ms": ("metric.distance", "ms"),
    "metric.gate_ms": ("metric.gate", "ms"),
    "metric.matrix_ms": ("metric.matrix", "ms"),
    "coupling.admissible_calls": ("coupling.admissible", "count"),
    "coupling.exact_ms": ("coupling.exact", "ms"),
    "coupling.sampled_ms": ("coupling.sampled", "ms"),
    "coupling.tier.exact-choquet": ("coupling.tier.exact-choquet", "count"),
    "coupling.tier.dirac": ("coupling.tier.dirac", "count"),
    "coupling.tier.refutation-sampled": ("coupling.tier.refutation-sampled", "count"),
    "coupling.tier.witness-found": ("coupling.tier.witness-found", "count"),
    "coupling.tier.unknown": ("coupling.tier.unknown", "count"),
    "coupling.verify_calls": ("coupling.verify", "count"),
    "coupling.verify_ms": ("coupling.verify", "ms"),
    "coupling.witness_evals": ("coupling.witness_eval", "count"),
    "coupling.witness_eval_ms": ("coupling.witness_eval", "ms"),
    "measures.evals": ("measures.eval", "count"),
    "measures.eval_ms": ("measures.eval", "ms"),
    "measures.support_ms": ("measures.support", "ms"),
    "measures.verify_axioms_calls": ("measures.verify_axioms", "count"),
    "measures.verify_axioms_ms": ("measures.verify_axioms", "ms"),
    "capacity.choquet_calls": ("capacity.choquet", "count"),
    "capacity.choquet_ms": ("capacity.choquet", "ms"),
    "twopoint.evals": ("twopoint.eval", "count"),
    "twopoint.eval_ms": ("twopoint.eval", "ms"),
}
