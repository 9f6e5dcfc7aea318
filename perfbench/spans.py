"""Spans and counts at the layer boundaries the CLI calls through.

`Tracer.patch()` replaces the public functions on their modules
(`circuit.parse_expression`, `simulate.simulate_program`, ...) with
wrappers that record a span per call: name, start, end and parent span.
The CLI and the library call these through module attributes or module
globals, so every call goes through a wrapper while the patch is active.
Spans stay in memory; `self_times()` turns them into per-layer self times.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from crncalc import circuit, cli, rates, simulate

# span name -> per-layer metric that receives the span's self time
LAYERS = {
    "cli": "cli.self_s",
    "parse_expression": "circuit.parse_s",
    "lower_to_circuit": "circuit.lower_s",
    "flatten": "circuit.flatten_s",
    "format_program": "circuit.format_s",
    "predict_speed": "circuit.predict_s",
    "compile_circuit_rhs": "simulate.codegen_s",
    "simulate_program": "simulate.integrate_s",
    "estimate_rate": "rates.estimate_s",
}

COUNTS = ("circuit.gates", "circuit.species", "simulate.steps",
          "simulate.rhs_evals", "simulate.blowups", "rates.estimates")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            if name == "estimate_rate":  # calls, including those that raise
                self.counts["rates.estimates"] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:  # a hook may return a replacement
                result = on_result(result) or result
            return result
        return traced

    def _count_rhs(self, rhs):
        counts = self.counts

        def counted(t, y):
            counts["simulate.rhs_evals"] += 1
            return rhs(t, y)
        return counted

    def _on_circuit(self, c):
        self.counts["circuit.gates"] += len(c.gates)

    def _on_program(self, prog):
        self.counts["circuit.species"] += len(prog.network.species)

    def _on_trajectory(self, traj):
        self.counts["simulate.steps"] += len(traj.times) - 1
        self.counts["simulate.blowups"] += traj.termination.status == "blowup"

    @contextmanager
    def patch(self):
        """Route the layer functions through span-recording wrappers."""
        targets = [
            (circuit, "parse_expression", None),
            (circuit, "lower_to_circuit", self._on_circuit),
            (circuit, "flatten", self._on_program),
            (circuit, "format_program", None),
            (circuit, "predict_speed", None),
            (simulate, "compile_circuit_rhs", self._count_rhs),
            (simulate, "simulate_program", self._on_trajectory),
            (rates, "estimate_rate", None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, hook in targets:
                setattr(mod, attr, self._wrap(attr, getattr(mod, attr), hook))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def run(self, argv: list[str]) -> int:
        with self.span("cli"):
            return cli.main(argv)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span time minus the time of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {metric: 0.0 for metric in LAYERS.values()}
        for (name, start, end, _), c in zip(self.spans, child):
            out[LAYERS[name]] += (end - start) - c
        return out

    def records(self, round_index: int) -> list[dict]:
        return [{"round": round_index, "id": i, "name": n, "start": s, "end": e,
                 "parent": p} for i, (n, s, e, p) in enumerate(self.spans)]
