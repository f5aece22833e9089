"""Per-layer spans for a traced benchmark run, recorded from outside the package.

The tracer wraps public functions of the package's modules. `from .x import y`
binds `y` in every importing module, so a wrapper is installed under every
module attribute that holds the original function, which catches the calls
between modules (`verify` calling `hankel_det`, `opoly` calling
`surd_states`, ...). Calls inside one module through its own globals are
caught the same way, since they look the name up in that module.

A span has a name, a start, an end, its parent span and the operation it
belongs to. Spans stay in memory until the run ends. A layer's self time is
its spans' durations minus the time covered by their wrapped children.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from statistics import mean
from types import ModuleType

#: Wrapped public functions as "module.function"; each is also its span's name.
FUNCTIONS = (
    "sequences.a_sequence",
    "hankel.hankel_det",
    "hankel.surd_states",
    "hankel.h_closed_form",
    "hankel.h_polynomial_form",
    "opoly.chain_coeffs",
    "opoly.h_from_products",
    "opoly.stieltjes_from_moments",
    "genfunc.big_g_series",
    "genfunc.f_series",
    "genfunc.rho_series",
    "weight.moment_quadrature",
    "verify.verify_cell",
    "cli.render",
    "cli.main",
)

#: Span name -> TruncatedSeries methods it covers (`__rmul__` is `__mul__`).
SERIES_METHODS = {
    "series.reciprocal": ("reciprocal",),
    "series.sqrt": ("sqrt",),
    "series.mul": ("__mul__", "__rmul__"),
}

#: Every span; each one reports its self time and its calls.
SPANS = FUNCTIONS + tuple(SERIES_METHODS)


class Tracer:
    """Spans, self times and layer counters for the traced rounds of one run."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, parent, op
        self.op = -1
        self._stack: list[list] = []  # [name, start, child_ns, span_index]
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0
        self.rounds = 0
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.term_reuse: list[float] = []
        self._round_terms: set[tuple[Fraction, int]] = set()
        self._round_built = 0

    # -- installation -----------------------------------------------------------

    def _modules(self) -> list[ModuleType]:
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        modules = self._modules()
        for span in FUNCTIONS:
            module_name, attr = span.split(".")
            original = getattr(sys.modules[f"{self.package}.{module_name}"], attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        series_class = sys.modules[f"{self.package}.series"].TruncatedSeries
        for span, attrs in SERIES_METHODS.items():
            for attr in attrs:
                original = series_class.__dict__[attr]
                self._patches.append((series_class, attr, original))
                setattr(series_class, attr, self._wrap(span, original))
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------------

    def _wrap(self, span: str, func):
        stack = self._stack
        spans = self.spans

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            frame = [span, time.perf_counter_ns(), 0, len(spans)]
            spans.append((span, 0, 0, parent, self.op))
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                spans[frame[3]] = (span, frame[1], end, parent, self.op)
                self.self_ns[span] += duration - frame[2]
                self.calls[span] += 1
                if stack:
                    stack[-1][2] += duration
            self._count(span, result)
            return result

        return wrapper

    def _count(self, span: str, result) -> None:
        if span == "sequences.a_sequence":
            L = result.params.L
            self._round_built += len(result.terms)
            self._round_terms.update((L, k) for k in range(len(result.terms)))
            self.counts["sequences.terms_built"] += len(result.terms)
        elif span == "hankel.surd_states":
            self.counts["hankel.surd_states.states_built"] += len(result)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.counts["runtime.gc_ns"] += time.perf_counter_ns() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    def add_output(self, nbytes: int) -> None:
        self.counts["cli.output_bytes"] += nbytes

    def end_round(self) -> None:
        self.rounds += 1
        if self._round_built:
            self.term_reuse.append(len(self._round_terms) / self._round_built)
        self._round_terms.clear()
        self._round_built = 0

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit), each a mean per traced round."""
        per_round = max(self.rounds, 1)
        out: dict[str, tuple[float, str]] = {}
        for span in SPANS:
            out[f"{span}.self_ms"] = (self.self_ns[span] / 1e6 / per_round, "ms")
        for span in SPANS:
            out[f"{span}.calls"] = (self.calls[span] / per_round, "count")
        out["sequences.terms_built"] = (self.counts["sequences.terms_built"] / per_round, "count")
        out["sequences.term_reuse"] = (mean(self.term_reuse) if self.term_reuse else 0.0, "ratio")
        out["hankel.surd_states.states_built"] = (
            self.counts["hankel.surd_states.states_built"] / per_round,
            "count",
        )
        out["cli.output_bytes"] = (self.counts["cli.output_bytes"] / per_round, "bytes")
        out["runtime.gc_ms"] = (self.counts["runtime.gc_ns"] / 1e6 / per_round, "ms")
        out["runtime.gc_collections"] = (self.counts["runtime.gc_collections"] / per_round, "count")
        return out

    def dump(self, path: Path, extra: dict) -> None:
        """Write the spans (times in ns from the first span) and the metrics."""
        origin = min((s[1] for s in self.spans), default=0)
        record = {
            **extra,
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [[n, s - origin, e - origin, p, o] for n, s, e, p, o in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))
