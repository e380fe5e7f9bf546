"""Spans around calls into entpower's layers, recorded from outside.

The program has no tracing of its own, so the traced run replaces
module attributes with timing wrappers for the duration of one
operation: calls from ``cli`` into ``montecarlo``, from ``montecarlo``
into ``ensembles`` and ``dynamics``, and from ``dynamics`` into itself
and ``entanglement``.  Each call becomes a span (op, parent, name,
start ns, end ns) kept in memory; per-layer figures are derived from
the spans afterwards.  Attributes a later version of the program no
longer has are skipped, and the figures they feed read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (module, attribute looked up at call time, span name)
PATCHES = (
    ("entpower.cli", "run_experiment", "montecarlo.run_experiment"),
    ("entpower.montecarlo", "sample_cue", "ensembles.sample_cue"),
    ("entpower.montecarlo", "sample_coe", "ensembles.sample_coe"),
    ("entpower.montecarlo", "random_state", "ensembles.random_state"),
    ("entpower.montecarlo", "product_state", "ensembles.product_state"),
    ("entpower.montecarlo", "entropy_series", "dynamics.entropy_series"),
    ("entpower.montecarlo", "operator_entanglement_series", "dynamics.operator_entanglement_series"),
    ("entpower.montecarlo", "asymptotic_entropy_spectral", "dynamics.asymptotic_entropy_spectral"),
    ("entpower.montecarlo", "time_average_entropy", "dynamics.time_average_entropy"),
    ("entpower.dynamics", "spectral_decompose", "dynamics.spectral_decompose"),
    ("entpower.dynamics", "purity_batch", "entanglement.purity_batch"),
    ("entpower.dynamics", "operator_purity", "entanglement.operator_purity"),
)


class Tracer:
    """In-memory span recorder; spans[i] = (op, parent index or -1, name, t0_ns, t1_ns)."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int] | None] = []
        self.tables: list = []  # ResultTables returned by traced run_experiment calls
        self._stack: list[int] = []
        self.op = -1

    def call(self, name: str, fn, /, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self.op, parent, name, t0, t1)
        if name == "montecarlo.run_experiment":
            self.tables.append(result)
        return result

    @contextlib.contextmanager
    def installed(self, op: int):
        """Wrap every PATCHES attribute that exists while one operation runs."""
        self.op = op
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, functools.partial(self.call, name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def op_totals(self, op: int) -> tuple[dict[str, int], dict[str, int]]:
        """Inclusive and self nanoseconds per span name for one operation."""
        total: dict[str, int] = defaultdict(int)
        children: dict[int, int] = defaultdict(int)
        own = [(sid, s) for sid, s in enumerate(self.spans) if s is not None and s[0] == op]
        for _, (_, parent, _, t0, t1) in own:
            if parent >= 0:
                children[parent] += t1 - t0
        self_ns: dict[str, int] = defaultdict(int)
        for sid, (_, _, name, t0, t1) in own:
            total[name] += t1 - t0
            self_ns[name] += t1 - t0 - children[sid]
        return total, self_ns


def layer_figures(total: dict[str, int], self_ns: dict[str, int], samples: int) -> dict[str, float]:
    """Per-layer figures of one traced operation: microseconds per sample, cli in ms per call."""
    us = 1e-3 / samples
    return {
        "ensembles.sample_us": (total["ensembles.sample_cue"] + total["ensembles.sample_coe"]) * us,
        "ensembles.state_us": (total["ensembles.random_state"] + total["ensembles.product_state"]) * us,
        "dynamics.decompose_us": total["dynamics.spectral_decompose"] * us,
        "dynamics.orbit_us": self_ns["dynamics.entropy_series"] * us,
        "entanglement.purity_batch_us": total["entanglement.purity_batch"] * us,
        "dynamics.opent_series_us": self_ns["dynamics.operator_entanglement_series"] * us,
        "entanglement.operator_purity_us": total["entanglement.operator_purity"] * us,
        "dynamics.pairing_us": (self_ns["dynamics.asymptotic_entropy_spectral"]
                                + self_ns["dynamics.time_average_entropy"]) * us,
        "montecarlo.driver_us_per_sample": self_ns["montecarlo.run_experiment"] * us,
        "cli.overhead_ms": self_ns["cli.main"] * 1e-6,
    }
