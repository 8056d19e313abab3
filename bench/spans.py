"""Per-layer spans for blockade_lab, recorded from outside the library.

Tracing replaces every module attribute that holds one of the traced
functions, in every loaded ``blockade_lab`` module, with a wrapper, and
wraps two methods of ``LiouvillianBasis`` on the class. Calls are therefore
caught where the caller looks the name up (``blockade_lab.sweep.steady_state``,
``blockade_lab.correlations.lowering_operators``, ...). The originals are
put back when tracing ends; no library file changes.

Each wrapper records a span with its parent, so a layer's self time is its
spans' durations minus the durations of their direct children. Counts are
computed from arguments and results, never from timings, so they repeat
exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    layer: str
    span_id: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    counts: dict[str, float] = field(default_factory=dict)


def _rk4_steps(duration: float, dt: float) -> int:
    """Steps a fixed-step RK4 span of the library takes: full steps plus a shortened last one."""
    n_full = int(duration / dt)
    remainder = duration - n_full * dt
    return n_full + (1 if remainder > 1e-9 * dt else 0)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _steady_state_counts(args, kwargs, result, before):
    n = _arg(args, kwargs, 0, "liou").shape[0]
    return {"bytes_computed": 16 * n * n}


def _g2_tau_counts(args, kwargs, result, before):
    taus = [float(t) for t in _arg(args, kwargs, 3, "tau_grid")]
    dt = _arg(args, kwargs, 4, "dt")
    return {"rk4_steps": sum(_rk4_steps(hi - lo, dt) for lo, hi in zip(taus, taus[1:]))}


def _amplitude_ode_counts(args, kwargs, result, before):
    t_final, dt = _arg(args, kwargs, 1, "t_final"), _arg(args, kwargs, 2, "dt")
    t_mark = 0.9 * t_final
    return {"rk4_steps": _rk4_steps(t_mark, dt) + _rk4_steps(t_final - t_mark, dt)}


def _sweep_counts(args, kwargs, result, before):
    failed = sum(1 for s in result.status if s != "ok")
    return {"points": len(result.status), "failed_points": failed}


def _stream_position(args, kwargs):
    stream = _arg(args, kwargs, 1, "stream")
    return stream.tell() if stream.seekable() else None


def _csv_write_counts(args, kwargs, result, before):
    if before is None:
        return {}
    return {"bytes": _arg(args, kwargs, 1, "stream").tell() - before}


# (module, attribute or Class.method, layer, count before the call, count after it)
TARGETS = (
    ("quantum_core", "build_hamiltonian", "quantum_core.build_hamiltonian", None, None),
    ("quantum_core", "lowering_operators", "quantum_core.lowering_operators", None, None),
    ("lindblad", "model_for", "lindblad.assemble", None, None),
    ("lindblad", "build_liouvillian", "lindblad.assemble", None, None),
    ("lindblad", "LiouvillianBasis.__init__", "lindblad.assemble", None, None),
    ("lindblad", "LiouvillianBasis.assemble", "lindblad.assemble", None, None),
    ("lindblad", "steady_state", "lindblad.steady_state", None, _steady_state_counts),
    ("correlations", "mean_photon", "correlations.observables", None, None),
    ("correlations", "g2_zero_numeric", "correlations.observables", None, None),
    ("correlations", "atom_coherence_numeric", "correlations.observables", None, None),
    ("correlations", "g2_tau", "correlations.g2_tau", None, _g2_tau_counts),
    ("analytic", "integrate_amplitude_odes", "analytic.amplitude_ode", None, _amplitude_ode_counts),
    ("analytic", "g2_zero_analytic", "analytic.closed_form", None, None),
    ("analytic", "atom_coherence_analytic", "analytic.closed_form", None, None),
    ("sweep", "run_sweep", "sweep.run_sweep", None, _sweep_counts),
    ("sweep", "write_sweep_csv", "sweep.csv", _stream_position, _csv_write_counts),
    ("sweep", "read_sweep_csv", "sweep.csv", None, None),
    ("sweep", "check_correspondence", "sweep.check_correspondence", None, None),
    ("cli", "main", "cli.main", None, None),
)


class Tracer:
    """Collects spans in memory; ``reset`` starts a new pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.missing: set[str] = set()

    def reset(self) -> None:
        self.spans = []

    def wrap(self, layer, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1].span_id if self._open else None
            span = Span(layer, len(self.spans), parent)
            self.spans.append(span)
            token = before(args, kwargs) if before else None
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if after:
                span.counts = after(args, kwargs, result, token)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers in every blockade_lab module; restore on exit."""
        restore = []
        try:
            for module_name, attr, layer, before, after in TARGETS:
                module = importlib.import_module(f"blockade_lab.{module_name}")
                cls_name, _, name = attr.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                original = vars(owner).get(name) if owner is not None else None
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                if cls_name:
                    bindings = [(owner, name)]
                else:
                    bindings = [(mod, key) for mod_name, mod in list(sys.modules.items())
                                if mod_name.split(".")[0] == "blockade_lab"
                                for key, value in vars(mod).items() if value is original]
                wrapper = self.wrap(layer, original, before, after)
                for target, key in bindings:
                    restore.append((target, key, original))
                    setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(restore):
                setattr(target, key, original)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, failed calls, self time and summed counts."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        t = totals[s.layer]
        t["calls"] += 1
        t["failed"] += s.failed
        t["self_s"] += (s.end - s.start) - child_time[s.span_id]
        for key, value in s.counts.items():
            t[key] += value
    return totals
