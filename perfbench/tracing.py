"""Layer spans recorded from outside the program.

:func:`install` wraps each layer's public entry points with a timing
wrapper that records one span per call into a :class:`SpanRecorder`.
Methods are wrapped on the class that defines them; module-level
functions are replaced in every ``repro`` module that holds them by
name.  Nothing is wrapped on a backend subclass or on an instance: the
engine picks its code paths by comparing class attributes, and a
wrapper in the wrong place would silently move the traced run onto a
different path.

Spans stay in memory as compact tuples; :func:`layer_metrics` reduces
them to per-layer self times and call counts once the run is over.
"""

from __future__ import annotations

import functools
import gzip
import sys
import threading
import time

# Span name -> (self-time metric, call-count metric or None).
LAYERS = {
    "workloads.make_workload": ("workloads.make_workload_s", None),
    "api.estimator_build": ("api.estimator_build_s", "api.estimator_builds"),
    "optimizers.spsa": ("optimizers.spsa_self_s", None),
    "vqe.evaluate": ("vqe.evaluate_self_s", None),
    "vqe.energy": ("vqe.energy_s", None),
    "mitigation.reconstruct": (
        "mitigation.reconstruct_s", "mitigation.reconstruct_calls"),
    "sim.counts_to_pmf": ("sim.counts_to_pmf_s", "sim.counts_to_pmf_calls"),
    "noise.sample": ("noise.sample_s", "noise.samples"),
    "noise.finish": ("noise.finish_s", None),
    "sim.plan_compile": ("sim.plan_compile_s", "sim.plan_compiles"),
    "sim.plan_run": ("sim.plan_run_s", "sim.plan_runs"),
    "sim.density": ("sim.density_s", "sim.density_calls"),
    "engine.submit": ("engine.submit_s", None),
    "engine.prepare": ("engine.prepare_s", None),
    "engine.batch": ("engine.batch_self_s", None),
    "serve.submit": ("serve.submit_s", None),
    "serve.execute_job": ("serve.execute_job_s", None),
    "io.journal_append": ("io.journal_append_s", "io.journal_appends"),
}


class SpanRecorder:
    """Thread-aware in-memory span store.

    Each finished span is a tuple ``(name, parent, start, end, rows)``
    where ``parent`` indexes the enclosing span of the same thread (or
    is ``-1``) and ``rows`` is an optional work count.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def open(self, name: str, rows: int = 0) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        frame = [index, name, parent, rows, time.perf_counter()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        index, name, parent, rows, start = frame
        self.spans[index] = (name, parent, start, end, rows)

    def write(self, path) -> None:
        """Write every span as one gzipped text line.

        Columns: index, parent index, name, start and duration in
        seconds (start relative to the first span), work rows.
        """
        origin = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as out:
            out.write("index parent name start_s duration_s rows\n")
            out.writelines(
                f"{i} {parent} {name} {start - origin:.9f} "
                f"{end - start:.9f} {rows}\n"
                for i, (name, parent, start, end, rows) in enumerate(
                    self.spans
                )
            )


def _timed(recorder: SpanRecorder, name: str, fn, rows=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.open(name, rows(args) if rows else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(frame)

    return wrapper


def _estimator_classes():
    from repro.vqe.estimator import EstimatorBase

    seen, todo = [], [EstimatorBase]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if "evaluate" in vars(cls)]


class Installation:
    """Wrappers installed by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def method(self, recorder, cls, attr, name, rows=None) -> None:
        original = vars(cls)[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, _timed(recorder, name, original, rows))

    def function(self, recorder, module, attr, name, rows=None) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = _timed(recorder, name, original, rows)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            if vars(mod).get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every traced entry point; return the handle that removes them."""
    import repro  # noqa: F401  (loads every by-name import site)
    import repro.backends.density  # noqa: F401
    import repro.serve  # noqa: F401
    from repro.api import Session
    from repro.engine.engine import Batch, ExecutionEngine
    from repro.io.journal import Journal
    from repro.noise.backend import SimulatorBackend
    from repro.optimizers.spsa import SPSA
    from repro.serve.service import Service
    from repro.sim.counts import Counts
    from repro.sim.plan import CircuitPlan

    inst = Installation()
    for module, attr, name in (
        ("repro.workloads.registry", "make_workload",
         "workloads.make_workload"),
        ("repro.vqe.expectation", "energy_from_group_pmfs", "vqe.energy"),
        ("repro.mitigation.reconstruction", "bayesian_reconstruct",
         "mitigation.reconstruct"),
        ("repro.sim.plan", "compile_plan", "sim.plan_compile"),
        ("repro.sim.density", "run_density_matrix", "sim.density"),
        ("repro.serve.jobs", "execute_job", "serve.execute_job"),
    ):
        inst.function(recorder, module, attr, name)
    for cls, attr, name, rows in (
        (SPSA, "minimize", "optimizers.spsa", None),
        (Session, "estimator", "api.estimator_build", None),
        (Batch, "submit_state", "engine.submit", None),
        (Batch, "submit_circuit", "engine.submit", None),
        (Batch, "run", "engine.batch", None),
        (ExecutionEngine, "prepare_state", "engine.prepare", None),
        (ExecutionEngine, "prepare_states", "engine.prepare", None),
        (CircuitPlan, "run", "sim.plan_run", None),
        (CircuitPlan, "run_batch", "sim.plan_run", None),
        (SimulatorBackend, "exact_pmfs_from_probs_batch", "noise.finish",
         lambda args: len(args[1])),
        (SimulatorBackend, "sample", "noise.sample", None),
        (Counts, "to_pmf", "sim.counts_to_pmf", None),
        (Service, "submit", "serve.submit", None),
        (Journal, "append_record", "io.journal_append", None),
        (Journal, "append_many", "io.journal_append", None),
    ):
        inst.method(recorder, cls, attr, name, rows)
    for cls in _estimator_classes():
        inst.method(recorder, cls, "evaluate", "vqe.evaluate")
    return inst


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer self seconds and call counts of every recorded span.

    A span's self time is its duration minus the time its child spans
    cover (children of one thread never overlap).  ``vqe.evaluations``
    counts outermost evaluations only, so a subclass calling its base
    class's ``evaluate`` counts once.
    """
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for metric, count in LAYERS.values():
        out[metric] = 0.0
        if count:
            out[count] = 0
    out["vqe.evaluations"] = 0
    out["noise.finish_rows"] = 0
    for i, (name, parent, start, end, rows) in enumerate(spans):
        metric, count = LAYERS[name]
        out[metric] += (end - start) - child_time[i]
        if count:
            out[count] += 1
        if name == "vqe.evaluate" and (
            parent < 0 or spans[parent][0] != "vqe.evaluate"
        ):
            out["vqe.evaluations"] += 1
        out["noise.finish_rows"] += rows
    return out
