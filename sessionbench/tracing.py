"""Per-layer split of a benchmark repetition, wrapped from outside.

:class:`Tracer` replaces each layer's public entry points (listed in
:data:`ENTRY_POINTS`) with timing wrappers for the duration of one
traced repetition and puts the originals back on :meth:`Tracer.remove`.
No source file of the program is edited.  Spans nest on one stack; a
layer's self time is the time inside its spans minus the time inside
the wrapped calls they made.  :meth:`Tracer.root` opens the repetition's
outermost span, whose own self time (``bench.other_s``) is everything
no wrapped entry point covers, so the self times of all layers sum to
the traced wall time.

Per-record functions (``Pythia.train``, cache lookups, the multi-core
step) are deliberately left unwrapped: wrapping them would measure the
wrapper.  ``mix``'s split therefore stops at ``sim.multicore.run_s``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _records_made(args, kwargs, result):
    return {"workloads.make_trace.records": len(result)}


def _store_lookup(args, kwargs, result):
    return {"api.store.hits" if result is not None else "api.store.misses": 1}


def _checkpoint_bytes(args, kwargs, result):
    state = args[2] if len(args) > 2 else kwargs["state"]
    return {"api.store.checkpoint_bytes": state.size_bytes}


def _hierarchy_built(args, kwargs, result):
    return {"sim.hierarchy.builds": 1}


def _span_records(counter):
    # replay_span(hierarchy, core, cols, start, stop, stamp=None)
    def count(args, kwargs, result):
        start = args[3] if len(args) > 3 else kwargs["start"]
        stop = args[4] if len(args) > 4 else kwargs["stop"]
        return {counter: stop - start}

    return count


def _kernel_records(args, kwargs, result):
    # ``repro_replay_span(byref(args))``: on success (0) or a headroom
    # exit (1) the kernel reports how many records it consumed.
    if result in (0, 1):
        return {"sim.native.records": args[0]._obj.processed}
    return {}


#: (module, owner attribute or "" for the module itself, attribute,
#: layer, counter).  A layer's metrics are ``<layer>_s`` (self time) and
#: whatever its counter returns.
ENTRY_POINTS = (
    ("repro.registry", "", "make_trace", "workloads.make_trace", _records_made),
    ("repro.sim.trace", "Trace", "content_stamp", "sim.trace.content_stamp", None),
    ("repro.sim.trace", "Trace", "columns", "sim.trace.columns", None),
    ("repro.api.experiment", "Cell", "fingerprint", "api.fingerprint", None),
    ("repro.api.experiment", "Cell", "prefix_fingerprint", "api.fingerprint", None),
    ("repro.api.experiment", "MixCell", "fingerprint", "api.fingerprint", None),
    ("repro.api.session", "Session", "run", "api.session.self", None),
    ("repro.api.session", "Session", "run_one", "api.session.self", None),
    ("repro.api.store", "ResultStore", "get", "api.store.get", _store_lookup),
    ("repro.api.store", "ResultStore", "put", "api.store.put", None),
    ("repro.api.store", "ResultStore", "checkpoint_entries", "api.store.checkpoint_get", None),
    ("repro.api.store", "ResultStore", "get_checkpoint", "api.store.checkpoint_get", None),
    ("repro.api.store", "ResultStore", "put_checkpoint", "api.store.checkpoint_put", _checkpoint_bytes),
    ("repro.sim.hierarchy", "CacheHierarchy", "__init__", "sim.hierarchy.build", _hierarchy_built),
    # Engine construction builds the rest of the modelled system (core
    # models; a mix's shared LLC and DRAM) around the hierarchies.
    ("repro.sim.engine", "SimulationEngine", "__init__", "sim.hierarchy.build", None),
    ("repro.sim.engine", "MultiCoreEngine", "__init__", "sim.hierarchy.build", None),
    ("repro.sim.engine", "SimulationEngine", "run", "sim.engine.run", None),
    ("repro.sim.engine", "EngineState", "restore", "sim.engine.restore", None),
    ("repro.sim.engine", "EngineState", "capture", "sim.engine.capture", None),
    ("repro.sim.engine", "MultiCoreEngine", "run", "sim.multicore.run", None),
    ("repro.sim._native", "", "replay_span", "sim.native.marshal", _span_records("sim.native.handed")),
    ("repro.sim.batch", "", "replay_span", "sim.batch.replay", _span_records("sim.batch.records")),
    ("repro.sim.batch", "", "decode_span", "sim.batch.decode", None),
    ("repro.registry", "", "create", "prefetchers.build", None),
)

#: Every per-layer metric a traced run reports.
LAYER_METRICS = (
    ("workloads.make_trace_s", "s"),
    ("workloads.make_trace.records", "count"),
    ("sim.trace.content_stamp_s", "s"),
    ("sim.trace.columns_s", "s"),
    ("api.fingerprint_s", "s"),
    ("api.session.self_s", "s"),
    ("api.store.get_s", "s"),
    ("api.store.put_s", "s"),
    ("api.store.hits", "count"),
    ("api.store.misses", "count"),
    ("api.store.checkpoint_get_s", "s"),
    ("api.store.checkpoint_put_s", "s"),
    ("api.store.checkpoint_bytes", "bytes"),
    ("sim.hierarchy.build_s", "s"),
    ("sim.hierarchy.builds", "count"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.restore_s", "s"),
    ("sim.engine.capture_s", "s"),
    ("sim.multicore.run_s", "s"),
    ("sim.native.kernel_s", "s"),
    ("sim.native.marshal_s", "s"),
    ("sim.native.records", "count"),
    ("sim.native.record_share", "ratio"),
    ("sim.batch.replay_s", "s"),
    ("sim.batch.decode_s", "s"),
    ("sim.batch.records", "count"),
    ("prefetchers.build_s", "s"),
    ("bench.other_s", "s"),
    ("tracing.wall_s", "s"),
    ("tracing.overhead_s", "s"),
)


def resolve(module: str, owner: str):
    """The object an entry point's attribute lives on."""
    target = importlib.import_module(module)
    return getattr(target, owner) if owner else target


class Tracer:
    """Self-time and count accounting over wrapped layer entry points."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.wall_s = 0.0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- span accounting ----------------------------------------------

    def _enter(self) -> tuple[list[float], float]:
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, layer: str, frame: list[float], start: float) -> float:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        return elapsed

    def wrap(self, layer: str, fn, counter=None):
        """*fn* timed as a span of *layer*, its counter applied per call."""
        tracer = self

        def traced(*args, **kwargs):
            frame, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame, start)
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    tracer.counts[name] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        return traced

    @contextmanager
    def root(self):
        """The repetition's outermost span (``bench.other`` self time)."""
        frame, start = self._enter()
        try:
            yield
        finally:
            self.wall_s += self._exit("bench.other", frame, start)

    # ---- installation -------------------------------------------------

    def _replace(self, target, attr: str, layer: str, counter) -> None:
        raw = vars(target)[attr]
        if isinstance(raw, property):
            new = property(self.wrap(layer, raw.fget, counter), raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(layer, raw.__func__, counter))
        else:
            new = self.wrap(layer, raw, counter)
        self._undo.append((target, attr, raw))
        setattr(target, attr, new)

    def install(self) -> None:
        """Wrap every entry point, plus the loaded kernel's span call.

        Raises ``KeyError`` when an entry point no longer exists, so a
        rename fails the benchmark instead of reporting a zero layer.
        """
        for module, owner, attr, layer, counter in ENTRY_POINTS:
            self._replace(resolve(module, owner), attr, layer, counter)
        from repro.sim import _native

        lib = _native.get_lib()
        if lib is not None:
            # ctypes caches each foreign function in the handle's
            # __dict__ on first access, which is where the engine finds it.
            kernel = lib.repro_replay_span
            self._undo.append((lib, "repro_replay_span", kernel))
            setattr(lib, "repro_replay_span", self.wrap("sim.native.kernel", kernel, _kernel_records))

    def remove(self) -> None:
        """Put every original attribute back, last wrapped first."""
        while self._undo:
            target, attr, raw = self._undo.pop()
            setattr(target, attr, raw)

    # ---- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value of the traced repetition but
        ``tracing.overhead_s``, which needs an untraced run to compare."""
        handed = self.counts.get("sim.native.handed", 0)
        values = {
            **{f"{layer}_s": seconds for layer, seconds in self.self_s.items()},
            **self.counts,
            "sim.native.record_share": (
                self.counts.get("sim.native.records", 0) / handed if handed else 0.0
            ),
            "tracing.wall_s": self.wall_s,
        }
        return {
            name: float(values.get(name, 0.0))
            for name, _unit in LAYER_METRICS
            if name != "tracing.overhead_s"
        }
