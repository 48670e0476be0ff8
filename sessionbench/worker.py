"""One benchmark step in a fresh interpreter; ``run.py`` spawns it.

Usage: ``python3 sessionbench/worker.py '<json config>'``.  The config
names the step (``warm``, ``reference``, ``prefill`` or ``measure``),
the workload and seed, the store directory and the output file; the
step's result is written to that file as JSON.

A ``measure`` step reports ``ready``: the host monotonic clock
(``time.perf_counter``, CLOCK_MONOTONIC, shared across processes) at
the moment its Session can run a first cell — after interpreter start,
``import repro``, loading the prebuilt native kernel and opening the
store.  The parent subtracts its own clock reading taken just before
the spawn to get ``setup_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from repro.api import SerialExecutor, execute_cell  # noqa: E402


class ProbingExecutor(SerialExecutor):
    """A :class:`SerialExecutor` that probes the host between cells.

    See ``workloads.HostClock``: the probes run outside the timed
    segments, so only the cells themselves are timed.
    """

    def __init__(self, clock) -> None:
        self.clock = clock

    def run_cells(self, cells):
        results = []
        for index, cell in enumerate(cells):
            if index:
                self.clock.probe()
            results.append(execute_cell(cell))
        return results


def _environment() -> dict:
    import numpy

    from repro.sim import _native

    return {"kernel_loaded": _native.available(), "numpy": numpy.__version__}


def main(config: dict) -> dict:
    import workloads
    from repro.api import ResultStore, Session
    from repro.sim import _native

    step = config["step"]
    if step == "warm":
        return _environment()
    if step == "reference":
        import expected

        return {"cells": expected.reference(config["workload"], config["seed"])}

    kernel_loaded = _native.available()
    spec = workloads.inputs(config["workload"], config["seed"])
    # Traced repetitions report raw layer times, so they do not probe.
    clock = workloads.HostClock(probing=not config["trace"])
    session = Session(
        store=ResultStore(config["store"]),
        executor=ProbingExecutor(clock),
        checkpoint_every=spec.get("checkpoint_every", 0),
    )
    ready = time.perf_counter()
    if step == "prefill":
        workloads.prefill(session, spec, config["backend"])
        return {}

    tracer = None
    if config["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        outcome = workloads.run(
            config["workload"],
            session,
            spec,
            config["backend"],
            clock,
            timed=tracer.root if tracer is not None else None,
        )
    finally:
        if tracer is not None:
            tracer.remove()
    result = {
        "ready": ready,
        "kernel_loaded": kernel_loaded,
        "segments": clock.segments,
        "probes": clock.probes,
        "records": outcome.records,
        "cells": outcome.cells,
        "speedup": outcome.speedup,
        "checkpoint_hits": session.store.checkpoint_hits,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    cfg = json.loads(sys.argv[1])
    Path(cfg["out"]).write_text(json.dumps(main(cfg)))
