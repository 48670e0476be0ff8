"""The benchmark's workloads: inputs from a seed, and how each one runs.

Each workload is a pure function of ``(workload, seed)`` that yields a
JSON-able :func:`inputs` description (trace names, lengths, mixes).  The
simulator only ever sees those generated trace names; the seed never
reaches it directly.  :func:`run` drives one repetition of a workload
through the public :class:`repro.api.Session` and returns the cells it
produced, keyed by a stable cell id, so the output check can compare
them with the committed expectations.

Why these three shapes (see README.md for the layer map):

* ``sweep`` — a figure-style ``Session.run(experiment)`` of a few traces
  x {spp, bingo, mlop, pythia} plus baselines: many short cells, so
  batched competitor replay, hierarchy construction, fingerprints and
  result writes dominate.  Never touches the multi-core loop.
* ``mix`` — 4-core Pythia mixes plus baselines through ``with_mixes``:
  all time in the per-record scalar ``MultiCoreEngine`` loop; bypasses
  the native kernel, the bridge and batched replay.
* ``resume`` — ``Session.run_one`` extending native Pythia cells from
  100k to 200k records out of checkpoints an untimed prefill left in
  the store: the interactive path, where per-cell fixed costs (trace
  generation, content stamp, checkpoint load/restore, bridge
  marshalling) outweigh the kernel.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import contextmanager, nullcontext

WORKLOADS = ("sweep", "mix", "resume")

#: Trace kinds of the sweep; the seed picks each kind's generator seed.
SWEEP_KINDS = ("spec06/lbm", "ligra/cc", "parsec/canneal")
SWEEP_PREFETCHERS = ("spp", "bingo", "mlop", "pythia")
SWEEP_LENGTH = 15_000

#: The homogeneous mix's workload; the heterogeneous mix draws its four
#: workloads from the seed out of every named non-synthetic workload.
MIX_HOMOGENEOUS_KIND = "spec06/lbm"
MIX_CORES = 4
MIX_RECORDS_PER_CORE = 3_000
MIX_TRACE_LENGTH = 3_000

RESUME_KINDS = ("spec06/lbm", "spec17/fotonik3d", "parsec/streamcluster")
RESUME_SHORT = 100_000
RESUME_LONG = 200_000
RESUME_WARMUP_RECORDS = 20_000
RESUME_CHECKPOINT_EVERY = 50_000

#: Seed-derived trace instances start here, far from the seeds the
#: suites use (1-4), so benchmark traces never alias suite traces.
_TRACE_SEED_BASE = 1000


def _mix_pool() -> list[str]:
    from repro.workloads.generators import workload_names

    return [name for name in workload_names() if not name.startswith("synth/")]


def inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one workload at one seed (pure)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    instance = _TRACE_SEED_BASE + seed
    if workload == "sweep":
        return {
            "traces": [f"{kind}-{instance}" for kind in SWEEP_KINDS],
            "prefetchers": list(SWEEP_PREFETCHERS),
            "trace_length": SWEEP_LENGTH,
        }
    if workload == "mix":
        rng = random.Random(seed)
        drawn = rng.sample(_mix_pool(), MIX_CORES)
        homogeneous = [
            f"{MIX_HOMOGENEOUS_KIND}-{instance * MIX_CORES + core}"
            for core in range(MIX_CORES)
        ]
        return {
            "mixes": [
                ["homogeneous", homogeneous],
                ["heterogeneous", [f"{kind}-{instance}" for kind in drawn]],
            ],
            "records_per_core": MIX_RECORDS_PER_CORE,
            "trace_length": MIX_TRACE_LENGTH,
        }
    if workload == "resume":
        return {
            "traces": [f"{kind}-{instance}" for kind in RESUME_KINDS],
            "short": RESUME_SHORT,
            "long": RESUME_LONG,
            "warmup_records": RESUME_WARMUP_RECORDS,
            "checkpoint_every": RESUME_CHECKPOINT_EVERY,
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def system(cores: int, backend: str):
    """The paper's ``<cores>c`` system replaying on *backend*."""
    from repro import registry

    config = dataclasses.replace(registry.system(f"{cores}c"), replay_backend=backend)
    return (f"{cores}c-{backend}", config)


def cell_stats(result) -> dict:
    """The statistics of one simulated cell that the output check pins."""
    stats = dataclasses.asdict(result)
    stats.pop("timeline", None)
    return stats


def _collect(records, key) -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for record in records:
        cells[key(record, record.prefetcher)] = cell_stats(record.result)
        cells[key(record, "none")] = cell_stats(record.baseline)
    return cells


def probe() -> float:
    """Host seconds of a fixed pure-Python loop: the host-speed probe.

    The loop does not touch the program, so a change to the program
    cannot move it; only the host's own speed does.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i
    return time.perf_counter() - start


#: Iterations of the probe loop (about 0.1 s on the build host when it
#: runs at full speed).
PROBE_ITERATIONS = 2_000_000


class HostClock:
    """Host time of the timed Session calls, cut into segments by probes.

    :meth:`probe` runs :func:`probe` between Session calls and, through
    the worker's probing executor, between the cells of one call.  Probe
    time is excluded from the segments, and every segment is bracketed by
    the probe before it and the probe after it, so ``run.py`` can scale
    each segment by the host speed measured around it.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        #: Probe seconds, in order.
        self.probes: list[float] = []
        #: ``(probes taken before the segment, host seconds)`` pairs.
        self.segments: list[tuple[int, float]] = []
        self._start: float | None = None

    def _close(self) -> None:
        self.segments.append((len(self.probes), time.perf_counter() - self._start))

    def probe(self) -> None:
        if not self.probing:
            return
        running = self._start is not None
        if running:
            self._close()
        self.probes.append(probe())
        if running:
            self._start = time.perf_counter()

    @contextmanager
    def timing(self):
        self._start = time.perf_counter()
        try:
            yield
        finally:
            self._close()
            self._start = None


@dataclasses.dataclass
class Outcome:
    """What one repetition produced."""

    #: Trace records simulated by the timed calls (baselines and every
    #: core of a mix count; a resumed cell counts only the records it
    #: replays).
    records: int
    #: Cell id -> pinned statistics.
    cells: dict[str, dict]
    #: Geomean speedup of the Pythia cells over their baselines.
    speedup: float


def prefill(session, spec: dict, backend: str) -> None:
    """Untimed: leave the resume workload's 100k checkpoints in the store."""
    for trace in spec["traces"]:
        session.run_one(
            trace,
            "pythia",
            system=system(1, backend),
            trace_length=spec["short"],
            warmup_records=spec["warmup_records"],
        )


def _calls(workload: str, session, spec: dict, backend: str) -> tuple[list, int]:
    """The workload's timed Session calls and the records they simulate."""
    if workload == "sweep":
        experiment = (
            session.experiment("sessionbench-sweep")
            .with_traces(*spec["traces"])
            .with_prefetchers(*spec["prefetchers"])
            .with_systems(system(1, backend))
            .with_length(spec["trace_length"])
        )
        cells = len(spec["traces"]) * (len(spec["prefetchers"]) + 1)  # plus baselines
        return [lambda: session.run(experiment)], cells * spec["trace_length"]
    if workload == "mix":
        experiment = (
            session.experiment("sessionbench-mix")
            .with_prefetchers("pythia")
            .with_length(spec["trace_length"])
            .with_mixes(
                *[tuple(mix) for mix in spec["mixes"]],
                system=system(MIX_CORES, backend),
                records_per_core=spec["records_per_core"],
            )
        )
        cells = 2 * len(spec["mixes"])  # pythia and baseline
        return [lambda: session.run(experiment)], cells * MIX_CORES * spec["records_per_core"]
    if workload == "resume":
        # The baseline first, then the Pythia cell (whose baseline is then
        # a store hit): two calls per trace, so the probe runs between.
        calls = [
            lambda trace=trace, prefetcher=prefetcher: [
                session.run_one(
                    trace,
                    prefetcher,
                    system=system(1, backend),
                    trace_length=spec["long"],
                    warmup_records=spec["warmup_records"],
                )
            ]
            for trace in spec["traces"]
            for prefetcher in ("none", "pythia")
        ]
        return calls, len(calls) * (spec["long"] - spec["short"])
    raise ValueError(f"unknown workload {workload!r}")


def run(
    workload: str, session, spec: dict, backend: str, clock: HostClock, timed=None
) -> Outcome:
    """One repetition of *workload* on *session*, timed on *clock*.

    *timed* is an optional context manager factory entered around each
    timed Session call (the traced run uses it as the root span).
    """
    from repro.api import ResultSet

    calls, records = _calls(workload, session, spec, backend)
    timed = timed or nullcontext
    out = []
    clock.probe()
    for call in calls:
        with clock.timing(), timed():
            out.extend(call())
        clock.probe()
    results = ResultSet(out)
    return Outcome(
        records=records,
        cells=_collect(results, lambda r, pf: f"{r.trace_name}|{pf}"),
        speedup=results.filter(prefetcher="pythia").geomean("speedup"),
    )
