"""End-to-end Session benchmark: one workload, one seed, one line of JSON.

Usage (from the root of a checkout)::

    python3 sessionbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Every repetition runs in a fresh interpreter (``worker.py``), one at a
time, through the public ``repro.api.Session`` with a
``SerialExecutor``, a private on-disk store and
``replay_backend="native"``.  Untimed preparation comes first: a warm-up
worker builds (or finds) the native kernel, the output check's reference
is loaded (or computed on the batched backend for seeds without
committed expectations) and, for ``resume``, a prefill worker leaves the
100k checkpoints in a template store that every repetition copies.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions, with ``setup_s`` and ``records_per_s`` scaled to a
reference host speed: a fixed pure-Python probe loop runs between the
timed Session calls and between their cells, outside the timing, and
each timed segment is scaled by the probe times around it (see
``workloads.HostClock``), because the shared host's own speed drifts by
tens of percent within a minute.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer split of the median traced one (see
``tracing.py``).  Every cell of every repetition is checked against the
expected statistics; the last stdout line is the JSON result.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import expected  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BACKEND = "native"
#: Fewest repetitions a run reports a median over, whatever --seconds is.
MIN_REPS = 3
#: Generous ceiling on one worker step (the first warm-up may compile).
STEP_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
    "speedup": "x",
}


#: Seconds the host-speed probe (``workloads.probe``) takes when the
#: build host runs at full speed.  Timings are scaled to this speed.
REFERENCE_PROBE_S = 0.1


def reference_seconds(segments: list, probes: list[float]) -> float:
    """Host seconds of the timed calls, scaled to the reference host speed.

    Each segment's seconds are multiplied by ``REFERENCE_PROBE_S`` over
    the mean of the probes taken just before and just after it (see
    ``workloads.HostClock``).
    """
    return sum(
        seconds * REFERENCE_PROBE_S * 2 / (probes[before - 1] + probes[before])
        for before, seconds in segments
    )


class StepFailed(RuntimeError):
    """A worker step exited non-zero or timed out."""


def _step(config: dict, scratch: Path, env: dict) -> tuple[dict, float]:
    """Run one worker step; returns its output and the spawn clock reading."""
    out = scratch / f"out-{config['step']}-{time.monotonic_ns()}.json"
    config = {**config, "out": str(out)}
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise StepFailed(f"{config['step']} step timed out") from None
    if proc.returncode != 0:
        raise StepFailed(f"{config['step']} step failed:\n{err[-4000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    return result, spawned


def _disk_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


def _compiler() -> str:
    cc = shutil.which(os.environ.get("CC", "cc"))
    if cc is None:
        return "none"
    try:
        probe = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return cc
    return probe.stdout.splitlines()[0] if probe.stdout else cc


def fallback_breaks(workload: str, layers: dict, kernel_loaded: bool) -> list[str]:
    """Broken replay-backend invariants of a traced repetition."""
    breaks = []
    if workload == "resume" and kernel_loaded:
        if layers["sim.native.record_share"] != 1.0:
            breaks.append(f"resume: sim.native.record_share = {layers['sim.native.record_share']}")
        if layers["sim.batch.records"] != 0:
            breaks.append(f"resume: sim.batch.records = {layers['sim.batch.records']}")
    if workload == "mix" and layers["sim.native.records"] != 0:
        breaks.append(f"mix: sim.native.records = {layers['sim.native.records']}")
    covered = sum(v for k, v in layers.items() if k.endswith("_s") and k != "tracing.wall_s")
    if abs(covered - layers["tracing.wall_s"]) > 1e-6 * max(1.0, layers["tracing.wall_s"]):
        breaks.append(f"layer self times sum to {covered}, traced wall is {layers['tracing.wall_s']}")
    return breaks


class Bench:
    """One benchmark run: preparation, repetitions and the output check."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        # The compiler's and any library's temp files stay in the checkout too.
        self.env = {
            **os.environ,
            "REPRO_NATIVE_CACHE": str(scratch.parent / "native"),
            "TMPDIR": str(scratch),
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.template: Path | None = None
        self.expected: dict[str, dict] = {}

    def prepare(self) -> None:
        env, _ = _step({"step": "warm"}, self.scratch, self.env)
        print(
            "env: "
            + json.dumps(
                {
                    "compiler": _compiler(),
                    "kernel_loaded": env["kernel_loaded"],
                    "numpy": env["numpy"],
                    "nproc": os.cpu_count(),
                }
            ),
            flush=True,
        )
        self.expected = expected.load(self.workload).get(str(self.seed))
        if self.expected is None:
            print(f"seed {self.seed} has no committed expectations; computing them", flush=True)
            ref, _ = _step(
                {"step": "reference", "workload": self.workload, "seed": self.seed},
                self.scratch,
                self.env,
            )
            self.expected = ref["cells"]
        if self.workload == "resume":
            self.template = self.scratch / "template"
            _step(self._config("prefill", self.template), self.scratch, self.env)

    def _config(self, step: str, store: Path, trace: bool = False) -> dict:
        return {
            "step": step,
            "workload": self.workload,
            "seed": self.seed,
            "store": str(store),
            "backend": BACKEND,
            "trace": trace,
        }

    def repetition(self, trace: bool) -> dict | None:
        """One measured repetition; ``None`` if its worker failed."""
        store = self.scratch / f"store-{time.monotonic_ns()}"
        if self.template is not None:
            shutil.copytree(self.template, store)
        self.attempted += len(self.expected)
        try:
            rep, spawned = _step(self._config("measure", store, trace), self.scratch, self.env)
        except StepFailed as exc:
            self.failed += len(self.expected)
            self.problems.append(str(exc))
            shutil.rmtree(store, ignore_errors=True)
            return None
        rep["seconds"] = sum(seconds for _, seconds in rep["segments"])
        rep["setup_s"] = rep["ready"] - spawned
        rep["store_mb"] = _disk_mb(store)
        shutil.rmtree(store)
        wrong = expected.compare(rep["cells"], self.expected)
        self.failed += len(wrong)
        self.problems += [f"cell {cell} differs from expected" for cell in wrong]
        if self.workload == "resume" and rep["checkpoint_hits"] != len(self.expected):
            self.problems.append(
                f"resume: {rep['checkpoint_hits']} checkpoint hits, "
                f"expected one per cell ({len(self.expected)})"
            )
        if trace:
            self.problems += fallback_breaks(self.workload, rep["layers"], rep["kernel_loaded"])
        return rep

    def measure(self) -> dict:
        """Repeat until the next repetition would overrun --seconds."""
        reps: list[dict] = []
        traced: list[dict] = []
        start = time.perf_counter()
        while True:
            rep = self.repetition(trace=False)
            if rep is not None:
                reps.append(rep)
            if self.trace:
                rep = self.repetition(trace=True)
                if rep is not None:
                    traced.append(rep)
            elapsed = time.perf_counter() - start
            enough = len(reps) >= (1 if self.trace else MIN_REPS)
            if enough and elapsed + elapsed / len(reps) > self.seconds:
                break
            if not reps and elapsed > 4 * self.seconds:  # every worker failing
                break
        if not reps or (self.trace and not traced):
            return {}
        return layer_metrics(reps, traced) if self.trace else end_to_end_metrics(reps)


def end_to_end_metrics(reps: list[dict]) -> dict:
    """Medians over the repetitions, timings at reference host speed.

    The raw host-second medians go to stdout on a ``host:`` line.
    """
    print(
        "host: "
        + json.dumps(
            {
                "setup_s": statistics.median(rep["setup_s"] for rep in reps),
                "records_per_s": statistics.median(rep["records"] / rep["seconds"] for rep in reps),
                "probe_s": statistics.median(p for rep in reps for p in rep["probes"]),
                "repetitions": len(reps),
            }
        ),
        flush=True,
    )
    values = {
        # The first probe runs right after the Session is ready.
        "setup_s": statistics.median(
            rep["setup_s"] * REFERENCE_PROBE_S / rep["probes"][0] for rep in reps
        ),
        "records_per_s": statistics.median(
            rep["records"] / reference_seconds(rep["segments"], rep["probes"]) for rep in reps
        ),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "store_mb": statistics.median(rep["store_mb"] for rep in reps),
        "speedup": statistics.median(rep["speedup"] for rep in reps),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(reps: list[dict], traced: list[dict]) -> dict:
    """The split of the traced repetition with the median wall time."""
    traced = sorted(traced, key=lambda rep: rep["layers"]["tracing.wall_s"])
    layers = traced[(len(traced) - 1) // 2]["layers"]
    untraced_wall = statistics.median(rep["seconds"] for rep in reps)
    values = {**layers, "tracing.overhead_s": layers["tracing.wall_s"] - untraced_wall}
    return {
        name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end Session benchmark.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / "sessionbench"
    work.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
        try:
            bench.prepare()
        except StepFailed as exc:
            print(f"error: preparation failed: {exc}", file=sys.stderr)
            return 1
        metrics = bench.measure()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in bench.problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    correct = bool(metrics) and not bench.problems and bench.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
