"""Self-tests of the Session benchmark (inputs, tracing, output check).

Run from the repository root: ``python3 -m pytest sessionbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import expected  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _inputs_in_subprocess(workload: str, seed: int) -> dict:
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
        f"print(json.dumps(workloads.inputs({workload!r}, {seed})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_workload_and_seed(workload):
    first = _inputs_in_subprocess(workload, 3)
    assert first == _inputs_in_subprocess(workload, 3)
    assert first == workloads.inputs(workload, 3)
    assert first != workloads.inputs(workload, 4)


def _entry_point_targets():
    return [
        (tracing.resolve(module, owner), attr)
        for module, owner, attr, _layer, _counter in tracing.ENTRY_POINTS
    ]


def test_every_wrapped_entry_point_exists():
    for target, attr in _entry_point_targets():
        assert attr in vars(target), f"{target!r} no longer defines {attr}"
    reported = {name for name, _unit in tracing.LAYER_METRICS}
    for *_, layer, _counter in tracing.ENTRY_POINTS:
        assert f"{layer}_s" in reported


def test_install_then_remove_restores_every_attribute():
    from repro.sim import _native

    targets = _entry_point_targets()
    lib = _native.get_lib()
    if lib is not None:
        targets.append((lib, "repro_replay_span"))
    before = [vars(target).get(attr) for target, attr in targets]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = [vars(target).get(attr) for target, attr in targets]
    finally:
        tracer.remove()
    after = [vars(target).get(attr) for target, attr in targets]

    assert all(new is not old for new, old in zip(during, before))
    assert all(new is old for new, old in zip(after, before))


def test_layer_self_times_sum_to_traced_wall():
    from repro.api import ResultStore, SerialExecutor, Session

    session = Session(store=ResultStore(), executor=SerialExecutor())
    experiment = (
        session.experiment("tracing-selftest")
        .with_traces("spec06/lbm-7")
        .with_prefetchers("spp", "pythia")
        .with_systems(workloads.system(1, "native"))
        .with_length(4_000)
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root():
            session.run(experiment)
    finally:
        tracer.remove()
    layers = tracer.metrics()
    covered = sum(v for k, v in layers.items() if k.endswith("_s") and k != "tracing.wall_s")
    assert layers["tracing.wall_s"] > 0
    assert covered == pytest.approx(layers["tracing.wall_s"], rel=1e-6)
    assert layers["sim.hierarchy.builds"] == 3
    assert layers["api.store.misses"] == 3
    assert run.fallback_breaks("sweep", layers, kernel_loaded=True) == []


def test_fallback_invariants_fail_loudly():
    layers = {name: 0.0 for name, _unit in tracing.LAYER_METRICS}
    layers["sim.native.record_share"] = 0.5
    layers["sim.batch.records"] = 4096.0
    assert len(run.fallback_breaks("resume", layers, kernel_loaded=True)) == 2
    assert run.fallback_breaks("resume", layers, kernel_loaded=False) == []
    layers["sim.native.records"] = 10.0
    assert len(run.fallback_breaks("mix", layers, kernel_loaded=True)) == 1


def test_a_changed_committed_value_fails_that_cell(tmp_path, monkeypatch):
    committed = json.loads(expected.expected_file("mix").read_text())
    seed = min(committed["seeds"], key=int)
    cells = committed["seeds"][seed]
    cell = sorted(cells)[0]
    cells[cell]["instructions"] += 1
    (tmp_path / "mix.json").write_text(json.dumps(committed))
    monkeypatch.setattr(expected, "EXPECTED_DIR", tmp_path)

    bench = run.Bench("mix", int(seed), 1.0, False, _scratch(tmp_path))
    bench.prepare()
    assert bench.repetition(trace=False) is not None
    assert bench.attempted == len(cells)
    assert bench.failed == 1
    assert bench.problems == [f"cell {cell} differs from expected"]


def _scratch(tmp_path: Path) -> Path:
    scratch = tmp_path / "run"
    scratch.mkdir()
    return scratch


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
