"""Reference statistics for the output check, computed on the batched backend.

The batched NumPy replay is the reference the native kernel is pinned
bit-identical to, so the expected cells never come from the kernel they
check.  Every reference run is fresh: the ``resume`` workload's cells
are simulated from record zero at full length, without checkpoints, so
the check also pins resumed results to uninterrupted ones.

Regenerate the committed files (one process, a few minutes per seed
range)::

    python3 sessionbench/expected.py --workload resume --seeds 0-31

``run.py`` checks seeds outside the committed range against a reference
computed the same way, untimed, inside the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
REFERENCE_BACKEND = "batched"


def expected_file(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def reference(workload: str, seed: int) -> dict[str, dict]:
    """Cell id -> statistics of a fresh batched run of the workload."""
    import workloads
    from repro.api import ResultStore, SerialExecutor, Session

    session = Session(store=ResultStore(), executor=SerialExecutor())
    spec = workloads.inputs(workload, seed)
    clock = workloads.HostClock(probing=False)
    return workloads.run(workload, session, spec, REFERENCE_BACKEND, clock).cells


def load(workload: str) -> dict[str, dict]:
    """Committed seed -> cells map (empty when no file exists)."""
    path = expected_file(workload)
    if not path.exists():
        return {}
    return json.loads(path.read_text())["seeds"]


def compare(actual: dict[str, dict], expected: dict[str, dict]) -> list[str]:
    """Ids of expected cells that are missing from *actual* or differ."""
    return sorted(
        cell for cell, stats in expected.items() if actual.get(cell) != stats
    )


def _seed_range(text: str) -> range:
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seed_range, help="e.g. 0-31")
    args = parser.parse_args(argv)

    seeds = load(args.workload)
    for seed in args.seeds:
        seeds[str(seed)] = reference(args.workload, seed)
        print(f"{args.workload} seed {seed}: {len(seeds[str(seed)])} cells", flush=True)
        payload = {"backend": REFERENCE_BACKEND, "workload": args.workload, "seeds": seeds}
        EXPECTED_DIR.mkdir(exist_ok=True)
        tmp = expected_file(args.workload).with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
        tmp.replace(expected_file(args.workload))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
    sys.exit(main())
