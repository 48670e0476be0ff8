"""Checkpoint payload format: columnar caches, keyed by format version.

Caches pickle as flat columns (:class:`repro.sim.cache.CacheColumns`),
and :attr:`EngineState.SCHEMA_VERSION` is folded into the checkpoint
namespace key (:meth:`Cell.prefix_fingerprint`).  Pinned here:

* a snapshot stored under the pre-columnar key is never found: the
  extended run starts fresh, raises nothing, and matches a fresh run;
* a snapshot with a malformed cache column fails loudly at restore, so
  resume falls through to the next-longest snapshot;
* a resumed cell never builds a hierarchy only to discard it.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import registry
from repro.api import ResultStore, Session
from repro.api.experiment import Cell, PrefetcherSpec, SystemSpec
from repro.api.fingerprint import canonical, fingerprint
from repro.sim.cache import Cache
from repro.sim.engine import SimulationEngine
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.system import simulate

pytestmark = pytest.mark.quick

TRACE = "spec06/lbm-1"
SHORT = 3_000
LONG = 6_000
WARMUP = 600
EVERY = 1_000


def _cell(length: int) -> Cell:
    return Cell(
        trace=TRACE,
        prefetcher=PrefetcherSpec.of("pythia"),
        system=SystemSpec.of("1c"),
        trace_length=length,
        warmup_fraction=0.2,
        warmup_records=WARMUP,
    )


def _previous_prefix_key(cell: Cell) -> str:
    """The checkpoint namespace key before the format version joined it."""
    return fingerprint(
        {
            "kind": "cell-prefix",
            "trace": cell.trace,
            **cell._prefetcher_payloads(),
            "system": canonical(cell.system.config),
        }
    )


def _engine(length: int, checkpoints) -> SimulationEngine:
    return SimulationEngine(
        registry.cached_trace(TRACE, length),
        SystemSpec.of("1c").config,
        registry.create("pythia"),
        warmup_records=WARMUP,
        checkpoints=checkpoints,
        checkpoint_every=EVERY,
    )


def _fresh_long() -> dict:
    result = simulate(
        registry.cached_trace(TRACE, LONG),
        SystemSpec.of("1c").config,
        registry.create("pythia"),
        warmup_records=WARMUP,
    )
    return dataclasses.asdict(result)


def test_previous_format_snapshot_is_orphaned_by_key(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    old_key = _previous_prefix_key(_cell(SHORT))
    assert old_key != _cell(SHORT).prefix_fingerprint()

    # Write the short run's snapshots the way the previous format did:
    # caches pickled as their per-line object graph.
    with monkeypatch.context() as patch:
        patch.delattr(Cache, "__getstate__")
        patch.delattr(Cache, "__setstate__")
        _engine(SHORT, store.checkpoints(old_key)).run()
    old_entries = store.checkpoint_entries(old_key)
    assert (SHORT, (WARMUP,)) in old_entries
    old_state = store.get_checkpoint(old_key, SHORT, (WARMUP,))
    # Were it ever handed over, the columnar decoder would refuse it.
    with pytest.raises(ValueError):
        old_state.restore()

    session = Session(store=store, checkpoint_every=EVERY)
    hits_before = store.checkpoint_hits
    extended = session.run_one(TRACE, "pythia", trace_length=LONG, warmup_records=WARMUP)
    assert store.checkpoint_hits == hits_before
    assert dataclasses.asdict(extended.result) == _fresh_long()


def test_malformed_column_falls_through_to_next_snapshot(monkeypatch):
    store = ResultStore(path=None)
    namespace = store.checkpoints(_cell(SHORT).prefix_fingerprint())
    _engine(SHORT, namespace).run()
    good = store.get_checkpoint(namespace.prefix, SHORT, (WARMUP,))

    # Re-save the longest snapshot with the LLC's tag column cut short.
    hierarchy, core = good.restore()
    real_columns = Cache.columns

    def truncated(cache):
        cols = real_columns(cache)
        if cache is hierarchy.llc:
            cols.tag = cols.tag[:-1]
        return cols

    with monkeypatch.context() as patch:
        patch.setattr(Cache, "columns", truncated)
        bad = dataclasses.replace(
            good, payload=pickle.dumps((hierarchy, core), pickle.HIGHEST_PROTOCOL)
        )
    with pytest.raises(ValueError, match="malformed"):
        bad.restore()
    namespace.save(bad)

    engine = _engine(LONG, namespace)
    result = engine.run()
    assert engine.resumed_from == SHORT - EVERY
    assert dataclasses.asdict(result) == _fresh_long()


def test_resumed_run_one_builds_no_hierarchy(tmp_path, monkeypatch):
    session = Session(store=ResultStore(tmp_path / "store"), checkpoint_every=EVERY)
    session.run_one(TRACE, "pythia", trace_length=SHORT, warmup_records=WARMUP)

    builds = []
    real_init = CacheHierarchy.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CacheHierarchy, "__init__", counting_init)
    hits_before = session.store.checkpoint_hits
    extended = session.run_one(TRACE, "pythia", trace_length=LONG, warmup_records=WARMUP)
    # Both the Pythia cell and its baseline resumed from checkpoints ...
    assert session.store.checkpoint_hits - hits_before == 2
    # ... and neither built a hierarchy just to throw it away.
    assert builds == []
    monkeypatch.undo()
    assert dataclasses.asdict(extended.result) == _fresh_long()


def test_engine_hierarchy_is_available_before_run():
    engine = _engine(SHORT, None)
    assert isinstance(engine.hierarchy, CacheHierarchy)
    assert engine.hierarchy is engine.hierarchy
    assert engine.hierarchy.prefetcher.name == "pythia"
