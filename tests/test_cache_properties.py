"""Property-based invariants for the cache model and replacement policies.

The PR 2 hot-path rework replaced the cache's linear way scans with
tag→way dicts, free-way heaps, and inlined LRU bookkeeping; these tests
pin the structural invariants that rework must preserve, by driving
random (seeded, stdlib ``random``) operation sequences against
:class:`repro.sim.cache.Cache` and checking after every step:

* occupancy never exceeds capacity, per-set residency never exceeds the
  way count;
* a hit never evicts (and never changes occupancy);
* every eviction's victim was resident immediately before the fill —
  for LRU, it is exactly the least-recently-touched line of the set
  (checked against an independent shadow model);
* the tag→way index, the way array, and the free-way heap stay mutually
  consistent.

The columnar checkpoint codec (``Cache.__getstate__``/``__setstate__``)
gets a hypothesis property: a cache pickled at any point of a random
operation sequence continues exactly like the original, and malformed
columns are rejected rather than restored.
"""

from __future__ import annotations

import dataclasses
import heapq
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import Cache
from repro.sim.config import CacheGeometry
from repro.sim.replacement import LruPolicy, ShipMeta, ShipPolicy
from repro.types import LINE_SIZE

pytestmark = pytest.mark.quick

SEEDS = [0, 1, 2, 3]


def small_cache(replacement: str, sets: int = 8, ways: int = 4) -> Cache:
    geometry = CacheGeometry(
        size_bytes=sets * ways * LINE_SIZE,
        ways=ways,
        latency=1,
        mshrs=8,
        replacement=replacement,
    )
    return Cache("T", geometry)


def assert_structurally_consistent(cache: Cache) -> None:
    """Tag index ↔ way array ↔ free heap agreement, and capacity bounds."""
    for set_idx in range(cache.num_sets):
        tags = cache._tags[set_idx]
        ways = cache._sets[set_idx]
        free = set(cache._free[set_idx])
        assert len(tags) <= cache.ways
        for tag, way in tags.items():
            assert ways[way].valid and ways[way].tag == tag
            assert way not in free
        # Every way is either indexed or free (never both, never neither).
        assert len(tags) + len(free) == cache.ways
    assert cache.occupancy <= cache.capacity_lines


def resident_lines(cache: Cache, set_idx: int) -> set[int]:
    return set(cache._tags[set_idx])


@pytest.mark.parametrize("replacement", ["lru", "ship"])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_op_sequence_invariants(replacement, seed):
    rng = random.Random(seed)
    cache = small_cache(replacement)
    # A working set ~4x capacity keeps sets full and evictions frequent.
    lines = [rng.randrange(cache.capacity_lines * 4) for _ in range(64)]
    for step in range(1500):
        line = rng.choice(lines)
        set_idx = line % cache.num_sets
        before = resident_lines(cache, set_idx)
        op = rng.random()
        if op < 0.45:
            evictions_before = cache.stats.evictions
            occupancy_before = cache.occupancy
            result = cache.lookup(
                line, pc=rng.randrange(1 << 12), is_load=True,
                is_prefetch=rng.random() < 0.2,
            )
            # Lookups never change residency, hit or miss.
            assert resident_lines(cache, set_idx) == before
            assert cache.occupancy == occupancy_before
            assert result.hit == (line in before)
            # A hit never evicts.
            if result.hit:
                assert cache.stats.evictions == evictions_before
        elif op < 0.9:
            was_resident = line in before
            evicted = cache.fill(
                line, pc=rng.randrange(1 << 12),
                is_prefetch=rng.random() < 0.3, cycle=step,
            )
            after = resident_lines(cache, set_idx)
            assert line in after
            if was_resident:
                # Duplicate fill: refresh only, no eviction.
                assert evicted is None
                assert after == before
            elif evicted is not None:
                # The victim was resident, is gone, and came from a full set.
                assert evicted.line in before
                assert evicted.line not in after
                assert len(before) == cache.ways
            else:
                assert after == before | {line}
        else:
            present = cache.invalidate(line)
            assert present == (line in before)
            assert resident_lines(cache, set_idx) == before - {line}
        assert_structurally_consistent(cache)


@pytest.mark.parametrize("seed", SEEDS)
def test_lru_victim_is_least_recently_touched(seed):
    """Differential shadow model: the evicted line must always be the
    set's least-recently-touched resident line (fills and hits both
    count as touches)."""
    rng = random.Random(seed)
    cache = small_cache("lru", sets=4, ways=4)
    shadow: dict[int, list[int]] = {i: [] for i in range(cache.num_sets)}  # MRU last
    for step in range(1200):
        line = rng.randrange(cache.capacity_lines * 3)
        set_idx = line % cache.num_sets
        order = shadow[set_idx]
        if rng.random() < 0.5:
            result = cache.lookup(line, pc=0x400, is_load=True, is_prefetch=False)
            if result.hit:
                order.remove(line)
                order.append(line)
        else:
            evicted = cache.fill(line, pc=0x400, is_prefetch=False, cycle=step)
            if line in order:
                assert evicted is None
                # Cache.fill refreshes a resident line's metadata only on
                # the LRU inline path via _tick; duplicate fills do not
                # call the policy.  The shadow mirrors residency, not
                # recency, for this case — and fill() indeed leaves
                # recency untouched for duplicates, so nothing to do.
            else:
                if evicted is not None:
                    assert order and evicted.line == order[0]
                    order.pop(0)
                order.append(line)
        assert set(order) == resident_lines(cache, set_idx)


def test_lru_policy_victim_matches_min_scan():
    policy = LruPolicy()
    meta = [5, 3, 9, 3]
    # Victim is the lowest tick; ties break to the lowest way index,
    # matching the inlined ``meta.index(min(meta))`` in Cache.fill.
    assert policy.victim(meta) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_ship_victim_always_resident_and_aging_saturates(seed):
    """SHiP's victim must be a resident way of the full set, and the
    one-pass aging must leave the victim at RRPV max with every way aged
    by the same distance."""
    rng = random.Random(seed)
    policy = ShipPolicy()
    ways = 4
    meta = [policy.new_meta() for _ in range(ways)]
    for way in range(ways):
        policy.on_fill(meta, way, pc=rng.randrange(1 << 12), is_prefetch=False, tick=way)
    for step in range(400):
        if rng.random() < 0.5:
            policy.on_hit(meta, rng.randrange(ways), pc=rng.randrange(1 << 12), tick=step)
        before = [m.rrpv for m in meta]
        victim = policy.victim(meta)
        assert 0 <= victim < ways
        age = ShipPolicy.RRPV_MAX - max(before)
        assert meta[victim].rrpv == ShipPolicy.RRPV_MAX
        assert [m.rrpv for m in meta] == [r + age for r in before]
        # The victim is the lowest-indexed way holding the max RRPV.
        assert victim == before.index(max(before))
        policy.on_evict(meta, victim, meta[victim].reused)
        policy.on_fill(
            meta, victim, pc=rng.randrange(1 << 12),
            is_prefetch=rng.random() < 0.3, tick=step,
        )


def test_ship_shct_counters_stay_bounded():
    rng = random.Random(9)
    policy = ShipPolicy()
    meta = [policy.new_meta() for _ in range(4)]
    for way in range(4):
        policy.on_fill(meta, way, pc=way, is_prefetch=False, tick=0)
    for step in range(2000):
        op = rng.random()
        way = rng.randrange(4)
        if op < 0.4:
            policy.on_hit(meta, way, pc=rng.randrange(64), tick=step)
        elif op < 0.7:
            policy.on_evict(meta, way, meta[way].reused)
            policy.on_fill(meta, way, pc=rng.randrange(64), is_prefetch=False, tick=step)
        else:
            policy.victim(meta)
        assert all(0 <= c <= ShipPolicy.SHCT_MAX for c in policy._shct)
        assert all(isinstance(m, ShipMeta) and m.rrpv >= 0 for m in meta)


# -- columnar checkpoint codec ----------------------------------------------

_OPS = st.tuples(
    st.sampled_from(("lookup", "fill", "invalidate")),
    st.integers(min_value=0, max_value=47),  # line
    st.integers(min_value=0, max_value=(1 << 12) - 1),  # pc
    st.booleans(),  # is_prefetch
)


def _apply(cache: Cache, op, step: int):
    kind, line, pc, is_prefetch = op
    if kind == "lookup":
        return cache.lookup(line, pc, is_load=not is_prefetch, is_prefetch=is_prefetch)
    if kind == "fill":
        return cache.fill(line, pc, is_prefetch, cycle=step)
    return cache.invalidate(line)


def _pop_order(heap: list[int]) -> list[int]:
    heap = list(heap)
    return [heapq.heappop(heap) for _ in range(len(heap))]


@settings(max_examples=150, deadline=None)
@given(
    sets=st.integers(min_value=1, max_value=4),
    ways=st.integers(min_value=1, max_value=4),
    replacement=st.sampled_from(["lru", "ship"]),
    ops=st.lists(_OPS, max_size=120),
    cut=st.integers(min_value=0, max_value=120),
)
def test_pickled_cache_continues_identically(sets, ways, replacement, ops, cut):
    cache = small_cache(replacement, sets=sets, ways=ways)
    cut = min(cut, len(ops))
    for step, op in enumerate(ops[:cut]):
        _apply(cache, op, step)
    restored = pickle.loads(pickle.dumps(cache, pickle.HIGHEST_PROTOCOL))
    assert restored.columns() == cache.columns()
    assert_structurally_consistent(restored)
    # Same lookup outcomes and eviction records from here on.
    for step, op in enumerate(ops[cut:], start=cut):
        assert _apply(restored, op, step) == _apply(cache, op, step)
    assert restored.stats == cache.stats
    assert restored._tick == cache._tick
    assert restored.columns() == cache.columns()
    for set_idx in range(cache.num_sets):
        assert restored._tags[set_idx] == cache._tags[set_idx]
        assert _pop_order(restored._free[set_idx]) == _pop_order(cache._free[set_idx])


def _warm(replacement: str) -> Cache:
    cache = small_cache(replacement, sets=4, ways=4)
    rng = random.Random(5)
    for step in range(200):
        cache.fill(rng.randrange(64), pc=rng.randrange(1 << 12),
                   is_prefetch=rng.random() < 0.3, cycle=step)
    return cache


def _restore_with(cache: Cache, **changes) -> None:
    state = cache.__getstate__()
    state["columns"] = dataclasses.replace(state["columns"], **changes)
    Cache.__new__(Cache).__setstate__(state)


@pytest.mark.parametrize("replacement", ["lru", "ship"])
def test_truncated_column_is_rejected(replacement):
    cache = _warm(replacement)
    cols = cache.columns()
    with pytest.raises(ValueError, match="malformed"):
        _restore_with(cache, tag=cols.tag[:-1])
    with pytest.raises(ValueError, match="malformed"):
        _restore_with(cache, meta=(cols.meta[0][:-1], *cols.meta[1:]))
    with pytest.raises(ValueError, match="malformed"):
        _restore_with(cache, stats=cols.stats[:-1])


@pytest.mark.parametrize("replacement", ["lru", "ship"])
def test_out_of_range_flag_is_rejected(replacement):
    cache = _warm(replacement)
    flags = array("B", cache.columns().flags)
    flags[3] = 8
    with pytest.raises(ValueError, match="flag byte"):
        _restore_with(cache, flags=flags)


def test_non_columnar_state_is_rejected():
    # The pre-columnar pickle carried the instance __dict__ instead.
    with pytest.raises(ValueError, match="columnar"):
        Cache.__new__(Cache).__setstate__(dict(vars(_warm("lru"))))
