"""Set-associative cache model with per-line prefetch bookkeeping.

Each cache tracks, per line, whether the line was brought in by a
prefetch and whether it has been used by a demand access since fill.
That bookkeeping is what lets the metrics layer compute the paper's
coverage and overprediction numbers, and what lets prefetchers receive
"prefetch line was useful/useless" feedback.

The data structures are organized for the simulator's per-record hot
path: each set carries a tag→way dict beside the way list, so
``lookup``/``probe``/``fill`` resolve residency in O(1) instead of a
linear way scan, and invalid ways sit in a per-set min-heap so fills
consume them lowest-index-first without building a validity list per
fill.  Replacement policies therefore only ever see full sets
(:mod:`repro.sim.replacement`).

Between replays the same state has a second, flat form:
:class:`CacheColumns`, set-major typed arrays (stdlib :mod:`array`, no
NumPy).  It is what a checkpoint pickles (:meth:`Cache.__getstate__`)
and what the native replay kernel reads and writes in place
(:mod:`repro.sim._native.bridge`) — one column layout for both.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from itertools import chain

from repro.sim.config import CacheGeometry
from repro.sim.replacement import LruPolicy, ShipMeta, ShipPolicy, make_policy
from repro.types import prefetch_accuracy as _prefetch_accuracy


@dataclass(slots=True)
class CacheStats:
    """Counters for one cache level.

    Demand counters exclude prefetch traffic; ``prefetch_*`` counters are
    lookups/fills on behalf of the prefetcher.  ``useful_prefetches`` and
    ``useless_evictions`` track the fate of prefetched lines.
    """

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    load_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    fills: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    useless_evictions: int = 0
    evictions: int = 0

    @property
    def demand_hit_rate(self) -> float:
        """Fraction of demand accesses that hit."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of prefetch fills later touched by a demand access."""
        return _prefetch_accuracy(self.useful_prefetches, self.useless_evictions)


#: ``CacheStats`` counters in column order (the kernel's ``ST_*`` indices).
STAT_FIELDS = tuple(f.name for f in fields(CacheStats))

#: Per-way flag bits of :attr:`CacheColumns.flags` (the kernel's ``FL_*``).
FLAG_VALID = 1
FLAG_PREFETCHED = 2
FLAG_USED = 4

_FLAG_MASK = FLAG_VALID | FLAG_PREFETCHED | FLAG_USED

#: ``(valid, prefetched, used)`` for every in-range flag byte.
_FLAG_BITS = tuple(
    (fl & FLAG_VALID != 0, fl & FLAG_PREFETCHED != 0, fl & FLAG_USED != 0)
    for fl in range(_FLAG_MASK + 1)
)

#: Policy codes of the column layout (the kernel's ``POLICY_*``).
POLICY_LRU = 0
POLICY_SHIP = 1


@dataclass(slots=True)
class CacheColumns:
    """One cache level's state as flat, set-major typed arrays.

    Way ``w`` of set ``s`` sits at index ``s * ways + w`` of every
    per-way column:

    * ``tag``, ``fill_cycle`` — ``int64``; ``flags`` — ``uint8`` bit set
      of :data:`FLAG_VALID`, :data:`FLAG_PREFETCHED`, :data:`FLAG_USED`;
    * ``meta`` — replacement metadata: LRU ``(tick,)`` as ``int64``;
      SHiP ``(rrpv, sig, reused)`` as ``int64, int64, uint8``;
    * ``stats`` — ``int64`` counters in :data:`STAT_FIELDS` order;
    * ``shct`` — SHiP's ``int64`` counter table, ``None`` under LRU.
    """

    policy: int
    tag: array
    flags: array
    fill_cycle: array
    meta: tuple[array, ...]
    stats: array
    shct: array | None


@dataclass(slots=True)
class _Line:
    """One way of one set (slotted: millions live per simulation)."""

    tag: int = -1
    valid: bool = False
    prefetched: bool = False
    used: bool = False
    fill_cycle: int = 0


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Outcome of a cache lookup.

    The four possible outcomes are preallocated module-level constants
    (lookups happen several times per simulated record); the class is
    frozen so the shared instances cannot be corrupted.
    """

    hit: bool
    was_prefetched_line: bool = False
    first_use_of_prefetch: bool = False


_MISS = LookupResult(hit=False)
_HIT = LookupResult(hit=True)
_HIT_PREFETCHED = LookupResult(hit=True, was_prefetched_line=True)
_HIT_FIRST_USE = LookupResult(
    hit=True, was_prefetched_line=True, first_use_of_prefetch=True
)


@dataclass(slots=True)
class EvictedLine:
    """Information about a line pushed out of the cache by a fill."""

    line: int
    prefetched: bool
    used: bool


class Cache:
    """A set-associative, write-allocate cache level.

    The cache is *functional plus statistics*: timing lives in the
    hierarchy/DRAM models.  Lookups and fills update replacement state and
    the prefetch bookkeeping used by the metrics layer.

    Args:
        name: level name used in reports (``"L1"``, ``"L2"``, ``"LLC"``).
        geometry: size/associativity/latency description.
    """

    def __init__(self, name: str, geometry: CacheGeometry) -> None:
        self._allocate(name, geometry)
        self._meta: list[list] = [
            [self._policy.new_meta() for _ in range(self.ways)]
            for _ in range(self.num_sets)
        ]

    def _allocate(self, name: str, geometry: CacheGeometry) -> None:
        """Set every field but the per-way metadata lists (``_meta``)."""
        if geometry.num_sets <= 0:
            raise ValueError(f"{name}: geometry yields no sets")
        self.name = name
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways
        self.latency = geometry.latency
        self.stats = CacheStats()
        self._policy = make_policy(geometry.replacement)
        # LRU's touch bookkeeping is one int store; inlining it saves a
        # Python call on every lookup hit and fill (L1/L2 are LRU).
        self._policy_is_lru = type(self._policy) is LruPolicy
        self._sets: list[list[_Line]] = [
            [_Line() for _ in range(self.ways)] for _ in range(self.num_sets)
        ]
        # Per-set tag→way index: O(1) residency checks beside the way list.
        self._tags: list[dict[int, int]] = [{} for _ in range(self.num_sets)]
        # Per-set min-heaps of invalid ways: fills take the lowest index
        # first, matching the historical "first invalid way" victim rule.
        self._free: list[list[int]] = [
            list(range(self.ways)) for _ in range(self.num_sets)
        ]
        self._tick = 0

    # -- columnar codec -----------------------------------------------------

    def columns(self) -> CacheColumns:
        """Encode this level's state as fresh :class:`CacheColumns`."""
        lines = list(chain.from_iterable(self._sets))
        metas = list(chain.from_iterable(self._meta))
        if self._policy_is_lru:
            policy = POLICY_LRU
            meta: tuple[array, ...] = (array("q", metas),)
            shct = None
        else:
            policy = POLICY_SHIP
            meta = (
                array("q", [m.rrpv for m in metas]),
                array("q", [m.sig for m in metas]),
                array("B", [m.reused for m in metas]),
            )
            shct = array("q", self._policy._shct)
        stats = self.stats
        return CacheColumns(
            policy=policy,
            tag=array("q", [e.tag for e in lines]),
            flags=array("B", [e.valid | e.prefetched << 1 | e.used << 2 for e in lines]),
            fill_cycle=array("q", [e.fill_cycle for e in lines]),
            meta=meta,
            stats=array("q", [getattr(stats, name) for name in STAT_FIELDS]),
            shct=shct,
        )

    def load_columns(self, cols: CacheColumns) -> None:
        """Overwrite this level's state from *cols*, in place.

        Line objects, the per-set way and metadata lists, and the stats
        object keep their identity; the tag index and the free-way heaps
        are rebuilt from the flags (ascending free ways already form a
        min-heap with the scalar heap's pop order).  The tick is not a
        column: callers restore ``_tick`` themselves.

        Raises:
            ValueError: *cols* does not fit this cache — wrong policy,
                a column of the wrong length or type, a flag byte with
                bits outside the layout, or one tag valid twice in a set.
        """
        nsets, ways = self.num_sets, self.ways
        n = nsets * ways
        is_lru = self._policy_is_lru
        policy = POLICY_LRU if is_lru else POLICY_SHIP
        if cols.policy != policy:
            raise ValueError(
                f"{self.name}: snapshot policy {cols.policy}, cache expects {policy}"
            )
        typecodes = ("q",) if is_lru else ("q", "q", "B")
        per_way = (cols.tag, cols.flags, cols.fill_cycle, *cols.meta)
        if len(cols.meta) != len(typecodes) or any(
            not isinstance(col, array) or len(col) != n or col.typecode != code
            for col, code in zip(per_way, ("q", "B", "q", *typecodes))
        ):
            raise ValueError(
                f"{self.name}: malformed cache columns (expected "
                f"{len(typecodes) + 3} columns of {n} ways)"
            )
        if len(cols.stats) != len(STAT_FIELDS):
            raise ValueError(f"{self.name}: malformed stats column")
        if not is_lru and (cols.shct is None or len(cols.shct) != ShipPolicy.SHCT_SIZE):
            raise ValueError(f"{self.name}: malformed SHCT column")
        flags = cols.flags.tolist()
        if max(flags) > _FLAG_MASK or (not is_lru and max(cols.meta[2]) > 1):
            raise ValueError(f"{self.name}: flag byte out of range")
        tags = cols.tag.tolist()
        bits = _FLAG_BITS
        for entry, tag, fl, cycle in zip(
            chain.from_iterable(self._sets), tags, flags, cols.fill_cycle
        ):
            entry.tag = tag
            entry.valid, entry.prefetched, entry.used = bits[fl]
            entry.fill_cycle = cycle
        if is_lru:
            ticks = cols.meta[0].tolist()
        else:
            rrpv, sig, reused = (col.tolist() for col in cols.meta)
            self._policy._shct[:] = cols.shct.tolist()
        for s in range(nsets):
            base = s * ways
            stop = base + ways
            # Set by set, so the replaced metadata is freed as we go.
            self._meta[s][:] = (
                ticks[base:stop]
                if is_lru
                else map(ShipMeta, rrpv[base:stop], sig[base:stop], map(bool, reused[base:stop]))
            )
            set_flags = flags[base:stop]
            index = {
                tag: w
                for w, (tag, fl) in enumerate(zip(tags[base:stop], set_flags))
                if fl & FLAG_VALID
            }
            free = [w for w, fl in enumerate(set_flags) if not fl & FLAG_VALID]
            if len(index) + len(free) != ways:
                raise ValueError(f"{self.name}: set {s} holds a tag twice")
            self._tags[s] = index
            self._free[s] = free
        stats = self.stats
        for name, value in zip(STAT_FIELDS, cols.stats):
            setattr(stats, name, value)

    def __getstate__(self) -> dict:
        return {
            "name": self.name,
            "geometry": self.geometry,
            "tick": self._tick,
            "columns": self.columns(),
        }

    def __setstate__(self, state: dict) -> None:
        try:
            name, geometry = state["name"], state["geometry"]
            tick, cols = state["tick"], state["columns"]
        except (KeyError, TypeError) as exc:
            raise ValueError("not a columnar cache snapshot") from exc
        if not isinstance(cols, CacheColumns):
            raise ValueError("not a columnar cache snapshot")
        self._allocate(name, geometry)
        self._meta = [[] for _ in range(self.num_sets)]
        self._tick = tick
        self.load_columns(cols)

    def _index(self, line: int) -> int:
        return line % self.num_sets

    def _find(self, line: int) -> tuple[int, int] | None:
        set_idx = line % self.num_sets
        way = self._tags[set_idx].get(line)
        if way is None:
            return None
        return set_idx, way

    # -- public API ---------------------------------------------------------

    def probe(self, line: int) -> bool:
        """Check presence without touching stats or replacement state."""
        return line in self._tags[line % self.num_sets]

    def lookup(self, line: int, pc: int, is_load: bool, is_prefetch: bool) -> LookupResult:
        """Access the cache; updates stats and replacement state.

        A hit promotes the line; a first demand hit on a prefetched line
        is flagged so the caller can credit the prefetcher.
        """
        self._tick += 1
        stats = self.stats
        set_idx = line % self.num_sets
        way = self._tags[set_idx].get(line)
        if is_prefetch:
            stats.prefetch_accesses += 1
        else:
            stats.demand_accesses += 1

        if way is None:
            if is_prefetch:
                stats.prefetch_misses += 1
            else:
                stats.demand_misses += 1
                if is_load:
                    stats.load_misses += 1
            return _MISS

        entry = self._sets[set_idx][way]
        if self._policy_is_lru:
            self._meta[set_idx][way] = self._tick
        else:
            self._policy.on_hit(self._meta[set_idx], way, pc, self._tick)
        if not is_prefetch:
            stats.demand_hits += 1
            if entry.prefetched:
                if not entry.used:
                    entry.used = True
                    stats.useful_prefetches += 1
                    return _HIT_FIRST_USE
                return _HIT_PREFETCHED
            return _HIT
        stats.prefetch_hits += 1
        return _HIT_PREFETCHED if entry.prefetched else _HIT

    def fill(self, line: int, pc: int, is_prefetch: bool, cycle: int = 0) -> EvictedLine | None:
        """Insert *line*, evicting a victim if the set is full.

        Returns the evicted line's bookkeeping (or ``None`` if an invalid
        way was used).  Filling a line already present only refreshes its
        metadata.

        The replay hot paths inline this method — the batched epoch
        kernel (:mod:`repro.sim.batch`) for demand fills and
        :meth:`repro.sim.hierarchy.CacheHierarchy.process_fills` for
        prefetch fills.  Change all three together.
        """
        self._tick += 1
        set_idx = line % self.num_sets
        tags = self._tags[set_idx]
        meta = self._meta[set_idx]
        existing = tags.get(line)
        if existing is not None:
            # Duplicate fill (e.g. a demand fill racing a prefetch fill):
            # refresh but never downgrade a demand-fetched line to a
            # prefetched one.
            entry = self._sets[set_idx][existing]
            if not is_prefetch:
                entry.prefetched = entry.prefetched and entry.used
            return None

        free = self._free[set_idx]
        evicted: EvictedLine | None = None
        is_lru = self._policy_is_lru
        if free:
            way = heappop(free)
            entry = self._sets[set_idx][way]
        else:
            # The is_lru arm inlines LruPolicy.victim (evictions happen
            # on nearly every post-warmup fill); keep the two in sync.
            way = meta.index(min(meta)) if is_lru else self._policy.victim(meta)
            entry = self._sets[set_idx][way]
            self.stats.evictions += 1
            if entry.prefetched and not entry.used:
                self.stats.useless_evictions += 1
            if not is_lru:  # LRU's on_evict is a no-op
                self._policy.on_evict(meta, way, entry.used)
            evicted = EvictedLine(entry.tag, entry.prefetched, entry.used)
            del tags[entry.tag]

        tags[line] = way
        entry.tag = line
        entry.valid = True
        entry.prefetched = is_prefetch
        entry.used = not is_prefetch
        entry.fill_cycle = cycle
        if is_lru:
            meta[way] = self._tick
        else:
            self._policy.on_fill(meta, way, pc, is_prefetch, self._tick)
        self.stats.fills += 1
        if is_prefetch:
            self.stats.prefetch_fills += 1
        return evicted

    def invalidate(self, line: int) -> bool:
        """Remove *line* if present; returns True if it was present."""
        set_idx = line % self.num_sets
        way = self._tags[set_idx].pop(line, None)
        if way is None:
            return False
        self._sets[set_idx][way] = _Line()
        self._meta[set_idx][way] = self._policy.new_meta()
        heappush(self._free[set_idx], way)
        return True

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(tags) for tags in self._tags)

    @property
    def capacity_lines(self) -> int:
        """Total line capacity."""
        return self.num_sets * self.ways
