"""The one memory+disk cache tier behind every artifact cache.

The decomposition, Doppler-filter and compiled-plan caches differ only in
*what* they cache.  :class:`TieredCache` is *how* all three cache it:

* a thread-safe **memory LRU**, bounded by the client's weigh rule: one
  per entry (an entry count), resident bytes (a byte bound), or unbounded;
* one :class:`~repro.engine.store.ArtifactStore` namespace as the **disk
  tier**: a memory miss probes it, and a verified load is frozen and
  *promoted* into memory, so the load is paid once per process;
* **spill-on-hit**: a memory hit while a disk tier is attached re-offers
  the entry to the store, so attaching a ``cache_dir`` to a warm cache
  persists what it already holds (the store makes repeats free);
* **coherence**: :meth:`TieredCache.invalidate` drops a key from both tiers,
  and a hit the client rejects never stays resident;
* one set of counters, and one **singleflight** table.

A client supplies only a :class:`Codec` — dump/load for the store,
``freeze`` to make a value safe to share, ``weigh`` for the memory bound —
and, per lookup, an optional ``bind`` that turns a cached value into what
the caller receives (the plan cache re-binds a resident plan to the
caller's seeds and labels); memory and disk hits go through the same one.
Only counter and table updates take the lock; weighing, binding and all
disk I/O run outside it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from .store import DEFAULT_DISK_MAX_BYTES, ArtifactStore, DumpFn, LoadFn, StoreStats

__all__ = ["Codec", "TierStats", "TieredCache", "CacheFrontEnd"]

#: ``bind(value, from_memory) -> result | None``: what a hit hands the
#: caller; ``None`` (or an exception) rejects the cached value.
BindFn = Callable[[Any, bool], Optional[Any]]


def _one(value: Any) -> int:
    return 1


@dataclass(frozen=True)
class Codec:
    """What a client tells :class:`TieredCache` about its values.

    ``dump``/``load`` are the store's payload pair; ``freeze`` makes a value
    safe to share between callers (read-only arrays) and returns it;
    ``weigh`` is the value's share of the memory bound.
    """

    dump: DumpFn
    load: LoadFn
    freeze: Callable[[Any], Any]
    weigh: Callable[[Any], int] = _one


@dataclass(frozen=True)
class TierStats:
    """Snapshot of one :class:`TieredCache`'s counters: ``misses`` counts
    lookups no tier served, ``disk`` holds the store's own counters."""

    memory_hits: int = 0
    memory_misses: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    weight: int = 0
    inflight_leads: int = 0
    inflight_coalesced: int = 0
    disk: StoreStats = field(default_factory=StoreStats)

    @property
    def hits(self) -> int:
        """Lookups served by either tier."""
        return self.memory_hits + self.disk.hits


class TieredCache:
    """A memory LRU over one artifact-store namespace (see the module docs).

    ``max_weight`` bounds the total weight of the memory tier: ``None`` is
    unbounded and ``0`` disables the tier (lookups go straight to disk).
    """

    def __init__(
        self,
        namespace: str,
        codec: Codec,
        *,
        cache_dir: Union[None, str, Path] = None,
        format_version: int,
        disk_max_bytes: int = DEFAULT_DISK_MAX_BYTES,
        max_weight: Optional[int] = None,
    ) -> None:
        self._codec = codec
        #: The disk tier (a plain attribute: fault-injection tests swap it).
        self.store = ArtifactStore(
            namespace,
            dump=codec.dump,
            load=codec.load,
            cache_dir=cache_dir,
            format_version=format_version,
            max_bytes=disk_max_bytes,
        )
        self._lock = threading.Lock()
        self._max_weight = max_weight
        self._memory: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._weight = self._memory_hits = self._memory_misses = self._misses = 0
        self._evictions = self._inflight_leads = self._inflight_coalesced = 0
        # key -> the event its leader sets once the result is cached (or failed).
        self._inflight: Dict[str, threading.Event] = {}

    @property
    def enabled(self) -> bool:
        """Whether any tier is active."""
        with self._lock:
            if self._max_weight != 0:
                return True
        return self.store.attached

    def resize(self, max_weight: Optional[int]) -> None:
        """Re-bound the memory tier, evicting LRU entries to fit."""
        with self._lock:
            self._max_weight = max_weight
            self._trim_locked()

    def lookup(self, key: str, bind: Optional[BindFn] = None) -> Optional[Any]:
        """Serve ``key`` from memory, else from disk, else ``None``.

        A memory entry that ``bind`` rejects (a key collision) is dropped
        and the disk tier re-checked; a disk entry it rejects is
        invalidated in both tiers, so the store counts it as corrupt.
        """
        with self._lock:
            found = self._memory.get(key)
            if found is not None:
                self._memory.move_to_end(key)
                self._memory_hits += 1
            elif self._max_weight != 0:
                self._memory_misses += 1
        if found is not None:
            result = _bound(bind, found[0], True)
            if result is not None:
                if self.store.attached:
                    self.store.put(key, found[0])
                return result
            self._discard(key)
        loaded = self.store.lookup(key)
        if loaded is not None:
            value = self._admit(key, self._codec.freeze(loaded))
            result = _bound(bind, value, False)
            if result is not None:
                return result
            self.invalidate(key)
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: str, value: Any) -> Tuple[Any, bool]:
        """Freeze ``value``, keep it in memory and spill it to disk.

        Returns ``(resident, written)``: the value now shared under ``key``
        (an earlier insert wins a race) and whether a disk file was written.
        """
        value = self._admit(key, self._codec.freeze(value))
        return value, self.store.put(key, value)

    def _admit(self, key: str, value: Any) -> Any:
        """Insert into the memory tier unless present, disabled or too heavy."""
        weight = self._codec.weigh(value)
        with self._lock:
            found = self._memory.get(key)
            if found is not None:
                self._memory.move_to_end(key)
                return found[0]
            bound = self._max_weight
            if bound == 0 or (bound is not None and weight > bound):
                # Larger than the whole tier: caching it would evict
                # everything for one entry that may never be re-requested.
                return value
            self._memory[key] = (value, weight)
            self._weight += weight
            self._trim_locked()
        return value

    def _trim_locked(self) -> None:
        if self._max_weight is None:
            return
        while self._memory and self._weight > self._max_weight:
            _, (_, weight) = self._memory.popitem(last=False)
            self._weight -= weight
            self._evictions += 1

    def _discard(self, key: str) -> None:
        with self._lock:
            found = self._memory.pop(key, None)
            if found is not None:
                self._weight -= found[1]

    def invalidate(self, key: str) -> None:
        """Drop ``key`` from memory and quarantine its disk entry.

        For entries whose content a lookup just rejected: the store
        re-counts that hit as a corruption miss.
        """
        self._discard(key)
        self.store.invalidate(key)

    def join_inflight(self, key: str) -> Optional[threading.Event]:
        """``None`` when the caller leads the build of ``key``; else the
        leader's event to wait on before looking up again.  A cache with no
        active tier never registers: waiters would have nothing to find."""
        if not self.enabled:
            return None
        with self._lock:
            event = self._inflight.get(key)
            if event is None:
                self._inflight[key] = threading.Event()
                self._inflight_leads += 1
                return None
            self._inflight_coalesced += 1
            return event

    def finish_inflight(self, key: str) -> None:
        """Release ``key`` and wake its waiters (safe if never joined)."""
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    @property
    def stats(self) -> TierStats:
        """Snapshot of the memory, singleflight and disk counters."""
        disk = self.store.stats
        with self._lock:
            return TierStats(
                memory_hits=self._memory_hits,
                memory_misses=self._memory_misses,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._memory),
                weight=self._weight,
                inflight_leads=self._inflight_leads,
                inflight_coalesced=self._inflight_coalesced,
                disk=disk,
            )

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._memory

    def memory_usage(self) -> Tuple[int, int]:
        """``(entries, total weight)`` of the memory tier."""
        with self._lock:
            return len(self._memory), self._weight

    def clear_memory(self) -> int:
        """Drop every memory entry (counters kept); returns how many."""
        with self._lock:
            removed = len(self._memory)
            self._memory.clear()
            self._weight = 0
            return removed

    def reset_stats(self) -> None:
        """Zero every counter, the store's included (entries kept)."""
        with self._lock:
            self._memory_hits = self._memory_misses = self._misses = 0
            self._evictions = self._inflight_leads = self._inflight_coalesced = 0
        self.store.reset_stats()


class CacheFrontEnd:
    """What every cache front end delegates unchanged to its ``_tiers``."""

    _tiers: TieredCache

    @property
    def cache_dir(self) -> Optional[Path]:
        """Root directory of the disk tier (``None`` when memory-only)."""
        return self._tiers.store.cache_dir

    @property
    def artifact_store(self) -> ArtifactStore:
        """The underlying artifact store of the disk tier."""
        return self._tiers.store

    def set_cache_dir(self, cache_dir: Union[None, str, Path]) -> None:
        """Attach (or detach, with ``None``) the persistent disk tier.

        Existing files under the directory become immediately visible as
        disk entries; counters are kept, and entries already in memory
        spill on their next hit.  The CLI's ``--cache-dir`` configures the
        process-wide caches this way.
        """
        self._tiers.store.set_cache_dir(cache_dir)

    def __len__(self) -> int:
        return self._tiers.memory_usage()[0]

    def disk_usage(self) -> Tuple[int, int]:
        """``(n_files, total_bytes)`` of the disk tier (``(0, 0)`` if none)."""
        return self._tiers.store.usage()

    def clear_disk(self) -> int:
        """Remove every file of the disk tier (``.tmp`` and quarantine
        leftovers included); returns the number of entries removed."""
        return self._tiers.store.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (entries are kept)."""
        self._tiers.reset_stats()


def _bound(bind: Optional[BindFn], value: Any, from_memory: bool) -> Optional[Any]:
    """Apply ``bind`` to a hit; any exception rejects the value."""
    if bind is None:
        return value
    try:
        return bind(value, from_memory)
    except Exception:
        return None
