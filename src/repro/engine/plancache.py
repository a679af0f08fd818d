"""The compiled-plan cache: whole :class:`CompiledPlan` objects, two tiers.

:class:`CompiledPlanCache` is the executor-level cache above the per-matrix
decomposition and filter caches: :func:`repro.engine.compile.compile_plan`
content-hashes the ``(plan, backend namespace)`` pair and, on a hit, serves
the full :class:`~repro.engine.compile.CompiledPlan` without touching
``eigh``/``cholesky``, filter construction or the per-matrix caches.

Its memory and disk (``plans/``) tiers are the one
:class:`repro.engine.tiered.TieredCache`, weighed in resident bytes; both
hold the same plan-independent entry, and every hit is re-bound to the
caller's plan (seeds and labels come from it) with zero array copies.  The
memory tier is **on by default exactly when a disk tier is attached** (the
configurations that opt into plan caching); a detached cache is a no-op.

Keying: :func:`compiled_plan_cache_key` folds, per entry *in plan order*,
the decomposition cache key (covariance bytes, methods, epsilon,
tolerances, backend ``cache_token``), the white-sample variance, the full
Doppler tuple (``M``, ``f_m``, ``sigma_orig^2``, the Eq. (19) compensation
flag) and the fading-model token.  Seeds and labels are *excluded*, so a
re-seeded sweep warm-starts from the same artifact; grouping is a pure
function of the hashed fields and entry order, so two plans with equal
keys compile to structurally identical plans.

Serialization: one artifact stores, deduplicated across groups, the unique
decompositions (through the decomposition cache's own codec), the unique
filter arrays, and per group its entry indices, decomposition map, sample
variances, Eq. (19) output variance and fading family.  Coloring stacks are
re-stacked on load exactly as a fresh compile stacks them.  A corrupt or
truncated artifact is a **miss** (the plan recompiles and re-spills), and a
disk hit is bit-identical to a fresh compilation.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..config import DEFAULTS, NumericDefaults, cache_dir_from_env
from .cache import _ARRAY_FIELDS, _dump_decomposition, _freeze, _load_decomposition
from .store import DEFAULT_DISK_MAX_BYTES, StoreStats
from .tiered import CacheFrontEnd, Codec, TieredCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .backends import LinalgBackend
    from .compile import CompiledGroup, CompiledPlan
    from .plan import SimulationPlan

__all__ = [
    "DEFAULT_MEMORY_MAX_BYTES",
    "PlanCacheStats",
    "CompiledPlanCache",
    "compiled_plan_cache_key",
    "default_plan_cache",
]

#: On-disk payload-layout version of compiled-plan artifacts.  Version 2
#: folded the per-entry fading token into the key; version 3 stores each
#: decomposition with the decomposition cache's codec and each group's
#: fading family.  The version is part of the key prefix, so older
#: artifacts simply never hit again — clean invalidation, no migration.
_DISK_FORMAT_VERSION = 3

#: Default byte bound of the in-memory tier when a disk tier is attached.
DEFAULT_MEMORY_MAX_BYTES = 256 * 1024 * 1024


def compiled_plan_cache_key(
    plan: "SimulationPlan",
    *,
    defaults: NumericDefaults = DEFAULTS,
    cache_token: str = "numpy",
) -> str:
    """Content hash identifying one ``(plan, backend namespace)`` compilation.

    Two plans receive the same key exactly when :func:`compile_plan` would
    produce structurally identical compiled plans for them: every
    compilation input — per-entry covariance bytes, algorithm options,
    numeric tolerances, sample variance, Doppler parameters, fading-model
    token, and the
    backend's :attr:`~repro.engine.backends.LinalgBackend.cache_token` — is
    folded in, in plan order.  Seeds and labels are excluded (they are
    execution-time inputs), so re-seeded sweeps share one artifact.
    """
    hasher = hashlib.sha256()
    hasher.update(f"compiled-plan|{_DISK_FORMAT_VERSION}|{cache_token}".encode("utf8"))
    for entry in plan:
        # The entry cache key already folds the matrix bytes, methods,
        # epsilon, tolerances, and the backend token (memoized per entry).
        hasher.update(entry.cache_key(defaults, cache_token).encode("ascii"))
        doppler, fading = entry.doppler, entry.fading
        doppler_token = (
            None if doppler is None else (*doppler.filter_key, doppler.compensate_variance)
        )
        fading_token = None if fading is None else fading.fading_token()
        token = (float(entry.sample_variance), doppler_token, fading_token)
        hasher.update(repr(token).encode("utf8"))
    return hasher.hexdigest()


class _Resident(NamedTuple):
    """One cached compiled plan, independent of any caller's plan object:
    ``groups`` hold every array but no entries or Doppler specs, ``shape``
    the report fields that describe the plan rather than one pass."""

    groups: Tuple["CompiledGroup", ...]
    shape: Dict[str, int]


_SHAPE_FIELDS = ("n_entries", "n_unique_matrices", "doppler_filters_built", "doppler_entries")


def _resident(compiled: "CompiledPlan") -> _Resident:
    groups = tuple(replace(group, entries=(), doppler=None) for group in compiled.groups)
    report = compiled.report
    return _Resident(groups, {name: int(getattr(report, name)) for name in _SHAPE_FIELDS})


def _dump_plan(resident: _Resident) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Split a resident plan into store payload (arrays + JSON meta).

    Decompositions and filter arrays shared between groups are stored once
    and referenced by index, mirroring the sharing a fresh compile creates;
    each decomposition is stored with the decomposition cache's own codec
    under a ``decomp_<i>_`` prefix.
    """
    arrays: Dict[str, np.ndarray] = {}
    decomp_index: Dict[int, int] = {}
    decomp_meta = []
    filter_index: Dict[int, int] = {}
    groups_meta = []
    for g, group in enumerate(resident.groups):
        for decomposition in group.decompositions:
            if id(decomposition) not in decomp_index:
                index = decomp_index[id(decomposition)] = len(decomp_meta)
                decomp_arrays, meta = _dump_decomposition(decomposition)
                for name, array in decomp_arrays.items():
                    arrays[f"decomp_{index}_{name}"] = array
                decomp_meta.append(meta)
        arrays[f"group_{g}_indices"] = np.asarray(group.indices, dtype=np.int64)
        arrays[f"group_{g}_decomp_map"] = np.asarray(
            [decomp_index[id(d)] for d in group.decompositions], dtype=np.int64
        )
        arrays[f"group_{g}_sample_variances"] = np.ascontiguousarray(
            group.sample_variances, dtype=float
        )
        findex = None
        if group.doppler_filter is not None:
            findex = filter_index.setdefault(id(group.doppler_filter), len(filter_index))
            arrays[f"filter_{findex}"] = group.doppler_filter
            arrays[f"group_{g}_output_variance"] = np.asarray(
                [group.doppler_output_variance], dtype=float
            )
        groups_meta.append({"filter": findex, "fading_family": group.fading_family})
    meta = {"shape": resident.shape, "decompositions": decomp_meta, "groups": groups_meta}
    return arrays, meta


def _load_plan(arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> _Resident:
    """Rebuild a resident plan from digest-verified store payload.

    Coloring stacks are re-stacked from the stored decomposition arrays
    exactly as a fresh compile stacks them (``np.stack`` copies bytes, so
    the stack is bit-identical).  A structural defect raises, which the
    store counts as a corrupt entry.
    """
    from .compile import CompiledGroup

    decompositions = [
        _load_decomposition(
            {name: arrays[f"decomp_{index}_{name}"] for name in _ARRAY_FIELDS}, entry
        )
        for index, entry in enumerate(meta["decompositions"])
    ]
    groups = []
    for g, group_meta in enumerate(meta["groups"]):
        indices = tuple(int(i) for i in arrays[f"group_{g}_indices"])
        decomps = tuple(decompositions[int(j)] for j in arrays[f"group_{g}_decomp_map"])
        if len(decomps) != len(indices):
            raise ValueError("decomposition map does not cover the group")
        findex, family = group_meta["filter"], group_meta["fading_family"]
        groups.append(
            CompiledGroup(
                indices=indices,
                entries=(),
                coloring_stack=np.stack([d.coloring_matrix for d in decomps]),
                sample_variances=arrays[f"group_{g}_sample_variances"],
                decompositions=decomps,
                doppler_filter=None if findex is None else arrays[f"filter_{findex}"],
                doppler_output_variance=(
                    None if findex is None else float(arrays[f"group_{g}_output_variance"][0])
                ),
                fading_family=None if family is None else (str(family[0]), bool(family[1])),
            )
        )
    return _Resident(tuple(groups), {name: int(meta["shape"][name]) for name in _SHAPE_FIELDS})


def _freeze_plan(resident: _Resident) -> _Resident:
    """Freeze the arrays a resident plan shares with every future hit."""
    for group in resident.groups:
        for array in (group.coloring_stack, group.sample_variances, group.doppler_filter):
            if array is not None:
                array.flags.writeable = False
        for decomposition in group.decompositions:
            _freeze(decomposition)
    return resident


def _resident_bytes(resident: _Resident) -> int:
    """Bytes the plan's arrays keep resident, each shared array counted once."""
    sizes = {}
    for group in resident.groups:
        for array in (group.coloring_stack, group.sample_variances, group.doppler_filter):
            if array is not None:
                sizes[id(array)] = array.nbytes
        for decomposition in group.decompositions:
            for name in _ARRAY_FIELDS:
                array = getattr(decomposition, name)
                sizes[id(array)] = array.nbytes
    return sum(sizes.values())


_CODEC = Codec(dump=_dump_plan, load=_load_plan, freeze=_freeze_plan, weigh=_resident_bytes)


def _rebind(
    resident: _Resident,
    plan: "SimulationPlan",
    backend: "LinalgBackend",
    seconds: float,
    from_memory: bool,
) -> Optional["CompiledPlan"]:
    """Re-bind a resident plan to the caller's plan object.

    Entries (and with them seeds, labels, Doppler specs and fading
    parameters) come from the *caller's* plan; every numeric array is
    shared by reference — zero copies.  Returns ``None`` on a structural
    mismatch (a key collision), which the cache treats as a rejected hit.
    """
    from .compile import CompiledPlan, CompileReport

    if resident.shape["n_entries"] != plan.n_entries:
        return None
    entries = plan.entries
    covered = 0
    groups = []
    for group in resident.groups:
        group_entries = tuple(entries[i] for i in group.indices)
        covered += len(group_entries)
        doppler, fading = group_entries[0].doppler, group_entries[0].fading
        family = None if fading is None else fading.family
        if (doppler is None) != (group.doppler_filter is None) or family != group.fading_family:
            return None
        groups.append(replace(group, entries=group_entries, doppler=doppler))
    if covered != plan.n_entries:
        return None
    report = CompileReport(
        **resident.shape,
        n_groups=len(groups),
        cache_hits=0,
        cache_misses=0,
        compile_seconds=seconds,
        plan_cache_hits=1,
        plan_memory_hits=int(from_memory),
    )
    return CompiledPlan(plan=plan, groups=tuple(groups), report=report, backend=backend)


@dataclass(frozen=True)
class PlanCacheStats(StoreStats):
    """Immutable snapshot of compiled-plan cache activity counters.

    Extends the disk-tier counters of :class:`repro.engine.store.StoreStats`
    (``hits`` are compilations served whole from a verified artifact,
    ``corruptions`` are rejected-and-quarantined artifacts) with the memory
    tier's: ``memory_hits`` / ``memory_misses`` count probes of the
    in-memory LRU (a memory miss falls through to the disk tier, so disk
    counters are unchanged by the tier above them), ``memory_evictions``
    counts byte-bound LRU evictions, and ``memory_entries`` /
    ``memory_bytes`` describe current residency.

    The singleflight counters describe cross-thread compile coalescing
    (see :meth:`CompiledPlanCache.join_inflight`): ``inflight_leads``
    counts compilations that registered as the in-flight leader of their
    key, ``inflight_coalesced`` counts compilations that attached to a
    concurrent leader instead of duplicating its work.
    """

    memory_hits: int = 0
    memory_misses: int = 0
    memory_evictions: int = 0
    memory_entries: int = 0
    memory_bytes: int = 0
    inflight_leads: int = 0
    inflight_coalesced: int = 0

    @property
    def lookups(self) -> int:
        """Total cache probes: memory hits plus disk probes."""
        return self.memory_hits + self.hits + self.misses


class CompiledPlanCache(CacheFrontEnd):
    """Two-tier cache of whole compiled plans (the executor-level cache).

    A byte-bounded in-memory LRU above the ``plans/`` disk namespace (see
    the module docs).  A fully detached cache (no ``cache_dir``, no
    explicit ``memory_max_bytes``) is a no-op: lookups miss silently —
    before hashing the plan — and stores are dropped.

    Parameters
    ----------
    cache_dir:
        Root of the shared artifact cache; artifacts live under
        ``<cache_dir>/plans/<key>.npz``, as the third namespace next to
        ``decompositions/`` and ``filters/``.
    disk_max_bytes:
        LRU byte bound of the ``plans/`` namespace.
    memory_max_bytes:
        Byte bound of the in-memory tier.  ``None`` (default) resolves to
        :data:`DEFAULT_MEMORY_MAX_BYTES` while a disk tier is attached and
        to ``0`` (disabled) while detached — so engines that opted into
        plan caching get the memory tier for free, and hand-configured
        cache-less setups keep their exact counters.  Pass a positive
        value for a pure-memory tier without disk, or ``0`` to disable the
        memory tier of an attached cache (e.g. a warm-disk benchmark
        baseline).
    """

    def __init__(
        self,
        cache_dir: Union[None, str, Path] = None,
        *,
        disk_max_bytes: int = DEFAULT_DISK_MAX_BYTES,
        memory_max_bytes: Optional[int] = None,
    ) -> None:
        self._memory_config = None if memory_max_bytes is None else int(memory_max_bytes)
        self._tiers = TieredCache(
            "plans",
            _CODEC,
            cache_dir=cache_dir,
            format_version=_DISK_FORMAT_VERSION,
            disk_max_bytes=disk_max_bytes,
            max_weight=self._memory_bound(cache_dir is not None),
        )

    def _memory_bound(self, attached: bool) -> int:
        if self._memory_config is not None:
            return self._memory_config
        return DEFAULT_MEMORY_MAX_BYTES if attached else 0

    @property
    def memory_max_bytes(self) -> int:
        """Resolved byte bound of the memory tier (``0`` = disabled)."""
        return self._memory_bound(self._tiers.store.attached)

    @property
    def enabled(self) -> bool:
        """Whether any tier is active (a detached cache is a strict no-op)."""
        return self._tiers.enabled

    @property
    def stats(self) -> PlanCacheStats:
        """Snapshot of the per-tier hit/miss/corruption/eviction counters."""
        tiers = self._tiers.stats
        return PlanCacheStats(
            **asdict(tiers.disk),
            memory_hits=tiers.memory_hits,
            memory_misses=tiers.memory_misses,
            memory_evictions=tiers.evictions,
            memory_entries=tiers.entries,
            memory_bytes=tiers.weight,
            inflight_leads=tiers.inflight_leads,
            inflight_coalesced=tiers.inflight_coalesced,
        )

    def set_cache_dir(self, cache_dir: Union[None, str, Path]) -> None:
        """Attach (or detach, with ``None``) the persistent disk tier.

        The memory tier follows the defaulting rule of ``memory_max_bytes``:
        attaching enables it (unless explicitly bounded), detaching a
        defaulted cache disables it and drops every resident entry.
        Resident entries are content-addressed, so entries kept across a
        directory change remain valid — only the byte bound is re-applied —
        and they spill to the new directory on their next hit.
        """
        super().set_cache_dir(cache_dir)
        self._tiers.resize(self._memory_bound(cache_dir is not None))

    def lookup(
        self,
        plan: "SimulationPlan",
        *,
        defaults: NumericDefaults = DEFAULTS,
        backend: "LinalgBackend",
    ) -> Optional["CompiledPlan"]:
        """Serve the compiled form of ``plan``, or ``None`` (a miss).

        A detached cache returns ``None`` before hashing the plan.  A hit
        of either tier is re-bound to the caller's ``plan``, records
        ``plan_cache_hits=1`` (plus ``plan_memory_hits=1`` for the memory
        tier) with ``compile_seconds`` measuring the serve, and is
        bit-identical to a fresh compilation.
        """
        if not self._tiers.enabled:
            return None
        start = time.perf_counter()
        key = compiled_plan_cache_key(
            plan, defaults=defaults, cache_token=backend.cache_token
        )
        return self._tiers.lookup(
            key,
            lambda resident, from_memory: _rebind(
                resident, plan, backend, time.perf_counter() - start, from_memory
            ),
        )

    def put(
        self,
        compiled: "CompiledPlan",
        *,
        defaults: NumericDefaults = DEFAULTS,
    ) -> bool:
        """Store one compiled plan in both tiers; ``True`` if disk-written.

        Idempotent per key (the store remembers persisted and unwritable
        keys; the memory tier keeps its first insert), so compiling the
        same plan repeatedly serializes it once.
        """
        if not self._tiers.enabled:
            return False
        backend = compiled.backend
        key = compiled_plan_cache_key(
            compiled.plan,
            defaults=defaults,
            cache_token="numpy" if backend is None else backend.cache_token,
        )
        _, written = self._tiers.put(key, _resident(compiled))
        return written

    def invalidate(self, key: str) -> None:
        """Evict ``key`` from *both* tiers after a rejected hit (the store
        re-counts that hit as a corruption miss)."""
        self._tiers.invalidate(key)

    def join_inflight(self, key: str) -> Optional[threading.Event]:
        """Register interest in the in-flight compilation of ``key``.

        ``None`` makes the caller the **leader**: it compiles, stores the
        result with :meth:`put` and calls :meth:`finish_inflight` from a
        ``finally``.  Otherwise the caller waits on the returned event,
        then re-probes :meth:`lookup`.  A detached cache never registers.
        """
        return self._tiers.join_inflight(key)

    def finish_inflight(self, key: str) -> None:
        """Release the in-flight entry of ``key`` and wake every waiter
        (safe for keys that never registered); after a failed compile they
        wake, miss, and elect a new leader."""
        self._tiers.finish_inflight(key)

    def memory_usage(self) -> Tuple[int, int]:
        """``(n_entries, resident_bytes)`` of the memory tier."""
        return self._tiers.memory_usage()

    def clear_memory(self) -> int:
        """Drop every memory-tier entry; returns the number removed."""
        return self._tiers.clear_memory()


#: Process-wide compiled-plan cache (created lazily so ``REPRO_CACHE_DIR``
#: is honored at first use), shared by every ``compile_plan`` call that is
#: not given an explicit cache.
_DEFAULT_PLAN_CACHE: Optional[CompiledPlanCache] = None
_DEFAULT_PLAN_LOCK = threading.Lock()


def default_plan_cache() -> CompiledPlanCache:
    """The process-wide compiled-plan cache.

    Detached (a no-op) unless ``REPRO_CACHE_DIR`` is set at first use or
    the CLI's ``--cache-dir`` attaches a directory; engines built with
    ``cache_dir=`` use their own private instances instead.
    """
    global _DEFAULT_PLAN_CACHE
    with _DEFAULT_PLAN_LOCK:
        if _DEFAULT_PLAN_CACHE is None:
            _DEFAULT_PLAN_CACHE = CompiledPlanCache(cache_dir=cache_dir_from_env())
        return _DEFAULT_PLAN_CACHE
