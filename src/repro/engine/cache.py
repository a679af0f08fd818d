"""Decomposition cache: content-addressed reuse of coloring decompositions.

Planning a correlated-fading simulation is dominated by the ``O(N^3)``
eigendecomposition (or Cholesky factorization) of the covariance matrix —
work that parameter sweeps repeat whenever two scenarios share a matrix.
:class:`DecompositionCache` keeps :class:`repro.linalg.ColoringDecomposition`
objects under a *content hash* of the matrix and of every parameter that
influences the decomposition, in an in-memory LRU of ``maxsize`` entries
and an optional disk tier (``<cache_dir>/decompositions/``) that lets
repeated *processes* — CLI invocations, CI phases, shard workers — skip the
work too.  Both tiers are the one :class:`repro.engine.tiered.TieredCache`;
this module only says what a key and a payload look like.

A hit — memory or disk — is bit-identical to a fresh
:func:`repro.core.coloring.compute_coloring` (``.npz`` stores the raw float
binary), and a corrupt or truncated file is a *miss*, never an error.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..config import DEFAULTS, NumericDefaults, cache_dir_from_env
from ..linalg import ColoringDecomposition
from .store import DEFAULT_DISK_MAX_BYTES
from .tiered import CacheFrontEnd, Codec, TieredCache

__all__ = [
    "decomposition_cache_key",
    "CacheStats",
    "DecompositionCache",
    "default_decomposition_cache",
    "DEFAULT_DISK_MAX_BYTES",
]

#: On-disk payload-layout version (bumped in PR 5: the store envelope
#: replaced the ad-hoc per-cache format, so pre-store files read as misses
#: instead of garbage).
_DISK_FORMAT_VERSION = 2


def decomposition_cache_key(
    matrix: np.ndarray,
    *,
    method: str = "eigen",
    psd_method: str = "clip",
    epsilon: float = 1e-6,
    defaults: NumericDefaults = DEFAULTS,
    cache_token: str = "numpy",
) -> str:
    """Content hash identifying one coloring-decomposition computation.

    Two calls receive the same key exactly when they would produce the same
    decomposition: the covariance matrix bytes (shape, dtype and C-order
    contents) and every algorithm parameter are folded into a SHA-256 digest.
    Floating-point matrices that differ in even one ULP hash differently —
    the cache never equates "close" matrices.

    ``cache_token`` namespaces the key by the linalg backend that computes
    the decomposition (:attr:`repro.engine.backends.LinalgBackend.cache_token`).
    Backends that are bit-identical to numpy share the default ``"numpy"``
    token — their decompositions are interchangeable bytes — while every
    other backend hashes under its own token so, e.g., a GPU decomposition
    is never served to a numpy run.  The same namespacing carries over to
    the disk tier: the key is the file name, so on-disk entries are
    backend-namespaced too.
    """
    arr = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
    hasher = hashlib.sha256()
    hasher.update(repr((arr.shape, arr.dtype.str)).encode("utf8"))
    hasher.update(arr.tobytes())
    hasher.update(
        "|".join(
            (
                cache_token,
                method,
                psd_method,
                repr(float(epsilon)),
                repr(defaults.eig_clip_tol),
                repr(defaults.psd_tol),
                repr(defaults.hermitian_atol),
                repr(defaults.hermitian_rtol),
            )
        ).encode("utf8")
    )
    return hasher.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of cache activity counters.

    Attributes
    ----------
    hits:
        Lookups that found a stored decomposition in *any* tier.
    misses:
        Lookups that found nothing (the caller computed and stored).
    evictions:
        In-memory entries dropped to respect ``maxsize``.
    size:
        Number of decompositions currently stored in memory.
    disk_hits:
        Lookups served by loading (and verifying) a disk entry after a
        memory miss.  ``hits - disk_hits`` is the memory-tier hit count.
    disk_misses:
        Disk-tier probes that found no usable entry (absent, corrupt, or
        failing digest verification).  Only counted while a ``cache_dir``
        is configured.
    disk_evictions:
        Disk entries removed to respect the disk byte bound.
    disk_corruptions:
        Disk entries rejected by digest/format verification (each one is
        also a ``disk_miss``; the file is quarantined).
    disk_entries:
        Files currently stored in the disk tier (0 without a ``cache_dir``).
    disk_bytes:
        Total size of those files in bytes.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_evictions: int = 0
    disk_corruptions: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0

    @property
    def memory_hits(self) -> int:
        """Lookups served from the in-memory tier."""
        return self.hits - self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0


def _freeze(decomposition: ColoringDecomposition) -> ColoringDecomposition:
    """Make the pipeline-computed arrays of a decomposition read-only.

    Cached decompositions are shared between every generator built from the
    same matrix, and an in-place mutation through one of them would silently
    corrupt all the others.  ``requested_covariance`` may alias the caller's
    own matrix, so it is left untouched.
    """
    decomposition.coloring_matrix.flags.writeable = False
    decomposition.effective_covariance.flags.writeable = False
    return decomposition


#: The arrays of a decomposition's store payload (shared with the plan
#: artifact, which stores every unique decomposition the same way).
_ARRAY_FIELDS = ("coloring_matrix", "effective_covariance", "requested_covariance")


def _dump_decomposition(
    decomposition: ColoringDecomposition,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Store payload of one decomposition: three arrays + diagnostics meta.

    A non-JSON-serializable ``extra`` dict makes the store's envelope
    serialization fail, which the store treats as "keep this entry
    memory-only" — exotic strategy diagnostics never fail the run.
    """
    arrays = {name: np.ascontiguousarray(getattr(decomposition, name)) for name in _ARRAY_FIELDS}
    meta = {
        "method": decomposition.method,
        "was_repaired": bool(decomposition.was_repaired),
        "negative_eigenvalue_count": int(decomposition.negative_eigenvalue_count),
        "min_eigenvalue": float(decomposition.min_eigenvalue),
        "extra": decomposition.extra,
    }
    return arrays, meta


def _load_decomposition(
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> ColoringDecomposition:
    """Rebuild a decomposition from digest-verified store payload."""
    return ColoringDecomposition(
        **{name: arrays[name] for name in _ARRAY_FIELDS},
        method=str(meta["method"]),
        was_repaired=bool(meta["was_repaired"]),
        negative_eigenvalue_count=int(meta["negative_eigenvalue_count"]),
        min_eigenvalue=float(meta["min_eigenvalue"]),
        extra=dict(meta.get("extra") or {}),
    )


_CODEC = Codec(dump=_dump_decomposition, load=_load_decomposition, freeze=_freeze)


class DecompositionCache(CacheFrontEnd):
    """Thread-safe two-tier (memory LRU + optional disk) decomposition cache.

    Parameters
    ----------
    maxsize:
        Maximum number of decompositions retained *in memory*.  ``0``
        disables the memory tier (useful as an explicit "no caching"
        baseline in benchmarks — and, combined with ``cache_dir``, yields a
        disk-only cache).
    cache_dir:
        Directory of the persistent disk tier, or ``None`` (default) for a
        memory-only cache.  Entries are spilled as
        ``<cache_dir>/decompositions/<key>.npz`` through the unified
        :class:`repro.engine.store.ArtifactStore`; multiple processes may
        share one directory (writes are atomic, corrupt files read as
        misses).
    disk_max_bytes:
        LRU byte bound of the disk tier (least-recently-used files are
        removed once the total exceeds it).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.engine import DecompositionCache
    >>> cache = DecompositionCache(maxsize=8)
    >>> K = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
    >>> first = cache.coloring_for(K)
    >>> second = cache.coloring_for(K)   # served from the cache
    >>> second is first
    True
    >>> cache.stats.hits, cache.stats.misses
    (1, 1)
    """

    def __init__(
        self,
        maxsize: int = 256,
        *,
        cache_dir: Union[None, str, Path] = None,
        disk_max_bytes: int = DEFAULT_DISK_MAX_BYTES,
    ) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self._maxsize = int(maxsize)
        self._tiers = TieredCache(
            "decompositions",
            _CODEC,
            cache_dir=cache_dir,
            format_version=_DISK_FORMAT_VERSION,
            disk_max_bytes=disk_max_bytes,
            max_weight=self._maxsize,
        )

    @property
    def maxsize(self) -> int:
        """Maximum number of decompositions stored in memory."""
        return self._maxsize

    @property
    def disk_max_bytes(self) -> int:
        """Byte bound of the disk tier."""
        return self._tiers.store.max_bytes

    @property
    def stats(self) -> CacheStats:
        """Snapshot of the per-tier hit/miss/eviction counters; disk usage
        is scanned, so it reflects every process sharing the ``cache_dir``."""
        tiers = self._tiers.stats
        disk_entries, disk_bytes = self._tiers.store.usage()
        return CacheStats(
            hits=tiers.hits,
            misses=tiers.misses,
            evictions=tiers.evictions,
            size=tiers.entries,
            disk_hits=tiers.disk.hits,
            disk_misses=tiers.disk.misses,
            disk_evictions=tiers.disk.evictions,
            disk_corruptions=tiers.disk.corruptions,
            disk_entries=disk_entries,
            disk_bytes=disk_bytes,
        )

    def __contains__(self, key: str) -> bool:
        return key in self._tiers

    def lookup(self, key: str) -> Optional[ColoringDecomposition]:
        """Return the cached decomposition for ``key`` or ``None`` (a miss);
        a disk hit is promoted into memory."""
        return self._tiers.lookup(key)

    def store(self, key: str, decomposition: ColoringDecomposition) -> None:
        """Insert a decomposition in every configured tier.

        Its computed arrays are frozen read-only whether or not this cache
        retains the entry (see :func:`_freeze`), so an in-place mutation
        fails loudly in every configuration instead of corrupting results
        in some.
        """
        self._tiers.put(key, decomposition)

    def coloring_for(
        self,
        matrix: np.ndarray,
        *,
        method: str = "eigen",
        psd_method: str = "clip",
        epsilon: float = 1e-6,
        defaults: NumericDefaults = DEFAULTS,
    ) -> ColoringDecomposition:
        """Return the coloring decomposition for ``matrix``, computing on miss.

        This is the single-matrix entry point used by
        :class:`repro.core.generator.RayleighFadingGenerator`; the batched
        compiler uses :meth:`lookup`/:meth:`store` directly so it can batch
        the misses into one stacked decomposition.
        """
        from ..core.coloring import compute_coloring

        key = decomposition_cache_key(
            matrix, method=method, psd_method=psd_method, epsilon=epsilon, defaults=defaults
        )
        cached = self.lookup(key)
        if cached is not None:
            return cached
        decomposition = compute_coloring(
            matrix, method=method, psd_method=psd_method, epsilon=epsilon, defaults=defaults
        )
        self.store(key, decomposition)
        return decomposition

    def clear(self) -> None:
        """Drop every decomposition stored in memory (counters are kept).

        The disk tier is untouched; use :meth:`clear_disk` (or the CLI's
        ``cache clear``) to remove persisted entries.
        """
        self._tiers.clear_memory()


#: Process-wide cache shared by the default engine and the generators
#: (created lazily so ``REPRO_CACHE_DIR`` is honored at first use).
_DEFAULT_CACHE: Optional[DecompositionCache] = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_decomposition_cache() -> DecompositionCache:
    """The process-wide decomposition cache.

    Shared by :func:`repro.engine.default_engine` and by
    :class:`repro.core.generator.RayleighFadingGenerator` instances that are
    not given an explicit cache, so sweeps that construct many generators
    over repeated covariance matrices decompose each matrix once.  When the
    ``REPRO_CACHE_DIR`` environment variable is set at first use, the cache
    is created with that persistent disk tier attached (the CLI's
    ``--cache-dir`` attaches one explicitly via :meth:`DecompositionCache.set_cache_dir`).
    """
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = DecompositionCache(cache_dir=cache_dir_from_env())
        return _DEFAULT_CACHE
