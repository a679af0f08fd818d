"""Process-wide + on-disk cache of Young–Beaulieu Doppler filters.

The Eq. (21) filter ``F[k]`` depends only on ``(M, f_m)`` and its Eq. (19)
output variance additionally on ``sigma_orig^2``; real workloads reuse a
handful of keys across thousands of scenarios.  :class:`DopplerFilterCache`
shares one build per key across every
:func:`repro.engine.compile.compile_plan` pass and every
:class:`repro.core.realtime.RealTimeRayleighGenerator` of a process, and —
through ``<cache_dir>/filters/`` — across processes.  Both tiers are the
one :class:`repro.engine.tiered.TieredCache`; this module only defines the
key and the payload (a single coefficient array, frozen read-only because
it is shared).

A hit is bit-identical to a fresh
:func:`repro.channels.doppler.young_beaulieu_filter` build, and the output
variance is recomputed from the coefficients on every call rather than
cached or trusted from the file.  A corrupt or truncated file is a miss,
never an error.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..config import cache_dir_from_env
from .tiered import CacheFrontEnd, Codec, TieredCache

__all__ = [
    "FilterCacheStats",
    "DopplerFilterCache",
    "default_filter_cache",
]

#: On-disk payload-layout version (bumped in PR 5: store-envelope format).
_DISK_FORMAT_VERSION = 2

#: A filter key: ``(M, f_m, sigma_orig^2)``, matching
#: :attr:`repro.engine.plan.DopplerSpec.filter_key`.
FilterKey = Tuple[int, float, float]


@dataclass(frozen=True)
class FilterCacheStats:
    """Immutable snapshot of filter-cache activity counters.

    Attributes
    ----------
    hits:
        Lookups served without building (memory or disk).
    misses:
        Lookups that built the filter.
    disk_hits:
        Hits served by loading (and verifying) a disk entry.
    disk_misses:
        Disk probes that found no usable entry (absent or corrupt).
    disk_corruptions:
        Disk entries rejected by digest verification (files quarantined).
    size:
        Filters currently held in memory.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_corruptions: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def builds(self) -> int:
        """Filters actually constructed (alias of ``misses``)."""
        return self.misses


def _key_hash(key: FilterKey) -> str:
    """File-name hash of a filter key (exact float reprs, no rounding)."""
    n_points, normalized_doppler, input_variance = key
    token = f"{int(n_points)!r}|{float(normalized_doppler)!r}|{float(input_variance)!r}"
    return hashlib.sha256(token.encode("utf8")).hexdigest()


def _dump_filter(coefficients: np.ndarray) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Store payload of one filter: the raw coefficient array."""
    return {"coefficients": np.ascontiguousarray(coefficients)}, {}


def _load_filter(arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> np.ndarray:
    """Rebuild a filter from digest-verified store payload."""
    return arrays["coefficients"]


def _freeze_filter(coefficients: np.ndarray) -> np.ndarray:
    coefficients.flags.writeable = False
    return coefficients


_CODEC = Codec(dump=_dump_filter, load=_load_filter, freeze=_freeze_filter)


class DopplerFilterCache(CacheFrontEnd):
    """Thread-safe cache of Young–Beaulieu filters and their output variances.

    The memory tier is unbounded (real workloads use a handful of keys);
    the optional disk tier lives next to the decomposition spill, so one
    ``cache_dir`` (CLI ``--cache-dir``, env ``REPRO_CACHE_DIR``, or
    ``Simulator(cache_dir=...)``) configures every artifact cache at once.

    Parameters
    ----------
    cache_dir:
        Directory of the persistent disk tier, or ``None`` (default) for a
        memory-only cache.  Entries live as ``<cache_dir>/filters/<hash>.npz``.
    """

    def __init__(self, cache_dir: Union[None, str, Path] = None) -> None:
        self._tiers = TieredCache(
            "filters", _CODEC, cache_dir=cache_dir, format_version=_DISK_FORMAT_VERSION
        )

    @property
    def stats(self) -> FilterCacheStats:
        """Snapshot of the hit/miss counters."""
        tiers = self._tiers.stats
        return FilterCacheStats(
            hits=tiers.hits,
            misses=tiers.misses,
            disk_hits=tiers.disk.hits,
            disk_misses=tiers.disk.misses,
            disk_corruptions=tiers.disk.corruptions,
            size=tiers.entries,
        )

    def get(
        self,
        n_points: int,
        normalized_doppler: float,
        input_variance_per_dim: float = 0.5,
    ) -> Tuple[np.ndarray, float, bool]:
        """Return ``(coefficients, output_variance, was_cached)`` for a key.

        On a miss the filter is built with
        :func:`repro.channels.doppler.young_beaulieu_filter`, stored in
        memory (frozen read-only) and — when a ``cache_dir`` is configured —
        spilled to disk.  ``was_cached`` reports whether any tier served the
        coefficients without building, which is how the compile report's
        filter-reuse counters distinguish builds from shared-cache hits.

        The Eq. (19) output variance is always recomputed from the
        coefficients (it is a cheap reduction), so a tampered disk entry can
        never smuggle in an inconsistent variance.
        """
        from ..channels.doppler import filter_output_variance, young_beaulieu_filter

        key: FilterKey = (int(n_points), float(normalized_doppler), float(input_variance_per_dim))
        name = _key_hash(key)
        coefficients = self._tiers.lookup(name)
        was_cached = coefficients is not None
        if coefficients is None:
            coefficients = young_beaulieu_filter(key[0], key[1])
        # Computed before a fresh build is stored, so an invalid variance
        # raises without caching anything.
        variance = filter_output_variance(coefficients, key[2])
        if not was_cached:
            coefficients, _ = self._tiers.put(name, coefficients)
        return coefficients, variance, was_cached

    def clear(self) -> None:
        """Drop every filter held in memory (counters and disk kept)."""
        self._tiers.clear_memory()


#: Process-wide filter cache (created lazily so ``REPRO_CACHE_DIR`` is
#: honored at first use), shared by plan compilation and the standalone
#: real-time generator.
_DEFAULT_FILTER_CACHE: Optional[DopplerFilterCache] = None
_DEFAULT_FILTER_LOCK = threading.Lock()


def default_filter_cache() -> DopplerFilterCache:
    """The process-wide Young–Beaulieu filter cache.

    Shared by every :func:`repro.engine.compile.compile_plan` pass and every
    :class:`repro.core.realtime.RealTimeRayleighGenerator` that is not given
    an explicit cache, so each unique ``(M, f_m, sigma_orig^2)`` is built
    once per process — and, with ``REPRO_CACHE_DIR`` / ``--cache-dir``, once
    ever.
    """
    global _DEFAULT_FILTER_CACHE
    with _DEFAULT_FILTER_LOCK:
        if _DEFAULT_FILTER_CACHE is None:
            _DEFAULT_FILTER_CACHE = DopplerFilterCache(cache_dir=cache_dir_from_env())
        return _DEFAULT_FILTER_CACHE
