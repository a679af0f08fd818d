"""One rule set for the three cache front ends over the shared cache tier.

The decomposition, Doppler-filter and compiled-plan caches are clients of
one :class:`repro.engine.tiered.TieredCache`, so a rule of the tier holds
in every namespace or in none.  The rule checked here: a cache warmed in
memory and attached to a ``cache_dir`` afterwards persists a warm entry on
its next hit.
"""

import numpy as np
import pytest

from repro.engine import (
    CompiledPlanCache,
    DecompositionCache,
    DopplerFilterCache,
    SimulationPlan,
    compile_plan,
)

_MATRIX = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 2.0]], dtype=complex)


def _decompositions():
    cache = DecompositionCache()
    return cache, lambda: cache.coloring_for(_MATRIX)


def _filters():
    cache = DopplerFilterCache()
    return cache, lambda: cache.get(64, 0.05)


def _plans():
    cache = CompiledPlanCache(memory_max_bytes=1 << 20)
    plan = SimulationPlan()
    plan.add(_MATRIX, seed=1)

    def compile_once():
        return compile_plan(
            plan,
            cache=DecompositionCache(),
            filter_cache=DopplerFilterCache(),
            plan_cache=cache,
        )

    return cache, compile_once


@pytest.mark.parametrize(
    "namespace, make",
    [("decompositions", _decompositions), ("filters", _filters), ("plans", _plans)],
)
def test_late_attach_spills_a_warm_entry_on_its_next_hit(namespace, make, tmp_path):
    cache, use = make()
    use()  # warm: memory only
    assert cache.cache_dir is None
    cache.set_cache_dir(tmp_path)
    assert not list((tmp_path / namespace).glob("*.npz"))
    use()  # a memory hit
    assert len(list((tmp_path / namespace).glob("*.npz"))) == 1
    assert cache.disk_usage()[0] == 1


def _array_codec():
    from repro.engine.tiered import Codec

    def freeze(array):
        array.flags.writeable = False
        return array

    return Codec(
        dump=lambda array: ({"a": array}, {}),
        load=lambda arrays, meta: arrays["a"],
        freeze=freeze,
        weigh=lambda array: array.nbytes,
    )


def _tiers(tmp_path=None, max_weight=None):
    from repro.engine.tiered import TieredCache

    return TieredCache(
        "probe", _array_codec(), cache_dir=tmp_path, format_version=1, max_weight=max_weight
    )


class TestTieredCache:
    def test_weight_bound_evicts_lru_and_skips_oversized(self):
        tiers = _tiers(max_weight=16)
        tiers.put("a", np.zeros(1))  # 8 bytes
        tiers.put("b", np.zeros(1))
        assert tiers.lookup("a") is not None  # refresh: b is now LRU
        tiers.put("c", np.zeros(1))
        assert "b" not in tiers and "a" in tiers and "c" in tiers
        tiers.put("big", np.zeros(4))  # heavier than the whole tier
        assert "big" not in tiers
        stats = tiers.stats
        assert (stats.evictions, stats.entries, stats.weight) == (1, 2, 16)

    def test_first_insert_wins_and_values_are_frozen(self):
        tiers = _tiers()
        first, _ = tiers.put("k", np.ones(2))
        second, _ = tiers.put("k", np.ones(2))
        assert second is first
        assert not first.flags.writeable

    def test_disk_hit_is_promoted_and_counted(self, tmp_path):
        _tiers(tmp_path).put("k", np.arange(3.0))
        tiers = _tiers(tmp_path)
        loaded = tiers.lookup("k")
        assert loaded.tobytes() == np.arange(3.0).tobytes()
        assert tiers.lookup("k") is loaded
        stats = tiers.stats
        assert (stats.memory_hits, stats.memory_misses, stats.disk.hits) == (1, 1, 1)
        assert stats.hits == 2 and stats.misses == 0

    def test_rejected_memory_hit_falls_back_to_disk(self, tmp_path):
        tiers = _tiers(tmp_path)
        tiers.put("k", np.arange(3.0))
        served = tiers.lookup("k", lambda value, from_memory: None if from_memory else "disk")
        assert served == "disk"
        assert tiers.stats.disk.hits == 1

    def test_rejected_disk_hit_is_invalidated_in_both_tiers(self, tmp_path):
        _tiers(tmp_path).put("k", np.arange(3.0))
        tiers = _tiers(tmp_path)
        assert tiers.lookup("k", lambda value, from_memory: None) is None
        assert "k" not in tiers
        assert list((tmp_path / "probe").glob("*.quarantine"))
        disk = tiers.stats.disk
        assert (disk.hits, disk.misses, disk.corruptions) == (0, 1, 1)

    def test_disabled_memory_tier_goes_straight_to_disk(self, tmp_path):
        tiers = _tiers(tmp_path, max_weight=0)
        tiers.put("k", np.arange(3.0))
        assert tiers.lookup("k") is not None
        stats = tiers.stats
        assert (stats.entries, stats.memory_misses, stats.disk.hits) == (0, 0, 1)

    def test_singleflight_needs_an_active_tier(self, tmp_path):
        detached = _tiers(max_weight=0)
        assert detached.join_inflight("k") is None
        assert detached.join_inflight("k") is None  # never registered
        tiers = _tiers(tmp_path, max_weight=0)
        assert tiers.join_inflight("k") is None
        event = tiers.join_inflight("k")
        tiers.finish_inflight("k")
        assert event.is_set()


def test_detached_plan_cache_returns_before_hashing(monkeypatch):
    import repro.engine.plancache as plancache_module
    from repro.engine.backends import get_backend

    def forbidden(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("a detached plan cache must not hash the plan")

    monkeypatch.setattr(plancache_module, "compiled_plan_cache_key", forbidden)
    plan = SimulationPlan()
    plan.add(_MATRIX, seed=1)
    cache = CompiledPlanCache()
    assert cache.lookup(plan, backend=get_backend("numpy")) is None
