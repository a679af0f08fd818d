"""Property tests: the execute pool's chunk split never changes a byte.

A group of at least ``execute._SPLIT_FLOOR`` complex samples splits into
contiguous chunks of entries that run draw → color → normalize → fade on
the process-wide execute pool.  Every stage works on each entry alone, so
the bytes must not depend on the split:

* pool width 1 (no split) and widths 2 and 3 (even and uneven chunks)
  produce the same bytes through ``execute_plan`` and ``stream_plan``, on
  a plan with groups above and below the floor — snapshot and Doppler
  Rayleigh (``M`` not dividing the block size), Rician, Nakagami with
  shadowing, and Weibull;
* a pool that refuses new work (interpreter exit) leaves the chunks to
  the calling thread, with the same bytes;
* two threads executing plans at once on one ``Simulator`` produce what
  each produces alone;
* the host BLAS runs at one thread inside a split and reads its original
  thread count afterwards.

The width is the module's ``_WIDTH`` (the CPU affinity mask by default),
patched here so the split is exercised on any host.
"""

import os
import signal
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Simulator
from repro.core import CovarianceSpec
from repro.engine import DopplerSpec, NumpyBackend, SimulationPlan
from repro.engine import backends, execute
from repro.random import complex_gaussian

#: Samples per entry of ``execute_plan``: not a multiple of ``M``.
N_SAMPLES = 5000
#: Streamed block size: ``M = 4096`` does not divide it.
BLOCK = 4500
DOPPLER = DopplerSpec(normalized_doppler=0.05, n_points=4096)


def _random_spec(rng, size):
    """One random PSD covariance spec with unequal powers."""
    basis = rng.normal(size=(size, size + 1)) + 1j * rng.normal(size=(size, size + 1))
    covariance = basis @ basis.conj().T / (size + 1)
    powers = rng.uniform(0.2, 4.0, size)
    scale = np.sqrt(powers / np.real(np.diag(covariance)))
    return CovarianceSpec.from_covariance_matrix(covariance * np.outer(scale, scale))


def _plan(seed):
    """Seven groups: six above the split floor at width 3, one below it."""
    rng = np.random.default_rng(seed)
    plan = SimulationPlan()

    def group(count, size, **options):
        for _ in range(count):
            plan.add(
                _random_spec(rng, size), seed=int(rng.integers(0, 2**62)), **options
            )

    group(7, 4)
    group(3, 2)  # 3 x 2 x 5000 samples: below the floor, runs inline
    group(7, 4, fading={"model": "rician", "shape": 3.0})
    group(
        7, 4, fading={"model": "nakagami", "shape": 1.7, "shadowing_sigma_db": 6.0}
    )
    group(7, 4, fading={"model": "weibull", "shape": 2.5})
    group(7, 4, doppler=DOPPLER)
    group(8, 3, doppler=DOPPLER, fading={"model": "nakagami", "shape": 2.0})
    return plan


@pytest.fixture(scope="module")
def compiled():
    return Simulator().compile(_plan(20261017))


def _execute_bytes(compiled, width, monkeypatch):
    monkeypatch.setattr(execute, "_WIDTH", width)
    result = execute.execute_plan(compiled, N_SAMPLES)
    return [block.samples.tobytes() for block in result.blocks]


def _stream_bytes(compiled, width, monkeypatch, n_blocks=2):
    monkeypatch.setattr(execute, "_WIDTH", width)
    steps = execute.stream_plan(compiled, block_size=BLOCK, n_blocks=n_blocks)
    return [[block.samples.tobytes() for block in step.blocks] for step in steps]


def _blas_threads():
    return [getter() for getter, _ in backends._openblas_controls()]


class TestSplitIsByteIdentical:
    def test_plan_reaches_both_sides_of_the_floor(self, compiled, monkeypatch):
        monkeypatch.setattr(execute, "_WIDTH", 3)
        state = execute._ExecutionState(compiled)
        execute._generate_block(compiled, N_SAMPLES, state)
        splits = sorted(len(chunks) for _, chunks in state._chunks.values())
        assert splits == [1, 3, 3, 3, 3, 3, 3]
        # Chunks are contiguous and cover every entry exactly once.
        for group_index, (_, chunks) in state._chunks.items():
            rows = [chunk.rows for chunk in chunks]
            assert rows[0].start == 0
            assert rows[-1].stop == compiled.groups[group_index].batch_size
            assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("width", [2, 3])
    def test_execute_plan(self, compiled, width, monkeypatch):
        serial = _execute_bytes(compiled, 1, monkeypatch)
        assert _execute_bytes(compiled, width, monkeypatch) == serial

    @pytest.mark.parametrize("width", [2, 3])
    def test_stream_plan(self, compiled, width, monkeypatch):
        serial = _stream_bytes(compiled, 1, monkeypatch)
        assert _stream_bytes(compiled, width, monkeypatch) == serial

    def test_width_change_mid_stream(self, compiled, monkeypatch):
        """A state re-cuts its chunks when the width changes between blocks."""
        serial = _stream_bytes(compiled, 1, monkeypatch, n_blocks=3)
        state = execute._ExecutionState(compiled)
        mixed = []
        for width in (3, 1, 2):
            monkeypatch.setattr(execute, "_WIDTH", width)
            blocks = execute._generate_block(compiled, BLOCK, state)
            mixed.append([block.samples.tobytes() for block in blocks])
        assert mixed == serial

    def test_chunk_draw_matches_the_allocating_draw(self):
        """The scratch draw a chunk runs is the standalone draw, bytes and stream."""
        shape = (4, 257)
        reference_rng, chunk_rng = np.random.default_rng(5), np.random.default_rng(5)
        reference = complex_gaussian(shape, variance=2.5, rng=reference_rng)
        out = np.empty(shape, dtype=np.complex128)
        scratch = np.empty((2,) + shape)
        complex_gaussian(shape, variance=2.5, rng=chunk_rng, out=out, scratch=scratch)
        assert out.tobytes() == reference.tobytes()
        assert chunk_rng.random() == reference_rng.random()
        with pytest.raises(ValueError):
            complex_gaussian(shape, rng=1, out=out, scratch=np.empty((2, 4, 256)))


    @pytest.mark.parametrize("accept", [0, 1])
    def test_a_pool_that_refuses_work_runs_the_chunks_inline(
        self, compiled, accept, monkeypatch
    ):
        """At interpreter exit the pool refuses new work; a split then runs
        its remaining chunks on the calling thread, the same bytes."""
        serial = _execute_bytes(compiled, 1, monkeypatch)
        pool = _RefusingPool(accept)
        monkeypatch.setattr(execute, "_POOL", pool)
        try:
            assert _execute_bytes(compiled, 3, monkeypatch) == serial
        finally:
            pool.shutdown()
        assert pool.refused

    def test_a_shut_down_pool_runs_the_chunks_inline(self, compiled, monkeypatch):
        serial = _execute_bytes(compiled, 1, monkeypatch)
        pool = ThreadPoolExecutor(1)
        pool.shutdown()
        monkeypatch.setattr(execute, "_POOL", pool)
        assert _execute_bytes(compiled, 2, monkeypatch) == serial


class _RefusingPool(ThreadPoolExecutor):
    """Takes ``accept`` tasks, then refuses like a pool at interpreter exit."""

    def __init__(self, accept):
        super().__init__(1)
        self.accept = accept
        self.refused = False

    def submit(self, *args, **kwargs):
        if self.accept == 0:
            self.refused = True
            raise RuntimeError("cannot schedule new futures after interpreter shutdown")
        self.accept -= 1
        return super().submit(*args, **kwargs)


class TestConcurrentExecutes:
    def test_two_threads_match_solo_runs(self, monkeypatch):
        plans = [_plan(1), _plan(2)]
        sim = Simulator()
        monkeypatch.setattr(execute, "_WIDTH", 1)
        solo = [
            [block.samples.tobytes() for block in sim.run(plan, N_SAMPLES).blocks]
            for plan in plans
        ]
        monkeypatch.setattr(execute, "_WIDTH", 2)
        barrier = threading.Barrier(len(plans))
        got = [None] * len(plans)
        errors = []

        def run(slot):
            try:
                barrier.wait()
                results = [sim.run(plans[slot], N_SAMPLES) for _ in range(2)]
                got[slot] = [
                    [block.samples.tobytes() for block in result.blocks]
                    for result in results
                ]
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        sim.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for slot in range(len(plans)):
            assert got[slot] == [solo[slot], solo[slot]]


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_over(self, compiled, monkeypatch):
        """A child forked while the pool runs, a BLAS hold is active and
        both locks are taken has none of those threads or holders: it must
        split on a fresh pool and leave BLAS at the original count."""
        expected = _execute_bytes(compiled, 2, monkeypatch)
        original = _blas_threads()
        held, release = threading.Event(), threading.Event()

        def hold():
            with backends.one_blas_thread(), backends._BLAS_LOCK, execute._POOL_LOCK:
                held.set()
                release.wait(60)

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(60)
        pid = -1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
                pid = os.fork()
        finally:
            if pid != 0:
                release.set()
                holder.join(60)
        if pid == 0:  # pragma: no cover - runs in the child
            status = 1
            try:
                same = _execute_bytes(compiled, 2, monkeypatch) == expected
                status = 0 if same and _blas_threads() == original else 2
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        assert os.waitstatus_to_exitcode(status) == 0


class _ThreadCountingBackend(NumpyBackend):
    """Records the host BLAS thread counts each coloring matmul runs under."""

    def __init__(self):
        self.seen = []
        self._seen_lock = threading.Lock()

    def matmul_into(self, a, b, out):
        with self._seen_lock:
            self.seen.append(tuple(_blas_threads()))
        return super().matmul_into(a, b, out)


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS at two threads, so that holding it at one shows."""
    controls = backends._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread controls in this process")
    original = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(2)
    try:
        assert _blas_threads() == [2] * len(controls)
        yield [2] * len(controls)
    finally:
        for (_, setter), count in zip(controls, original):
            setter(count)


class TestBlasThreads:
    def test_held_at_one_inside_a_split_and_restored_after(
        self, blas_at_two, monkeypatch
    ):
        monkeypatch.setattr(execute, "_WIDTH", 2)
        backend = _ThreadCountingBackend()
        sim = Simulator(backend=backend)
        sim.run(_plan(3), N_SAMPLES)
        sim.close()
        ones = tuple(1 for _ in blas_at_two)
        # Six groups split in two (every matmul at one thread); the small
        # group runs inline under the original count.
        assert backend.seen.count(ones) == 12
        assert backend.seen.count(tuple(blas_at_two)) == 1
        assert _blas_threads() == blas_at_two

    def test_refcount_restores_when_the_last_holder_leaves(self, blas_at_two):
        ones = [1] * len(blas_at_two)
        outer = backends.one_blas_thread()
        outer.__enter__()
        try:
            with backends.one_blas_thread():
                assert _blas_threads() == ones
            assert _blas_threads() == ones
        finally:
            outer.__exit__(None, None, None)
        assert _blas_threads() == blas_at_two

    def test_refcount_under_contention(self, blas_at_two):
        """Eight threads entering and leaving at once: every holder sees one
        thread, and the last one out restores the count."""
        controls = backends._openblas_controls()
        ones = [1] * len(controls)
        seen = []

        def hold():
            for _ in range(200):
                with backends.one_blas_thread():
                    counts = [getter() for getter, _ in controls]
                    if counts != ones:
                        seen.append(counts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == []
        assert _blas_threads() == blas_at_two
