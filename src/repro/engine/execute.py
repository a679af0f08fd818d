"""Plan execution: batched white-sample drawing and stacked coloring.

The execute step turns a :class:`repro.engine.compile.CompiledPlan` into
correlated samples:

* each entry draws its white complex Gaussian samples from its *own* seeded
  stream — exactly the stream a standalone
  :class:`repro.core.generator.RayleighFadingGenerator` would use, which is
  what makes batched and looped generation bit-identical;
* Doppler-mode entries replace the white draws with Young–Beaulieu IDFT
  branch streams: every branch of every entry in a group draws its Gaussian
  input sequences from its own spawned child stream (exactly the streams a
  standalone :class:`repro.core.realtime.RealTimeRayleighGenerator` would
  spawn), the group's shared filter weights all frequency-domain blocks, and
  one stacked ``(B·N·n_blocks, M)`` backend IDFT produces every time-domain
  block at once (:func:`repro.channels.idft_generator.batched_doppler_blocks`);
* each compiled group colors all of its entries with a stacked ``matmul``
  (one batched BLAS gufunc dispatch per chunk of entries, one ``gemm`` per
  entry), normalized per entry by the effective sample variance — for
  Doppler groups the Eq. (19) filter-output variance;
* groups with a non-trivial fading model (see :mod:`repro.models.fading`)
  apply their post-coloring transform in place right after normalization —
  before any Doppler remainder is banked — through stacked per-group
  operands and state-owned scratch; ``entry.fading is None`` skips the
  seam entirely, keeping plain Rayleigh byte-identical to the
  pre-model-zoo fast path;
* every stage works on each entry alone (own stream, per-entry ``gemm``,
  elementwise ufuncs), so a group large enough to pay for it splits into
  contiguous chunks of entries that run draw → color → normalize → fade
  concurrently on one process-wide thread pool as wide as the process's
  CPU affinity mask, the calling thread running chunk 0 and the host BLAS
  held at one thread meanwhile (a Doppler group joins once between its
  draws and its coloring, for the stacked IDFT); the bytes do not depend
  on the split, and buffer allocation, banking and result assembly stay
  on the calling thread;
* long records stream through :func:`stream_plan` in fixed-size blocks with
  persistent per-entry generators, so memory stays bounded at one block.
  Doppler groups produce samples in multiples of the IDFT length ``M`` and
  keep the remainder in a fixed ``(B, N, M)`` ring buffer, so any
  ``block_size`` (and any ``n_samples`` not divisible by ``M``) works; the
  buffered leftover never exceeds ``M - 1`` samples per branch;
* the hot path is allocation-light: :class:`_ExecutionState` owns reusable
  scratch (Doppler kernel workspaces, snapshot white-draw buffers and
  per-chunk float draw scratch, fading scratch, normalization columns)
  that persists across streamed blocks, the IDFT runs in place, and the
  coloring matmul writes straight into the per-call record via the
  backend's ``matmul_into`` hook.  At most two block-sized buffers are
  live at any instant; only the records handed to callers are freshly
  allocated.
"""

from __future__ import annotations

# reprolint: hot-module — the fused execute kernels are allocation-light by
# contract; every deliberate allocation below is marked explicitly.

import functools
import os
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..channels.idft_generator import batched_doppler_blocks
from ..exceptions import GenerationError
from ..models.fading import FadingStacks, apply_fading_block, build_fading_stacks
from ..random import complex_gaussian, ensure_rng, spawn_rngs
from ..types import GaussianBlock
from .backends import one_blas_thread
from .compile import CompiledGroup, CompiledPlan
from .plan import partition_counts
from .result import BatchResult

__all__ = ["execute_plan", "stream_plan"]


#: A group splits into chunks of at least this many complex samples.  A
#: pool round trip costs about 22 us on a 2-vCPU Xeon and drawing 32768
#: complex samples about 1.1 ms, so dispatch stays under 2% of a chunk.
_SPLIT_FLOOR = 32768


def _affinity_width() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: Execute pool width: the CPUs this process may run on (``taskset``
#: narrows it).
_WIDTH = _affinity_width()

_POOL_LOCK = threading.Lock()
#: The process-wide execute pool, ``None`` until a group first splits.  The
#: calling thread runs chunk 0 itself, so the pool needs one thread fewer
#: than the width.
_POOL: Optional[ThreadPoolExecutor] = None


def _execute_pool() -> ThreadPoolExecutor:
    """The process-wide execute pool, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max(1, _WIDTH - 1), thread_name_prefix="repro-execute"
            )
        return _POOL


def _after_fork_in_child() -> None:
    """A forked child has no pool threads: start over on first use."""
    global _POOL_LOCK, _POOL
    _POOL_LOCK = threading.Lock()
    with _POOL_LOCK:
        _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


class _DopplerLeftover:
    """Ring buffer for one Doppler group's colored-but-unconsumed samples.

    Capacity is one IDFT block ``(B, N, M)``: a refill generates whole
    blocks, the request consumes at least one sample past every complete
    block but the last, so the remainder is always ``<= M - 1`` samples per
    branch.  ``start``/``length`` track the live window; a refill resets
    ``start`` to 0, a consume advances it.  The buffer is allocated once per
    group and never grows — the old per-refill ``np.concatenate`` copy (and
    the reference it kept to the whole multi-block record) is gone.
    """

    __slots__ = ("data", "start", "length")

    def __init__(self, batch_size: int, n_branches: int, m: int) -> None:  # reprolint: workspace-constructor
        self.data = np.empty((batch_size, n_branches, m), dtype=np.complex128)
        self.start = 0
        self.length = 0


class _Chunk:
    """A contiguous run of one group's entries: one task of the execute pool.

    ``rows`` slices the group's entry axis; every other field is a view or
    list cut to it, built once per group and block shape by
    :meth:`_ExecutionState.chunks`.  A chunk owns its entries' rows of the
    white, colored and fading-scratch buffers (and, in a Doppler group, of
    the kernel's draw and block buffers), so concurrent chunks never touch
    the same memory.

    * ``streams``/``variances`` — the entries' generators and white-sample
      variances; ``white``/``draws`` — their white-draw rows and the float
      scratch each entry draws through (snapshot groups only);
    * ``coloring``/``norm``/``fading`` — the coloring matrices,
      normalization column and fading operands of the rows;
      ``envelope``/``target``/``positive`` — their fading scratch.
    """

    __slots__ = (
        "rows",
        "streams",
        "variances",
        "white",
        "draws",
        "coloring",
        "norm",
        "fading",
        "envelope",
        "target",
        "positive",
    )

    rows: slice
    streams: Optional[List[np.random.Generator]]
    variances: Optional[List[float]]
    white: Optional[np.ndarray]
    draws: Optional[np.ndarray]
    coloring: np.ndarray
    norm: np.ndarray
    fading: Optional[FadingStacks]
    envelope: Optional[np.ndarray]
    target: Optional[np.ndarray]
    positive: Optional[np.ndarray]


class _ExecutionState:
    """Per-execution random streams, Doppler buffers, and reusable scratch.

    One state object lives for the duration of an :func:`execute_plan` call
    or across every block of a :func:`stream_plan` iteration, so streams (and
    partially consumed Doppler IDFT blocks) persist exactly like the
    generators of a loop of standalone instances would.

    * ``streams[i]`` is the entry's generator (snapshot entries) or the list
      of its per-branch child generators (Doppler entries) — spawned from the
      entry seed exactly like ``RealTimeRayleighGenerator`` spawns its branch
      streams.
    * ``leftovers[g]`` is a Doppler group's :class:`_DopplerLeftover` ring
      buffer (samples are produced in multiples of the IDFT length ``M``;
      requests need not be).

    Scratch ownership: the state owns every reusable buffer of the execute
    hot path — per group, the snapshot white-draw buffer and the fading
    scratch, cut into the :class:`_Chunk` views the pool tasks work on, the
    Doppler kernel workspace (the weighted / transformed block buffer) and
    the flattened branch-generator list, and per chunk the float draw
    scratch.  Scratch is *internal*: arrays handed to callers
    (``GaussianBlock.samples``) always view freshly allocated per-call
    records, never scratch, so results stay valid after the state produces
    its next block.  Colored records are deliberately *not* pooled: the
    caller keeps views of them, so pooling would pin a second resident
    copy and raise the execute peak by a full block.
    """

    def __init__(self, compiled: CompiledPlan) -> None:
        self.streams: List[Union[np.random.Generator, List[np.random.Generator]]] = []
        for entry in compiled.plan:
            if entry.doppler is None:
                self.streams.append(ensure_rng(entry.seed))
            else:
                self.streams.append(
                    spawn_rngs(ensure_rng(entry.seed), entry.n_branches)
                )
        self.leftovers: Dict[int, _DopplerLeftover] = {}
        self._workspaces: Dict[int, dict] = {}
        self._branch_rngs: Dict[int, List[np.random.Generator]] = {}
        self._fading: Dict[int, Optional[FadingStacks]] = {}
        self._chunks: Dict[int, Tuple[tuple, List[_Chunk]]] = {}

    def workspace(self, group_index: int) -> dict:
        """The group's ``batched_doppler_blocks`` scratch dict."""
        return self._workspaces.setdefault(group_index, {})

    def branch_rngs(
        self, group_index: int, group: CompiledGroup
    ) -> List[np.random.Generator]:
        """The group's branch generators, flattened once in entry order."""
        rngs = self._branch_rngs.get(group_index)
        if rngs is None:
            rngs = [rng for index in group.indices for rng in self.streams[index]]
            self._branch_rngs[group_index] = rngs
        return rngs

    def chunks(  # reprolint: workspace-constructor
        self, group_index: int, group: CompiledGroup, shape: Tuple[int, ...]
    ) -> List[_Chunk]:
        """The group's chunks for a ``(B, N, n)`` block at the current width.

        Built on the first block of each shape (Doppler requests vary in
        block count) and pool width, then reused.  A group splits into at
        most ``_WIDTH`` chunks of at least ``_SPLIT_FLOOR`` samples each.
        """
        key = (shape, _WIDTH)
        cached = self._chunks.get(group_index)
        if cached is not None and cached[0] == key:
            return cached[1]
        batch_size = shape[0]
        n_chunks = max(1, min(_WIDTH, batch_size, int(np.prod(shape)) // _SPLIT_FLOOR))
        if group_index not in self._fading:
            self._fading[group_index] = build_fading_stacks(group.entries)
        stacks = self._fading[group_index]
        white = None
        if not group.is_doppler:
            white = np.empty(shape, dtype=np.complex128)
        scratch = (None, None, None)
        if stacks is not None and stacks.needs_scratch:
            scratch = (
                np.empty(shape, dtype=np.float64),
                np.empty(shape, dtype=np.float64),
                np.empty(shape, dtype=np.bool_),
            )
        norm = np.sqrt(group.sample_variances)[:, np.newaxis, np.newaxis]
        chunks = []
        start = 0
        for size in partition_counts(batch_size, n_chunks):
            rows = slice(start, start + size)
            start += size
            chunk = _Chunk()
            chunk.rows = rows
            if white is None:
                chunk.streams = chunk.variances = chunk.white = chunk.draws = None
            else:
                chunk.streams = [self.streams[index] for index in group.indices[rows]]
                chunk.variances = [entry.sample_variance for entry in group.entries[rows]]
                chunk.white = white[rows]
                chunk.draws = np.empty((2,) + shape[1:], dtype=np.float64)
            chunk.coloring = group.coloring_stack[rows]
            chunk.norm = norm[rows]
            chunk.fading = None if stacks is None else stacks.rows(rows)
            chunk.envelope, chunk.target, chunk.positive = (
                None if array is None else array[rows] for array in scratch
            )
            chunks.append(chunk)
        self._chunks[group_index] = (key, chunks)
        return chunks


def _matmul_into(backend, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stacked coloring matmul written into ``out`` through the backend."""
    if backend is None:
        return np.matmul(a, b, out=out)
    return backend.matmul_into(a, b, out)


def _color_chunk(backend, chunk: _Chunk, fresh: np.ndarray, colored: np.ndarray) -> None:
    """Color, normalize and fade one chunk's rows of the group record.

    The stacked matmul runs one ``gemm`` per entry, so a chunk's rows are
    bit-identical to the same rows of a whole-group multiply.  The fading
    transform is a no-op for plain Rayleigh groups (``fading is None``);
    envelope transforms (Nakagami, Weibull) run through the chunk's rows of
    the state-owned float/mask scratch.
    """
    out = colored[chunk.rows]
    _matmul_into(backend, chunk.coloring, fresh, out)
    out /= chunk.norm
    if chunk.fading is not None:
        apply_fading_block(out, chunk.fading, chunk.envelope, chunk.target, chunk.positive)


def _snapshot_chunk(chunk: _Chunk, backend, colored: np.ndarray) -> None:
    """Draw, color, normalize and fade one chunk of a snapshot group."""
    for rng, variance, white in zip(chunk.streams, chunk.variances, chunk.white):
        complex_gaussian(
            white.shape, variance=variance, rng=rng, out=white, scratch=chunk.draws
        )
    _color_chunk(backend, chunk, chunk.white, colored)


def _stream_rows(chunk: _Chunk, n_branches: int, work: Callable[[slice], None]) -> None:
    """Run the Doppler kernel's per-stream ``work`` on one chunk's branches."""
    work(slice(chunk.rows.start * n_branches, chunk.rows.stop * n_branches))


def _fresh_chunk(chunk: _Chunk, backend, fresh: np.ndarray, colored: np.ndarray) -> None:
    """Color, normalize and fade one chunk of a Doppler group's fresh blocks."""
    _color_chunk(backend, chunk, fresh[chunk.rows], colored)


def _run_chunks(chunks: List[_Chunk], task: Callable[..., None], *args) -> None:
    """Run ``task(chunk, *args)`` for every chunk and return after the last.

    One chunk runs inline.  Otherwise the calling thread runs chunk 0 while
    the pool runs the rest, with the host BLAS held at one thread so its
    workers do not compete with the pool for the cores.  A pool that takes
    no more work (interpreter exit has begun while a non-main thread
    executes) leaves the remaining chunks to the calling thread.
    """
    if len(chunks) == 1:
        task(chunks[0], *args)
        return
    pool = _execute_pool()
    futures = []
    with one_blas_thread():
        try:
            for chunk in chunks[1:]:
                try:
                    futures.append(pool.submit(task, chunk, *args))
                except RuntimeError:  # cannot schedule new futures
                    break
            for chunk in chunks[:1] + chunks[1 + len(futures) :]:
                task(chunk, *args)
        finally:
            # No chunk may still write into the group's buffers on return.
            wait(futures)
        for future in futures:
            future.result()


def _doppler_colored_blocks(
    group: CompiledGroup,
    state: _ExecutionState,
    group_index: int,
    n_samples: int,
    backend,
) -> np.ndarray:
    """Colored Doppler samples ``(B, N, n_samples)`` for one group.

    Serves the request leftover-first from the group's ring buffer, then
    generates whole IDFT blocks (every chunk draws and weights its branches'
    blocks on the pool, then all entries and branches go through one
    stacked backend IDFT in reused workspace), colors each chunk's rows with
    one stacked ``matmul_into`` into a fresh exact-size record, and banks
    the sub-block remainder in the ring after the chunks join — so
    arbitrary ``n_samples`` compose into bit-identical continuous streams.
    When the request starts block-aligned (no leftover) the caller gets a
    view of the colored record directly, zero copies; otherwise a fresh
    output is assembled from the ring prefix and the record.  The colored
    record is deliberately *not* reused scratch: the caller keeps views of
    it, and a second resident copy would raise the execute peak by a full
    block.

    The kernel's draw buffer is allocated on the calling thread too (the
    pool only fills its rows): a pool thread's allocations land in that
    thread's own malloc arena, which keeps a freed block-sized buffer
    resident and raised the bulk-execute peak RSS by about 4 MB.
    """
    doppler = group.doppler
    m = doppler.n_points
    leftover = state.leftovers.get(group_index)
    taken = 0
    if leftover is not None and leftover.length:
        taken = min(leftover.length, n_samples)
    missing = n_samples - taken
    colored = None
    if missing > 0:
        n_blocks = -(-missing // m)  # ceil division
        shape = (group.batch_size, group.n_branches, n_blocks * m)
        chunks = state.chunks(group_index, group, shape)
        fresh = batched_doppler_blocks(
            group.doppler_filter,
            state.branch_rngs(group_index, group),
            n_blocks=n_blocks,
            input_variance_per_dim=doppler.input_variance_per_dim,
            backend=backend,
            workspace=state.workspace(group_index),
            map_rows=functools.partial(
                _run_chunks, chunks, _stream_rows, group.n_branches
            ),
        ).reshape(shape)
        # reprolint: disable=hot-path-allocation (fresh result record: callers keep views of it)
        colored = np.empty_like(fresh)
        # Fading applies before the remainder is banked, so the ring buffer
        # only ever holds finished samples and any block split reads the
        # same bytes as one long record.
        _run_chunks(chunks, _fresh_chunk, backend, fresh, colored)
    if taken == 0:
        out = colored[:, :, :n_samples]
    else:
        # reprolint: disable=hot-path-allocation (fresh result record: callers keep views of it)
        out = np.empty(
            (group.batch_size, group.n_branches, n_samples), dtype=np.complex128
        )
        stop = leftover.start + taken
        out[:, :, :taken] = leftover.data[:, :, leftover.start : stop]
        leftover.start = stop
        leftover.length -= taken
        if missing > 0:
            out[:, :, taken:] = colored[:, :, :missing]
    if missing > 0:
        remainder = colored.shape[2] - missing
        if remainder:
            # Lazily allocated: a block-aligned request never pays for it.
            if leftover is None:
                leftover = _DopplerLeftover(group.batch_size, group.n_branches, m)
                state.leftovers[group_index] = leftover
            leftover.data[:, :, :remainder] = colored[:, :, missing:]
            leftover.start = 0
            leftover.length = remainder
        elif leftover is not None:
            leftover.start = 0
            leftover.length = 0
    assert leftover is None or leftover.length <= m - 1
    return out


def _generate_block(
    compiled: CompiledPlan, n_samples: int, state: _ExecutionState
) -> List[GaussianBlock]:
    """Draw and color one block of ``n_samples`` for every entry.

    ``state`` holds one random stream per plan entry (plan order) plus the
    Doppler group buffers; drawing advances them, which is what lets
    :func:`stream_plan` produce consecutive blocks from continuous streams.
    The IDFT and coloring multiplies run through the backend the plan was
    compiled with (numpy when ``None``).
    """
    backend = compiled.backend
    backend_name = "numpy" if backend is None else backend.name
    blocks: List[Optional[GaussianBlock]] = [None] * compiled.n_entries
    for group_index, group in enumerate(compiled.groups):
        batch_size = group.batch_size
        n_branches = group.n_branches
        if group.is_doppler:
            colored = _doppler_colored_blocks(
                group, state, group_index, n_samples, backend
            )
        else:
            # reprolint: disable=hot-path-allocation (fresh result record: callers keep views of it)
            colored = np.empty((batch_size, n_branches, n_samples), dtype=np.complex128)
            _run_chunks(
                state.chunks(group_index, group, colored.shape),
                _snapshot_chunk,
                backend,
                colored,
            )
        for position, (index, entry) in enumerate(zip(group.indices, group.entries)):
            decomposition = group.decompositions[position]
            if group.is_doppler:
                metadata = {
                    "method": "realtime",
                    "normalized_doppler": entry.doppler.normalized_doppler,
                    "n_points": entry.doppler.n_points,
                    "filter_output_variance": group.doppler_output_variance,
                    "compensate_variance": entry.doppler.compensate_variance,
                }
            else:
                metadata = {"method": "snapshot"}
            metadata.update(
                {
                    "coloring_method": decomposition.method,
                    "was_repaired": decomposition.was_repaired,
                    "engine": "batch",
                    "backend": backend_name,
                    "plan_index": index,
                    "batch_size": batch_size,
                }
            )
            if entry.fading is not None:
                metadata["fading"] = {
                    "model": entry.fading.model,
                    "shape": entry.fading.shape,
                    "shadowing_sigma_db": entry.fading.shadowing_sigma_db,
                }
            if entry.label is not None:
                metadata["label"] = entry.label
            blocks[index] = GaussianBlock(
                samples=colored[position],
                variances=entry.spec.gaussian_variances.copy(),  # reprolint: disable=hot-path-allocation (tiny per-entry metadata copy, caller-owned)
                metadata=metadata,
            )
    return blocks  # type: ignore[return-value]


def execute_plan(
    compiled: CompiledPlan, n_samples: int, *, measure_allocation: bool = False
) -> BatchResult:
    """Execute a compiled plan, producing ``n_samples`` per entry.

    Parameters
    ----------
    compiled:
        The compiled plan (see :func:`repro.engine.compile.compile_plan`).
    n_samples:
        Time samples per branch for every entry.  Doppler entries generate
        ``ceil(n_samples / M)`` IDFT blocks and truncate.
    measure_allocation:
        Trace the execute step with :mod:`tracemalloc` and report its peak
        allocation in :attr:`BatchResult.peak_alloc_bytes`.  Tracing slows
        generation down noticeably; off by default.  When tracing is already
        active (e.g. an outer profiler), the peak counter is reset instead
        of restarted and tracing is left running.

    Returns
    -------
    BatchResult
        Per-entry Gaussian blocks, bit-identical to looping
        ``RayleighFadingGenerator(entry.spec, rng=entry.seed).generate_gaussian(n_samples)``
        — or, for Doppler entries,
        ``RealTimeRayleighGenerator(...).generate_gaussian(ceil(n_samples / M))``
        truncated to ``n_samples`` — over the plan.  The guarantee holds
        regardless of how ``compiled`` was obtained: a fresh compile, any
        memory-cache configuration, or a whole-plan disk artifact all
        execute to the same bytes (the cache-transparency invariant; see
        ``docs/ARCHITECTURE.md``).
    """
    if n_samples < 1:
        raise GenerationError(f"n_samples must be >= 1, got {n_samples}")
    start = time.perf_counter()
    peak: Optional[int] = None
    if measure_allocation:
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        else:
            tracemalloc.reset_peak()
        try:
            blocks = _generate_block(compiled, int(n_samples), _ExecutionState(compiled))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started_here:
                tracemalloc.stop()
    else:
        blocks = _generate_block(compiled, int(n_samples), _ExecutionState(compiled))
    return BatchResult(
        blocks=tuple(blocks),
        n_samples=int(n_samples),
        compile_report=compiled.report,
        execute_seconds=time.perf_counter() - start,
        backend="numpy" if compiled.backend is None else compiled.backend.name,
        peak_alloc_bytes=peak,
    )


def stream_plan(
    compiled: CompiledPlan,
    *,
    block_size: int,
    n_blocks: int,
) -> Iterator[BatchResult]:
    """Yield ``n_blocks`` consecutive batched blocks of ``block_size`` samples.

    Memory stays bounded at one ``(B, N, block_size)`` batch regardless of
    the record length (plus at most ``M - 1`` buffered samples per Doppler
    branch).  Per-entry generators persist across blocks, which gives each
    entry kind its streaming analogue of the batch/single equivalence
    guarantee:

    * a Doppler entry's concatenated blocks equal one long
      :func:`execute_plan` record cut into pieces, for any block size,
      divisible into the IDFT length or not;
    * a snapshot entry's blocks equal repeated ``generate_gaussian(block_size)``
      calls on one standalone generator.  They are *not* a cut-up long
      record: each block draws a fresh ``(N, block_size)`` white matrix, so
      the draw order differs from one ``(N, n_samples)`` draw.
    """
    if block_size < 1:
        raise GenerationError(f"block_size must be >= 1, got {block_size}")
    if n_blocks < 1:
        raise GenerationError(f"n_blocks must be >= 1, got {n_blocks}")
    state = _ExecutionState(compiled)
    backend_name = "numpy" if compiled.backend is None else compiled.backend.name
    for _ in range(int(n_blocks)):
        start = time.perf_counter()
        blocks = _generate_block(compiled, int(block_size), state)
        yield BatchResult(
            blocks=tuple(blocks),
            n_samples=int(block_size),
            compile_report=compiled.report,
            execute_seconds=time.perf_counter() - start,
            backend=backend_name,
        )
