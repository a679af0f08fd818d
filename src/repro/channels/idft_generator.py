"""Young–Beaulieu IDFT Rayleigh generator (Fig. 2 of the paper).

One generator instance produces a single baseband Rayleigh fading process
with the Clarke/Jakes autocorrelation: two i.i.d. real Gaussian sequences
``A[k]`` and ``B[k]`` are combined into ``A[k] - i B[k]``, weighted by the
Doppler filter ``F[k]`` of Eq. (21), and passed through an ``M``-point IDFT.
The output block ``u[l], l = 0..M-1`` is a zero-mean complex Gaussian
sequence whose

* per-dimension autocorrelation is ``r_RR[d] = (sigma_orig^2/M) Re{g[d]}``
  (Eq. 16), normalized ``~ J0(2 pi f_m d)``,
* real/imaginary cross-correlation is zero (Eq. 18 with real ``F``),
* total variance is ``sigma_g^2 = 2 sigma_orig^2 / M^2 * sum F[k]^2``
  (Eq. 19).

The last property is the one the paper's real-time algorithm must know: the
variance at the filter output differs from the variance at its input, and the
coloring step has to divide by the *output* standard deviation.  The
generator therefore exposes :attr:`IDFTRayleighGenerator.output_variance`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import DimensionError, DopplerError, FilterDesignError
from ..random import ensure_rng
from ..types import ComplexArray, SeedLike
from .doppler import filter_output_variance, young_beaulieu_filter

__all__ = ["IDFTRayleighGenerator", "batched_doppler_blocks"]


def _weighted_scratch(workspace, n_streams: int, n_blocks: int, m: int):  # reprolint: workspace-constructor
    """Resolve (or build) the complex frequency-domain block buffer.

    With a ``workspace`` dict the buffer persists across calls and is
    reallocated only when the requested shape changes — the streaming
    executor's per-group workspaces hit the steady state (constant block
    size) after the first call.  Without one, it is a per-call temporary.
    This is the *only* persistent buffer of the kernel: the real Gaussian
    draw buffer is deliberately per-call and dropped before the IDFT so at
    most two block-sized arrays are ever live at once (the draw buffer is
    as large as this one, and keeping it resident would raise the peak by
    half again).
    """
    shape = (n_streams, n_blocks, m)
    if workspace is None:
        return np.empty(shape, dtype=np.complex128)
    weighted = workspace.get("weighted")
    if weighted is None or weighted.shape != shape:
        workspace["weighted"] = weighted = np.empty(shape, dtype=np.complex128)
    return weighted


def batched_doppler_blocks(  # reprolint: hot-path
    filter_coefficients: np.ndarray,
    rngs: Sequence[SeedLike],
    *,
    n_blocks: int = 1,
    input_variance_per_dim: float = 0.5,
    backend=None,
    workspace=None,
    map_rows=None,
) -> ComplexArray:
    """Generate many Doppler-shaped streams with one stacked IDFT call.

    This is the batched substrate of the Section 5 algorithm: every stream
    (a branch of a scenario, across many scenarios) draws its Gaussian input
    sequences from its *own* generator in ``rngs``, all frequency-domain
    blocks are weighted by the shared filter ``F[k]``, and a single stacked
    ``(len(rngs) * n_blocks, M)`` IDFT produces every time-domain block at
    once.  Both the single-branch :class:`IDFTRayleighGenerator` and the
    batched engine route through this function.

    Per stream, the output is bit-identical to ``n_blocks`` successive
    :meth:`IDFTRayleighGenerator.generate_block` calls on a generator holding
    the same rng: the one-shot ``(n_blocks, 2, M)`` Gaussian draw consumes
    the stream exactly like the historical per-block ``A``/``B`` pair draws
    (numpy's ziggurat samples value by value), and a stacked IDFT transforms
    each row exactly like a 1-D IDFT of that row.

    The kernel is fused and allocation-light: the Gaussian draw is scaled
    in place (``scale * z`` is bitwise what ``rng.normal(0, scale)``
    computes per element), the filter weighting writes the real and
    imaginary parts of the frequency-domain blocks directly (``coeffs * A``
    and ``-(coeffs * B)`` — bitwise the unfused ``coeffs * (A - 1j * B)``
    wherever the product is nonzero; only the signs of stopband zeros can
    differ, which the IDFT's nonzero sums absorb), the draw buffer is
    dropped before the transform, and the IDFT runs *in place* in the
    weighted buffer via ``out=`` / ``ifft_into`` where the backend supports
    it (bit-identical to the out-of-place transform) — so at most two
    block-sized arrays are live at any instant.

    Parameters
    ----------
    filter_coefficients:
        The shared Doppler filter ``F[k]`` of length ``M`` (Eq. 21).
    rngs:
        One seed or generator per stream; generators are advanced in place
        (callers stream consecutive records by passing the same generators
        again).
    n_blocks:
        Number of consecutive ``M``-sample blocks per stream.
    input_variance_per_dim:
        Variance ``sigma_orig^2`` of each real input sequence.
    backend:
        Optional object providing ``ifft(array, axis=-1)`` and (optionally)
        ``ifft_into(array, out, axis=-1)`` (a
        :class:`repro.engine.backends.LinalgBackend`); ``None`` uses
        ``np.fft.ifft``.  Duck-typed so this low-level module stays free of
        engine imports.
    workspace:
        Optional dict owned by the caller in which the kernel keeps its
        block buffer across calls.  **The returned array aliases this
        scratch** — a caller passing a workspace must consume (or copy)
        the result before the next call with the same workspace.  ``None``
        allocates per call and the result is independently owned.
    map_rows:
        Optional callable the draw-and-weight stage is handed to:
        ``map_rows(work)`` must call ``work(slice(start, stop))`` for
        contiguous runs of streams that cover ``0 .. len(rngs) - 1``
        exactly once, in any order and possibly concurrently; the work on
        a run touches only that run's rows and generators.  The batched
        engine spreads the runs over its execute pool.  ``None`` does all
        streams in one call.  The buffers are allocated, and the IDFT
        runs, on the calling thread.

    Returns
    -------
    numpy.ndarray
        Complex array of shape ``(len(rngs), n_blocks * M)``; consecutive
        blocks of a stream are mutually independent.
    """
    coeffs = np.asarray(filter_coefficients, dtype=float)
    if coeffs.ndim != 1 or coeffs.shape[0] == 0:
        raise FilterDesignError("filter coefficients must form a non-empty 1-D array")
    if n_blocks < 1:
        raise DimensionError(f"n_blocks must be >= 1, got {n_blocks}")
    if input_variance_per_dim <= 0 or not np.isfinite(input_variance_per_dim):
        raise DopplerError(
            f"input variance per dimension must be positive, got {input_variance_per_dim}"
        )
    n_streams = len(rngs)
    if n_streams == 0:
        raise DimensionError("batched_doppler_blocks requires at least one stream")
    m = coeffs.shape[0]
    scale = np.sqrt(input_variance_per_dim)
    weighted = _weighted_scratch(workspace, n_streams, n_blocks, m)
    # reprolint: disable=hot-path-allocation (deliberate per-call draw buffer)
    draws = np.empty((n_streams, n_blocks, 2, m), dtype=np.float64)

    def draw_and_weight(rows: slice) -> None:
        for index in range(rows.start, rows.stop):
            # (n_blocks, 2, M) fills in C order: block 0's A then B, block
            # 1's A then B, ... — the exact stream consumption of
            # sequential complex_gaussian_pair draws.
            ensure_rng(rngs[index]).standard_normal(
                size=(n_blocks, 2, m), dtype=np.float64, out=draws[index]
            )
        part = draws[rows]
        np.multiply(part, scale, out=part)
        # One vectorized weighting over every block of the rows, written
        # component-wise into the complex buffer.
        out = weighted[rows]
        np.multiply(coeffs, part[:, :, 0, :], out=out.real)
        np.multiply(coeffs, part[:, :, 1, :], out=out.imag)
        np.negative(out.imag, out=out.imag)

    if map_rows is None:
        draw_and_weight(slice(0, n_streams))
    else:
        map_rows(draw_and_weight)
    del draws  # free the draw buffer before the transform allocates/runs
    flat = weighted.reshape(n_streams * n_blocks, m)
    if backend is None:
        np.fft.ifft(flat, axis=-1, out=flat)
    else:
        ifft_into = getattr(backend, "ifft_into", None)
        if ifft_into is not None:
            ifft_into(flat, flat, axis=-1)
        else:
            np.copyto(flat, backend.ifft(flat, axis=-1))
    return weighted.reshape(n_streams, n_blocks * m)


class IDFTRayleighGenerator:
    """Single-branch Doppler-shaped Rayleigh fading generator.

    Parameters
    ----------
    n_points:
        IDFT block length ``M`` (also the number of time samples produced per
        block).  The paper uses ``M = 4096``.
    normalized_doppler:
        Normalized maximum Doppler frequency ``f_m = F_m / F_s`` in
        ``(0, 0.5)``.
    input_variance_per_dim:
        Variance ``sigma_orig^2`` of each of the real input sequences
        ``A[k]`` and ``B[k]`` (the paper's simulations use 1/2).
    rng:
        Seed or generator for the Gaussian input sequences.

    Examples
    --------
    >>> gen = IDFTRayleighGenerator(n_points=1024, normalized_doppler=0.05, rng=3)
    >>> block = gen.generate_block()
    >>> block.shape
    (1024,)
    >>> envelope = abs(block)
    """

    def __init__(
        self,
        n_points: int,
        normalized_doppler: float,
        input_variance_per_dim: float = 0.5,
        rng: SeedLike = None,
    ) -> None:
        self._filter = young_beaulieu_filter(n_points, normalized_doppler)
        self._n_points = int(n_points)
        self._normalized_doppler = float(normalized_doppler)
        self._input_variance = float(input_variance_per_dim)
        self._output_variance = filter_output_variance(self._filter, self._input_variance)
        self._rng = ensure_rng(rng)

    @property
    def n_points(self) -> int:
        """IDFT block length ``M``."""
        return self._n_points

    @property
    def normalized_doppler(self) -> float:
        """Normalized maximum Doppler frequency ``f_m``."""
        return self._normalized_doppler

    @property
    def input_variance_per_dim(self) -> float:
        """Variance ``sigma_orig^2`` of each real input sequence."""
        return self._input_variance

    @property
    def filter_coefficients(self) -> np.ndarray:
        """The Doppler filter ``F[k]`` (read-only copy)."""
        return self._filter.copy()

    @property
    def output_variance(self) -> float:
        """Theoretical variance ``sigma_g^2`` of the output samples (Eq. 19)."""
        return self._output_variance

    def generate_block(self, rng: Optional[SeedLike] = None) -> ComplexArray:
        """Generate one block of ``M`` complex Gaussian fading samples.

        Parameters
        ----------
        rng:
            Optional override of the generator's random stream for this block
            (used by the multi-branch real-time generator to hand each branch
            an independent child stream).

        Returns
        -------
        numpy.ndarray
            Complex array ``u[l]`` of length ``M``.  The Rayleigh envelope is
            ``abs(u)``.
        """
        gen = self._rng if rng is None else ensure_rng(rng)
        return batched_doppler_blocks(
            self._filter,
            [gen],
            n_blocks=1,
            input_variance_per_dim=self._input_variance,
        )[0]

    def generate_envelope_block(self, rng: Optional[SeedLike] = None) -> np.ndarray:
        """Generate one block and return its Rayleigh envelope ``|u[l]|``."""
        return np.abs(self.generate_block(rng=rng))

    def generate_blocks(self, n_blocks: int, rng: Optional[SeedLike] = None) -> ComplexArray:
        """Generate ``n_blocks`` consecutive independent blocks.

        Returns
        -------
        numpy.ndarray
            Complex array of shape ``(n_blocks, M)``.  Blocks are mutually
            independent (the IDFT method produces exactly ``M`` correlated
            samples per draw); callers needing longer correlated records
            should increase ``n_points`` instead.
        """
        if n_blocks < 1:
            raise DimensionError(f"n_blocks must be >= 1, got {n_blocks}")
        gen = self._rng if rng is None else ensure_rng(rng)
        stream = batched_doppler_blocks(
            self._filter,
            [gen],
            n_blocks=int(n_blocks),
            input_variance_per_dim=self._input_variance,
        )
        return stream.reshape(int(n_blocks), self._n_points)
