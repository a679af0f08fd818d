"""Sampling of circularly-symmetric complex Gaussian variables.

Step 6 of the paper's algorithm (Section 4.4) requires "a column vector W of
N independent complex Gaussian random samples with zero means and arbitrary,
equal variances sigma_g^2"; Section 5 step 3 requires i.i.d. *real* Gaussian
sequences ``A[k]`` and ``B[k]`` that are combined into ``A[k] - i B[k]``.
Both constructions live here.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..exceptions import PowerError
from ..types import ComplexArray, FloatArray, SeedLike
from .rng import ensure_rng

__all__ = ["complex_gaussian", "complex_gaussian_pair", "standard_complex_gaussian"]

ShapeLike = Union[int, Tuple[int, ...]]


def _validate_variance(variance: float) -> float:
    variance = float(variance)
    if not np.isfinite(variance) or variance <= 0.0:
        raise PowerError(f"variance must be a positive finite number, got {variance!r}")
    return variance


def standard_complex_gaussian(shape: ShapeLike, rng: SeedLike = None) -> ComplexArray:
    """Sample zero-mean, unit-variance circular complex Gaussian variables.

    The total variance ``E|u|^2`` is 1, i.e. each of the real and imaginary
    parts has variance 1/2.
    """
    return complex_gaussian(shape, variance=1.0, rng=rng)


def complex_gaussian(
    shape: ShapeLike,
    variance: float = 1.0,
    rng: SeedLike = None,
    *,
    out: ComplexArray = None,
    scratch: FloatArray = None,
) -> ComplexArray:
    """Sample zero-mean circular complex Gaussian variables.

    Parameters
    ----------
    shape:
        Output shape.
    variance:
        Total variance ``sigma_g^2 = E|u|^2``; split equally between the real
        and imaginary parts (``sigma_g^2 / 2`` each), which is the circular
        symmetry assumed throughout the paper.
    rng:
        Seed or generator.
    out:
        Optional preallocated complex array of the requested shape to write
        into (the batched engine fills one slice of its batch buffer per
        entry); a fresh array is allocated without it.
    scratch:
        Optional C-contiguous float64 array of shape ``(2, *shape)`` the
        draw goes through (the batched engine passes scratch it owns, so the
        fill allocates nothing); a temporary is allocated without it.

    Returns
    -------
    numpy.ndarray
        Complex array of the requested shape (``out`` when provided).
    """
    variance = _validate_variance(variance)
    gen = ensure_rng(rng)
    scale = np.sqrt(variance / 2.0)
    shape_tuple = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    draw_shape = (2,) + shape_tuple
    if out is None:
        out = np.empty(shape_tuple, dtype=np.complex128)
    elif out.shape != shape_tuple:
        raise ValueError(f"out must have shape {shape_tuple}, got {out.shape}")
    if scratch is None:
        scratch = np.empty(draw_shape, dtype=np.float64)
    elif scratch.shape != draw_shape:
        raise ValueError(f"scratch must have shape {draw_shape}, got {scratch.shape}")
    # One draw of (2, *shape) consumes the generator stream exactly like two
    # sequential draws of *shape* (the ziggurat samples value by value): the
    # first half is the real parts, the second the imaginary parts.
    gen.standard_normal(size=draw_shape, dtype=np.float64, out=scratch)
    np.multiply(scratch[0], scale, out=out.real)
    np.multiply(scratch[1], scale, out=out.imag)
    return out


def complex_gaussian_pair(
    shape: ShapeLike,
    variance_per_dimension: float = 0.5,
    rng: SeedLike = None,
) -> Tuple[FloatArray, FloatArray]:
    """Sample the two independent real Gaussian sequences of Section 5 step 3.

    Returns the pair ``(A, B)`` of i.i.d. real, zero-mean Gaussian arrays with
    the given per-dimension variance ``sigma_orig^2``; the caller combines
    them as ``A - iB`` before Doppler filtering.

    Parameters
    ----------
    shape:
        Output shape of each sequence.
    variance_per_dimension:
        ``sigma_orig^2`` in the paper's notation (default 1/2, the value used
        in the paper's simulations).
    rng:
        Seed or generator.
    """
    variance_per_dimension = _validate_variance(variance_per_dimension)
    gen = ensure_rng(rng)
    scale = np.sqrt(variance_per_dimension)
    a = gen.normal(0.0, scale, size=shape)
    b = gen.normal(0.0, scale, size=shape)
    return a, b
