"""One-call convenience wrappers around the full generation pipeline.

.. deprecated::
    These helpers are kept as thin delegating wrappers around the unified
    session API — :class:`repro.api.Simulator` — and route through the
    process-wide :func:`repro.api.default_simulator`.  New code should hold
    a session instead (``sim = Simulator(backend=...)`` then
    ``sim.envelopes(...)``), which adds backend choice, a private cache,
    batched runs, and async submission; results here are bit-identical
    to the session calls with the same seeds.

Most users need exactly one of two things:

* "give me ``n`` samples of ``N`` correlated Rayleigh envelopes for this
  covariance matrix" — :func:`generate_correlated_envelopes`;
* "give me Doppler-shaped correlated envelopes for this physical scenario"
  — :func:`generate_from_scenario`, which accepts any scenario object
  exposing ``covariance_spec()`` (the OFDM / MIMO scenario dataclasses in
  :mod:`repro.channels.scenario`) and optional Doppler settings.

Both return the :class:`repro.types.EnvelopeBlock` /
:class:`repro.types.GaussianBlock` value objects so downstream code has the
samples, the powers, and the provenance in one place.

The snapshot path runs through the default session's engine as a one-entry
plan, so single-spec generation is the ``B = 1`` case of batched generation
and benefits from the shared decomposition cache; results are bit-identical
to the pre-engine implementation.  The Doppler path computes its IDFT block
length in closed form via :func:`doppler_block_size`, which keeps living
here.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from ..exceptions import SpecificationError
from ..types import EnvelopeBlock, GaussianBlock, SeedLike
from .covariance import CovarianceSpec

__all__ = [
    "doppler_block_size",
    "generate_correlated_envelopes",
    "generate_from_scenario",
]

#: Smallest IDFT block the Doppler mode will use (the historical default).
_MIN_DOPPLER_POINTS = 64

#: Largest IDFT block the Doppler mode will accept before declaring the
#: passband constraint unsatisfiable (2**26 complex samples per branch is
#: already a ~1 GiB working set).
_MAX_DOPPLER_POINTS = 1 << 26


def doppler_block_size(
    n_samples: int,
    normalized_doppler: float,
    *,
    max_points: int = _MAX_DOPPLER_POINTS,
) -> int:
    """Smallest power-of-two IDFT block length for the Doppler mode.

    The block must hold ``n_samples`` output samples and keep at least one
    DFT bin inside the Doppler filter passband
    (``floor(normalized_doppler * n_points) >= 1``), which requires
    ``n_points >= 1 / normalized_doppler``.  Both bounds are closed-form
    powers of two, so no search loop is needed.

    Raises
    ------
    SpecificationError
        If ``normalized_doppler`` is outside ``(0, 0.5)`` or the passband
        constraint cannot be met with a block of at most ``max_points``
        samples (tiny normalized Doppler would otherwise grow the block —
        and the memory footprint — without bound).
    """
    doppler = float(normalized_doppler)
    if not 0.0 < doppler < 0.5:
        raise SpecificationError(
            f"normalized_doppler must lie in (0, 0.5), got {normalized_doppler!r}"
        )
    if n_samples < 1:
        raise SpecificationError(f"n_samples must be >= 1, got {n_samples}")
    exponent = max(
        _MIN_DOPPLER_POINTS.bit_length() - 1,
        (int(n_samples) - 1).bit_length(),
        math.ceil(math.log2(1.0 / doppler)),
    )
    n_points = 1 << exponent
    if doppler * n_points < 1.0:
        # log2 round-off can land one power of two short of the passband
        # bound; the next power is exact.
        n_points <<= 1
    if n_points > max_points:
        raise SpecificationError(
            f"normalized_doppler={doppler!r} needs an IDFT block of {n_points} points "
            f"to keep one bin in the filter passband, exceeding the limit of "
            f"{max_points}; increase the Doppler (or the sampling period) instead"
        )
    return n_points


def generate_correlated_envelopes(
    covariance: Union[CovarianceSpec, np.ndarray],
    n_samples: int,
    *,
    envelope_powers: bool = False,
    normalized_doppler: Optional[float] = None,
    coloring_method: str = "eigen",
    psd_method: str = "clip",
    rng: SeedLike = None,
    return_gaussian: bool = False,
) -> Union[EnvelopeBlock, GaussianBlock]:
    """Generate correlated Rayleigh envelopes in a single call.

    Parameters
    ----------
    covariance:
        A :class:`CovarianceSpec` or a raw complex covariance matrix ``K``.
        When ``envelope_powers`` is ``True`` the diagonal of the matrix is
        interpreted as desired *envelope* variances ``sigma_r^2`` and
        converted through Eq. (11).
    n_samples:
        Number of time samples per branch.  In Doppler mode this is rounded
        up to a whole number of IDFT blocks and then truncated.
    envelope_powers:
        Interpret diagonal powers as envelope variances (see above).
    normalized_doppler:
        If given (``0 < f_m < 0.5``), use the real-time Doppler-shaped
        generator of Section 5; otherwise the snapshot generator of
        Section 4.4 (time-independent samples).
    coloring_method, psd_method:
        Algorithm variants (defaults are the paper's choices).
    rng:
        Seed or generator.
    return_gaussian:
        If ``True`` return the :class:`GaussianBlock` of complex samples
        instead of the envelope block.

    Returns
    -------
    EnvelopeBlock or GaussianBlock

    .. deprecated::
        Delegates to :meth:`repro.api.Simulator.envelopes` on the
        process-wide default session; prefer holding a
        :class:`repro.api.Simulator` directly.
    """
    from ..api import default_simulator

    return default_simulator().envelopes(
        covariance,
        n_samples,
        seed=rng,
        envelope_powers=envelope_powers,
        normalized_doppler=normalized_doppler,
        coloring_method=coloring_method,
        psd_method=psd_method,
        return_gaussian=return_gaussian,
    )


def generate_from_scenario(
    scenario,
    gaussian_powers: np.ndarray,
    n_samples: int,
    *,
    normalized_doppler: Optional[float] = None,
    rng: SeedLike = None,
    return_gaussian: bool = False,
) -> Union[EnvelopeBlock, GaussianBlock]:
    """Generate envelopes for a physical scenario object.

    Parameters
    ----------
    scenario:
        Any object exposing ``covariance_spec(gaussian_powers)`` returning a
        :class:`CovarianceSpec` — e.g.
        :class:`repro.channels.scenario.OFDMScenario` or
        :class:`repro.channels.scenario.MIMOArrayScenario`.
    gaussian_powers:
        Per-branch complex-Gaussian powers ``sigma_g_j^2``.
    n_samples:
        Number of time samples per branch.
    normalized_doppler:
        Doppler mode selector, as in :func:`generate_correlated_envelopes`.
        If the scenario carries its own Doppler settings (``OFDMScenario``)
        they are used when this argument is omitted.
    rng:
        Seed or generator.
    return_gaussian:
        Return the complex samples instead of envelopes.

    .. deprecated::
        Delegates to :meth:`repro.api.Simulator.envelopes` on the
        process-wide default session; prefer holding a
        :class:`repro.api.Simulator` directly.
    """
    from ..api import default_simulator

    if not hasattr(scenario, "covariance_spec"):
        raise SpecificationError(
            "scenario must expose a covariance_spec(gaussian_powers) method; got "
            f"{type(scenario).__name__}"
        )
    return default_simulator().envelopes(
        scenario,
        n_samples,
        seed=rng,
        gaussian_powers=gaussian_powers,
        normalized_doppler=normalized_doppler,
        return_gaussian=return_gaussian,
    )
