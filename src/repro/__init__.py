"""repro — correlated Rayleigh fading envelope generation.

A production-oriented Python implementation of the generalized algorithm of
Tran, Wysocki, Seberry & Mertins, *"A Generalized Algorithm for the
Generation of Correlated Rayleigh Fading Envelopes in Radio Channels"*
(IPDPS 2005), together with the physical correlation models, the
Young–Beaulieu IDFT Doppler substrate, the conventional baseline methods it
is compared against, and the experiments reproducing the paper's evaluation.

Quick start
-----------
>>> import numpy as np
>>> from repro import Simulator
>>> K = np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, 1.0]])
>>> sim = Simulator()   # or Simulator(backend="scipy", cache=...)
>>> envelopes = sim.envelopes(K, 100_000, seed=1).envelopes

Package map
-----------
``repro.api``
    The unified session front door: :class:`Simulator` (one-call
    generation, batched runs, streaming, async submission, pluggable
    linalg backends).
``repro.core``
    The paper's algorithm: covariance assembly, forced PSD, eigen coloring,
    snapshot and real-time generators.
``repro.channels``
    Spectral (Jakes) and spatial (Salz–Winters) correlation models, Doppler
    filters, the IDFT Rayleigh generator, scenario builders.
``repro.engine``
    Batched plan → compile → execute pipeline with stacked-covariance
    coloring and decomposition caching; the single-spec path is its
    ``B = 1`` case.
``repro.baselines``
    Conventional methods [1]–[6] reviewed in the paper's introduction.
``repro.linalg`` / ``repro.signal`` / ``repro.random``
    Numerical substrates.
``repro.validation``
    Statistical acceptance checks (covariance match, Rayleigh fit).
``repro.shard``
    Sharded sweeps: contiguous plan slices run in worker processes over a
    shared cache directory (the only multi-process path; sessions use
    threads).
``repro.experiments``
    One module per paper figure/table plus ablations; also exposed through
    ``python -m repro``.
"""

from ._version import __version__
from .config import DEFAULTS, NumericDefaults
from .exceptions import (
    ReproError,
    SpecificationError,
    CovarianceError,
    NotPositiveSemiDefiniteError,
    CholeskyError,
    ColoringError,
    DopplerError,
    GenerationError,
    ValidationError,
)
from .types import EnvelopeBlock, GaussianBlock
from .core import (
    CovarianceSpec,
    RayleighFadingGenerator,
    RealTimeRayleighGenerator,
    RicianFadingGenerator,
    build_covariance_matrix,
    correlation_coefficient_matrix,
    envelope_power_to_gaussian_power,
    gaussian_power_to_envelope_power,
    envelope_correlation_from_gaussian,
    gaussian_correlation_from_envelope,
    gaussian_correlation_matrix_from_envelope,
    force_positive_semidefinite,
    compute_coloring,
    generate_correlated_envelopes,
    generate_from_scenario,
    covariance_match_report,
    envelope_power_report,
)
from .channels import (
    OFDMScenario,
    MIMOArrayScenario,
    CustomScenario,
    DopplerSettings,
    ScenarioSweep,
    SpectralCorrelationModel,
    SpatialCorrelationModel,
    IDFTRayleighGenerator,
    SumOfSinusoidsGenerator,
)
from .engine import (
    BatchResult,
    CacheStats,
    DecompositionCache,
    DopplerFilterCache,
    DopplerSpec,
    FadingSpec,
    LinalgBackend,
    PlanEntry,
    SimulationEngine,
    SimulationPlan,
    available_backends,
    default_engine,
    get_backend,
    register_backend,
)
from .api import Simulator, default_simulator

__all__ = [
    "__version__",
    "DEFAULTS",
    "NumericDefaults",
    "ReproError",
    "SpecificationError",
    "CovarianceError",
    "NotPositiveSemiDefiniteError",
    "CholeskyError",
    "ColoringError",
    "DopplerError",
    "GenerationError",
    "ValidationError",
    "EnvelopeBlock",
    "GaussianBlock",
    "CovarianceSpec",
    "RayleighFadingGenerator",
    "RealTimeRayleighGenerator",
    "RicianFadingGenerator",
    "build_covariance_matrix",
    "correlation_coefficient_matrix",
    "envelope_power_to_gaussian_power",
    "gaussian_power_to_envelope_power",
    "envelope_correlation_from_gaussian",
    "gaussian_correlation_from_envelope",
    "gaussian_correlation_matrix_from_envelope",
    "force_positive_semidefinite",
    "compute_coloring",
    "generate_correlated_envelopes",
    "generate_from_scenario",
    "covariance_match_report",
    "envelope_power_report",
    "OFDMScenario",
    "MIMOArrayScenario",
    "CustomScenario",
    "DopplerSettings",
    "ScenarioSweep",
    "SpectralCorrelationModel",
    "SpatialCorrelationModel",
    "IDFTRayleighGenerator",
    "SumOfSinusoidsGenerator",
    "BatchResult",
    "CacheStats",
    "DecompositionCache",
    "DopplerFilterCache",
    "LinalgBackend",
    "PlanEntry",
    "SimulationEngine",
    "SimulationPlan",
    "DopplerSpec",
    "FadingSpec",
    "available_backends",
    "default_engine",
    "get_backend",
    "register_backend",
    "Simulator",
    "default_simulator",
]
