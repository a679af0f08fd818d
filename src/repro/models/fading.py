"""Pluggable fading-model layer: the post-coloring envelope seam.

The engine's plan → compile → execute pipeline produces correlated complex
Gaussian samples whose moduli are Rayleigh envelopes.  This module
generalizes that final step into a registry of *fading models* — pure,
vectorized post-coloring transforms the fused execute kernel applies in
place — so one correlated-Gaussian coloring pass can serve every channel
family the scenario zoo needs:

=============  =======================================  ======================
model          construction                             declared invariant
=============  =======================================  ======================
``rayleigh``   identity (the paper's default)           byte-identity: the
                                                        pre-refactor fast path
``rician(K)``  diffuse component scaled by              byte-identity to the
               ``1/sqrt(K+1)`` plus a static            looped scalar
               per-branch LOS amplitude                 reference
``nakagami``   inverse-CDF envelope transform           ``rtol <= 1e-12`` to
``(m)``        Rayleigh → Nakagami-m, phase             the looped scalar
               preserved                                reference
``weibull``    power envelope transform                 ``rtol <= 1e-12`` to
``(k)``        Rayleigh → Weibull, phase preserved      the looped scalar
                                                        reference
shadowing      per-branch log-normal gain drawn once    byte-identity (the
``(sigma_dB)`` per entry from a deterministic side      gains are a pure
               stream of the entry seed; composes       function of the
               multiplicatively with any model above    entry seed)
=============  =======================================  ======================

Contract
--------
A model is a pure function of the colored block and the entry's declared
parameters: no RNG draws inside the transform (shadowing draws its gains
*once* per entry from a tagged side stream of the entry seed, never from
the white-sample stream the Rayleigh identity depends on), no
time/environment reads, and phase preservation for the envelope
transforms.  Each model declares its own invariant (see the table above;
enforced in ``tests/property/test_property_fading_models.py``) and its
cache-key contribution (:meth:`FadingSpec.fading_token`, folded per entry
into :func:`repro.engine.plancache.compiled_plan_cache_key`).  Entries
group by :attr:`FadingSpec.family` at compile time, so one group applies
one model with stacked parameters.

The total branch powers ``Omega_j`` are read off the entry's covariance
diagonal: Rician splits ``Omega`` between LOS and diffuse power exactly
like :class:`repro.core.rician.RicianFadingGenerator`, and the
Nakagami/Weibull envelope maps preserve ``E[r^2] = Omega``.
"""

from __future__ import annotations

# reprolint: hot-module — the model transforms run inside the fused execute
# kernels; every deliberate allocation below is marked explicitly.

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import SpecificationError

__all__ = [
    "FadingLike",
    "FadingModel",
    "FadingSpec",
    "FadingStacks",
    "apply_fading_block",
    "available_fading_models",
    "build_fading_stacks",
    "coerce_fading",
    "get_fading_model",
    "register_fading_model",
    "shadowing_gains",
]

#: Sub-stream tag deriving the shadowing side stream from an entry seed —
#: a separate :class:`numpy.random.SeedSequence` spawn key, so the gains
#: never consume from (or perturb) the entry's white-sample stream.
_SHADOWING_STREAM_TAG = 0x5AD0F1E1


@dataclass(frozen=True)
class FadingModel:
    """One registered fading model: its validation contract and invariant.

    Attributes
    ----------
    name:
        Registry key (``FadingSpec.model`` values resolve against it).
    shape_name:
        Human name of the model's shape parameter (``K-factor``, ``m``,
        ``k``), or ``None`` for shape-less models.
    invariant:
        The equivalence the property suite enforces for this model
        (byte-identity or a stated tolerance) — see the module table.
    description:
        One-line summary for CLI/docs listings.
    exact:
        ``True`` when the invariant is byte-identity; ``False`` when the
        transform is compared at ``rtol`` against the scalar reference.
    rtol:
        Declared relative tolerance for non-exact models.
    shape_min, shape_min_inclusive:
        Lower bound of the shape parameter's valid range.
    requires_scipy:
        Whether the transform needs :mod:`scipy.special` (checked at spec
        construction so missing scipy fails at plan build, not mid-kernel).
    """

    name: str
    shape_name: Optional[str]
    invariant: str
    description: str
    exact: bool = True
    rtol: float = 0.0
    shape_min: float = 0.0
    shape_min_inclusive: bool = True
    requires_scipy: bool = False

    @property
    def requires_shape(self) -> bool:
        """Whether this model takes a shape parameter."""
        return self.shape_name is not None

    def validate_shape(self, shape: Any) -> float:
        """Coerce and range-check a shape value, naming the field on error."""
        try:
            value = float(shape)
        except (TypeError, ValueError) as exc:
            raise SpecificationError(
                f"fading.shape (the {self.name} {self.shape_name}) must be a "
                f"number, got {shape!r}"
            ) from exc
        in_range = np.isfinite(value) and (
            value >= self.shape_min
            if self.shape_min_inclusive
            else value > self.shape_min
        )
        if not in_range:
            bound = ">=" if self.shape_min_inclusive else ">"
            raise SpecificationError(
                f"fading.shape (the {self.name} {self.shape_name}) must be "
                f"finite and {bound} {self.shape_min}, got {value!r}"
            )
        return value


_MODELS: Dict[str, FadingModel] = {}


def register_fading_model(model: FadingModel) -> FadingModel:
    """Register a fading model under its name (returns it, decorator-style)."""
    if not isinstance(model, FadingModel):
        raise SpecificationError(
            f"expected a FadingModel, got {type(model).__name__}"
        )
    if model.name in _MODELS:
        raise SpecificationError(
            f"fading model {model.name!r} is already registered"
        )
    _MODELS[model.name] = model
    return model


def available_fading_models() -> Tuple[str, ...]:
    """Names of every registered fading model, sorted."""
    return tuple(sorted(_MODELS))


def get_fading_model(name: Any) -> FadingModel:
    """Resolve a model name, raising a field-naming error on unknowns."""
    model = _MODELS.get(name) if isinstance(name, str) else None
    if model is None:
        raise SpecificationError(
            f"fading.model must be one of {sorted(_MODELS)}, got {name!r}"
        )
    return model


register_fading_model(
    FadingModel(
        name="rayleigh",
        shape_name=None,
        invariant="byte-identity (the transform is the identity)",
        description="the paper's correlated Rayleigh envelopes (default)",
    )
)
register_fading_model(
    FadingModel(
        name="rician",
        shape_name="K-factor",
        invariant="byte-identity to the looped scalar reference",
        description=(
            "diffuse component scaled by 1/sqrt(K+1) plus a static "
            "per-branch LOS amplitude"
        ),
        shape_min=0.0,
    )
)
register_fading_model(
    FadingModel(
        name="nakagami",
        shape_name="m",
        invariant="allclose to the looped scalar reference, rtol <= 1e-12",
        description=(
            "inverse-CDF envelope transform Rayleigh -> Nakagami-m "
            "(phase preserved)"
        ),
        exact=False,
        rtol=1e-12,
        shape_min=0.5,
        requires_scipy=True,
    )
)
register_fading_model(
    FadingModel(
        name="weibull",
        shape_name="k",
        invariant="allclose to the looped scalar reference, rtol <= 1e-12",
        description=(
            "power envelope transform Rayleigh -> Weibull (phase preserved)"
        ),
        exact=False,
        rtol=1e-12,
        shape_min=0.0,
        shape_min_inclusive=False,
    )
)


def _scipy_special():
    """Import-gate for scipy-backed transforms (scipy is an extra, not a dep)."""
    try:
        from scipy import special
    except ImportError as exc:  # pragma: no cover - scipy present in test env
        raise SpecificationError(
            "fading.model 'nakagami' requires scipy "
            "(scipy.special.gammaincinv); install scipy or choose another model"
        ) from exc
    return special


@dataclass(frozen=True)
class FadingSpec:
    """Fading model of one plan entry (mirrors :class:`DopplerSpec`).

    Attributes
    ----------
    model:
        Registered model name (``rayleigh``, ``rician``, ``nakagami``,
        ``weibull``).
    shape:
        The model's shape parameter — the Rician ``K``-factor, the
        Nakagami ``m``, or the Weibull ``k``.  Required for those models;
        must be ``None`` for ``rayleigh``.
    shadowing_sigma_db:
        Log-normal shadowing spread in dB, composed multiplicatively on
        top of the model (``0`` disables shadowing).  Shadowed entries
        need integer seeds: the per-branch gains are drawn once per entry
        from a deterministic side stream of the entry seed, so they are
        constant across streamed blocks and identical across runs.
    """

    model: str = "rayleigh"
    shape: Optional[float] = None
    shadowing_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        descriptor = get_fading_model(self.model)
        if descriptor.requires_shape:
            if self.shape is None:
                raise SpecificationError(
                    f"fading.shape is required for the {descriptor.name} model "
                    f"(its {descriptor.shape_name} parameter)"
                )
            object.__setattr__(
                self, "shape", descriptor.validate_shape(self.shape)
            )
        elif self.shape is not None:
            raise SpecificationError(
                f"fading.shape must be None for the {descriptor.name} model "
                f"(it has no shape parameter), got {self.shape!r}"
            )
        try:
            sigma = float(self.shadowing_sigma_db)
        except (TypeError, ValueError) as exc:
            raise SpecificationError(
                "fading.shadowing_sigma_db must be a number, got "
                f"{self.shadowing_sigma_db!r}"
            ) from exc
        if sigma < 0 or not np.isfinite(sigma):
            raise SpecificationError(
                "fading.shadowing_sigma_db must be non-negative and finite, "
                f"got {sigma!r}"
            )
        object.__setattr__(self, "shadowing_sigma_db", sigma)
        if descriptor.requires_scipy:
            _scipy_special()

    @property
    def descriptor(self) -> FadingModel:
        """The registered :class:`FadingModel` this spec resolves to."""
        return get_fading_model(self.model)

    @property
    def has_shadowing(self) -> bool:
        """Whether log-normal shadowing is composed on top of the model."""
        return self.shadowing_sigma_db != 0.0

    @property
    def is_trivial(self) -> bool:
        """Whether this spec is the identity (plain Rayleigh, no shadowing).

        :func:`coerce_fading` collapses trivial specs to ``None`` so
        ``entry.fading is None`` is exactly the untouched byte-identical
        Rayleigh fast path.
        """
        return self.model == "rayleigh" and not self.has_shadowing

    @property
    def family(self) -> Tuple[str, bool]:
        """Compile-group token: entries stack only within one model family."""
        return (self.model, self.has_shadowing)

    def fading_token(self) -> str:
        """Cache-key contribution of this spec: pure content, no seeds.

        Folded per entry into
        :func:`repro.engine.plancache.compiled_plan_cache_key` (and from
        there into the service request key), so plans differing only in
        fading never share compiled artifacts or coalesce in flight.
        """
        return repr(("fading", self.model, self.shape, self.shadowing_sigma_db))


#: What callers may pass wherever a fading model is expected: ``None`` or a
#: trivial spec (the Rayleigh fast path), a bare model name, a mapping with
#: ``model`` / ``shape`` / ``shadowing_sigma_db`` keys (the JSON scenario
#: schema), or a ready :class:`FadingSpec`.
FadingLike = Union[None, str, Mapping[str, Any], FadingSpec]

_FADING_FIELDS = ("model", "shape", "shadowing_sigma_db")


def coerce_fading(fading: FadingLike) -> Optional[FadingSpec]:
    """Normalize a :data:`FadingLike` value into an optional :class:`FadingSpec`.

    Trivial specs (plain Rayleigh without shadowing) collapse to ``None``,
    keeping the engine's default path byte-identical to the pre-refactor
    hard-coded Rayleigh.  Malformed values raise
    :class:`~repro.exceptions.SpecificationError` (a ``ValueError``) naming
    the offending field.
    """
    if fading is None:
        return None
    if isinstance(fading, FadingSpec):
        return None if fading.is_trivial else fading
    if isinstance(fading, str):
        spec = FadingSpec(model=fading)
    elif isinstance(fading, Mapping):
        unknown = sorted(set(fading) - set(_FADING_FIELDS))
        if unknown:
            raise SpecificationError(
                f"unknown fading field(s) {unknown}; expected "
                f"{list(_FADING_FIELDS)}"
            )
        spec = FadingSpec(**{key: fading[key] for key in _FADING_FIELDS if key in fading})
    else:
        raise SpecificationError(
            "fading must be None, a model name, a mapping with "
            f"{list(_FADING_FIELDS)} keys, or a FadingSpec; got "
            f"{type(fading).__name__}"
        )
    return None if spec.is_trivial else spec


def shadowing_gains(seed: Any, sigma_db: float, n_branches: int) -> np.ndarray:
    """Per-branch log-normal shadowing gains, deterministic in the entry seed.

    The gains ``10 ** (sigma_dB * x_j / 20)`` (``x_j`` standard normal) are
    drawn from a side stream derived from the *integer* entry seed with a
    dedicated spawn tag — never from the entry's white-sample stream — so
    they are constant across streamed blocks, identical across runs, and
    leave the underlying Rayleigh draw untouched.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise SpecificationError(
            "fading.shadowing_sigma_db requires an integer per-entry seed so "
            f"the shadowing gains are reproducible; got seed={seed!r}"
        )
    sequence = np.random.SeedSequence(
        entropy=int(seed) % (1 << 64), spawn_key=(_SHADOWING_STREAM_TAG,)
    )
    rng = np.random.default_rng(sequence)
    return 10.0 ** (float(sigma_db) * rng.standard_normal(int(n_branches)) / 20.0)


class FadingStacks:
    """Per-group fading operands, stacked once per execution state.

    Built by :func:`build_fading_stacks` from a compiled group's entries
    (compile groups are uniform in :attr:`FadingSpec.family`, so one stack
    bundle serves the whole ``(B, N, n)`` batch) and owned by the
    executor's ``_ExecutionState`` — the fused kernel only ever reads them.
    """

    __slots__ = (
        "model",
        "needs_scratch",
        "rician_scale",
        "rician_los",
        "branch_powers",
        "shape_column",
        "weibull_scale",
        "shadow_gains",
    )

    def __init__(self) -> None:
        self.model = "rayleigh"
        self.needs_scratch = False
        self.rician_scale: Optional[np.ndarray] = None
        self.rician_los: Optional[np.ndarray] = None
        self.branch_powers: Optional[np.ndarray] = None
        self.shape_column: Optional[np.ndarray] = None
        self.weibull_scale: Optional[np.ndarray] = None
        self.shadow_gains: Optional[np.ndarray] = None

    def rows(self, rows: slice) -> "FadingStacks":
        """The operands of a contiguous run of the group's entries (views).

        Every stacked operand leads with the entry axis, so a chunk of the
        group's ``(B, N, n)`` record fades with ``stacks.rows(chunk)``
        exactly as the whole record fades with ``stacks``.
        """
        part = FadingStacks()
        for name in self.__slots__:
            value = getattr(self, name)
            setattr(part, name, value[rows] if isinstance(value, np.ndarray) else value)
        return part


def build_fading_stacks(entries: Sequence[Any]) -> Optional[FadingStacks]:  # reprolint: workspace-constructor
    """Stack one compiled group's fading operands (or ``None`` for Rayleigh).

    ``entries`` are the group's plan entries; grouping guarantees a uniform
    :attr:`FadingSpec.family`, so per-entry shape parameters and branch
    powers stack into ``(B, 1, 1)`` / ``(B, N, 1)`` broadcast columns the
    transform reuses for every block.  Pure: the only randomness is the
    deterministic seed-derived shadowing side stream.
    """
    first = entries[0].fading
    if first is None:
        return None
    stacks = FadingStacks()
    model = first.model
    stacks.model = model
    stacks.needs_scratch = model in ("nakagami", "weibull")
    powers = np.asarray(
        [np.asarray(entry.spec.gaussian_variances, dtype=float) for entry in entries]
    )[:, :, np.newaxis]
    if model != "rayleigh":
        shapes = np.asarray(
            [entry.fading.shape for entry in entries], dtype=float
        )[:, np.newaxis, np.newaxis]
    if model == "rician":
        stacks.rician_scale = np.sqrt(shapes + 1.0)
        stacks.rician_los = np.sqrt(shapes * powers / (shapes + 1.0))
    elif model == "nakagami":
        _scipy_special()  # fail at state construction, never mid-kernel
        stacks.shape_column = shapes
        stacks.branch_powers = powers
    elif model == "weibull":
        stacks.shape_column = 1.0 / shapes
        stacks.branch_powers = powers
        gammas = np.asarray(
            [math.gamma(1.0 + 2.0 / entry.fading.shape) for entry in entries],
            dtype=float,
        )[:, np.newaxis, np.newaxis]
        stacks.weibull_scale = np.sqrt(powers / gammas)
    if first.has_shadowing:
        stacks.shadow_gains = np.asarray(
            [
                shadowing_gains(
                    entry.seed, entry.fading.shadowing_sigma_db, entry.n_branches
                )
                for entry in entries
            ]
        )[:, :, np.newaxis]
    return stacks


def apply_fading_block(  # reprolint: hot-path
    colored: np.ndarray,
    stacks: FadingStacks,
    envelope_scratch: Optional[np.ndarray] = None,
    target_scratch: Optional[np.ndarray] = None,
    positive_scratch: Optional[np.ndarray] = None,
) -> None:
    """Apply one group's fading transform to a colored block, in place.

    ``colored`` is the ``(B, N, n)`` post-normalization complex record the
    fused kernel just produced.  Every operation is a ufunc writing into
    ``colored`` or the state-owned scratch buffers, so the hot path stays
    allocation-free; the envelope transforms preserve each sample's phase
    by scaling the complex sample to its target envelope (a zero sample
    maps to zero).  The scalar reference this must match (exactly, or at
    the model's declared rtol) is
    :func:`repro.models.reference.reference_fading_samples`.
    """
    model = stacks.model
    if model == "rician":
        colored /= stacks.rician_scale
        colored += stacks.rician_los
    elif model == "nakagami":
        special = _scipy_special()
        r = envelope_scratch
        t = target_scratch
        np.abs(colored, out=r)
        # u = -expm1(-r^2 / Omega): the Rayleigh envelope CDF at r.
        np.multiply(r, r, out=t)
        np.divide(t, stacks.branch_powers, out=t)
        np.negative(t, out=t)
        np.expm1(t, out=t)
        np.negative(t, out=t)
        # Target envelope: sqrt(Omega * gammaincinv(m, u) / m).
        special.gammaincinv(stacks.shape_column, t, out=t)
        np.multiply(t, stacks.branch_powers, out=t)
        np.divide(t, stacks.shape_column, out=t)
        np.sqrt(t, out=t)
        # Phase-preserving rescale; where r == 0 the target is 0 already.
        np.greater(r, 0.0, out=positive_scratch)
        np.divide(t, r, out=t, where=positive_scratch)
        colored *= t
    elif model == "weibull":
        r = envelope_scratch
        t = target_scratch
        np.abs(colored, out=r)
        # Target envelope: lambda * (r^2 / Omega)^(1/k).
        np.multiply(r, r, out=t)
        np.divide(t, stacks.branch_powers, out=t)
        np.power(t, stacks.shape_column, out=t)
        np.multiply(t, stacks.weibull_scale, out=t)
        np.greater(r, 0.0, out=positive_scratch)
        np.divide(t, r, out=t, where=positive_scratch)
        colored *= t
    if stacks.shadow_gains is not None:
        colored *= stacks.shadow_gains
