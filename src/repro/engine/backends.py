"""Pluggable linear-algebra backends for the batched engine.

The engine's compile step reduces to two stacked decompositions —
``eigh`` over a ``(B, N, N)`` covariance stack and ``cholesky`` over the
same shape — and the execute step to one stacked ``matmul`` plus, for
Doppler-mode entries, one stacked ``fft``/``ifft`` over the frequency-domain
block stack.  A :class:`LinalgBackend` supplies exactly those operations,
which makes backend choice a constructor argument of
:class:`repro.api.Simulator` / :class:`repro.engine.SimulationEngine`
instead of a code path:

* ``"numpy"`` (default) — ``np.linalg`` gufuncs, the reference
  implementation every other backend is measured against;
* ``"scipy"`` — per-slice :func:`scipy.linalg.eigh` with an explicit LAPACK
  driver.  The default ``"evd"`` driver calls the same LAPACK routine
  (``?heevd``) as numpy's ``eigh``, so its results are expected
  bit-identical and it shares the numpy decomposition cache; other drivers
  (``"ev"``, ``"evr"``, ``"evx"``) produce valid but not bitwise-equal
  decompositions and are cached under their own key;
* ``"cupy"`` / ``"torch"`` — GPU backends, gated on import and registered
  lazily; they carry a documented elementwise tolerance instead of the
  bitwise guarantee (device math is not bit-identical to the CPU path).

Backends are registered by name in a process-wide registry
(:func:`register_backend` / :func:`get_backend` /
:func:`available_backends`), so downstream code — and tests — can add new
implementations without touching the engine.

**Contract.**  All arguments and results are host (numpy) arrays; backends
that compute elsewhere transfer internally.  ``eigh`` must return
eigenvalues in ascending order per slice (numpy's convention — the engine
flips to the paper's descending order itself), and ``cholesky`` must raise
``np.linalg.LinAlgError`` on a non-positive-definite slice so the engine's
error translation keeps working.  ``fft``/``ifft`` transform along one axis
of an arbitrary-rank array with numpy's normalization (``ifft`` carries the
``1/M`` factor of Eq. 17); for backends claiming ``tolerance == 0.0`` they
must be bit-identical to ``np.fft`` per slice — scipy's pocketfft satisfies
this (asserted by the parity suite), device FFTs do not.  The optional
``matmul_into``/``ifft_into`` hooks write the same results into
caller-owned buffers (the execute kernels' allocation-light path); the base
class provides copying fallbacks, so overriding them is purely a
performance decision and never changes bytes.

**Host BLAS threads.**  While the executor runs a group's chunks on its
thread pool, every chunk issues its own coloring ``matmul``; a multi-threaded
BLAS would then put its worker threads (which busy-wait after each call) on
the cores the pool needs.  The executor enters :func:`one_blas_thread`
around such a region, which holds the OpenBLAS numpy and scipy bundle at
one thread (device backends do not use it).  Thread counts never change
bytes.
"""

from __future__ import annotations

import abc
import contextlib
import ctypes
import os
import threading
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import BackendError

__all__ = [
    "LinalgBackend",
    "NumpyBackend",
    "ScipyBackend",
    "CupyBackend",
    "TorchBackend",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "available_backends",
    "BackendSpec",
]

#: What callers may pass wherever a backend is expected: a registered name,
#: a ready instance, or ``None`` for the numpy default.
BackendSpec = Union[None, str, "LinalgBackend"]


class LinalgBackend(abc.ABC):
    """Decompose-stack / matmul contract the engine compiles and executes on.

    Attributes
    ----------
    name:
        Registry name, also recorded in result metadata.
    tolerance:
        Documented elementwise deviation from the numpy backend for the
        same inputs.  ``0.0`` means bit-identical (the backend runs the same
        LAPACK routine); ``None`` means no sample-level parity guarantee at
        all (e.g. a LAPACK driver that may flip eigenvector signs — the
        decomposition is still a valid coloring, ``L L^H = K``, but raw
        samples are not comparable).  Positive values are the per-element
        absolute tolerance GPU parity tests check against.
    """

    name: str = "abstract"
    tolerance: Optional[float] = 0.0

    @property
    def cache_token(self) -> str:
        """Decomposition-cache namespace for this backend.

        Backends that are bit-identical to numpy (``tolerance == 0.0``)
        share the ``"numpy"`` namespace — a cached decomposition is the same
        bytes no matter which of them computed it.  Everything else is
        cached under its own name so a GPU decomposition can never be
        served to a numpy run (or vice versa).
        """
        return "numpy" if self.tolerance == 0.0 else self.name

    @abc.abstractmethod
    def eigh(self, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Eigendecompose every Hermitian matrix in a ``(B, N, N)`` stack.

        Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending
        per slice, exactly like ``np.linalg.eigh``.
        """

    @abc.abstractmethod
    def cholesky(self, stack: np.ndarray) -> np.ndarray:
        """Lower-triangular Cholesky factors of a ``(B, N, N)`` stack.

        Must raise ``np.linalg.LinAlgError`` when a slice is not positive
        definite.
        """

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Stacked matrix product (the execute step's coloring multiply)."""
        return np.matmul(a, b)

    def matmul_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Stacked matrix product written into a caller-owned ``out`` array.

        The allocation-light hook of the execute kernels: backends that can
        compute directly into ``out`` override this (numpy/scipy route the
        gufunc's ``out=``); the base implementation computes through
        :meth:`matmul` and copies, so every backend satisfies the contract.
        ``out`` must have the result's shape and dtype.  The written values
        must be bit-identical to :meth:`matmul` on the same operands.
        """
        np.copyto(out, self.matmul(a, b))
        return out

    def fft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        """Discrete Fourier transform along ``axis`` (numpy normalization)."""
        return np.fft.fft(array, axis=axis)

    def ifft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        """Inverse DFT along ``axis`` — the Doppler substrate's stacked IDFT.

        Carries numpy's ``1/M`` factor, i.e. the normalization of Eq. (17).
        """
        return np.fft.ifft(array, axis=axis)

    def ifft_into(
        self, array: np.ndarray, out: np.ndarray, axis: int = -1
    ) -> np.ndarray:
        """Inverse DFT written into a caller-owned complex ``out`` array.

        Same contract as :meth:`matmul_into`: bit-identical to
        :meth:`ifft`, with the base implementation copying through it so
        backends without an ``out=``-capable transform still work.
        """
        np.copyto(out, self.ifft(array, axis=axis))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} tolerance={self.tolerance!r}>"


class NumpyBackend(LinalgBackend):
    """The reference backend: numpy's stacked LAPACK/BLAS gufuncs."""

    name = "numpy"
    tolerance: Optional[float] = 0.0

    def eigh(self, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        eigenvalues, eigenvectors = np.linalg.eigh(stack)
        return eigenvalues, eigenvectors

    def cholesky(self, stack: np.ndarray) -> np.ndarray:
        return np.linalg.cholesky(stack)

    def matmul_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        # The gufunc writes into ``out`` directly — same BLAS dispatch, same
        # bits, one less (B, N, n) allocation per block.
        return np.matmul(a, b, out=out)

    def ifft_into(
        self, array: np.ndarray, out: np.ndarray, axis: int = -1
    ) -> np.ndarray:
        # pocketfft's out= writes the same transform into the caller's
        # buffer (numpy >= 2.0).
        return np.fft.ifft(array, axis=axis, out=out)


class ScipyBackend(LinalgBackend):
    """Per-slice :func:`scipy.linalg.eigh` with an explicit LAPACK driver.

    Parameters
    ----------
    driver:
        LAPACK eigensolver driver (``"evd"``, ``"ev"``, ``"evr"``,
        ``"evx"``).  The default ``"evd"`` calls the divide-and-conquer
        ``?heevd`` — the routine numpy's ``eigh`` uses — so its output is
        expected bit-identical to the numpy backend and it shares the numpy
        cache namespace.  Other drivers run different eigensolvers whose
        eigenvectors can differ by sign/phase; they get ``tolerance = None``
        (valid coloring, no raw-sample parity) and a private cache
        namespace.

    Raises
    ------
    BackendError
        If scipy is not installed.
    """

    _DRIVERS = ("evd", "ev", "evr", "evx")

    def __init__(self, driver: str = "evd") -> None:
        if driver not in self._DRIVERS:
            raise BackendError(
                f"unknown scipy eigh driver {driver!r}; choose from {self._DRIVERS}"
            )
        try:
            import scipy.fft as _scipy_fft
            import scipy.linalg as _scipy_linalg
        except ImportError as exc:  # pragma: no cover - scipy ships in the image
            raise BackendError(
                "the 'scipy' backend requires scipy, which is not installed"
            ) from exc
        self._linalg = _scipy_linalg
        self._fft = _scipy_fft
        self.driver = driver
        self.name = "scipy" if driver == "evd" else f"scipy-{driver}"
        self.tolerance = 0.0 if driver == "evd" else None

    def eigh(self, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # scipy.linalg.eigh is 2-D only; loop the slices with the chosen
        # LAPACK driver (the decompositions are independent).
        values = np.empty(stack.shape[:2], dtype=float)
        vectors = np.empty(stack.shape, dtype=stack.dtype)
        for index in range(stack.shape[0]):
            values[index], vectors[index] = self._linalg.eigh(
                stack[index], driver=self.driver, check_finite=False
            )
        return values, vectors

    def cholesky(self, stack: np.ndarray) -> np.ndarray:
        factors = np.empty_like(stack)
        for index in range(stack.shape[0]):
            # scipy raises scipy.linalg.LinAlgError, which *is*
            # np.linalg.LinAlgError, satisfying the contract.
            factors[index] = self._linalg.cholesky(
                stack[index], lower=True, check_finite=False
            )
        return factors

    def matmul_into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        # The coloring multiply is numpy's BLAS gufunc either way; writing
        # into ``out`` keeps the scipy backend on the fused execute path.
        return np.matmul(a, b, out=out)

    def fft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        # scipy.fft and np.fft are both pocketfft: bit-identical per slice,
        # so the bitwise guarantee (and the shared cache namespace of the
        # evd driver) extends to the Doppler substrate.
        return self._fft.fft(array, axis=axis)

    def ifft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        # scipy.fft has no out= parameter; ifft_into stays on the base
        # class's copying fallback (bit-identical, one extra copy).
        return self._fft.ifft(array, axis=axis)

    def __reduce__(self):
        # The held scipy.linalg module is not picklable; reduce to the
        # constructor arguments so instances can cross process boundaries
        # (Simulator's parallel runs ship the backend to workers).
        return (type(self), (self.driver,))


class CupyBackend(LinalgBackend):  # pragma: no cover - requires a GPU runtime
    """GPU backend on cupy, gated on import.

    Stacks are transferred to the device, decomposed with cusolver, and
    transferred back.  Device math is not bit-identical to LAPACK on the
    host, so parity against the numpy backend is only guaranteed within
    :attr:`tolerance` — and the backend is cached under its own namespace.
    """

    name = "cupy"
    tolerance: Optional[float] = 1e-8

    def __init__(self) -> None:
        try:
            import cupy
        except ImportError as exc:
            raise BackendError(
                "the 'cupy' backend requires cupy, which is not installed"
            ) from exc
        self._cupy = cupy

    def eigh(self, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        cp = self._cupy
        device = cp.asarray(stack)
        values = cp.empty(stack.shape[:2], dtype=cp.float64)
        vectors = cp.empty(stack.shape, dtype=device.dtype)
        for index in range(stack.shape[0]):
            values[index], vectors[index] = cp.linalg.eigh(device[index])
        return cp.asnumpy(values), cp.asnumpy(vectors)

    def cholesky(self, stack: np.ndarray) -> np.ndarray:
        cp = self._cupy
        factors = cp.linalg.cholesky(cp.asarray(stack))
        host = cp.asnumpy(factors)
        if not np.all(np.isfinite(host)):
            # cusolver signals failure through NaNs rather than raising.
            raise np.linalg.LinAlgError("matrix is not positive definite")
        return host

    def __reduce__(self):
        return (type(self), ())

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        cp = self._cupy
        return cp.asnumpy(cp.matmul(cp.asarray(a), cp.asarray(b)))

    def fft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        cp = self._cupy
        return cp.asnumpy(cp.fft.fft(cp.asarray(array), axis=axis))

    def ifft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        # cuFFT is not bit-identical to pocketfft; parity only within
        # :attr:`tolerance`, like the decompositions.
        cp = self._cupy
        return cp.asnumpy(cp.fft.ifft(cp.asarray(array), axis=axis))


class TorchBackend(LinalgBackend):  # pragma: no cover - requires torch
    """Torch backend (CPU or GPU), gated on import.

    Uses ``torch.linalg`` batched kernels in double precision and converts
    results back to numpy.  Carries an elementwise tolerance, not the
    bitwise guarantee.
    """

    name = "torch"
    tolerance: Optional[float] = 1e-8

    def __init__(self, device: Optional[str] = None) -> None:
        try:
            import torch
        except ImportError as exc:
            raise BackendError(
                "the 'torch' backend requires torch, which is not installed"
            ) from exc
        self._torch = torch
        self.device = device or ("cuda" if torch.cuda.is_available() else "cpu")

    def _to_device(self, array: np.ndarray):
        return self._torch.as_tensor(np.ascontiguousarray(array), device=self.device)

    def eigh(self, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        values, vectors = self._torch.linalg.eigh(self._to_device(stack))
        return values.cpu().numpy(), vectors.cpu().numpy()

    def cholesky(self, stack: np.ndarray) -> np.ndarray:
        try:
            factors = self._torch.linalg.cholesky(self._to_device(stack))
        except Exception as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc
        return factors.cpu().numpy()

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._torch.matmul(self._to_device(a), self._to_device(b)).cpu().numpy()

    def fft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        return self._torch.fft.fft(self._to_device(array), dim=axis).cpu().numpy()

    def ifft(self, array: np.ndarray, axis: int = -1) -> np.ndarray:
        # torch's FFT is not guaranteed bit-identical to pocketfft; parity
        # only within :attr:`tolerance`, like the decompositions.
        return self._torch.fft.ifft(self._to_device(array), dim=axis).cpu().numpy()

    def __reduce__(self):
        return (type(self), (self.device,))


# --------------------------------------------------------------------- #
# Host BLAS threads
# --------------------------------------------------------------------- #

#: ``(get, set)`` thread-count symbols of the OpenBLAS builds numpy and
#: scipy bundle (the scipy-openblas wheels prefix and suffix every symbol).
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_BLAS_LOCK = threading.Lock()
#: Number of callers inside :func:`one_blas_thread`; the first one in sets
#: every OpenBLAS to one thread, the last one out restores ``_BLAS_SAVED``.
_BLAS_HOLDERS = 0
#: ``(set, original count)`` per OpenBLAS while the count is held.
_BLAS_SAVED: List[Tuple[Callable[[int], None], int]] = []
#: The thread-count controls, found once on first use (``None`` before).
_BLAS_CONTROLS: Optional[List[Tuple[Callable[[], int], Callable[[int], None]]]] = None


def _openblas_controls() -> List[Tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get, set)`` thread-count functions of every OpenBLAS in the process.

    Found through ``/proc/self/maps`` and ``ctypes``; empty where there is
    no such file or no OpenBLAS is loaded, which makes the guard a no-op.
    """
    try:
        with open("/proc/self/maps", encoding="utf8") as handle:
            paths = sorted(
                {line.split()[-1] for line in handle if "openblas" in line.lower()}
            )
    except OSError:
        return []
    controls: List[Tuple[Callable[[], int], Callable[[int], None]]] = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is not None and setter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                controls.append((getter, setter))
                break
    return controls


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold the process's OpenBLAS at one thread while the block runs.

    Refcounted under a lock: concurrent holders (service dispatch slots,
    ``Simulator.submit`` threads) share one held region, and the original
    thread counts come back only when the last holder leaves.
    """
    global _BLAS_CONTROLS, _BLAS_HOLDERS
    with _BLAS_LOCK:
        if _BLAS_HOLDERS == 0:
            if _BLAS_CONTROLS is None:
                _BLAS_CONTROLS = _openblas_controls()
            for getter, setter in _BLAS_CONTROLS:
                _BLAS_SAVED.append((setter, getter()))
                setter(1)
        _BLAS_HOLDERS += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _BLAS_HOLDERS -= 1
            if _BLAS_HOLDERS == 0:
                for setter, count in _BLAS_SAVED:
                    setter(count)
                _BLAS_SAVED.clear()


def _after_fork_in_child() -> None:
    """A forked child has none of its parent's holders: restore and reset."""
    global _BLAS_LOCK, _BLAS_HOLDERS
    _BLAS_LOCK = threading.Lock()
    with _BLAS_LOCK:
        for setter, count in _BLAS_SAVED:
            setter(count)
        _BLAS_SAVED.clear()
        _BLAS_HOLDERS = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

_REGISTRY: Dict[str, Callable[[], LinalgBackend]] = {}
_INSTANCES: Dict[str, LinalgBackend] = {}
_LOCK = threading.Lock()


def register_backend(
    name: str, factory: Callable[[], LinalgBackend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    The factory is called lazily on first :func:`get_backend` lookup and may
    raise :class:`repro.exceptions.BackendError` for missing dependencies —
    which is how the GPU backends stay registered but unavailable on
    CPU-only hosts.
    """
    if not name or not isinstance(name, str):
        raise BackendError(f"backend name must be a non-empty string, got {name!r}")
    with _LOCK:
        if name in _REGISTRY and not replace:
            raise BackendError(
                f"backend {name!r} is already registered; pass replace=True to override"
            )
        _REGISTRY[name] = factory
        _INSTANCES.pop(name, None)


def get_backend(spec: BackendSpec = None) -> LinalgBackend:
    """Resolve a backend name (or instance, or ``None``) to an instance.

    Instances are memoized per name, so every engine asking for ``"numpy"``
    shares one stateless backend object.

    Raises
    ------
    BackendError
        For unregistered names, or when the backend's dependency is missing
        (the underlying cause is chained).
    """
    if spec is None:
        spec = "numpy"
    if isinstance(spec, LinalgBackend):
        return spec
    if not isinstance(spec, str):
        raise BackendError(
            f"backend must be a name, a LinalgBackend instance, or None; got "
            f"{type(spec).__name__}"
        )
    with _LOCK:
        instance = _INSTANCES.get(spec)
        if instance is not None:
            return instance
        factory = _REGISTRY.get(spec)
        registered = sorted(_REGISTRY)
    if factory is None:
        raise BackendError(
            f"unknown backend {spec!r}; registered backends: {registered}"
        )
    instance = factory()  # may raise BackendError for missing dependencies
    with _LOCK:
        return _INSTANCES.setdefault(spec, instance)


#: Alias used by the engine internals where ``None`` means "numpy default".
resolve_backend = get_backend


def available_backends() -> List[str]:
    """Names of registered backends whose dependencies import successfully.

    Backends are probed by construction; ones that raise
    :class:`BackendError` (e.g. cupy/torch on a CPU-only host) are simply
    omitted rather than raising.
    """
    with _LOCK:
        registered = sorted(_REGISTRY)
    names: List[str] = []
    for name in registered:
        try:
            get_backend(name)
        except BackendError:
            continue
        names.append(name)
    return names


register_backend("numpy", NumpyBackend)
register_backend("scipy", ScipyBackend)
register_backend("scipy-evr", lambda: ScipyBackend(driver="evr"))
register_backend("cupy", CupyBackend)
register_backend("torch", TorchBackend)
