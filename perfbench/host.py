"""Host fingerprint and the in-run numpy RNG floor."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

import numpy as np


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> Dict[str, Any]:
    info: Dict[str, Any] = {"vendor": "unknown", "threads": None}
    try:
        config = np.show_config(mode="dicts")
        info["vendor"] = config["Build Dependencies"]["blas"]["name"]
    except Exception:  # numpy builds differ in what they expose
        pass
    # OpenBLAS reports its thread pool through an exported C function.
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                info["threads"] = int(function())
                return info
    return info


def _git_commit(root: Path) -> str:
    """The commit a git checkout is at, read from ``.git`` without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint(root: Path) -> Dict[str, Any]:
    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = _blas()
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas["vendor"],
        "blas_threads": blas["threads"],
        "git_commit": _git_commit(root),
    }


def rng_floor(repeats: int = 15, size: int = 1 << 20) -> float:
    """Single-thread ``standard_normal(out=)`` fill rate, in complex samples/s.

    A complex Gaussian sample takes two normals, so this is half the
    normal fill rate: no generator in the program can deliver samples
    faster than this from numpy's default bit generator.
    """
    rng = np.random.default_rng(0)
    out = np.empty(size)
    rng.standard_normal(out=out)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        rng.standard_normal(out=out)
        times.append(time.perf_counter() - start)
    return size / 2 / statistics.median(times)


class Calibration:
    """A fixed kernel whose time tracks the host's current speed.

    Shared hosts drift by tens of percent within a minute, and the
    program's ops drift with them.  The benchmark times this kernel right
    before every op and setup, and scales the op's time by ``NOMINAL_S /
    kernel time`` (the mean of the kernel before it and the kernel before
    the next op): the op's time at the host speed under which the kernel
    takes ``NOMINAL_S``.  No kernel runs right after an op: each runs after
    the previous op's untimed output check, the next op's input draw and a
    file-system flush, so work the program leaves behind an op (unflushed
    writes, threads winding down) has settled before the kernel runs and
    does not make the op read faster.  The kernel calls no program code.
    It weighs CPU work (numpy normal fill, a pure-Python loop, small numpy
    calls, a stacked ``eigh``) and system calls (opening and reading a
    small cached file) equally, the two kinds of work the program's ops
    mix; either kind alone tracked the ops less well.  With
    ``files``, for ops that mostly write and read small files, a third
    part writes 20 small npz files the way the program's artifact store
    does (``mkstemp``, ``savez``, ``os.replace``) and reads them back: the
    file system's speed drifts apart from the CPU's.
    """

    #: Kernel time on the reference host (2-vCPU Intel Xeon VM, Python
    #: 3.11, numpy 2.4 with OpenBLAS, ext4) in its fast phase.
    NOMINAL_S = 0.001
    #: Time of the file part alone on the reference host in its fast phase.
    NOMINAL_FILES_S = 0.002
    #: Share of the file part in the kernel's log time.  In the host's slow
    #: file-system phases the file part slows several times more than a
    #: ``sweep-cold`` op does; at this share the op's scaled p50 spread
    #: 0.02-0.03 (quartile distance over median) across ten runs, against
    #: 0.15 with no file part and 0.09 at an equal third.
    FILES_WEIGHT = 1 / 6

    def __init__(self, work: Path, *, files: bool = False) -> None:
        rng = np.random.default_rng(0)
        self._rng = rng
        self._fill = np.empty(1 << 17)
        self._small = np.ones(8)
        self._small_out = np.empty(8)
        a = rng.standard_normal((64, 8, 8)) + 1j * rng.standard_normal((64, 8, 8))
        self._stack = a + a.conj().transpose(0, 2, 1)
        self._file = work / "calibration.bin"
        self._file.write_bytes(bytes(4096))
        self._files = files
        self._folders = 0
        self._work = work
        self._payload = rng.standard_normal(128)

    def _cpu_parts(self):
        small, out = self._small, self._small_out
        yield lambda: self._rng.standard_normal(out=self._fill)
        yield lambda: sum(i * i for i in range(20_000))
        yield lambda: [np.add(small, small, out=out) for _ in range(1500)]
        yield lambda: np.linalg.eigh(self._stack)

    def _syscalls(self) -> None:
        for _ in range(100):
            with open(self._file, "rb") as handle:
                handle.read()

    def _write_files(self) -> None:
        self._folders += 1
        folder = self._work / f"calibration-{self._folders}"
        folder.mkdir()
        for index in range(20):
            fd, name = tempfile.mkstemp(dir=folder, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, payload=self._payload)
            os.replace(name, folder / f"{index}.npz")
        for path in folder.iterdir():
            path.read_bytes()

    @staticmethod
    def _best_log(part) -> float:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        return math.log(best)

    def measure(self) -> float:
        """Geometric mean of the parts' times (each best of two).

        CPU and system calls weigh equally; the file part, when on, takes
        ``FILES_WEIGHT`` of the log time and enters relative to its own
        nominal time, so that ``NOMINAL_S`` stays the kernel's time at
        nominal speed.
        """
        cpu = [self._best_log(part) for part in self._cpu_parts()]
        log_kernel = (sum(cpu) / len(cpu) + self._best_log(self._syscalls)) / 2
        if self._files:
            nominal = math.log(self.NOMINAL_FILES_S / self.NOMINAL_S)
            files = self._best_log(self._write_files) - nominal
            log_kernel += self.FILES_WEIGHT * (files - log_kernel)
        return math.exp(log_kernel)

    def scale(self, kernels: Sequence[float]) -> float:
        """Factor taking a time measured amid these kernel times to nominal."""
        return self.NOMINAL_S / statistics.fmean(kernels)
