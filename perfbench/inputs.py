"""Seeded benchmark inputs: covariance matrices and the plans built on them.

Every covariance the benchmark feeds the program is generated here from
the workload seed — random Hermitian matrices with a unit diagonal, a
deliberate share of them not positive semidefinite — so the program only
ever receives plans.  The same seed gives the same matrices, entry seeds
and labels; a different seed gives different ones of the same shapes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

#: Normalized Doppler frequencies the Doppler entries cycle through.
DOPPLER_FREQUENCIES = (0.01, 0.02, 0.05, 0.1)


def correlation_matrix(rng: np.random.Generator, n: int, *, psd: bool = True) -> np.ndarray:
    """A random ``n x n`` Hermitian matrix with unit diagonal.

    PSD matrices are normalized Gram matrices of a complex Gaussian
    ``n x 2n`` draw.  Non-PSD ones take such a matrix and stretch its
    off-diagonal part until the smallest eigenvalue is clearly negative,
    so the program's PSD forcing always has work to do.
    """
    a = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
    gram = a @ a.conj().T
    scale = np.sqrt(np.real(np.diag(gram)))
    matrix = gram / np.outer(scale, scale)
    if not psd:
        off = matrix - np.eye(n)
        stretch = 1.5
        while True:
            candidate = np.eye(n) + stretch * off
            if np.linalg.eigvalsh(candidate)[0] < -0.05:
                matrix = candidate
                break
            stretch *= 1.25
    matrix = (matrix + matrix.conj().T) / 2
    np.fill_diagonal(matrix, 1.0)
    return matrix


def is_psd(matrix: np.ndarray) -> bool:
    """Whether ``matrix`` has no negative eigenvalue (beyond round-off)."""
    return bool(np.linalg.eigvalsh(matrix)[0] >= -1e-12)


def draw_entries(
    rng: np.random.Generator,
    n_entries: int,
    n_branches: int,
    *,
    doppler_every: int = 0,
    nonpsd_every: int = 0,
    n_points: int = 256,
    frequencies: Sequence[float] = DOPPLER_FREQUENCIES,
    label_prefix: str = "e",
) -> List[Dict[str, Any]]:
    """The inputs of ``n_entries`` plan entries, drawn from ``rng``.

    Entry ``i`` is a Doppler entry (``n_points``-point IDFT, cycling
    through ``frequencies``) when ``i % doppler_every == doppler_every - 1``
    and non-PSD when ``i % nonpsd_every == nonpsd_every - 1``.  Entry seeds
    are drawn from ``rng`` too.  Drawing is the benchmark's own work;
    :func:`to_plan` hands the result to the program.
    """
    entries = []
    n_doppler = 0
    for index in range(n_entries):
        nonpsd = bool(nonpsd_every) and index % nonpsd_every == nonpsd_every - 1
        doppler = None
        if doppler_every and index % doppler_every == doppler_every - 1:
            doppler = (frequencies[n_doppler % len(frequencies)], n_points)
            n_doppler += 1
        seed = int(rng.integers(0, 2**62))
        entries.append(
            {
                "matrix": correlation_matrix(rng, n_branches, psd=not nonpsd),
                "seed": seed,
                "doppler": doppler,
                "label": f"{label_prefix}{index}",
            }
        )
    return entries


def to_plan(entries: Sequence[Dict[str, Any]]):
    """Build a :class:`repro.engine.SimulationPlan` from drawn entries.

    An entry may carry a ``"fading"`` model (anything ``SimulationPlan.add``
    accepts); without one it is Rayleigh.
    """
    from repro.engine import DopplerSpec, SimulationPlan

    plan = SimulationPlan()
    for entry in entries:
        doppler = entry["doppler"]
        plan.add(
            entry["matrix"],
            seed=entry["seed"],
            doppler=None
            if doppler is None
            else DopplerSpec(normalized_doppler=doppler[0], n_points=doppler[1]),
            fading=entry.get("fading"),
            label=entry["label"],
        )
    return plan
