"""Streaming (bounded-memory) and Monte-Carlo ensemble generation.

Long channel records and Monte-Carlo confidence studies are where the HPC
aspects of the library matter.  Both are calls on one
:class:`repro.api.Simulator` session.  This example shows

1. :meth:`Simulator.stream` streaming a long Doppler-shaped record block by
   block while accumulating running statistics, and
2. :meth:`Simulator.run` over a plan of independent replicas
   (:meth:`SimulationPlan.from_specs` derives one seed per replica) to put a
   confidence interval on the achieved covariance error.

To spread a large plan across processes, use :mod:`repro.shard`.

Run with::

    python examples/streaming_and_parallel.py
"""

from __future__ import annotations

import numpy as np

from repro.api import Simulator
from repro.core.statistics import covariance_match_report
from repro.engine import DopplerSpec, SimulationPlan
from repro.experiments import paper_values as pv


def streaming_demo(sim: Simulator) -> None:
    print("=" * 72)
    print("1. Streaming a long Doppler-shaped record with bounded memory")
    print("=" * 72)

    spec = pv.paper_ofdm_scenario().covariance_spec(np.ones(3))
    plan = SimulationPlan()
    plan.add(
        spec,
        seed=5,
        doppler=DopplerSpec(normalized_doppler=pv.NORMALIZED_DOPPLER, n_points=4096),
    )
    n_blocks = 16  # 16 x 4096 = 65536 samples per branch, never held at once

    n = spec.n_branches
    covariance = np.zeros((n, n), dtype=complex)
    power = np.zeros(n)
    mean = np.zeros(n)
    total = 0
    for batch in sim.stream(plan, block_size=4096, n_blocks=n_blocks):
        samples = batch.blocks[0].samples
        covariance += samples @ samples.conj().T
        envelopes = np.abs(samples)
        power += np.sum(envelopes**2, axis=1)
        mean += np.sum(envelopes, axis=1)
        total += samples.shape[1]

    print(f"accumulated {total} samples per branch over {n_blocks} chunks")
    print(f"running branch powers      : {np.round(power / total, 3)}")
    print(f"running envelope means     : {np.round(mean / total, 3)}")
    print(
        "max covariance deviation   : "
        f"{np.max(np.abs(covariance / total - spec.matrix)):.3f}"
    )


def ensemble_demo(sim: Simulator) -> None:
    print()
    print("=" * 72)
    print("2. Monte-Carlo ensemble of independent replicas")
    print("=" * 72)

    n_replicas, samples_per_replica = 8, 50_000
    plan = SimulationPlan.from_specs([pv.EQ22_COVARIANCE] * n_replicas, seed=123)
    result = sim.run(plan, samples_per_replica)
    reports = [
        covariance_match_report(block.samples, pv.EQ22_COVARIANCE)
        for block in result.blocks
    ]
    errors = np.array([report.relative_error for report in reports])
    pooled = sum(report.empirical for report in reports) / n_replicas

    print(f"replicas                   : {len(reports)}")
    print(f"samples per replica        : {samples_per_replica}")
    print(f"mean relative covariance error : {np.mean(errors):.4f}")
    print(f"worst replica error            : {np.max(errors):.4f}")
    print(
        "pooled covariance deviation    : "
        f"{np.max(np.abs(pooled - pv.EQ22_COVARIANCE)):.4f}"
    )


if __name__ == "__main__":
    with Simulator() as session:
        streaming_demo(session)
        ensemble_demo(session)
