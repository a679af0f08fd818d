"""Plan partitioning and result reassembly for sharded sweeps.

A *shard* is one contiguous slice of a :class:`~repro.engine.SimulationPlan`
executed by an independent worker process against a shared artifact
``cache_dir`` (see :mod:`repro.shard.runner`).  This module owns the three
pure pieces of that story:

* :func:`partition_plan` — split a plan into at most ``n_shards``
  contiguous :class:`PlanSlice`\\ s (the same balanced-counts contract as
  :meth:`SimulationPlan.partition`), each remembering where its entries
  live in the original plan;
* :func:`slice_to_payload` / :func:`slice_from_payload` — serialize a
  slice as plain JSON by *reusing the serving layer's wire encoding*
  (:func:`repro.service.protocol.plan_to_payload`), so per-entry seeds
  (``None``, ints, and live numpy Generators), labels, Doppler specs and
  fading specs all round-trip bit-exactly and a decoded slice hashes to
  the same compiled-plan cache key as the in-process original;
* :func:`merge_results` — reassemble per-shard :class:`BatchResult`\\ s
  into one plan-ordered result with summed :class:`CompileReport`
  counters, restamping whole-plan ``plan_index`` metadata.

Because slices are contiguous and the compiled-plan cache key folds every
entry's decomposition key, Doppler tuple and ``fading_token`` (but not
seeds or labels), two slices of the same plan get *distinct* plan-tier
entries and never collide with an unrelated plan — key purity is
regression-tested by ``tests/unit/test_shard.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..engine import CompileReport, SimulationPlan
from ..engine.result import BatchResult
from ..exceptions import SpecificationError
from ..service.protocol import PROTOCOL_VERSION, plan_from_payload, plan_to_payload
from ..types import GaussianBlock

__all__ = [
    "PlanSlice",
    "partition_plan",
    "slice_to_payload",
    "slice_from_payload",
    "merge_compile_reports",
    "merge_results",
]


@dataclass(frozen=True)
class PlanSlice:
    """One contiguous shard of a plan, addressable back into the original.

    Attributes
    ----------
    index:
        Shard number in ``[0, n_shards)``.
    n_shards:
        How many slices the plan was partitioned into (after dropping
        empties; see :func:`partition_plan`).
    start:
        Index of this slice's first entry in the *original* plan, so a
        merged result can restore whole-plan ``plan_index`` metadata.
    plan:
        The sub-plan holding this slice's entries, order preserved.
    """

    index: int
    n_shards: int
    start: int
    plan: SimulationPlan

    @property
    def n_entries(self) -> int:
        """Number of plan entries in this slice."""
        return len(self.plan)


def partition_plan(plan: SimulationPlan, n_shards: int) -> List[PlanSlice]:
    """Split ``plan`` into at most ``n_shards`` contiguous slices.

    Entry order is preserved, slice sizes differ by at most one, and empty
    slices are dropped — identical to :meth:`SimulationPlan.partition`,
    which this wraps — so partitioning a 5-entry plan 8 ways yields 5
    one-entry slices, never empty workers.
    """
    if n_shards < 1:
        raise SpecificationError(f"n_shards must be >= 1, got {n_shards}")
    if len(plan) == 0:
        raise SpecificationError("cannot partition an empty plan")
    subplans = plan.partition(n_shards)
    slices: List[PlanSlice] = []
    start = 0
    for index, subplan in enumerate(subplans):
        slices.append(
            PlanSlice(index=index, n_shards=len(subplans), start=start, plan=subplan)
        )
        start += len(subplan)
    return slices


def slice_to_payload(plan_slice: PlanSlice, n_samples: int) -> Dict[str, Any]:
    """Encode one slice (plus the run's sample count) as a JSON-able dict.

    The entry list is exactly the serving layer's plan payload, so every
    guarantee of that encoding — bit-exact doubles, lossless seeds,
    fading/Doppler round-trip — carries over to shard workers.
    """
    return {
        "version": PROTOCOL_VERSION,
        "slice": {
            "index": int(plan_slice.index),
            "n_shards": int(plan_slice.n_shards),
            "start": int(plan_slice.start),
        },
        "plan": plan_to_payload(plan_slice.plan, n_samples),
    }


def slice_from_payload(payload: Dict[str, Any]) -> Tuple[PlanSlice, int]:
    """Decode a :func:`slice_to_payload` dict back to ``(slice, n_samples)``."""
    if not isinstance(payload, dict):
        raise SpecificationError("slice payload must be a JSON object")
    version = payload.get("version")
    if version != PROTOCOL_VERSION:
        raise SpecificationError(
            f"unsupported slice payload version {version!r} "
            f"(this runner speaks {PROTOCOL_VERSION})"
        )
    meta = payload.get("slice")
    if not isinstance(meta, dict):
        raise SpecificationError("slice payload needs a 'slice' object")
    try:
        index = int(meta["index"])
        n_shards = int(meta["n_shards"])
        start = int(meta["start"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecificationError(f"malformed slice metadata: {exc}") from exc
    plan, n_samples = plan_from_payload(payload.get("plan"))
    return PlanSlice(index=index, n_shards=n_shards, start=start, plan=plan), n_samples


def merge_compile_reports(reports: Sequence[CompileReport]) -> CompileReport:
    """Sum per-shard compile counters into one whole-plan report.

    Cache and dedup counters add (every shard compiled independently);
    ``compile_seconds`` is the maximum because the compiles ran
    concurrently.
    """
    if not reports:
        raise SpecificationError("cannot merge an empty report sequence")
    return CompileReport(
        n_entries=sum(r.n_entries for r in reports),
        n_groups=sum(r.n_groups for r in reports),
        n_unique_matrices=sum(r.n_unique_matrices for r in reports),
        cache_hits=sum(r.cache_hits for r in reports),
        cache_misses=sum(r.cache_misses for r in reports),
        compile_seconds=max(r.compile_seconds for r in reports),
        doppler_filters_built=sum(r.doppler_filters_built for r in reports),
        doppler_entries=sum(r.doppler_entries for r in reports),
        doppler_filter_cache_hits=sum(r.doppler_filter_cache_hits for r in reports),
        plan_cache_hits=sum(r.plan_cache_hits for r in reports),
        plan_memory_hits=sum(r.plan_memory_hits for r in reports),
        plan_inflight_hits=sum(r.plan_inflight_hits for r in reports),
    )


def merge_results(
    slices: Sequence[PlanSlice],
    partials: Sequence[BatchResult],
    *,
    n_samples: int,
    wall_seconds: float = 0.0,
    backend: str = "numpy",
) -> BatchResult:
    """Reassemble per-shard results into one plan-ordered :class:`BatchResult`.

    ``partials[k]`` must be the result of ``slices[k]``; slices may arrive
    in any order (they are sorted by ``start``) but must tile the original
    plan contiguously — a gap or overlap means a shard went missing and is
    an error, not a silent truncation.  Block metadata gets whole-plan
    ``plan_index`` values restored from each slice's ``start``.
    """
    if len(slices) != len(partials):
        raise SpecificationError(
            f"got {len(partials)} results for {len(slices)} slices"
        )
    if not slices:
        raise SpecificationError("cannot merge zero slices")
    ordered = sorted(zip(slices, partials), key=lambda pair: pair[0].start)
    cursor = 0
    blocks: List[GaussianBlock] = []
    for plan_slice, partial in ordered:
        if plan_slice.start != cursor:
            raise SpecificationError(
                f"slice {plan_slice.index} starts at entry {plan_slice.start}, "
                f"expected {cursor} (missing or overlapping shard)"
            )
        if len(partial.blocks) != plan_slice.n_entries:
            raise SpecificationError(
                f"slice {plan_slice.index} produced {len(partial.blocks)} blocks "
                f"for {plan_slice.n_entries} entries"
            )
        for offset, block in enumerate(partial.blocks):
            block.metadata["plan_index"] = plan_slice.start + offset
            blocks.append(block)
        cursor += plan_slice.n_entries
    report = merge_compile_reports([partial.compile_report for _, partial in ordered])
    return BatchResult(
        blocks=tuple(blocks),
        n_samples=int(n_samples),
        compile_report=report,
        execute_seconds=float(wall_seconds),
        backend=backend,
    )
