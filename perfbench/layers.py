"""Where the traced run wraps the program, and the per-layer metrics it yields.

:func:`engine_points` lists the wrapped names, one group per layer; each
is the name the layer's caller looks up, so wrapping it sees every call.
:func:`op_aggregates` folds one op's spans into per-layer busy time, self
time, call counts and work counts; :func:`layer_metrics` turns the traced
ops of a run into the per-layer metrics of ``BENCHMARK.json``.
:data:`LAYER_METRICS` records, for each metric, the end-to-end metric and
workload it is expected to move.
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

from .trace import Point, Span, Tracer, self_times

#: Name of the root span the benchmark opens around each traced op.
OP_SPAN = "op"


def _size(shape: Any) -> int:
    if shape is None:
        return 1
    if isinstance(shape, int):
        return shape
    return int(math.prod(shape))


class TimedGenerator:
    """A numpy ``Generator`` stand-in whose ``standard_normal`` is a span.

    The Doppler kernel draws through ``ensure_rng(rng).standard_normal``;
    wrapping ``ensure_rng`` to return this proxy times those draws without
    touching the generator or its stream.
    """

    __slots__ = ("_rng", "_tracer")

    def __init__(self, tracer: Tracer, rng: Any) -> None:
        self._tracer = tracer
        self._rng = rng

    def standard_normal(self, *args: Any, **kwargs: Any) -> Any:
        size = kwargs.get("size", args[0] if args else None)
        with self._tracer.span("random.draw") as index:
            result = self._rng.standard_normal(*args, **kwargs)
        self._tracer.spans[index].counts["normals"] = _size(size)
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._rng, name)


def _compile_counts(args: tuple, kwargs: dict, compiled: Any) -> Dict[str, float]:
    report = compiled.report
    counts = {
        "n_entries": report.n_entries,
        "n_unique_matrices": report.n_unique_matrices,
        "plan_cache_hits": report.plan_cache_hits,
        "plan_memory_hits": report.plan_memory_hits,
    }
    if not report.plan_cache_hits:
        # A plan-tier hit never probed the decomposition or filter caches.
        counts.update(
            decomp_hits=report.cache_hits,
            decomp_misses=report.cache_misses,
            filters_resolved=report.doppler_filters_built,
            filter_hits=report.doppler_filter_cache_hits,
        )
    return counts


def _matmul_counts(args: tuple, kwargs: dict, out: Any) -> Dict[str, float]:
    a = args[1]
    # A complex multiply-add is 8 real flops: (B, N, N) @ (B, N, n).
    return {"gflop": 8.0 * a.size * out.shape[-1] / 1e9}


def engine_points() -> List[Point]:
    """The in-process layers: plan, compile, caches, execute and below."""
    return [
        Point("repro.engine.plan:SimulationPlan", "add", "plan.add"),
        Point("repro.engine.engine", "compile_plan", "compile", count=_compile_counts),
        Point(
            "repro.core.coloring",
            "compute_coloring_batch",
            "compile.decompose",
            count=lambda a, k, r: {"matrices": len(a[0])},
        ),
        Point("repro.engine.plancache:CompiledPlanCache", "lookup", "cache.plan_lookup"),
        Point("repro.engine.store:ArtifactStore", "put", "store.put"),
        Point("repro.engine.store:ArtifactStore", "lookup", "store.lookup"),
        Point("repro.engine.engine", "execute_plan", "execute"),
        Point(
            "repro.engine.execute",
            "complex_gaussian",
            "random.draw",
            count=lambda a, k, r: {"normals": 2 * r.size},
        ),
        Point("repro.channels.idft_generator", "ensure_rng", proxy=TimedGenerator),
        Point("repro.engine.execute", "batched_doppler_blocks", "doppler.blocks"),
        Point("repro.engine.execute", "apply_fading_block", "fading.apply"),
        Point(
            "repro.engine.backends:NumpyBackend",
            "matmul_into",
            "backends.matmul",
            count=_matmul_counts,
        ),
        Point("repro.engine.backends:NumpyBackend", "ifft_into", "backends.ifft"),
        Point("repro.engine.backends:NumpyBackend", "eigh", "backends.eigh"),
    ]


def shard_points() -> List[Point]:
    """The parent-side shard layer (workers report through their metas).

    ``shard.wait`` spans a worker's life as the runner sees it: import,
    compile, execute and publish.
    """
    return [
        Point("repro.shard.runner", "partition_plan", "shard.partition"),
        Point("repro.shard.runner", "_spawn", "shard.spawn"),
        Point("repro.shard.runner", "_drain", "shard.wait"),
        Point("repro.shard.runner", "_load_output", "shard.load"),
        Point("repro.shard.runner", "merge_results", "shard.merge"),
    ]


def op_aggregates(spans: Sequence[Span]) -> Dict[str, Dict[str, Any]]:
    """Per op id: busy, self and call totals per span name, plus work counts.

    A span nested in a span of the same name (a backend method calling its
    own sibling) counts once, through the outer span.  A span with no
    parent (begun in a thread the layer started) counts as a child of its
    op's root span.
    """
    roots = {span.op: index for index, span in enumerate(spans) if span.name == OP_SPAN}
    spans = [
        dataclasses.replace(span, parent=roots[span.op])
        if span.parent is None and span.name != OP_SPAN and span.op in roots
        else span
        for span in spans
    ]
    selfs = self_times(spans)
    ops: Dict[str, Dict[str, Any]] = {}
    for index, span in enumerate(spans):
        if span.op is None:
            continue
        agg = ops.setdefault(
            span.op,
            {
                "busy": defaultdict(float),
                "self": defaultdict(float),
                "calls": defaultdict(int),
                "counts": defaultdict(float),
                "wall": 0.0,
                "layer_self": 0.0,
                "unaccounted": 0.0,
            },
        )
        for name, value in span.counts.items():
            agg["counts"][name] += value
        if span.name == OP_SPAN:
            agg["wall"] += span.duration
            agg["unaccounted"] += selfs[index]
            continue
        agg["layer_self"] += selfs[index]
        agg["self"][span.name] += selfs[index]
        if span.parent is not None and spans[span.parent].name == span.name:
            continue
        agg["busy"][span.name] += span.duration
        agg["calls"][span.name] += 1
    return ops


#: ``name -> (unit, better, moves)``: ``moves`` names the end-to-end metric
#: and workload a change to this layer is expected to move.
LAYER_METRICS: Dict[str, tuple] = {
    "plan.build_s": ("s", "lower", "latency_p50_ms on sweep-cold; ~0 on bulk-execute"),
    "plan.entries": ("count", "higher", "none (work count of plan.build_s)"),
    "compile.calls": ("count", "lower", "latency_p50_ms on sweep-cold"),
    "compile.busy_s": ("s", "lower", "latency_p50_ms on sweep-cold; setup_s on bulk-execute"),
    "compile.self_s": ("s", "lower", "latency_p50_ms on sweep-cold"),
    "compile.decompose_s": ("s", "lower", "latency_p50_ms on sweep-cold"),
    "compile.matrices_decomposed": ("count", "lower", "latency_p50_ms on sweep-cold"),
    "compile.dedup_ratio": ("ratio", "lower", "latency_p50_ms on sweep-cold"),
    "cache.plan_lookup_s": ("s", "lower", "latency_p50_ms on sweep-cold (warm rerun); latency_p50_ms on serve-http"),
    "cache.plan_hit_ratio": ("ratio", "higher", "latency_p50_ms on sweep-cold; samples_per_s on shard-sweep"),
    "cache.plan_memory_hit_ratio": ("ratio", "higher", "latency_p50_ms on serve-http"),
    "cache.decomp_hit_ratio": ("ratio", "higher", "latency_p50_ms on serve-http"),
    "cache.filter_hit_ratio": ("ratio", "higher", "setup_s on bulk-execute"),
    "store.put_s": ("s", "lower", "latency_p50_ms on sweep-cold (cold writes)"),
    "store.lookup_s": ("s", "lower", "latency_p50_ms on sweep-cold (warm reads)"),
    "store.disk_hits": ("count", "higher", "latency_p50_ms on sweep-cold; samples_per_s on shard-sweep"),
    "store.disk_misses": ("count", "lower", "latency_p50_ms on sweep-cold"),
    "store.corruptions": ("count", "lower", "none (must stay 0)"),
    "store.bytes_on_disk": ("B", "lower", "latency_p50_ms on sweep-cold"),
    "execute.calls": ("count", "lower", "samples_per_s on bulk-execute"),
    "execute.busy_s": ("s", "lower", "samples_per_s and latency_p50_ms on bulk-execute; little on sweep-cold"),
    "execute.self_s": ("s", "lower", "samples_per_s on bulk-execute"),
    "execute.rng_floor_ratio": ("ratio", "higher", "samples_per_s on bulk-execute"),
    "random.draw_s": ("s", "lower", "samples_per_s on bulk-execute and shard-sweep"),
    "random.normals_drawn": ("count", "lower", "samples_per_s on bulk-execute"),
    "random.draw_share": ("ratio", "lower", "samples_per_s on bulk-execute"),
    "random.floor_samples_per_s": ("samples/s", "higher", "none (host RNG floor)"),
    "backends.matmul_s": ("s", "lower", "samples_per_s on bulk-execute"),
    "backends.matmul_gflop_computed": ("Gflop", "lower", "samples_per_s on bulk-execute"),
    "backends.matmul_gflops": ("Gflop/s", "higher", "samples_per_s on bulk-execute"),
    "backends.ifft_s": ("s", "lower", "samples_per_s on bulk-execute"),
    "backends.eigh_s": ("s", "lower", "latency_p50_ms on sweep-cold"),
    "doppler.blocks_s": ("s", "lower", "samples_per_s on bulk-execute"),
    "fading.apply_s": ("s", "lower", "samples_per_s on bulk-execute"),
    "service.submit_ms": ("ms", "lower", "latency_p50_ms on serve-http"),
    "service.wait_ms": ("ms", "lower", "latency_p50_ms and latency_tail_ms on serve-http"),
    "service.transfer_ms": ("ms", "lower", "latency_p50_ms on serve-http"),
    "service.decode_ms": ("ms", "lower", "latency_p50_ms on serve-http"),
    "service.encode_s": ("s", "lower", "latency_p50_ms and samples_per_s on serve-http"),
    "service.run_s": ("s", "lower", "latency_p50_ms, latency_tail_ms (fresh half) and samples_per_s on serve-http"),
    "service.queue_wait_ms": ("ms", "lower", "latency_tail_ms on serve-http"),
    "service.coalesced_ratio": ("ratio", "higher", "samples_per_s on serve-http"),
    "service.rejected": ("count", "lower", "samples_per_s on serve-http"),
    "service.flights": ("count", "lower", "samples_per_s on serve-http"),
    "shard.partition_s": ("s", "lower", "latency_p50_ms on shard-sweep"),
    "shard.merge_s": ("s", "lower", "latency_p50_ms on shard-sweep"),
    "shard.spawn_s": ("s", "lower", "latency_p50_ms on shard-sweep"),
    "shard.wait_s": ("s", "lower", "latency_p50_ms on shard-sweep"),
    "shard.load_s": ("s", "lower", "latency_p50_ms on shard-sweep"),
    "shard.worker_compile_s": ("s", "lower", "samples_per_s on shard-sweep"),
    "shard.worker_execute_s": ("s", "lower", "samples_per_s on shard-sweep"),
    "shard.overhead_s": ("s", "lower", "samples_per_s and latency_p50_ms on shard-sweep"),
    "shard.bytes_published": ("B", "lower", "samples_per_s on shard-sweep"),
    "shard.plan_hit_ratio": ("ratio", "higher", "samples_per_s on shard-sweep"),
    "trace.overhead_ratio": ("ratio", "lower", "none (cost of tracing)"),
    "trace.op_wall_s": ("s", "lower", "none (traced op wall time)"),
    "trace.self_s_sum": ("s", "lower", "none (summed self time of all layer spans)"),
    "trace.unaccounted_ratio": ("ratio", "lower", "none (op time no layer span covers)"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: Sequence[float]) -> float:
    return _ratio(sum(values), len(values))


def layer_metrics(
    ops: Sequence[Dict[str, Any]],
    *,
    untraced_mean_latency: float,
    untraced_samples_per_s: float,
    rng_floor: float,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics from the aggregates of a run's traced ops.

    Times and counts are per-op means (ops alternate between cheap and
    expensive work on some workloads, so a median would hide the
    expensive kind); ratios are taken over the run's totals.  ``extra`` supplies metrics read from stats objects outside
    the spans (``/v1/metrics``, shard metas) and overrides the rest.
    """

    def per_op(kind: str, name: str, scale: float = 1.0) -> float:
        return scale * tot(kind, name) / len(ops) if ops else 0.0

    def tot(kind: str, name: str) -> float:
        return float(sum(op[kind].get(name, 0.0) for op in ops))

    walls = [op["wall"] for op in ops]
    metrics = {
        "plan.build_s": per_op("busy", "plan.add"),
        "plan.entries": per_op("calls", "plan.add"),
        "compile.calls": per_op("calls", "compile"),
        "compile.busy_s": per_op("busy", "compile"),
        "compile.self_s": per_op("self", "compile"),
        "compile.decompose_s": per_op("busy", "compile.decompose"),
        "compile.matrices_decomposed": per_op("counts", "matrices"),
        "compile.dedup_ratio": _ratio(
            tot("counts", "n_unique_matrices"), tot("counts", "n_entries")
        ),
        "cache.plan_lookup_s": per_op("busy", "cache.plan_lookup"),
        "cache.plan_hit_ratio": _ratio(
            tot("counts", "plan_cache_hits"), tot("calls", "compile")
        ),
        "cache.plan_memory_hit_ratio": _ratio(
            tot("counts", "plan_memory_hits"), tot("calls", "compile")
        ),
        "cache.decomp_hit_ratio": _ratio(
            tot("counts", "decomp_hits"),
            tot("counts", "decomp_hits") + tot("counts", "decomp_misses"),
        ),
        "cache.filter_hit_ratio": _ratio(
            tot("counts", "filter_hits"), tot("counts", "filters_resolved")
        ),
        "store.put_s": per_op("busy", "store.put"),
        "store.lookup_s": per_op("busy", "store.lookup"),
        "store.disk_hits": per_op("counts", "store.disk_hits"),
        "store.disk_misses": per_op("counts", "store.disk_misses"),
        "store.corruptions": tot("counts", "store.corruptions"),
        "store.bytes_on_disk": per_op("counts", "store.bytes_on_disk"),
        "execute.calls": per_op("calls", "execute"),
        "execute.busy_s": per_op("busy", "execute"),
        "execute.self_s": per_op("self", "execute"),
        "execute.rng_floor_ratio": _ratio(untraced_samples_per_s, rng_floor),
        "random.draw_s": per_op("busy", "random.draw"),
        "random.normals_drawn": per_op("counts", "normals"),
        "random.draw_share": _ratio(tot("busy", "random.draw"), tot("busy", "execute")),
        "random.floor_samples_per_s": rng_floor,
        "backends.matmul_s": per_op("busy", "backends.matmul"),
        "backends.matmul_gflop_computed": per_op("counts", "gflop"),
        "backends.matmul_gflops": _ratio(tot("counts", "gflop"), tot("busy", "backends.matmul")),
        "backends.ifft_s": per_op("busy", "backends.ifft"),
        "backends.eigh_s": per_op("busy", "backends.eigh"),
        "doppler.blocks_s": per_op("busy", "doppler.blocks"),
        "fading.apply_s": per_op("busy", "fading.apply"),
        "service.submit_ms": per_op("busy", "service.submit", 1e3),
        "service.wait_ms": per_op("busy", "service.wait", 1e3),
        "service.transfer_ms": per_op("busy", "service.transfer", 1e3),
        "service.decode_ms": per_op("busy", "service.decode", 1e3),
        "service.encode_s": per_op("busy", "service.encode"),
        "service.run_s": per_op("busy", "service.run"),
        "service.queue_wait_ms": _mean(
            [
                1e3 * (op["busy"]["service.wait"] - op["busy"]["service.run"])
                for op in ops
                if op["busy"].get("service.run")
            ]
        ),
        "service.coalesced_ratio": 0.0,
        "service.rejected": 0.0,
        "service.flights": 0.0,
        "shard.partition_s": per_op("busy", "shard.partition"),
        "shard.merge_s": per_op("busy", "shard.merge"),
        "shard.spawn_s": per_op("busy", "shard.spawn"),
        "shard.wait_s": per_op("busy", "shard.wait"),
        "shard.load_s": per_op("busy", "shard.load"),
        "shard.worker_compile_s": per_op("counts", "shard.worker_compile_s"),
        "shard.worker_execute_s": per_op("counts", "shard.worker_execute_s"),
        "shard.overhead_s": _mean(
            [
                op["wall"]
                - op["busy"]["shard.partition"]
                - op["busy"]["shard.merge"]
                - op["counts"]["shard.critical_s"]
                for op in ops
                if op["counts"].get("shard.workers")
            ]
        ),
        "shard.bytes_published": per_op("counts", "shard.bytes_published"),
        "shard.plan_hit_ratio": _ratio(
            tot("counts", "shard.plan_hits"), tot("counts", "shard.workers")
        ),
        "trace.overhead_ratio": _ratio(_mean(walls), untraced_mean_latency),
        "trace.op_wall_s": _mean(walls),
        "trace.self_s_sum": _mean([op["layer_self"] for op in ops]),
        "trace.unaccounted_ratio": _ratio(
            sum(op["unaccounted"] for op in ops), sum(walls)
        ),
    }
    metrics.update(extra or {})
    return metrics

