"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` is the separate traced run: every other op runs with span
wrappers installed (for ``serve-http``, against a second server that
installs them too), the per-layer metrics are computed from those ops,
and the untraced ops give ``trace.overhead_ratio``.

Times are reported at nominal host speed: a calibration kernel timed
right before every op and setup, after the untimed work that follows the
previous one, scales each measured time (see
:class:`perfbench.host.Calibration`).  Before each kernel the file
system is flushed (``os.sync()``), so the writes one op leaves in the
page cache are written back in the untimed gap, not during the next op.
The raw values are printed on the ``#`` lines.

The benchmark imports the program from ``src/`` of the current directory
and exits with code 2 when there is none.  Everything it writes goes to
``.perfbench_run/`` in the current directory, which it removes on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run stops starting ops after this long, whatever ``min_ops`` says.
HARD_LIMIT_S = 120.0


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _bootstrap(root: Path) -> bool:
    """Put the checkout's ``src`` and the benchmark package on the path."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent.parent)]
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + existing if existing else "")
    # Only caches the benchmark creates may act.
    os.environ.pop("REPRO_CACHE_DIR", None)
    return True


def _scales(calibration, kernels: List[float], n: int) -> List[float]:
    """Scale of each of ``n`` timed steps from the kernels timed before them.

    ``kernels[i]`` ran right before step ``i``; step ``i`` is scaled by it
    and ``kernels[i + 1]``, which ran after the untimed work that followed
    the step (the last step by whatever kernels there are).
    """
    return [calibration.scale(kernels[i : i + 2]) for i in range(n)]


def _setups(workload, calibration) -> Tuple[float, float]:
    """Median setup time: (at nominal host speed, as measured)."""
    raw, kernels = [], []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        os.sync()
        kernels.append(calibration.measure())
        start = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - start)
    scales = _scales(calibration, kernels, len(raw))
    scaled = [seconds * scale for seconds, scale in zip(raw, scales)]
    return statistics.median(scaled), statistics.median(raw)


def _loop(workload, seconds: float, calibration, tracer=None):
    """The closed loop of an in-process workload.

    With a tracer, odd ops run with the wrappers installed inside an
    ``op`` span; even ops run bare.  Returns the log and the op indices
    that were traced.
    """
    from perfbench.layers import OP_SPAN
    from perfbench.stats import OpLog

    log = OpLog()
    traced_ops: List[int] = []
    kernels: List[float] = []
    started = time.perf_counter()
    deadline = started + seconds
    index = 0
    while time.perf_counter() < deadline or log.attempted < workload.min_ops:
        if time.perf_counter() - started > HARD_LIMIT_S:
            break
        data = workload.inputs(index)
        traced = tracer is not None and index % 2 == 1
        op_id = f"op-{index}"
        span = None
        # Earlier ops' writes are flushed here, untimed, not in this op.
        os.sync()
        kernels.append(calibration.measure())
        if traced:
            tracer.install(workload.points())
            tracer.default_op = op_id
            workload.tracer = tracer
        start = time.perf_counter()
        try:
            if traced:
                span = tracer.begin(OP_SPAN, op_id)
            try:
                samples, check = workload.op(index, data)
            finally:
                if traced:
                    tracer.end(span)
        except Exception as exc:
            log.record_error(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
            index += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
                tracer.default_op = None
                workload.tracer = None
        taken = time.perf_counter() - start
        position = log.record(taken, samples)
        try:
            reason = check()
        except Exception as exc:
            reason = f"output check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            log.fail(position, reason)
        if traced:
            tracer.spans[span].counts.update(workload.op_counts())
            traced_ops.append(position)
        index += 1
    # The kernel the next op would have had before it.
    os.sync()
    kernels.append(calibration.measure())
    log.scales = _scales(calibration, kernels, log.attempted)
    return log, traced_ops


def _end_to_end(log, setup: Tuple[float, float], peak_rss_mb: float, busy: float) -> Dict[str, Any]:
    """The end-to-end metrics of a run; ``busy`` is its timed time at nominal speed."""
    from perfbench.stats import median, tail

    latencies = log.good_latencies
    tail_value = tail(latencies)
    raw_tail = tail(log.raw_latencies)
    notes = {
        "ops": len(latencies),
        "latency_tail_percentile": None if tail_value is None else tail_value[1],
        "latency_tail_beyond": None if tail_value is None else tail_value[2],
        "raw setup_s": setup[1],
        "raw latency_p50_ms": 1e3 * median(log.raw_latencies),
        "raw latency_tail_ms": None if raw_tail is None else 1e3 * raw_tail[0],
        "host speed scale (median)": median(log.scales),
    }
    metrics = {
        "setup_s": (setup[0], "s"),
        "samples_per_s": (log.good_samples / busy if busy else 0.0, "samples/s"),
        "latency_p50_ms": (1e3 * median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_value[0] if tail_value else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"metrics": metrics, "notes": notes}


def _run(workload, args, rng_floor: float, calibration):
    from perfbench.layers import layer_metrics, op_aggregates
    from perfbench.trace import Tracer, graft

    workload.prepare()
    setup = _setups(workload, calibration)
    workload.warm_up(bool(args.trace))
    tracer = Tracer() if args.trace else None
    log, traced = _loop(workload, args.seconds, calibration, tracer)
    counts = workload.layer_counts() if tracer is not None else {}
    # Child processes count towards peak RSS only once they are reaped.
    workload.teardown()
    peak = workload.peak_rss_mb()
    try:
        workload.finish(log)
    except Exception as exc:
        # The end-of-run check could not vouch for any op.
        for index in range(log.attempted):
            log.fail(index, f"end-of-run check raised {type(exc).__name__}: {exc}")
    result = _end_to_end(log, setup, peak, sum(log.good_latencies))
    if tracer is not None:
        traced_set = set(traced)
        # Traced and bare ops alternate, so raw times compare directly.
        bare = [
            (s, n)
            for i, (s, n, ok) in enumerate(zip(log.seconds, log.samples, log.good))
            if ok and i not in traced_set
        ]
        bare_time = sum(s for s, _ in bare)
        spans = graft(tracer.spans, workload.foreign_spans())
        result["layers"] = layer_metrics(
            list(op_aggregates(spans).values()),
            untraced_mean_latency=bare_time / len(bare) if bare else 0.0,
            untraced_samples_per_s=sum(n for _, n in bare) / bare_time if bare_time else 0.0,
            rng_floor=rng_floor,
            extra=counts,
        )
    return log, result


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not _bootstrap(root):
        print(f"perfbench: no src/repro under {root}; run from a source checkout", file=sys.stderr)
        return 2
    from perfbench.host import Calibration, fingerprint, rng_floor
    from perfbench.layers import LAYER_METRICS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = root / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    # Flush writes pending from earlier processes (a previous run's
    # deletions, say), so they do not land in this run's timed ops.
    os.sync()
    try:
        host = fingerprint(root)
        floor = rng_floor()
        workload = WORKLOADS[args.workload](args.seed, work)
        try:
            calibration = Calibration(work, files=workload.writes_files)
            log, result = _run(workload, args, floor, calibration)
        finally:
            # Stops a server or session an error left running (idempotent).
            workload.teardown()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
        os.sync()
    print("# host " + json.dumps(host, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: {workload.why}")
    print(
        f"# ops attempted {log.attempted} failed {log.failed} "
        f"error_rate {log.error_rate:.6f} ratio; rng floor {floor:.4g} samples/s"
    )
    for reason in log.failures[:5]:
        print(f"# failure: {reason}")
    if args.trace:
        metrics = {
            name: {"value": float(result["layers"][name]), "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS
        }
    else:
        for key, value in result["notes"].items():
            print(f"# {key} {value}")
        metrics = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        }
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": log.failed == 0,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
