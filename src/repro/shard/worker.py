"""The shard worker: one subprocess, one :class:`PlanSlice`, one engine run.

Launched by the runner as ``python -m repro.shard.worker <slice.json> --out
PREFIX [--cache-dir DIR] [--backend NAME]``.  The worker decodes its slice
payload, builds a private :class:`~repro.engine.SimulationEngine` whose
three cache tiers attach to the caller-supplied shared ``cache_dir`` (the
same configuration as ``Simulator(cache_dir=...)`` in :mod:`repro.api`), runs
the sub-plan through the ordinary batched ``run`` path, and publishes two
files:

* ``PREFIX.npz`` — every block's samples and variances, exact bytes;
* ``PREFIX.json`` — slice addressing, labels, the :class:`CompileReport`,
  and the per-tier cache counters the runner aggregates into its
  first-worker-compiles / rest-warm-hit report.

Both files are written to temporaries and published with
:func:`os.replace`; the ``.json`` goes last and acts as the commit marker,
so a worker killed mid-write never leaves output the runner could mistake
for a completed slice.  Progress lines go to stdout (one on start, one on
completion) for the runner to stream.

Crash-tolerance hook
--------------------
Setting ``REPRO_SHARD_KILL_SLICE=<index>`` makes the worker whose slice
matches SIGKILL itself *after* executing but *before* publishing — the
deterministic fault-injection point of the sharding suite (the subprocess
analogue of the ``FlakyBackend``/``FlakyStore`` fail-at-exactly-N harness
in ``tests/conftest.py``): the slice's compile artifacts are already in
the shared cache, its output is not, so a ``--retry-failed`` rerun must
recover bit-identically from the warm cache.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..engine import SimulationEngine
from ..engine.result import BatchResult
from .slicing import PlanSlice, slice_from_payload

__all__ = ["KILL_SLICE_ENV", "run_slice", "main"]

#: Fault-injection hook: the worker whose slice index matches SIGKILLs
#: itself between executing and publishing (see the module docs).
KILL_SLICE_ENV = "REPRO_SHARD_KILL_SLICE"


def run_slice(
    plan_slice: PlanSlice,
    n_samples: int,
    *,
    cache_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> Tuple[BatchResult, Dict[str, Any]]:
    """Execute one slice and return ``(result, meta)``.

    ``meta`` carries everything the runner needs without unpickling engine
    internals: slice addressing, labels, the compile report, and per-tier
    cache counters (decompositions / Doppler filters / compiled plans).
    """
    if cache_dir is None:
        engine = SimulationEngine(backend=backend)
    else:
        engine = SimulationEngine(backend=backend, cache_dir=cache_dir)
    result = engine.run(plan_slice.plan, n_samples)
    decomposition = engine.cache.stats
    filters = engine.filter_cache.stats
    plans = engine.plan_cache.stats
    meta: Dict[str, Any] = {
        "index": plan_slice.index,
        "n_shards": plan_slice.n_shards,
        "start": plan_slice.start,
        "n_entries": plan_slice.n_entries,
        "n_samples": int(n_samples),
        "backend": result.backend,
        "execute_seconds": float(result.execute_seconds),
        "labels": [entry.label for entry in plan_slice.plan],
        "compile_report": asdict(result.compile_report),
        "tiers": {
            "decompositions": {
                "hits": decomposition.hits,
                "misses": decomposition.misses,
                "disk_hits": decomposition.disk_hits,
                "disk_misses": decomposition.disk_misses,
                "disk_corruptions": decomposition.disk_corruptions,
            },
            "filters": {
                "hits": filters.hits,
                "misses": filters.misses,
                "disk_hits": filters.disk_hits,
                "disk_misses": filters.disk_misses,
                "disk_corruptions": filters.disk_corruptions,
            },
            "plans": {
                "memory_hits": plans.memory_hits,
                "disk_hits": plans.hits,
                "disk_misses": plans.misses,
                "disk_corruptions": plans.corruptions,
            },
        },
    }
    return result, meta


def _publish(path: Path, write_payload) -> None:
    """Write via a same-directory temporary and an atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write_payload(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_outputs(out_prefix: Path, result: BatchResult, meta: Dict[str, Any]) -> None:
    arrays: Dict[str, np.ndarray] = {}
    for offset, block in enumerate(result.blocks):
        arrays[f"samples_{offset}"] = block.samples
        arrays[f"variances_{offset}"] = np.asarray(block.variances)
    npz_path = out_prefix.with_name(out_prefix.name + ".npz")
    json_path = out_prefix.with_name(out_prefix.name + ".json")
    _publish(npz_path, lambda handle: np.savez(handle, **arrays))
    # The .json is the commit marker: it references the already-published
    # .npz, so the runner accepts the slice only once both are durable.
    _publish(
        json_path,
        lambda handle: handle.write(json.dumps(meta, sort_keys=True).encode("utf8")),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Worker entry point: decode, run, publish.  Returns an exit code."""
    parser = argparse.ArgumentParser(prog="repro-shard-worker")
    parser.add_argument("slice_path", type=Path, help="slice payload JSON file")
    parser.add_argument(
        "--out", type=Path, required=True, help="output path prefix (.npz/.json)"
    )
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--backend", default=None)
    args = parser.parse_args(argv)

    payload = json.loads(args.slice_path.read_text(encoding="utf8"))
    plan_slice, n_samples = slice_from_payload(payload)
    print(
        f"shard {plan_slice.index}/{plan_slice.n_shards}: start "
        f"entries={plan_slice.n_entries} n_samples={n_samples}",
        flush=True,
    )
    result, meta = run_slice(
        plan_slice, n_samples, cache_dir=args.cache_dir, backend=args.backend
    )
    if os.environ.get(KILL_SLICE_ENV, "") == str(plan_slice.index):
        # Die without cleanup between execute and publish (see module docs).
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    _write_outputs(args.out, result, meta)
    report = result.compile_report
    print(
        f"shard {plan_slice.index}/{plan_slice.n_shards}: done "
        f"entries={plan_slice.n_entries} "
        f"decomp_misses={report.cache_misses} "
        f"plan_hits={report.plan_cache_hits} "
        f"execute={result.execute_seconds:.3f}s",
        flush=True,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
