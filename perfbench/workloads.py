"""The four workloads: what one op is, how it is set up and how it is checked.

Each workload is a closed loop over the program's public surface.  The
runner (:mod:`perfbench.run`) times :meth:`Workload.op` only; input
drawing (:meth:`Workload.inputs`) and output checks (the callable an op
returns, and :meth:`Workload.finish`) run outside the timed interval.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
import http.client
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import inputs
from .layers import engine_points, shard_points
from .stats import OpLog
from .trace import Tracer

#: An op returns the samples it delivered and an untimed output check,
#: which returns a failure reason or ``None``.
OpResult = Tuple[int, Callable[[], Optional[str]]]


def digest(arrays: Sequence[np.ndarray]) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for array in arrays:
        hasher.update(repr((array.dtype.str, array.shape)).encode("ascii"))
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def child_peak_rss_mb() -> float:
    """Largest peak RSS among the waited-for child processes, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def live_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak RSS so far of a live process (``VmHWM``) in MB; ``None`` without ``/proc``."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def sample_count(blocks: Sequence[Any]) -> int:
    return int(sum(block.samples.size for block in blocks))


class Workload:
    """One seeded closed-loop workload.

    ``setup`` is timed as ``setup_s`` and repeated; each repeat replaces
    the previous one (``teardown`` runs in between).  ``prepare`` runs once,
    untimed, before the first setup.
    """

    name = ""
    why = ""
    #: The tracer while a traced op runs (``None`` otherwise), for spans
    #: the op records around its own calls into a layer.
    tracer: Optional[Tracer] = None
    #: Enough ops that a tail percentile with 10 ops beyond it exists.
    min_ops = 16
    #: Whether ops mostly write and read small files, so the calibration
    #: kernel does too (see :class:`perfbench.host.Calibration`).
    writes_files = False

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = int(seed)
        self.work = work

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def inputs(self, index: int) -> Any:
        return None

    def op(self, index: int, data: Any) -> OpResult:
        raise NotImplementedError

    def op_counts(self) -> Dict[str, float]:
        """Counters read from stats objects at the boundary of the last op."""
        return {}

    def warm_up(self, traced: bool) -> None:
        """Untimed work after the setups, before the first op."""

    def finish(self, log: OpLog) -> None:
        """End-of-run output checks; mark failed ops on ``log``."""

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer metrics read from stats objects after a traced loop."""
        return {}

    def foreign_spans(self) -> List[Dict[str, Any]]:
        """Span records another process wrote for this run's traced ops."""
        return []

    def points(self) -> list:
        return engine_points()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# ---------------------------------------------------------------------- #
# sweep-cold
# ---------------------------------------------------------------------- #
class SweepCold(Workload):
    name = "sweep-cold"
    why = (
        "fresh plans compiled cold into an empty cache_dir, then rerun warm: "
        "plan build, compile and the store dominate, execute is small"
    )
    n_entries = 256
    n_branches = 8
    n_samples = 256
    writes_files = True
    #: Plan indices compared against looped reference generators:
    #: snapshot, Doppler, non-PSD Doppler, last entry.
    checked = (0, 7, 15, 255)
    _last: Optional[Dict[str, float]] = None
    _sweeps = 0

    def _draw(self, *stream: int) -> List[Dict[str, Any]]:
        return inputs.draw_entries(
            self.rng(*stream),
            self.n_entries,
            self.n_branches,
            doppler_every=8,
            nonpsd_every=16,
            n_points=256,
        )

    def inputs(self, index: int) -> Any:
        return self._draw(1, index)

    def setup(self) -> None:
        samples, check = self.op(-1, self._draw(0))
        reason = check()
        if reason is not None:
            raise RuntimeError(f"warm-up sweep failed its check: {reason}")

    def op(self, index: int, data: Any) -> OpResult:
        from repro.api import Simulator

        # Every sweep (setups included) gets a new empty cache_dir; they are
        # deleted only with the run's work directory, after the timed loop.
        self._sweeps += 1
        cache_dir = self.work / f"sweep-{self._sweeps}"
        plan = inputs.to_plan(data)
        with Simulator(cache_dir=cache_dir) as cold_sim:
            cold = cold_sim.run(plan, self.n_samples)
        with Simulator(cache_dir=cache_dir) as warm_sim:
            warm = warm_sim.run(plan, self.n_samples)
        samples = sample_count(cold.blocks) + sample_count(warm.blocks)
        return samples, lambda: self._check(data, cache_dir, cold, warm, (cold_sim, warm_sim))

    def _check(self, data, cache_dir, cold, warm, sims) -> Optional[str]:
        from repro.core.generator import RayleighFadingGenerator
        from repro.core.realtime import RealTimeRayleighGenerator
        from repro.engine import DecompositionCache

        counts = {
            "store.disk_hits": 0,
            "store.disk_misses": 0,
            "store.corruptions": 0,
        }
        for sim in sims:
            engine = sim.engine
            decompositions = engine.cache.stats
            filters = engine.filter_cache.stats
            plans = engine.plan_cache.stats
            counts["store.disk_hits"] += decompositions.disk_hits + filters.disk_hits + plans.hits
            counts["store.disk_misses"] += (
                decompositions.disk_misses + filters.disk_misses + plans.misses
            )
            counts["store.corruptions"] += (
                decompositions.disk_corruptions + filters.disk_corruptions + plans.corruptions
            )
        counts["store.bytes_on_disk"] = dir_bytes(cache_dir)
        self._last = counts
        if counts["store.corruptions"]:
            return f"{counts['store.corruptions']} store corruptions"
        if warm.compile_report.plan_cache_hits != 1:
            return "warm rerun was not served by the compiled-plan tier"
        if not len(cold.blocks) == len(warm.blocks) == len(data):
            return (
                f"{len(cold.blocks)} cold and {len(warm.blocks)} warm blocks "
                f"for {len(data)} entries"
            )
        shape = (self.n_branches, self.n_samples)
        for index, (a, b) in enumerate(zip(cold.blocks, warm.blocks)):
            if a.samples.shape != shape or b.samples.shape != shape:
                return (
                    f"entry {index}: blocks of shape {a.samples.shape} and "
                    f"{b.samples.shape}, not {shape}"
                )
            if a.samples.tobytes() != b.samples.tobytes():
                return f"warm rerun differs from cold run at entry {index}"
        for index in self.checked:
            entry = data[index]
            block = cold.blocks[index]
            if entry["doppler"] is None:
                reference = RayleighFadingGenerator(
                    entry["matrix"], rng=entry["seed"], cache=DecompositionCache(maxsize=0)
                ).generate_gaussian(self.n_samples)
            else:
                frequency, n_points = entry["doppler"]
                reference = RealTimeRayleighGenerator(
                    entry["matrix"],
                    normalized_doppler=frequency,
                    n_points=n_points,
                    rng=entry["seed"],
                    cache=DecompositionCache(maxsize=0),
                ).generate_gaussian(math.ceil(self.n_samples / n_points))
            expected = reference.samples[:, : self.n_samples]
            if expected.tobytes() != block.samples.tobytes():
                return f"entry {index} differs from its looped reference generator"
        return None

    def op_counts(self) -> Dict[str, float]:
        return dict(self._last or {})


# ---------------------------------------------------------------------- #
# bulk-execute
# ---------------------------------------------------------------------- #
class BulkExecute(Workload):
    name = "bulk-execute"
    why = (
        "one plan compiled in setup, then 1500-sample blocks streamed: draws, "
        "coloring matmul, IDFT, fading and ring-buffer banking dominate"
    )
    block = 1500
    #: Entries whose streamed blocks are checked against a reference: a
    #: snapshot, a Rician Doppler and a Nakagami Doppler entry.
    checked = (0, 128, 160)
    #: Snapshot entries whose sample covariance is compared with K.
    covariance_checked = (1, 2, 3, 4)
    sim = None
    #: About 37% of ops (1500 / 4096) generate fresh IDFT blocks and take
    #: several times longer than the rest; with this many ops the tail
    #: percentile (10 ops beyond it) always lands among the slow ones.
    min_ops = 36

    def prepare(self) -> None:
        rng = self.rng(0)
        snapshot = inputs.draw_entries(rng, 128, 16, label_prefix="s")
        rician = inputs.draw_entries(
            rng, 32, 8, doppler_every=1, nonpsd_every=16, n_points=4096, label_prefix="r"
        )
        nakagami = inputs.draw_entries(
            rng, 32, 8, doppler_every=1, nonpsd_every=16, n_points=4096, label_prefix="n"
        )
        for entry in rician:
            entry["fading"] = {"model": "rician", "shape": 4.0}
        for entry in nakagami:
            entry["fading"] = {"model": "nakagami", "shape": 2.0}
        self.entries = snapshot + rician + nakagami

    def setup(self) -> None:
        from repro.api import Simulator
        from repro.engine import DecompositionCache

        # A private decomposition cache keeps every repeat's compile cold
        # (the process-wide Doppler filter cache stays warm after the first).
        self.sim = Simulator(cache=DecompositionCache())
        self.plan = inputs.to_plan(self.entries)
        compiled = self.sim.compile(self.plan)
        self.stream = self.sim.stream(compiled, block_size=self.block, n_blocks=10**9)
        #: Stream segment -> digests of the checked entries' blocks; the
        #: setup block is segment 0 and op i streams segment i + 1.
        self.digests: Dict[int, List[str]] = {}
        n = self.entries[self.covariance_checked[0]]["matrix"].shape[0]
        self.gram = np.zeros((len(self.covariance_checked), n, n), dtype=complex)
        self.n_gram = 0
        self._record(0, next(self.stream))

    def teardown(self) -> None:
        if self.sim is not None:
            self.sim.close()
        # Drop the stream state so the next setup does not stack on it.
        self.stream = self.sim = None

    def _record(self, segment: int, result) -> None:
        blocks = result.blocks
        self.digests[segment] = [digest([blocks[i].samples]) for i in self.checked]
        for slot, index in enumerate(self.covariance_checked):
            x = blocks[index].samples
            self.gram[slot] += x @ x.conj().T
        self.n_gram += blocks[0].samples.shape[1]

    def op(self, index: int, data: Any) -> OpResult:
        # The stream was created in setup, before any wrapper existed, so
        # the op spans each step itself.
        with self.tracer.span("execute") if self.tracer else contextlib.nullcontext():
            result = next(self.stream)
        return sample_count(result.blocks), lambda: self._record(index + 1, result)

    def finish(self, log: OpLog) -> None:
        from repro.api import Simulator
        from repro.core.generator import RayleighFadingGenerator
        from repro.engine import SimulationPlan

        n_segments = max(self.digests) + 1
        for column, index in enumerate(self.checked):
            entry = self.entries[index]
            if entry["doppler"] is None:
                # A snapshot entry's stream continues one generator block by
                # block, like repeated generate_gaussian calls.
                generator = RayleighFadingGenerator(entry["matrix"], rng=entry["seed"])
                segments = [generator.generate_gaussian(self.block).samples for _ in range(n_segments)]
            else:
                # A Doppler entry's stream is one execute_plan record cut up.
                record = Simulator().run(
                    SimulationPlan([self.plan[index]]), self.block * n_segments
                ).blocks[0].samples
                segments = [
                    record[:, k * self.block : (k + 1) * self.block] for k in range(n_segments)
                ]
            for segment, digests in self.digests.items():
                if segment and digest([segments[segment]]) != digests[column]:
                    log.fail(segment - 1, f"streamed entry {index} differs from its reference")
        # Sample covariance within 6 standard errors of K on every element.
        tolerance = 6.0 / math.sqrt(self.n_gram)
        for slot, index in enumerate(self.covariance_checked):
            error = np.max(np.abs(self.gram[slot] / self.n_gram - self.entries[index]["matrix"]))
            if error > tolerance:
                for op_index in range(log.attempted):
                    log.fail(
                        op_index,
                        f"sample covariance of entry {index} off by {error:.4f} > {tolerance:.4f}",
                    )


# ---------------------------------------------------------------------- #
# shard-sweep
# ---------------------------------------------------------------------- #
class ShardSweep(Workload):
    name = "shard-sweep"
    why = (
        "sharded runs over a warmed shared cache_dir: spawn, worker import, npz "
        "publish and load, and merge dominate; the only repro.shard workload"
    )
    #: Ops take ~1.5 s: a run affords no more, so the tail percentile (10
    #: ops beyond it) sits below the median here.
    min_ops = 16
    cache_dir = None
    _last: Dict[str, float] = {}
    n_samples = 4096
    n_shards = 2

    def prepare(self) -> None:
        from repro.api import Simulator

        self.entries = inputs.draw_entries(
            self.rng(0),
            64,
            8,
            doppler_every=4,
            nonpsd_every=16,
            n_points=64,
            frequencies=(0.05,),
            label_prefix="sweep-",
        )
        self.plan = inputs.to_plan(self.entries)
        solo = Simulator().run(self.plan, self.n_samples)
        self.solo = [digest([block.samples]) for block in solo.blocks]
        self.generation = 0

    def _run(self, cache_dir: Path, work_dir: Path):
        from repro.shard import run_sharded

        return run_sharded(
            self.plan,
            self.n_samples,
            n_shards=self.n_shards,
            cache_dir=cache_dir,
            work_dir=work_dir,
        )

    def setup(self) -> None:
        self.generation += 1
        self.cache_dir = self.work / f"shard-cache-{self.generation}"
        work_dir = self.work / "shard-setup"
        result = self._run(self.cache_dir, work_dir)
        shutil.rmtree(work_dir, ignore_errors=True)
        if not result.ok:
            raise RuntimeError(f"cold sharded run failed slices {result.failed}")

    def teardown(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def op(self, index: int, data: Any) -> OpResult:
        work_dir = self.work / f"shard-op-{index}"
        result = self._run(self.cache_dir, work_dir)
        samples = sample_count(result.merged.blocks) if result.ok else 0
        return samples, lambda: self._check(result, work_dir)

    def _check(self, result, work_dir: Path) -> Optional[str]:
        published = sum(
            f.stat().st_size for f in work_dir.glob("shard_*") if f.suffix in (".npz", ".json")
        )
        shutil.rmtree(work_dir, ignore_errors=True)
        metas = [meta for meta in result.metas if meta is not None]
        work = [
            meta["compile_report"]["compile_seconds"] + meta["execute_seconds"] for meta in metas
        ]
        tiers = result.tier_totals()
        self._last = {
            "shard.workers": len(metas),
            "shard.plan_hits": sum(m["compile_report"]["plan_cache_hits"] for m in metas),
            "shard.worker_compile_s": sum(m["compile_report"]["compile_seconds"] for m in metas),
            "shard.worker_execute_s": sum(m["execute_seconds"] for m in metas),
            # warm_first runs the pathfinder alone, then the rest together.
            "shard.critical_s": (work[0] + max(work[1:], default=0.0)) if work else 0.0,
            "shard.bytes_published": published,
            "store.disk_hits": sum(v for k, v in tiers.items() if k.endswith("disk_hits")),
            "store.disk_misses": sum(v for k, v in tiers.items() if k.endswith("disk_misses")),
            "store.corruptions": sum(v for k, v in tiers.items() if k.endswith("corruptions")),
            "store.bytes_on_disk": dir_bytes(self.cache_dir),
        }
        if not result.ok:
            return f"sharded run failed slices {result.failed}"
        got = [digest([block.samples]) for block in result.merged.blocks]
        if got != self.solo:
            return "sharded run differs from the single-process run"
        return None

    def op_counts(self) -> Dict[str, float]:
        return dict(self._last)

    def points(self) -> list:
        return engine_points() + shard_points()

    def peak_rss_mb(self) -> float:
        return child_peak_rss_mb()


# ---------------------------------------------------------------------- #
# serve-http
# ---------------------------------------------------------------------- #
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class Server:
    """One ``repro serve`` subprocess at its default settings."""

    def __init__(self, work: Path, *, spans_path: Optional[Path] = None) -> None:
        self.port = free_port()
        self.log_path = work / f"server-{self.port}.log"
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            argv = [sys.executable, str(launcher), "--spans", str(spans_path), "serve"]
        argv += ["--host", "127.0.0.1", "--port", str(self.port)]
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(argv, stdout=self._log, stderr=subprocess.STDOUT)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            try:
                status, _ = request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not become healthy: {self.log_path.read_text()[-2000:]}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def request(port: int, method: str, path: str, body: Optional[bytes] = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class ServeHTTP(Workload):
    name = "serve-http"
    why = (
        "one closed-loop HTTP client alternating 16 repeated plans and fresh "
        "plans: process pools, wire encoding and transfer dominate"
    )
    n_samples = 2048
    n_fixed = 16
    min_ops = 40
    server: Optional[Server] = None
    traced_server: Optional[Server] = None
    #: The server's peak RSS once it has served ``min_ops`` requests.  It
    #: keeps up to 1024 finished requests (about 1 MB each here) for status
    #: polling, so its RSS grows with the requests a run completes, which
    #: doubled between the host's fast and slow phases; after a fixed
    #: number of requests it compares between runs.
    server_peak_mb: Optional[float] = None

    def _draw(self, rng: np.random.Generator, prefix: str) -> List[Dict[str, Any]]:
        return inputs.draw_entries(
            rng, 8, 4, doppler_every=8, nonpsd_every=4, n_points=512, label_prefix=prefix
        )

    def _body(self, entries) -> bytes:
        from repro.service import protocol

        payload = protocol.plan_to_payload(inputs.to_plan(entries), self.n_samples)
        return json.dumps(payload).encode("utf8")

    def prepare(self) -> None:
        rng = self.rng(0)
        self.fixed = [self._draw(rng, f"fixed{k}-") for k in range(self.n_fixed)]
        self.fixed_bodies = [self._body(entries) for entries in self.fixed]
        self.references: Dict[int, str] = {}
        #: Server request id -> the benchmark's op id, to join server spans.
        self.request_ops: Dict[str, str] = {}

    def setup(self) -> None:
        self.server = Server(self.work)
        self.server.wait_healthy()

    def warm_up(self, traced: bool) -> None:
        """Pay the server's lazy imports; a traced run also starts a traced server.

        Traced ops go to a server started by ``serve_launcher.py``, bare
        ops to the plain one, so the two alternate like in-process ops do.
        """
        servers = [self.server]
        if traced:
            self.spans_path = self.work / "server-spans.json"
            self.traced_server = Server(self.work, spans_path=self.spans_path)
            self.traced_server.wait_healthy()
            servers.append(self.traced_server)
        for server in servers:
            self._request(server.port, self.fixed_bodies[0])
        if traced:
            self.metrics_before = self._service_metrics()

    def teardown(self) -> None:
        for server in (self.server, self.traced_server):
            if server is not None:
                server.stop()
        self.server = self.traced_server = None

    def inputs(self, index: int) -> Any:
        if index % 2 == 0:
            key: Any = (index // 2) % self.n_fixed
            return key, self.fixed_bodies[key]
        entries = self._draw(self.rng(1, index), f"f{index}-")
        return entries, self._body(entries)

    def _request(self, port: int, body: bytes) -> Tuple[str, List[np.ndarray]]:
        """Submit, wait, transfer and decode one request."""
        from repro.service import protocol

        def span(name):
            return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

        with span("service.submit"):
            status, reply = request(port, "POST", "/v1/plans", body)
        if status != 202:
            raise RuntimeError(f"POST /v1/plans -> {status}")
        request_id = json.loads(reply)["request_id"]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            with span("service.wait"):
                connection.request("GET", f"/v1/plans/{request_id}/result")
                response = connection.getresponse()
            with span("service.transfer"):
                text = response.read().decode("utf8")
        finally:
            connection.close()
        if response.status != 200:
            raise RuntimeError(f"GET result -> {response.status}")
        with span("service.decode"):
            blocks = protocol.result_from_lines(text.splitlines())["blocks"]
        return request_id, blocks

    def op(self, index: int, data: Any) -> OpResult:
        key, body = data
        server = self.traced_server if self.tracer else self.server
        request_id, blocks = self._request(server.port, body)
        self.request_ops[request_id] = f"op-{index}"
        got = digest(blocks)
        return sum(block.size for block in blocks), lambda: self._check(index, key, got)

    def _check(self, index: int, key: Any, got: str) -> Optional[str]:
        """The decoded result against an in-process ``Simulator().run``.

        Also reads :attr:`server_peak_mb`, untimed, once it is due.
        """
        from repro.api import Simulator

        if self.server_peak_mb is None and index + 1 >= self.min_ops:
            self.server_peak_mb = live_peak_rss_mb(self.server.process.pid)

        expected = self.references.get(key) if isinstance(key, int) else None
        if expected is None:
            entries = self.fixed[key] if isinstance(key, int) else key
            result = Simulator().run(inputs.to_plan(entries), self.n_samples)
            expected = digest([block.samples for block in result.blocks])
            if isinstance(key, int):
                self.references[key] = expected
        if got != expected:
            return "decoded result differs from the in-process run"
        return None

    def _service_metrics(self) -> Dict[str, float]:
        return json.loads(request(self.traced_server.port, "GET", "/v1/metrics")[1])

    def layer_counts(self) -> Dict[str, float]:
        """Serving counters of the traced server over the run's traced ops."""
        after = self._service_metrics()

        def delta(name: str) -> float:
            return float(after.get(name, 0) - self.metrics_before.get(name, 0))

        submitted = delta("requests_submitted")
        return {
            "service.coalesced_ratio": delta("requests_coalesced") / submitted
            if submitted
            else 0.0,
            "service.rejected": delta("requests_rejected"),
            "service.flights": delta("flights_started"),
        }

    def peak_rss_mb(self) -> float:
        if self.server_peak_mb is not None:
            return self.server_peak_mb
        return child_peak_rss_mb()

    def points(self) -> list:
        # The layers run in the traced server, which wraps them itself.
        return []

    def foreign_spans(self) -> List[Dict[str, Any]]:
        """The traced server's spans, with request ids turned into op ids."""
        records = json.loads(self.spans_path.read_text())
        for record in records:
            record["op"] = self.request_ops.get(record["op"])
        return records


WORKLOADS = {cls.name: cls for cls in (SweepCold, BulkExecute, ServeHTTP, ShardSweep)}
