"""Tests of the benchmark's own logic (run: python3 -m pytest perfbench/tests)."""

import json
import os
import statistics
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, run
from perfbench.host import Calibration
from perfbench.layers import LAYER_METRICS, engine_points, op_aggregates, shard_points
from perfbench.stats import OpLog, tail
from perfbench.trace import Point, Span, Tracer, graft, resolve, self_times, union_length
from perfbench.workloads import WORKLOADS, SweepCold, live_peak_rss_mb, self_peak_rss_mb

ROOT = Path(__file__).resolve().parents[2]

#: A calibration that reports the nominal host speed, so scales are 1.
STEADY = types.SimpleNamespace(measure=lambda: Calibration.NOMINAL_S, scale=lambda kernels: 1.0)


# ---------------------------------------------------------------------- #
# Tail percentile rule
# ---------------------------------------------------------------------- #
class TestTail:
    def test_needs_more_than_ten_samples(self):
        assert tail([1.0] * 10) is None
        assert tail([]) is None

    def test_eleven_samples_give_the_minimum(self):
        value, percentile, beyond = tail(list(range(11, 0, -1)))
        assert (value, beyond) == (1, 10)
        assert percentile == pytest.approx(100 / 11)

    def test_exactly_ten_samples_lie_beyond(self):
        values = list(np.random.default_rng(3).permutation(40).astype(float))
        value, percentile, beyond = tail(values)
        assert percentile == 75.0
        assert beyond == 10
        assert sum(v > value for v in values) == 10

    def test_ties_count_by_rank(self):
        assert tail([5.0] * 30) == (5.0, pytest.approx(100 * 20 / 30), 10)


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #
def _span(name, start, end, parent=None, op="a"):
    return Span(name, start, end, parent, op)


class TestSelfTime:
    def test_union_merges_overlaps(self):
        assert union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4

    def test_nested_children(self):
        spans = [
            _span("op", 0, 10),
            _span("compile", 1, 5, parent=0),
            _span("compile.decompose", 2, 3, parent=1),
            _span("execute", 6, 9, parent=0),
        ]
        assert self_times(spans) == [3, 3, 1, 3]

    def test_overlapping_children_count_once(self):
        spans = [
            _span("op", 0, 10),
            _span("shard.wait", 1, 6, parent=0),
            _span("shard.wait", 4, 8, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(3)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span("service.wait", 0, 4), _span("service.run", 3, 9, parent=0)]
        assert self_times(spans) == [3, 6]

    def test_orphans_attach_to_their_op(self):
        spans = [_span("op", 0, 10), _span("shard.wait", 2, 5)]
        agg = op_aggregates(spans)["a"]
        assert agg["unaccounted"] == pytest.approx(7)
        assert agg["layer_self"] == pytest.approx(3)

    def test_same_name_nesting_counts_once(self):
        spans = [
            _span("op", 0, 10),
            _span("backends.ifft", 1, 5, parent=0),
            _span("backends.ifft", 2, 4, parent=1),
        ]
        agg = op_aggregates(spans)["a"]
        assert agg["busy"]["backends.ifft"] == 4
        assert agg["calls"]["backends.ifft"] == 1

    def test_graft_nests_foreign_roots_by_time_and_op(self):
        local = [_span("op", 0, 10, op="c1"), _span("service.wait", 1, 8, parent=0, op="c1")]
        foreign = [
            {"name": "service.run", "start": 2, "end": 6, "parent": None, "op": "c1", "counts": {}},
            {"name": "execute", "start": 3, "end": 5, "parent": 0, "op": "c1", "counts": {}},
        ]
        merged = graft(local, foreign)
        assert merged[2].parent == 1 and merged[3].parent == 2
        assert self_times(merged) == [3, 3, 2, 2]


# ---------------------------------------------------------------------- #
# Error accounting
# ---------------------------------------------------------------------- #
class TestOpLog:
    def test_error_rate_counts_raises_and_failed_checks(self):
        log = OpLog()
        first = log.record(0.5, 100)
        log.record(0.25, 100)
        log.record_error(0.1, "boom")
        log.fail(first, "bad bytes")
        log.fail(first, "bad bytes again")
        assert (log.attempted, log.failed) == (3, 2)
        assert log.error_rate == pytest.approx(2 / 3)
        assert log.good_latencies == [0.25]
        assert log.good_samples == 100
        assert log.failures == ["boom", "bad bytes"]

    def test_empty_log(self):
        assert OpLog().error_rate == 0.0

    def test_latencies_scale_to_nominal_host_speed(self):
        log = OpLog()
        log.record(0.5, 10)
        assert log.good_latencies == [0.5]
        log.scales = [0.5]
        assert log.good_latencies == [0.25]
        assert log.raw_latencies == [0.5]

    def test_raising_checks_count_as_failures(self):
        class Broken(_Fake):
            def op(self, index, data):
                return 1, (lambda: [][0]) if index == 2 else (lambda: None)

            def finish(self, log):
                raise ValueError("short result")

        log, _ = run._loop(Broken(1, None), 0.0, STEADY)
        assert (log.attempted, log.failed) == (4, 1)
        assert "output check raised IndexError" in log.failures[0]
        workload = Broken(1, None)
        workload.setup = workload.prepare = workload.warm_up = lambda *a: None
        args = types.SimpleNamespace(seconds=0.0, trace=0)
        log, _ = run._run(workload, args, 1e7, STEADY)
        assert log.failed == log.attempted == 4


class TestCalibration:
    def test_scale_maps_the_kernel_time_to_nominal(self, tmp_path):
        calibration = Calibration(tmp_path)
        assert calibration.scale([0.001, 0.003]) == pytest.approx(Calibration.NOMINAL_S / 0.002)
        assert calibration.scale([Calibration.NOMINAL_S]) == 1.0

    def test_steps_are_scaled_by_the_kernels_before_them(self):
        calibration = types.SimpleNamespace(scale=lambda kernels: 1 / sum(kernels))
        assert run._scales(calibration, [1.0, 2.0, 4.0], 3) == [1 / 3, 1 / 6, 1 / 4]

    def test_work_left_behind_an_op_does_not_make_it_read_faster(self, tmp_path):
        """Odd ops leave a thread burning CPU until their untimed check ends.

        Kernels run only after the check, so the burner must not shrink the
        odd ops' scaled times below the even ops' (same work, no burner).
        """

        class Burner(_Fake):
            min_ops = 24

            def op(self, index, data):
                sum(i * i for i in range(150_000))
                if index % 2 == 0:
                    return 1, lambda: None
                stop = threading.Event()

                def burn():
                    while not stop.is_set():
                        sum(i * i for i in range(1000))

                thread = threading.Thread(target=burn)
                thread.start()

                def check():
                    time.sleep(0.02)
                    stop.set()
                    thread.join()

                return 1, check

        log, _ = run._loop(Burner(1, None), 0.0, Calibration(tmp_path))
        times = log.good_latencies
        bare, burning = statistics.median(times[0::2]), statistics.median(times[1::2])
        assert burning > 0.9 * bare

    @pytest.mark.parametrize("files", [False, True])
    def test_kernel_takes_milliseconds(self, tmp_path, files):
        assert 1e-5 < Calibration(tmp_path, files=files).measure() < 0.1


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_live_peak_rss_matches_getrusage():
    assert live_peak_rss_mb(os.getpid()) == pytest.approx(self_peak_rss_mb(), rel=0.1)


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #
def _originals(points):
    found = {}
    for point in points:
        owner = resolve(point.target)
        found[(point.target, point.attr)] = (
            owner.__dict__.get(point.attr, "<inherited>")
            if isinstance(owner, type)
            else getattr(owner, point.attr)
        )
    return found


class _Fake(SweepCold):
    """A workload of no program work, four ops a loop."""

    min_ops = 4

    def inputs(self, index):
        return None


class TestWrappers:
    def test_uninstall_restores_every_original(self):
        points = engine_points() + shard_points()
        before = _originals(points)
        tracer = Tracer()
        tracer.install(points)
        assert tracer.installed == len(points)
        assert _originals(points) != before
        tracer.uninstall()
        assert tracer.installed == 0
        assert _originals(points) == before

    def test_traced_loop_leaves_no_wrapper_even_when_ops_raise(self, tmp_path):
        class Flaky(_Fake):
            def op(self, index, data):
                if index == 1:
                    raise RuntimeError("injected")
                return 1, lambda: None

        points = engine_points()
        before = _originals(points)
        tracer = Tracer()
        log, traced = run._loop(Flaky(1, tmp_path), 0.0, STEADY, tracer)
        assert tracer.installed == 0
        assert _originals(points) == before
        assert (log.attempted, log.failed) == (4, 1)
        assert traced == [3]

    def test_generator_functions_record_one_span_per_step(self):
        import repro.engine.engine as engine_module
        from repro.api import Simulator

        plan = inputs.to_plan(inputs.draw_entries(np.random.default_rng(0), 3, 2))
        compiled = Simulator().compile(plan)
        tracer = Tracer()
        tracer.default_op = "op-0"
        tracer.install([Point("repro.engine.engine", "stream_plan", "execute")])
        try:
            blocks = list(engine_module.stream_plan(compiled, block_size=8, n_blocks=3))
        finally:
            tracer.uninstall()
        assert len(blocks) == 3
        assert [span.name for span in tracer.spans if span.op is not None] == ["execute"] * 3


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #
class TestInputs:
    def test_seed_determines_inputs(self):
        def draw(seed):
            return inputs.draw_entries(
                np.random.default_rng([seed, 1]), 32, 8, doppler_every=8, nonpsd_every=16
            )

        a, b, c = draw(1), draw(1), draw(2)
        assert all(np.array_equal(x["matrix"], y["matrix"]) for x, y in zip(a, b))
        assert [x["seed"] for x in a] == [y["seed"] for y in b]
        assert not any(np.array_equal(x["matrix"], y["matrix"]) for x, y in zip(a, c))
        assert [x["matrix"].shape for x in a] == [y["matrix"].shape for y in c]
        assert [x["doppler"] is None for x in a] == [y["doppler"] is None for y in c]

    def test_matrices_are_unit_diagonal_hermitian_with_a_non_psd_share(self):
        entries = inputs.draw_entries(np.random.default_rng(5), 32, 8, nonpsd_every=16)
        for index, entry in enumerate(entries):
            matrix = entry["matrix"]
            assert np.allclose(matrix, matrix.conj().T)
            assert np.all(np.diag(matrix) == 1.0)
            assert inputs.is_psd(matrix) == (index % 16 != 15)


class _TinySweep(SweepCold):
    n_entries = 16
    checked = (0, 7, 15)
    min_ops = 12


def _metric_names(seed, trace, tmp_path):
    args = types.SimpleNamespace(seconds=0.0, trace=trace)
    work = tmp_path / f"work-{seed}-{trace}"
    work.mkdir()
    log, result = run._run(_TinySweep(seed, work), args, 1e7, Calibration(work))
    assert log.failed == 0, log.failures
    return set(result["layers" if trace else "metrics"])


class TestMetricSet:
    def test_second_seed_gives_the_same_metric_set(self, tmp_path):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = {metric["name"] for metric in bench["end_to_end"]}
        assert _metric_names(1, 0, tmp_path) == expected
        assert _metric_names(2, 0, tmp_path) == expected

    def test_traced_run_yields_every_per_layer_metric(self, tmp_path):
        assert _metric_names(3, 1, tmp_path) == set(LAYER_METRICS)


# ---------------------------------------------------------------------- #
# BENCHMARK.json and the command line
# ---------------------------------------------------------------------- #
class TestBenchmarkFile:
    def test_tables_match_the_code(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {w["name"]: w["why"] for w in bench["workloads"]} == {
            name: cls.why for name, cls in WORKLOADS.items()
        }
        assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
            (name, unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
        ]
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25

    def test_exits_nonzero_without_a_source_tree(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run.main(["--workload", "sweep-cold", "--seed", "1", "--seconds", "1"]) == 2
        assert capsys.readouterr().out == ""
