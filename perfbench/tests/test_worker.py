"""Unit tests for the worker's host-speed scaling and its recorder.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import worker  # noqa: E402


def test_host_scale_is_a_positive_factor_and_leaves_the_collector_on():
    scale = worker.host_scale()
    assert 0.0 < scale < 100.0
    assert worker.gc.isenabled()


def test_scale_block_scales_only_the_latencies_added_since_the_last_block():
    recorder = worker.Recorder()
    recorder.add(0.010, [], "a")
    recorder.add(0.020, [], "b")
    recorder.scale_block(2.0)
    recorder.add(0.030, ["wrong"], "a")
    recorder.scale_block(0.5)
    assert recorder.latencies == pytest.approx([0.020, 0.040, 0.015])
    assert recorder.busy == pytest.approx(0.060)
    assert recorder.by_label() == {
        "a": pytest.approx([0.020, 0.015]), "b": pytest.approx([0.040])
    }
    summary = recorder.summary()
    assert summary["attempted"] == 3 and summary["failed"] == 1
    assert summary["throughput_rps"] == pytest.approx(2 / 0.075)


def test_run_steps_scales_every_block_and_stops_at_the_count():
    calls = []

    def step(recorder):
        calls.append(len(calls))
        recorder.add(0.001, [])

    recorder = worker.run_steps(step, 4, count=6)
    assert len(calls) == 8  # whole blocks only
    assert recorder._unscaled == len(recorder.latencies) == 8
    assert all(latency > 0.0 for latency in recorder.latencies)


def test_scaled_times_scales_only_times():
    metrics = {"resolve.ms": 2.0, "sast.lift_ms": 4.0, "link.links": 3.0,
               "unattributed_frac": 0.5}
    assert worker.scaled_times(metrics, 1.5) == {
        "resolve.ms": 3.0, "sast.lift_ms": 6.0, "link.links": 3.0,
        "unattributed_frac": 0.5,
    }
