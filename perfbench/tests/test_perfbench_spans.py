"""Unit tests for the benchmark tracer: self-time arithmetic and hooks."""

from __future__ import annotations

import types

import pytest

from perfbench.spans import LAYER_TIMES, Tracer, layer_times, self_times, summarize


def test_self_time_subtracts_child_coverage():
    spans = [
        ("step", 0.0, 10.0, -1),
        ("route", 1.0, 2.0, 0),
        ("merge", 5.0, 9.0, 0),
        ("push", 6.0, 8.0, 2),
        ("sink", 6.5, 7.0, 3),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 1.5, 0.5])


def test_self_times_sum_to_root_coverage():
    spans = [
        ("a", 0.0, 4.0, -1),
        ("b", 0.5, 1.5, 0),
        ("c", 2.0, 3.0, 0),
        ("d", 2.2, 2.4, 2),
        ("e", 6.0, 7.0, -1),
    ]
    assert sum(self_times(spans)) == pytest.approx(5.0)


def test_overlapping_children_are_counted_once():
    spans = [("p", 0.0, 10.0, -1), ("x", 1.0, 4.0, 0), ("y", 3.0, 6.0, 0), ("z", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summary_busy_counts_outermost_same_name_calls():
    spans = [
        ("fit", 0.0, 4.0, -1),
        ("fit", 1.0, 2.0, 0),
        ("sync", 2.0, 3.0, 0),
        ("fit", 5.0, 6.0, -1),
    ]
    summary = summarize(spans)
    assert summary["fit"]["calls"] == 3
    assert summary["fit"]["busy_s"] == pytest.approx(5.0)
    assert summary["fit"]["self_s"] == pytest.approx(4.0)
    assert summary["sync"]["self_s"] == pytest.approx(1.0)


def test_layer_times_default_to_zero_for_unused_layers():
    times = layer_times({"runtime.merge": {"calls": 1, "busy_s": 2.0, "self_s": 0.5}})
    assert set(times) == set(LAYER_TIMES)
    assert times["runtime.merge_s"] == 0.5
    assert times["state.checkpoint_s"] == 0.0


class _Inner:
    def work(self, n):
        return n * 2


class _Outer:
    def __init__(self):
        self.inner = _Inner()

    def run(self, n):
        return self.inner.work(n) + 1


def test_wrappers_nest_and_restore():
    tracer = Tracer()
    original_run = _Outer.run
    assert tracer.wrap(_Outer, "run", "outer")
    assert tracer.wrap(_Inner, "work", "inner")
    try:
        assert _Outer().run(3) == 7
    finally:
        tracer.uninstall()
    assert _Outer.run is original_run
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    report = tracer.report(wall_s=1.0)
    assert report["untraced_s"] == pytest.approx(1.0 - report["self_sum_s"])


def test_missing_hook_targets_are_reported_absent():
    module = types.ModuleType("perfbench_fake_module")
    tracer = Tracer()
    tracer.install(
        hooks=[
            ("perfbench.tests.does_not_exist", "f", "x"),
            ("perfbench.spans", "Tracer.no_such_method", "y"),
            ("perfbench.spans", "NoSuchClass.method", "z"),
        ]
    )
    assert tracer.installed == []
    assert len(tracer.absent) == 3
    assert not tracer.wrap(module, "missing", "w")


def test_on_call_hook_sees_arguments_and_result():
    seen = []
    tracer = Tracer()
    tracer.wrap(_Inner, "work", "inner", lambda t, args, result: seen.append((args[1], result)))
    try:
        _Inner().work(5)
    finally:
        tracer.uninstall()
    assert seen == [(5, 10)]
