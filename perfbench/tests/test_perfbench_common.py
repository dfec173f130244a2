"""Unit tests for the benchmark's pure helpers (no program run needed)."""

from __future__ import annotations

import json
import os

import pytest

from perfbench.common import (
    METRIC_NAME,
    Schedule,
    check_metric_name,
    closing_record,
    emission_latencies,
    epoch_of,
    epoch_origin,
    percentile,
    producing_epochs,
    trend_growth,
)

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")


# -- percentile ---------------------------------------------------------------
def test_p99_needs_ten_samples_beyond():
    assert percentile(list(range(999)), 0.99) is None
    p = percentile(list(range(1000)), 0.99)
    assert p is not None
    assert (p.n, p.beyond, p.support) == (1000, 10, 10)
    assert p.value == 989.0  # nearest rank 990, 1-based


def test_p95_needs_two_hundred_samples():
    assert percentile(list(range(199)), 0.95) is None
    p = percentile(list(range(200)), 0.95)
    assert (p.n, p.beyond, p.value) == (200, 10, 189.0)


def test_percentile_always_reports_its_count():
    p = percentile([3.0, 1.0, 2.0] * 10, 0.5)
    assert p.n == 30
    assert p.beyond == 15
    assert p.value == 2.0


def test_grouped_samples_count_once_toward_support():
    # 400 samples in bursts of 4 that share one timing: the 20 samples
    # beyond p95 come from only 5 groups.
    values = [float(i // 4) for i in range(400)]
    groups = [i // 4 for i in range(400)]
    assert percentile(values, 0.95) is not None
    assert percentile(values, 0.95, groups=groups) is None
    p = percentile(values, 0.95, min_beyond=5, groups=groups)
    assert (p.beyond, p.support, p.value) == (20, 5, 94.0)
    p = percentile(values * 3, 0.5, groups=groups * 3)
    assert p.support == 50


def test_percentile_edges():
    assert percentile([], 0.5) is None
    assert percentile([1.0] * 5, 0.5) is None  # only 2 beyond the median
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], 0.5, groups=[0])


# -- metric names -------------------------------------------------------------
@pytest.mark.parametrize("name", ["epochs_per_s", "runtime.merge_s", "a-b.c_9", "9lives"])
def test_metric_name_accepts(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", ".hidden", "has space", "slash/name", "x" * 65, "é"])
def test_metric_name_rejects(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_names_and_units():
    with open(BENCHMARK_JSON) as fp:
        spec = json.load(fp)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- emission time -> epoch -> due time -------------------------------------
def test_epoch_grid_matches_the_synchronizer():
    assert epoch_origin(12.7, 1.0) == 12.0
    assert epoch_of(12.0, 12.0, 1.0) == 0
    assert epoch_of(12.999, 12.0, 1.0) == 0
    assert epoch_of(13.0, 12.0, 1.0) == 1
    assert epoch_of(17.5, 12.0, 0.5) == 11


def test_closing_record_is_first_at_or_past_the_epoch_end():
    times = [0.0, 0.2, 0.9, 1.0, 1.5, 3.2]
    assert closing_record(times, 0, 0.0, 1.0) == 3  # the record at exactly 1.0
    assert closing_record(times, 1, 0.0, 1.0) == 5  # epoch 2 is empty; 3.2 closes 1
    assert closing_record(times, 3, 0.0, 1.0) == len(times)  # end marker closes it


def test_schedule_maps_stream_time_linearly():
    schedule = Schedule(start_wall=100.0, stream_origin=10.0, rate=4.0)
    assert schedule.due(10.0) == 100.0
    assert schedule.due(18.0) == 102.0


def test_producing_epoch_is_the_next_emission_times_epoch():
    # Ticks at 3.0 and 5.0 close when the next event time reaches the
    # engine; the last tick is flushed at end of stream.
    times = [3.0, 3.0, 5.0, 5.0, 9.0]
    assert producing_epochs(times, origin=0.0, epoch_length=1.0) == [5, 5, 9, 9, None]


def test_emission_latency_counts_from_the_releasing_records_due_time():
    times = [0.0, 0.5, 1.0, 2.0, 2.5, 3.0]
    schedule = Schedule(start_wall=50.0, stream_origin=0.0, rate=2.0)
    due = [schedule.due(t) for t in times]  # 50, 50.25, 50.5, 51, 51.25, 51.5
    end_wall = schedule.due(4.0)  # 52.0
    lat, moved = emission_latencies(
        emission_times=[0.0, 1.0, 3.0],
        receive_walls=[51.1, 52.1, 52.3],
        record_times=times,
        send_walls=due,
        end_wall=end_wall,
        epoch_length=1.0,
    )
    # Time 0.0 is emitted by epoch 1 (the next emission time), which the 2.0
    # record closes (due 51.0).  Time 1.0 is emitted by epoch 3, and the
    # final tick 3.0 by the flush; the end marker (due 52.0) releases both.
    assert lat == pytest.approx([0.1, 0.1, 0.3])
    assert moved == 0


def test_producer_moves_back_when_a_tick_emitted_nothing():
    # One record per epoch at t = 0..9, due 100 + t.  Ticks at 2.0 and 6.0
    # are logged; a silent tick at 3.0 (every row suppressed) really
    # released tick 2.0, so the emission arrives at 104.2, before epoch 6's
    # closing record (due 107).  The latest epoch already released then is
    # epoch 3 (its closing record, t = 4, was due at 104).
    times = [float(t) for t in range(10)]
    due = [100.0 + t for t in times]
    lat, moved = emission_latencies(
        emission_times=[2.0, 6.0],
        receive_walls=[104.2, 110.5],
        record_times=times,
        send_walls=due,
        end_wall=110.0,
        epoch_length=1.0,
    )
    assert lat == pytest.approx([0.2, 0.5])
    assert moved == 1


def test_trend_growth_flags_a_rising_series():
    flat = [0.05, 0.06] * 20
    rising = [0.05 + 0.1 * i for i in range(40)]
    assert abs(trend_growth(flat)) < 1e-9
    assert trend_growth(rising) > 2.0
    assert trend_growth([1.0, 2.0]) == 0.0  # too short to judge
