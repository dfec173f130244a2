"""Sharded-runtime throughput: epochs/sec vs shard count and executor.

PR 1 made the single engine fast (batched kernels over one arena); this
benchmark measures the next axis — partitioning the tag population across
independent filter shards (``repro.runtime.ShardedRuntime``).  It drives the
full runtime (router -> shards -> merged event bus) in steady state over
2000 active tags at shard counts {1, 2, 4} with the serial, thread-pool, and
worker-process executors, plus a 10000-tag scaling row.

What the executors can and cannot show in one container: sharding is a
*distribution* mechanism — total kernel work is constant — so serial rows
measure partitioning/merge overhead staying small; thread rows measure how
much of the kernel time runs with the GIL released; process rows measure the
full scale-out path (persistent workers, socket frames, shared-memory
arenas), whose speedup is bounded by the core count — on a single-core
runner the process rows price the IPC overhead instead (the recorded
``host.nproc`` says which reading you are looking at).

Standalone (no pytest-benchmark dependency) so CI can smoke-run it::

    PYTHONPATH=src python benchmarks/bench_runtime_sharding.py [--quick]

Results are written to ``BENCH_runtime_sharding.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.config import InferenceConfig, OutputPolicyConfig, RuntimeConfig
from repro.geometry.box import Box
from repro.geometry.shapes import ShelfRegion, ShelfSet
from repro.models.joint import RFIDWorldModel
from repro.models.motion import MotionParams
from repro.models.sensing import SensingNoiseParams
from repro.models.sensor import SensorParams
from repro.runtime import ShardedRuntime
from repro.streams.records import make_epoch
from repro.streams.sinks import EventSink

#: Object tags re-read per epoch (exercises the re-detection path at a
#: realistic rate without dominating the measurement).
READS_PER_EPOCH = 16

N_TAGS = 2000
SCALE_TAGS = 10000
SHARD_COUNTS = (1, 2, 4)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime_sharding.json"


class _NullSink(EventSink):
    """Counts events without retaining them (steady-state measurement)."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, event) -> None:
        self.count += 1


def build_model(n_objects: int) -> RFIDWorldModel:
    """One long shelf row sized to the population, two shelf anchor tags."""
    length = max(8.0, n_objects * 0.05)
    shelves = ShelfSet([ShelfRegion(0, Box((2.0, 0.0, 0.0), (3.0, length, 0.0)))])
    return RFIDWorldModel.build(
        shelves,
        shelf_tags={
            0: np.array([2.0, 1.0, 0.0]),
            1: np.array([2.0, length - 1.0, 0.0]),
        },
        sensor_params=SensorParams(a=(4.0, 0.0, -0.9), b=(0.0, -6.0)),
        motion_params=MotionParams(velocity=(0.0, 0.1, 0.0), sigma=(0.01, 0.01, 0.0)),
        sensing_params=SensingNoiseParams(sigma=(0.01, 0.01, 0.0)),
    )


def measure(
    model: RFIDWorldModel,
    n_tags: int,
    n_shards: int,
    executor: str,
    timed_epochs: int,
    warmup: int = 3,
) -> dict:
    config = InferenceConfig(reader_particles=100, object_particles=100, seed=3)
    sink = _NullSink()
    runtime = ShardedRuntime(
        model,
        config,
        RuntimeConfig(n_shards=n_shards, executor=executor),
        # Long delay: steady state measures inference + routing + merge,
        # not event formatting.
        OutputPolicyConfig(delay_s=1e9, on_scan_complete=False),
        sink=sink,
    )

    def epoch_at(t: int):
        reads = [(t * READS_PER_EPOCH + i) % n_tags for i in range(READS_PER_EPOCH)]
        return make_epoch(
            float(t), (0.0, 1.0 + 0.1 * t), object_tags=reads, reported_heading=0.0
        )

    # Discovery epoch (excluded from timing): read every tag once so the
    # whole population is known and — with the index disabled — active.
    runtime.step(
        make_epoch(
            0.0, (0.0, 1.0), object_tags=list(range(n_tags)), reported_heading=0.0
        )
    )
    for t in range(1, 1 + warmup):
        runtime.step(epoch_at(t))

    start = time.perf_counter()
    for t in range(1 + warmup, 1 + warmup + timed_epochs):
        runtime.step(epoch_at(t))
    elapsed = time.perf_counter() - start
    runtime.finish()

    stats = runtime.shard_stats()
    objects_per_shard = [int(row["objects"]) for row in stats]
    assert sum(objects_per_shard) == n_tags, "population fell out of the shards"
    return {
        "n_shards": n_shards,
        "executor": executor,
        "active_tags": n_tags,
        "particles_per_object": config.object_particles,
        "timed_epochs": timed_epochs,
        "elapsed_s": round(elapsed, 4),
        "epochs_per_sec": round(timed_epochs / elapsed, 2),
        "objects_per_shard": objects_per_shard,
        "arena_rows_per_shard": [int(row["arena_used_rows"]) for row in stats],
    }


def host_block() -> dict:
    """CPU model, usable cores, Python and numpy of the measuring host."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu_model": cpu_model,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _plan(quick: bool):
    """(n_tags, n_shards, executor, timed_epochs) rows to measure."""
    timed = 3 if quick else 10
    rows = [(N_TAGS, 1, "serial", timed)]
    for n_shards in SHARD_COUNTS[1:]:
        for executor in ("serial", "thread", "process"):
            rows.append((N_TAGS, n_shards, executor, timed))
    if not quick:
        # Scaling-headroom row: the process executor at 5x the population.
        rows.append((SCALE_TAGS, 1, "serial", 5))
        rows.append((SCALE_TAGS, 4, "serial", 5))
        rows.append((SCALE_TAGS, 4, "process", 5))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fewer timed epochs (CI smoke run)"
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print only, skip BENCH_runtime_sharding.json",
    )
    args = parser.parse_args()

    models = {}
    results = []
    serial_baseline = {}  # n_tags -> 1-shard serial epochs/sec
    print(f"{'tags':>6} {'shards':>7} {'executor':>9} {'epochs/s':>10} {'vs serial':>10}")
    for n_tags, n_shards, executor, timed_epochs in _plan(args.quick):
        if n_tags not in models:
            models[n_tags] = build_model(n_tags)
        row = measure(models[n_tags], n_tags, n_shards, executor, timed_epochs)
        if n_shards == 1 and executor == "serial":
            serial_baseline[n_tags] = row["epochs_per_sec"]
        baseline = serial_baseline.get(n_tags)
        row["speedup_vs_serial_1shard"] = (
            round(row["epochs_per_sec"] / baseline, 2) if baseline else None
        )
        results.append(row)
        speedup = row["speedup_vs_serial_1shard"]
        print(
            f"{n_tags:>6} {n_shards:>7} {executor:>9} {row['epochs_per_sec']:>10.2f} "
            f"{f'{speedup:.2f}x' if speedup else '-':>10}"
        )

    payload = {
        "benchmark": "runtime_sharding",
        "description": (
            "ShardedRuntime steady-state epochs/sec vs shard count and "
            f"executor at {N_TAGS} active tags plus a {SCALE_TAGS}-tag "
            "scaling row (index disabled, 100 particles/object, 100 reader "
            f"particles/shard, {READS_PER_EPOCH} reads/epoch).  Serial rows "
            "measure partitioning+merge overhead (total kernel work is "
            "constant in-process); thread rows measure GIL-released kernel "
            "concurrency; process rows measure the worker-process scale-out "
            "path, whose speedup ceiling is host.nproc (on a 1-core runner "
            "they price the IPC overhead instead)."
        ),
        "quick": bool(args.quick),
        "host": host_block(),
        "results": results,
    }
    if not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
