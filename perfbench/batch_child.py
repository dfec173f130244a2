"""The ``batch_full`` system under test: the ``clean`` path in its own process.

    python -m perfbench.batch_child CALIBRATION TRACE OUT_JSON [--setups N] [--spans JSONL]
        [--checkpoint-dir DIR]

Mirrors ``repro clean`` with the paper-default inference config: derive the
model from the calibration trace, synchronize the trace's epochs, build a
1-shard serial runtime (``--setups`` times, each timed), then step every
epoch (each step timed) and finish.  Writes timings, final estimates, an
event digest and peak RSS to OUT_JSON.  ``--spans`` installs the
benchmark's tracer first and writes the spans there.  ``--checkpoint-dir``
adds what ``repro clean --checkpoint-every 20 --checkpoint-mode delta
--checkpoint-full-every 1000000`` does: a checkpoint every 20 stream
seconds, written inside the step, the first one full and every later one a
delta on the chain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

#: The checkpoint cadence of the ``batch_ckpt`` workload, in stream seconds.
CHECKPOINT_EVERY_S = 20.0
#: Rebase period of its delta chain, past any run's cut count: only the first
#: cut is full.  Periodic full cuts made the run's peak RSS vary by 11%
#: between seeds (their transient depends on the arena's growth history).
CHECKPOINT_FULL_EVERY = 1_000_000


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("calibration")
    parser.add_argument("trace")
    parser.add_argument("out")
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--checkpoint-dir", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        from .spans import COUNTERS, Tracer

        tracer = Tracer()
        tracer.install(extra=COUNTERS)

    from repro.cli import _default_model
    from repro.config import InferenceConfig, OutputPolicyConfig, RuntimeConfig
    from repro.eval.harness import final_estimates_from_sink
    from repro.models import config_for_sensor
    from repro.runtime import ShardedRuntime
    from repro.streams import Trace

    with open(args.calibration) as fp:
        calibration = Trace.load(fp)
    with open(args.trace) as fp:
        trace = Trace.load(fp)

    if args.checkpoint_dir:
        runtime_config = RuntimeConfig(
            n_shards=1,
            executor="serial",
            checkpoint_every_s=CHECKPOINT_EVERY_S,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_mode="delta",
            checkpoint_full_every=CHECKPOINT_FULL_EVERY,
        )
    else:
        runtime_config = RuntimeConfig(n_shards=1, executor="serial")
    setups = []
    for _ in range(args.setups):
        t0 = time.perf_counter()
        model, _, sensor = _default_model(calibration)
        epochs = trace.epochs()
        runtime = ShardedRuntime(
            model,
            config_for_sensor(InferenceConfig(), sensor),
            runtime_config,
            OutputPolicyConfig(delay_s=30.0),
        )
        setups.append(time.perf_counter() - t0)

    step_s = []
    t_run = time.perf_counter()
    for epoch in epochs:
        t0 = time.perf_counter()
        runtime.step(epoch)
        step_s.append(time.perf_counter() - t0)
    runtime.finish()
    run_s = time.perf_counter() - t_run

    # Final estimates as the repository's evaluation scores them: each tag's
    # latest emitted event, the filter's state for tags never emitted.
    estimates = final_estimates_from_sink(runtime.sink)
    for n in runtime.known_objects():
        estimates.setdefault(n, runtime.object_estimate(n).mean)
    digest = hashlib.sha256()
    for event in runtime.sink.events:
        digest.update(repr((event.time, str(event.tag), tuple(map(float, event.position)))).encode())
    engine = runtime.shards[0].engine
    report = {
        "setup_s": setups,
        "step_s": step_s,
        "run_s": run_s,
        "epochs": runtime.epochs_processed,
        "events": len(runtime.sink.events),
        "events_published": runtime.bus.published,
        "event_digest": digest.hexdigest(),
        "estimates": {str(n): [float(v) for v in mean[:2]] for n, mean in estimates.items()},
        "engine_stats": {k: float(v) for k, v in getattr(engine, "stats", {}).items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        wall = time.perf_counter() - t_start
        tracer.write_jsonl(args.spans)
        report["trace"] = tracer.report(wall)
    with open(args.out, "w") as fp:
        json.dump(report, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
