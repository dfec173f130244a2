"""The repository benchmark: three workloads against the unmodified program.

    python3 perfbench/run.py --workload batch_full --seed 1 --seconds 37 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``batch_full``: the ``clean`` path in a child process, paper-default
  inference config, one serial shard.
* ``batch_ckpt``: the same run and trace, with a delta checkpoint every
  20 stream seconds.
* ``serve_open``: ``repro serve`` in its own process (2 serial shards,
  index + adaptive budgets, 100 standing queries), fed by an open-loop
  source at a fixed rate while one subscriber receives the emissions.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` installs the
benchmark's tracer in the system under test and reports per-layer metrics.
Inputs are generated from ``--seed``; ``--seconds`` sizes the traces.  The
last stdout line is the result object; the line before it is the full
report (host block, sample counts, checks).  Run artifacts and the
cross-run digest record live under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import replace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

WORKLOADS = ("batch_full", "batch_ckpt", "serve_open")

#: batch_*: 200 tags, 0.5 ft apart; the trace holds the whole aisle
#: passes closest to seconds x this many epochs (one at 37 s: 1017 epochs).
BATCH_OBJECTS, BATCH_SPACING_FT, BATCH_EPOCHS_PER_S = 200, 0.5, 28
#: serve_open: 220 tags, 0.125 ft apart; the replayed trace holds the whole
#: passes closest to seconds x OPEN_RATE epochs (four at 37 s: 1176 epochs).
SERVE_OBJECTS, SERVE_SPACING_FT = 220, 0.125
#: Both paths derive their model from a fixed one-pass survey of the same
#: layout; ``--seed`` picks the stream that is then cleaned or served.
CALIBRATION_SEED = 0
#: Offered open-loop rate in stream seconds (= epochs) per wall second,
#: under half the 2-core reference host's capacity without checkpoints
#: (~80 epochs/s; ~60 with them).
OPEN_RATE = 32.0
#: Serial shards keep the service on one core: with the process executor
#: the 2-core reference VM lost 15-30% of CPU time to hypervisor steal and
#: every serve timing varied by 40-80% between runs.
SERVE_FLAGS = (
    "--particles", "200", "--reader-particles", "100", "--index", "--adaptive",
    "--standing-queries", "100", "--shards", "2", "--executor", "serial",
)
SETUPS = 3
MIN_EMISSIONS = 1000
#: A correct filter localizes these layouts well under this mean error.
MAX_ERROR_FT = 1.0
#: A serve run is flagged as no valid sample (an unsustainable rate)
#: when the median emission latency of the last quarter of the run exceeds
#: the first quarter's by this much.
MAX_LATENCY_GROWTH_S = 0.25
CHILD_TIMEOUT_S = 150.0
E2E_UNITS = {
    "epochs_per_s": "epochs/s", "emit_latency_p50_ms": "ms", "emit_latency_p90_ms": "ms",
    "location_error_ft": "ft", "setup_s": "s", "peak_rss_mb": "MiB",
}
SERVE_LINE = re.compile(r"served (\d+) epochs: (\d+) emissions appended, (\d+) replayed")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, REPO])
    # The service orders emissions of one tick by string-hash iteration
    # order; a fixed hash seed makes its emission log comparable byte for
    # byte across runs, flow modes and checkpoint settings.
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# Inputs and cross-run records
# ---------------------------------------------------------------------------
def make_trace(objects, spacing, seed, rounds=None, epochs=None):
    """A warehouse trace of whole aisle passes: ``rounds`` of them, or as
    many as come closest to ``epochs`` epochs (never a cut-off pass)."""
    from repro.simulation import LayoutConfig, WarehouseConfig, WarehouseSimulator

    config = WarehouseConfig(layout=LayoutConfig(n_objects=objects, object_spacing_ft=spacing), seed=seed)
    if rounds is None:
        lo, hi = WarehouseSimulator(config).layout.span_y
        per_pass = (hi - lo + 2 * config.lead_ft) / config.speed_ft_per_epoch
        rounds = max(1, round(epochs / per_pass))
    return WarehouseSimulator(replace(config, n_rounds=rounds)).generate()


def dump_trace(trace, path):
    with open(path, "w") as fp:
        trace.dump(fp)


class Records:
    """Cross-run memory in the checkout: output digests and untraced walls."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path) as fp:
                self.data = json.load(fp)
        except (OSError, ValueError):
            self.data = {}

    def check_digest(self, key, digest):
        """True if ``digest`` matches every earlier run under ``key``."""
        digests = self.data.setdefault("digests", {})
        known = digests.setdefault(key, digest)
        return known == digest

    def add_wall(self, workload, seconds, wall):
        self.data.setdefault("walls", {}).setdefault(f"{workload}:{seconds}", []).append(wall)

    def median_wall(self, workload, seconds):
        walls = self.data.get("walls", {}).get(f"{workload}:{seconds}")
        return statistics.median(walls) if walls else None

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fp:
            json.dump(self.data, fp)
        os.replace(tmp, self.path)


def emitted_location_error(rows, truth_positions):
    """Mean planar error over every emitted ``location_updates`` row.

    Every row is a location a subscriber acts on, and scoring all of them
    (not only each tag's last) keeps the figure steady across seeds.
    """
    from repro.eval.metrics import inference_error

    estimates, truth = {}, {}
    for row in rows:
        if row["query"] != "location_updates":
            continue
        number = int(str(row["row"]["tag_id"]).split(":")[1])
        if number in truth_positions:
            estimates[len(estimates)] = [row["row"]["x"], row["row"]["y"]]
            truth[len(truth)] = truth_positions[number]
    return inference_error(estimates, truth) if estimates else None


def location_error(estimates, truth_positions):
    from repro.eval.metrics import inference_error

    numbers = sorted(set(estimates) & set(truth_positions))
    if not numbers:
        return None
    return inference_error(estimates, truth_positions, numbers)


# ---------------------------------------------------------------------------
# batch_full / batch_ckpt
# ---------------------------------------------------------------------------
def run_batch(args, work, records):
    from perfbench.common import percentile

    cal = make_trace(BATCH_OBJECTS, BATCH_SPACING_FT, CALIBRATION_SEED, rounds=1)
    trace = make_trace(
        BATCH_OBJECTS, BATCH_SPACING_FT, args.seed + 1, epochs=args.seconds * BATCH_EPOCHS_PER_S
    )
    cal_path = os.path.join(work, "calibration.jsonl")
    trace_path = os.path.join(work, "batch.jsonl")
    dump_trace(cal, cal_path)
    dump_trace(trace, trace_path)
    expected_epochs = len(trace.epochs())
    out = os.path.join(work, "batch.out.json")
    cmd = [sys.executable, "-m", "perfbench.batch_child", cal_path, trace_path, out]
    spans_path = os.path.join(work, "spans.jsonl")
    cmd += ["--setups", "1", "--spans", spans_path] if args.trace else ["--setups", str(SETUPS)]
    if args.workload == "batch_ckpt":
        cmd += ["--checkpoint-dir", os.path.join(work, "ck")]
    proc = subprocess.run(
        cmd, cwd=REPO, env=child_env(), timeout=CHILD_TIMEOUT_S, capture_output=True, text=True
    )
    checks, report = {}, {"attempted": expected_epochs}
    checks["child_exit_0"] = proc.returncode == 0
    if proc.returncode != 0:
        report["stderr"] = proc.stderr[-2000:]
        return checks, report, {}
    with open(out) as fp:
        child = json.load(fp)

    estimates = {int(k): v for k, v in child["estimates"].items()}
    error = location_error(estimates, trace.truth.final_object_locations())
    checks["epochs_match"] = child["epochs"] == expected_epochs
    checks["every_tag_estimated"] = len(estimates) == BATCH_OBJECTS
    checks["error_recomputed"] = error is not None and error.xy <= MAX_ERROR_FT
    checks["events_emitted"] = child["events"] > 0
    checks["digest_repeats"] = records.check_digest(
        f"batch:{args.seed}:{args.seconds}", child["event_digest"]
    )
    p50 = percentile(child["step_s"], 0.50)
    p90 = percentile(child["step_s"], 0.90)
    checks["p90_has_10_beyond"] = p90 is not None
    report.update(
        epochs=child["epochs"],
        events=child["events"],
        event_digest=child["event_digest"],
        error_objects=error.n_objects if error else 0,
        latency_samples=len(child["step_s"]),
        setup_samples_s=child["setup_s"],
    )
    metrics = {
        "epochs_per_s": (child["epochs"] / child["run_s"], "epochs/s"),
        "emit_latency_p50_ms": ((p50.value if p50 else 0.0) * 1e3, "ms"),
        "emit_latency_p90_ms": ((p90.value if p90 else 0.0) * 1e3, "ms"),
        "location_error_ft": (error.xy if error else 0.0, "ft"),
        "setup_s": (statistics.median(child["setup_s"]), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MiB"),
    }
    if args.trace:
        metrics = batch_layers(args, child, records)
        report.update(span_report(child["trace"]))
    else:
        records.add_wall(args.workload, args.seconds, child["run_s"])
    return checks, report, metrics


def zero_layers():
    from perfbench.spans import LAYER_TIMES

    names = list(LAYER_TIMES) + [
        "runtime.epochs", "runtime.events_published",
        "inference.particle_rows", "inference.active_objects_mean", "inference.object_resamples",
        "query.ticks", "query.emissions_suppressed", "query.cache_hit_rate", "query.cache_lookups",
        "serve.frames_in", "serve.pauses", "serve.peak_buffered", "serve.backlog_max",
        "state.checkpoints", "state.checkpoint_bytes",
        "loadgen.lag_p99_ms", "loadgen.credit_wait_s",
        "untraced_s", "traced_wall_s", "tracing.spans", "tracing.span_cost_s", "tracing.wall_ratio",
    ]
    return {name: 0.0 for name in names}


UNITS = {
    "_s": "s", "_ms": "ms", "_bytes": "bytes", "_rate": "ratio", "_ratio": "ratio",
}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def trace_layers(trace_report, measured_wall, workload, seconds, records):
    from perfbench.spans import layer_times, wrapper_cost_s

    values = zero_layers()
    values.update(layer_times(trace_report["by_name"]))
    values["untraced_s"] = trace_report["untraced_s"]
    values["traced_wall_s"] = trace_report["wall_s"]
    values["tracing.spans"] = trace_report["spans"]
    values["tracing.span_cost_s"] = trace_report["spans"] * wrapper_cost_s()
    untraced = records.median_wall(workload, seconds)
    values["tracing.wall_ratio"] = measured_wall / untraced if untraced else 0.0
    checkpoints = trace_report["by_name"].get("state.checkpoint", {}).get("calls", 0)
    values["state.checkpoints"] = checkpoints
    if checkpoints:
        values["state.checkpoint_bytes"] = trace_report["counters"].get("state.checkpoint_bytes", 0.0) / checkpoints
    return values


def span_report(trace_report):
    """Per-span busy/self times and absent hooks, for the report line."""
    return {
        "spans_by_name": trace_report["by_name"],
        "self_sum_s": trace_report["self_sum_s"],
        "absent_hooks": trace_report["absent"],
    }


def batch_layers(args, child, records):
    values = trace_layers(child["trace"], child["run_s"], args.workload, args.seconds, records)
    stats = child["engine_stats"]
    epochs = max(1, child["epochs"])
    values["runtime.epochs"] = child["epochs"]
    values["runtime.events_published"] = child["events_published"]
    values["inference.particle_rows"] = child["trace"]["counters"].get("inference.particle_rows", 0.0)
    values["inference.active_objects_mean"] = stats.get("objects_processed", 0.0) / epochs
    values["inference.object_resamples"] = stats.get("object_resamples", 0.0)
    return {name: (value, unit_of(name)) for name, value in values.items()}


# ---------------------------------------------------------------------------
# serve_open
# ---------------------------------------------------------------------------
def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fp:
            return fp.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_tree(proc, known=(), grace_s=20.0):
    """Stop a service and every worker it forked; wait until all ended.

    ``known`` holds pids seen in the tree earlier: workers of a service
    that already died are reparented and no longer show up under it.
    """
    from perfbench.loadgen import process_tree

    pids = set(known)
    if proc.poll() is None:
        pids.update(process_tree(proc.pid))
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    pids.discard(proc.pid)
    deadline = time.monotonic() + grace_s
    while any(_alive(pid) for pid in pids):
        if time.monotonic() > deadline:
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.02)


def probe_setup(cmd, sock, work):
    """One launch: seconds until the socket accepts, then drain and stop."""
    t0 = time.perf_counter()
    with open(os.path.join(work, "probe.log"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    try:
        while True:
            if proc.poll() is not None:
                return None
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S / 2:
                return None
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                conn.connect(os.path.relpath(os.path.join(work, sock)))
                return time.perf_counter() - t0
            except OSError:
                time.sleep(0.005)
            finally:
                conn.close()
    finally:
        stop_tree(proc)


def serve_cmd(cal_path, sock, log, report_path=None, spans_path=None):
    """The service command line; paths are relative to its run directory,
    which keeps the unix socket path short."""
    tail = [cal_path, "--socket", sock, "--emissions", log, *SERVE_FLAGS]
    if report_path:
        return [sys.executable, "-m", "perfbench.serve_child", report_path, spans_path, "--", *tail]
    return [sys.executable, "-m", "repro", "serve", *tail]


def run_serve(args, work, records):
    from perfbench import loadgen
    from perfbench.common import emission_latencies, percentile, trend_growth
    from repro.serve.client import split_trace

    cal = make_trace(SERVE_OBJECTS, SERVE_SPACING_FT, CALIBRATION_SEED, rounds=1)
    rep = make_trace(SERVE_OBJECTS, SERVE_SPACING_FT, args.seed + 1, epochs=args.seconds * OPEN_RATE)
    cal_path = os.path.join(work, "calibration.jsonl")
    dump_trace(cal, cal_path)
    stream = split_trace(rep, 1)[0]
    times = [float(r.time) for r in stream]
    epochs = rep.epochs()
    expected_epochs = len(epochs)
    end_time = epochs[-1].time + rep.epoch_length

    setups = []
    if not args.trace:
        for i in range(SETUPS - 1):
            probe_dir = os.path.join(work, f"probe{i}")
            os.makedirs(probe_dir)
            cmd = serve_cmd(cal_path, "s.sock", "e.jsonl")
            setups.append(probe_setup(cmd, "s.sock", probe_dir))

    main_dir = os.path.join(work, "main")
    os.makedirs(main_dir)
    report_path = os.path.join(work, "serve_report.json") if args.trace else None
    spans_path = os.path.join(work, "spans.jsonl") if args.trace else None
    cmd = serve_cmd(cal_path, "s.sock", "e.jsonl", report_path, spans_path)
    out_path = os.path.join(work, "serve.out")
    checks, report = {}, {"attempted": len(stream)}

    async def session(proc, t0, sampler):
        sock = os.path.relpath(os.path.join(main_dir, "s.sock"))
        conn = await loadgen.connect_until_up(sock, proc, CHILD_TIMEOUT_S / 2)
        if conn is None:
            return None, None
        setup = time.perf_counter() - t0
        result = await loadgen.drive(
            conn, sock, stream, times, end_time, OPEN_RATE, sampler,
            done_timeout_s=CHILD_TIMEOUT_S / 2,
        )
        return setup, result

    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=main_dir, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
    sampler = loadgen.PssSampler(proc.pid)
    code = None
    try:
        setup, result = asyncio.run(session(proc, t0, sampler))
        try:
            code = proc.wait(CHILD_TIMEOUT_S / 2)
        except subprocess.TimeoutExpired:
            pass
    finally:
        stop_tree(proc, sampler.seen)
    setups.append(setup)
    with open(out_path) as fp:
        service_out = fp.read()

    checks["service_up"] = result is not None and all(s is not None for s in setups)
    checks["service_exit_0"] = code == 0
    if result is None:
        report["service_output"] = service_out[-2000:]
        return checks, report, {}
    checks["stream_completed"] = result.error is None
    if result.error:
        report["error"] = result.error
        report["service_output"] = service_out[-2000:]
    summary = SERVE_LINE.search(service_out)
    served_epochs, appended = (int(summary.group(1)), int(summary.group(2))) if summary else (-1, -1)
    log_path = os.path.join(main_dir, "e.jsonl")
    with open(log_path, "rb") as fp:
        log_bytes = fp.read()
    received = b"".join(line + b"\n" for line in result.emit_lines)
    digest = hashlib.sha256(log_bytes).hexdigest()
    emitted = len(result.emit_lines)
    checks["records_sent"] = len(result.record_walls) == len(stream)
    checks["epochs_match"] = served_epochs == expected_epochs
    checks["emissions_match"] = emitted == appended == log_bytes.count(b"\n")
    checks["offsets_gapless"] = result.emit_offsets == list(range(emitted))
    checks["received_equals_log"] = received == log_bytes
    checks["digest_repeats"] = records.check_digest(f"serve:{args.seed}:{args.seconds}", digest)
    checks["enough_emissions"] = emitted >= MIN_EMISSIONS

    rows = [json.loads(line) for line in result.emit_lines]
    error = emitted_location_error(rows, rep.truth.final_object_locations())
    checks["error_recomputed"] = error is not None and error.xy <= MAX_ERROR_FT
    ticks = [float(row["time"]) for row in rows]
    lat, moved = emission_latencies(
        ticks, result.emit_walls, times, result.record_walls, result.end_wall, rep.epoch_length
    )
    # The emissions of one query tick leave in one burst and share one
    # timing, so a percentile needs ten distinct ticks beyond it.
    p50, p90 = percentile(lat, 0.50, groups=ticks), percentile(lat, 0.90, groups=ticks)
    checks["p90_has_10_ticks_beyond"] = p90 is not None
    # Nothing can arrive before the record that released it was sent: a
    # negative sample means the emission -> epoch mapping broke.
    checks["latencies_positive"] = bool(lat) and min(lat) > 0
    growth = trend_growth(lat)

    interval = (result.emit_walls[-1] if result.emit_walls else time.perf_counter()) - result.first_send
    lag = percentile(result.lags, 0.99) if result.lags else None
    lag_ms = lag.value * 1e3 if lag else 0.0
    report.update(
        sent=len(result.record_walls),
        epochs=served_epochs,
        emissions=emitted,
        emission_digest=digest,
        latency_samples=len(lat),
        latency_ticks=len(set(ticks)),
        p90_ticks_beyond=p90.support if p90 else 0,
        producer_moved_back=moved,
        latency_growth_s=growth,
        # The open loop is a valid sample only while the service keeps up.
        valid_sample=growth <= MAX_LATENCY_GROWTH_S,
        latency_window_p50_ms=[
            statistics.median(lat[k * len(lat) // 8:(k + 1) * len(lat) // 8]) * 1e3
            for k in range(8)
        ] if len(lat) >= 8 else [],
        error_objects=error.n_objects if error else 0,
        setup_samples_s=setups,
        pss_samples=sampler.samples,
        loadgen_lag_p99_ms=lag_ms,
        credit_wait_s=result.credit_wait_s,
        degraded_emissions=result.degraded,
        offered_rate=OPEN_RATE,
    )
    metrics = {
        "epochs_per_s": (max(served_epochs, 0) / interval, "epochs/s"),
        "emit_latency_p50_ms": ((p50.value if p50 else 0.0) * 1e3, "ms"),
        "emit_latency_p90_ms": ((p90.value if p90 else 0.0) * 1e3, "ms"),
        "location_error_ft": (error.xy if error else 0.0, "ft"),
        "setup_s": (statistics.median([s for s in setups if s is not None]), "s"),
        "peak_rss_mb": (sampler.peak / 2**20, "MiB"),
    }
    if args.trace:
        with open(report_path) as fp:
            traced = json.load(fp)
        metrics = serve_layers(args, traced, result, interval, lag_ms, records)
        report.update(span_report(traced))
        # Ticks whose every row a query suppressed: where the emission ->
        # producing epoch mapping can name too late an epoch.
        engine_ticks = traced.get("service_stats", {}).get("multiplexer", {}).get("ticks", 0)
        report["ticks_without_emission"] = engine_ticks - len(set(ticks))
    else:
        records.add_wall(args.workload, args.seconds, interval)
    return checks, report, metrics


def serve_layers(args, traced, result, interval, lag_ms, records):
    values = trace_layers(traced, interval, args.workload, args.seconds, records)
    stats = traced.get("service_stats", {})
    ingest = stats.get("ingest", {})
    mux = stats.get("multiplexer", {})
    counters = traced["counters"]
    values.update(
        {
            "runtime.epochs": stats.get("epochs_processed", 0),
            "runtime.events_published": traced.get("events_published", 0),
            "query.ticks": mux.get("ticks", 0),
            "query.emissions_suppressed": mux.get("emissions_suppressed", 0),
            "query.cache_hit_rate": mux.get("cache_hit_rate", 0.0),
            "query.cache_lookups": mux.get("cache_hits", 0) + mux.get("cache_misses", 0),
            "serve.frames_in": ingest.get("frames_received", 0),
            "serve.pauses": ingest.get("pauses", 0),
            "serve.peak_buffered": ingest.get("peak_buffered", 0),
            "serve.backlog_max": counters.get("serve.backlog_max", 0.0),
            "inference.particle_rows": counters.get("inference.particle_rows", 0.0),
            "loadgen.lag_p99_ms": lag_ms,
            "loadgen.credit_wait_s": result.credit_wait_s,
        }
    )
    return {name: (float(value), unit_of(name)) for name, value in values.items()}


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=37)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source tree {SRC} is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path[:0] = [SRC, REPO]
    from perfbench.common import check_metric_name, cpu_times, host_block, steal_share

    state_dir = os.path.join(REPO, ".bench_build", "perfbench")
    work = os.path.join(state_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    records = Records(os.path.join(state_dir, "records.json"))
    try:
        host = host_block()
        cpu_before = cpu_times()
        runner = run_serve if args.workload == "serve_open" else run_batch
        checks, report, metrics = runner(args, work, records)
        spans = os.path.join(work, "spans.jsonl")
        if args.trace and os.path.exists(spans):
            kept = os.path.join(state_dir, f"{args.workload}-{args.seed}.spans.jsonl")
            shutil.move(spans, kept)
            report["spans_jsonl"] = os.path.relpath(kept, REPO)
        host["steal_share"] = steal_share(cpu_before, cpu_times())
        records.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = bool(checks) and all(checks.values()) and bool(metrics)
    if not metrics:  # the run failed before measuring: report every metric as 0
        names = zero_layers() if args.trace else E2E_UNITS
        metrics = {name: (0.0, E2E_UNITS.get(name) or unit_of(name)) for name in names}
    attempted = max(1, int(report.get("attempted", 1)))
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  host=host, checks=checks)
    print("report: " + json.dumps(report, default=str))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {
            check_metric_name(name): {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
