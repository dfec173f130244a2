"""Benchmark-owned tracing: timing wrappers around the program's public calls.

The traced run installs :class:`Tracer` wrappers on classes and modules of
the program *before* anything is constructed (the query bridge captures
bound methods at subscribe time).  Spans stay in memory and are written as
JSONL once the run ends.  A layer's self time is its span duration minus the
part its child spans cover; ``untraced_s`` is the wall clock no span covers.

Spans are recorded in the process that installed the tracer only: forked
shard workers inherit the wrappers but record nothing, so under a worker
executor kernel time shows up as the parent's ``runtime.worker_wait``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, attribute path, span name).  A target a later refactor removed
#: is reported as absent, never as a crash.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    # The CLI binds its own name at import; wrap it before the module's.
    ("repro.cli", "fit_sensor_supervised", "learning.fit"),
    ("repro.learning", "fit_sensor_supervised", "learning.fit"),
    ("repro.streams.sources", "Trace.epochs", "streams.synchronize"),
    ("repro.runtime.runtime", "ShardedRuntime.__init__", "runtime.construct"),
    ("repro.runtime.runtime", "ShardedRuntime.step", "runtime.step"),
    ("repro.runtime.router", "EpochRouter.split", "runtime.route"),
    ("repro.runtime.router", "EpochRouter.split_numbers", "runtime.route"),
    ("repro.runtime.workers", "ShardProxyBase.step_async", "runtime.dispatch"),
    ("repro.runtime.workers", "ShardProxyBase.collect_events", "runtime.worker_wait"),
    ("repro.runtime.bus", "EventBus.publish_many", "runtime.merge"),
    ("repro.inference.pipeline", "CleaningPipeline.step", "inference.pipeline"),
    ("repro.inference.factored", "FactoredParticleFilter.step", "inference.filter_step"),
    ("repro.inference.arena", "BeliefArena.gather", "inference.gather"),
    ("repro.inference.arena", "BeliefArena.scatter", "inference.scatter"),
    ("repro.models.objects", "ObjectLocationModel.propagate_many", "inference.propagate"),
    ("repro.models.joint", "RFIDWorldModel.object_evidence_log_likelihood", "inference.object_likelihood"),
    ("repro.models.joint", "RFIDWorldModel.reader_evidence_log_likelihood", "inference.reader_likelihood"),
    ("repro.query.multiplexer", "MultiplexedQueryEngine.push", "query.push"),
    ("repro.serve.protocol", "FrameDecoder.feed_frames", "serve.decode"),
    ("repro.serve.watermark", "WatermarkAligner.push", "serve.align"),
    ("repro.serve.watermark", "WatermarkAligner.poll", "serve.align"),
    ("repro.serve.sink", "DeliverySink.emit", "serve.sink"),
    ("repro.serve.sink", "DeliverySink.flush", "serve.sink"),
    ("repro.runtime.runtime", "ShardedRuntime.write_periodic_checkpoint", "state.checkpoint"),
)

#: Per-layer time metric -> (``busy`` or ``self``, span name).
LAYER_TIMES: Dict[str, Tuple[str, str]] = {
    "learning.fit_s": ("busy", "learning.fit"),
    "streams.synchronize_s": ("busy", "streams.synchronize"),
    "runtime.construct_s": ("busy", "runtime.construct"),
    "runtime.step_s": ("self", "runtime.step"),
    "runtime.route_s": ("busy", "runtime.route"),
    "runtime.dispatch_s": ("busy", "runtime.dispatch"),
    "runtime.worker_wait_s": ("busy", "runtime.worker_wait"),
    "runtime.merge_s": ("self", "runtime.merge"),
    "inference.pipeline_s": ("self", "inference.pipeline"),
    "inference.filter_step_s": ("self", "inference.filter_step"),
    "inference.gather_s": ("busy", "inference.gather"),
    "inference.scatter_s": ("busy", "inference.scatter"),
    "inference.propagate_s": ("busy", "inference.propagate"),
    "inference.object_likelihood_s": ("busy", "inference.object_likelihood"),
    "inference.reader_likelihood_s": ("busy", "inference.reader_likelihood"),
    "query.push_s": ("self", "query.push"),
    "serve.decode_s": ("busy", "serve.decode"),
    "serve.align_s": ("busy", "serve.align"),
    "serve.sink_s": ("busy", "serve.sink"),
    "state.checkpoint_s": ("busy", "state.checkpoint"),
}

Span = Tuple[str, float, float, int]  # name, start, end, parent index (-1: root)


def _count_gathered_rows(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["inference.particle_rows"] += len(result[3])


def _count_checkpoint_bytes(tracer: "Tracer", args: tuple, result) -> None:
    total = 0
    for root, _, files in os.walk(str(result)):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                continue
    tracer.counters["state.checkpoint_bytes"] += total


#: ``on_call`` hooks both children install: particle rows the filter works
#: on, and the on-disk bytes of each checkpoint cut.
COUNTERS = {
    "repro.inference.arena.BeliefArena.gather": _count_gathered_rows,
    "repro.runtime.runtime.ShardedRuntime.write_periodic_checkpoint": _count_checkpoint_bytes,
}


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy time (outermost calls) and self time."""
    selfs = self_times(spans)
    names = [name for name, _, _, _ in spans]
    out: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[index]
        # A call nested in a same-name call is already inside its busy time.
        ancestor = parent
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += end - start
    return out


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.epoch_of_span: List[int] = []
        self.absent: List[str] = []
        self.installed: List[str] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._epoch = -1
        self._enabled = True
        self._restore: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._enabled = False

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_call: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> bool:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        # Plain functions only (inherited methods included): the wrapper is
        # set on ``owner`` itself, shadowing a base-class definition.
        original = inspect.getattr_static(owner, attr, None)
        if not inspect.isfunction(original):
            return False
        tracer = self
        opens_epoch = name == "runtime.step"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._enabled:
                return original(*args, **kwargs)
            if opens_epoch:
                tracer._epoch += 1
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer.epoch_of_span.append(tracer._epoch)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if on_call is not None:
                on_call(tracer, args, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return True

    def install(self, hooks: Iterable[Tuple[str, str, str]] = HOOKS, extra=None) -> None:
        """Install every hook; missing modules or attributes are recorded."""
        extra = extra or {}
        for module_name, path, name in hooks:
            target = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            if self.wrap(owner, attr, name, extra.get(target)):
                self.installed.append(target)
            else:
                self.absent.append(target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fp:
            for (name, start, end, parent), epoch in zip(self.spans, self.epoch_of_span):
                fp.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "epoch": epoch}
                    )
                    + "\n"
                )

    def report(self, wall_s: float) -> Dict[str, object]:
        """Everything run.py needs to compute the per-layer metrics."""
        by_name = summarize(self.spans)
        self_sum = sum(row["self_s"] for row in by_name.values())
        return {
            "wall_s": wall_s,
            "self_sum_s": self_sum,
            "untraced_s": wall_s - self_sum,
            "spans": len(self.spans),
            "by_name": by_name,
            "counters": dict(self.counters),
            "absent": self.absent,
        }


def layer_times(by_name: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Map span summaries onto the per-layer time metrics (0 when unused)."""
    out = {}
    for metric, (mode, name) in LAYER_TIMES.items():
        row = by_name.get(name)
        out[metric] = float(row[f"{mode}_s"]) if row else 0.0
    return out


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span (enter + exit) around a no-op call."""

    class _Probe:
        def noop(self) -> None:
            return None

    tracer = Tracer()
    tracer.wrap(_Probe, "noop", "probe")
    probe = _Probe()
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    traced = time.perf_counter() - t0
    tracer.uninstall()
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    bare = time.perf_counter() - t0
    return max(0.0, (traced - bare) / calls)
