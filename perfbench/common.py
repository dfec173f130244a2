"""Pure helpers shared by perfbench/run.py, its child processes and tests.

Nothing here imports the program under test: percentiles, metric-name
validation, the open-loop schedule (stream time -> due wall time), the
emission -> producing epoch -> closing record mapping, the sustainability
check and the host fingerprint.
"""

from __future__ import annotations

import math
import os
import platform
import re
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

#: Metric names as the result line prints them.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Percentile:
    """One percentile of a sample, with the counts that make it reportable."""

    __slots__ = ("q", "value", "n", "beyond", "support")

    def __init__(self, q: float, value: float, n: int, beyond: int, support: int):
        self.q = q
        self.value = value
        self.n = n
        self.beyond = beyond
        #: Independent timings beyond the rank: ``beyond``, or the distinct
        #: groups among those samples when samples come in groups.
        self.support = support


def percentile(
    values: Sequence[float], q: float, min_beyond: int = 10, groups: Optional[Sequence[object]] = None
) -> Optional[Percentile]:
    """Nearest-rank ``q`` percentile of ``values``.

    ``groups`` (one key per value) marks samples that share one timing,
    such as the emissions of one query tick, which leave the service in
    one burst.  Returns None unless at least ``min_beyond`` samples (or
    distinct groups, when given) lie strictly beyond the reported rank, so
    a p95 needs at least 200 samples.  The sample count always travels
    with the value.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile q must be in (0, 1), got {q}")
    n = len(values)
    if n == 0:
        return None
    if groups is not None and len(groups) != n:
        raise ValueError("groups must hold one key per value")
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    beyond = n - rank
    order = sorted(range(n), key=values.__getitem__)
    support = beyond if groups is None else len({groups[i] for i in order[rank:]})
    if support < min_beyond:
        return None
    return Percentile(q, float(values[order[rank - 1]]), n, beyond, support)


# ---------------------------------------------------------------------------
# Epoch grid and open-loop schedule
# ---------------------------------------------------------------------------
def epoch_origin(first_time: float, epoch_length: float) -> float:
    """Left edge of epoch 0, as the program's epoch synchronizer sets it."""
    return math.floor(first_time / epoch_length) * epoch_length


def epoch_of(time_s: float, origin: float, epoch_length: float) -> int:
    """Index of the epoch holding stream time ``time_s``."""
    return int(math.floor((time_s - origin) / epoch_length + 1e-9))


def closing_record(record_times: Sequence[float], epoch: int, origin: float, epoch_length: float) -> int:
    """Index of the record whose arrival releases ``epoch``.

    A single source's epoch is released once a record at or past the
    epoch's end arrives.  Returns ``len(record_times)`` when no such record
    exists: the end-of-stream marker closes the epoch.
    """
    end = origin + (epoch + 1) * epoch_length
    return bisect_left(record_times, end - 1e-9)


class Schedule:
    """Open-loop plan: stream time maps linearly to a due wall time."""

    def __init__(self, start_wall: float, stream_origin: float, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.start_wall = start_wall
        self.stream_origin = stream_origin
        #: Stream seconds offered per wall second.
        self.rate = rate

    def due(self, stream_time: float) -> float:
        return self.start_wall + (stream_time - self.stream_origin) / self.rate


def producing_epochs(emission_times: Sequence[float], origin: float, epoch_length: float) -> List[Optional[int]]:
    """The epoch whose step produced each emission; None for the final flush.

    The query engine closes the tick at stream time T when the first event
    with a later time reaches it, and the filter publishes each event in
    the epoch holding the event's time.  Every event also changes its tag's
    ``location_updates`` row, so the next distinct emission time T' after T
    names the producing epoch; the last tick is flushed at end of stream.
    """
    distinct = sorted(set(emission_times))
    out: List[Optional[int]] = []
    for t in emission_times:
        i = bisect_right(distinct, t)
        out.append(epoch_of(distinct[i], origin, epoch_length) if i < len(distinct) else None)
    return out


def emission_latencies(
    emission_times: Sequence[float],
    receive_walls: Sequence[float],
    record_times: Sequence[float],
    send_walls: Sequence[float],
    end_wall: float,
    epoch_length: float,
) -> Tuple[List[float], int]:
    """Seconds from the send of the record that released each emission.

    ``emission_times`` are the emissions' stream times in log order,
    ``record_times`` the sent records' stream times (nondecreasing) and
    ``send_walls`` when each was due (open loop) or sent (closed loop);
    ``end_wall`` is the end-of-stream marker's.  The record that released
    an emission is the one that closed its producing epoch.

    An event whose rows every query suppressed closes a tick without
    showing in the log; the next emission time then names a later epoch
    than the one that produced the tick.  Where that epoch's closing record
    was sent only after the emission arrived, the producing epoch is moved
    back to the latest epoch whose closing record had been sent.  Returns
    the latencies and the number of emissions so moved.
    """
    if not record_times:
        raise ValueError("no records sent")
    origin = epoch_origin(record_times[0], epoch_length)

    def sent(epoch: Optional[int]) -> float:
        index = len(record_times) if epoch is None else closing_record(record_times, epoch, origin, epoch_length)
        return send_walls[index] if index < len(send_walls) else end_wall

    out, moved = [], 0
    producers = producing_epochs(emission_times, origin, epoch_length)
    for time_s, epoch, received in zip(emission_times, producers, receive_walls):
        released = sent(epoch)
        if released > received and epoch is not None:
            earliest = epoch_of(time_s, origin, epoch_length) + 1
            while epoch > earliest and released > received:
                epoch -= 1
                released = sent(epoch)
            moved += 1
        out.append(received - released)
    return out, moved


def trend_growth(values: Sequence[float], windows: int = 4) -> float:
    """Median of the last window minus the median of the first.

    ``values`` in time order; a sustained offered rate keeps this near
    zero, an unsustainable one makes it grow with the run.
    """
    if len(values) < windows * 2:
        return 0.0
    size = len(values) // windows
    return statistics.median(values[-size:]) - statistics.median(values[:size])


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_times() -> Optional[List[int]]:
    """The machine's aggregate CPU time counters (/proc/stat), or None."""
    try:
        with open("/proc/stat") as fp:
            return [int(v) for v in fp.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor took between two :func:`cpu_times`
    readings: timing noise the program under test cannot cause or avoid."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def calibration_kernel_s(repeats: int = 5) -> float:
    """Median seconds of a fixed numpy kernel, timed in the same run."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((4096, 3))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(20):
            a @ a
            np.hypot(b[:, 0], b[:, 1]).sum()
            np.sort(b[:, 2])
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def host_block() -> Dict[str, object]:
    import numpy as np

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_kernel_s": calibration_kernel_s(),
    }
