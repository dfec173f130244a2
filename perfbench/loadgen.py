"""The serve workload's client side: one source, one subscriber, one process.

Both connections live on one asyncio loop in the benchmark process.  The
source follows a fixed wall-clock schedule (open loop): a record is due at
its stream time mapped through :class:`perfbench.common.Schedule`, and a
slow service does not slow the schedule.  It still honours the service's
CREDIT window and PAUSE, and records how long it waited on them.  The
subscriber stamps every EMIT frame on arrival.  A third task samples the
proportional set size of the service and its worker processes.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Callable, List, Optional, Sequence

from repro.serve import protocol
from repro.serve.protocol import FrameDecoder

from .common import Schedule

_READ_CHUNK = 1 << 16
_ACK_EVERY = 64
_PSS_PERIOD_S = 0.25


def process_tree(pid: int) -> List[int]:
    """``pid`` and its descendants, from /proc."""
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        try:
            for tid in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{tid}/children") as fp:
                    todo.extend(int(c) for c in fp.read().split())
        except OSError:
            continue
    return out


def pss_bytes(pids: Sequence[int]) -> int:
    """Summed proportional set size of ``pids`` (gone processes count 0)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fp:
                for line in fp:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
    return total


class PssSampler:
    """Peak summed PSS of a process tree, sampled on the loop."""

    def __init__(self, pid: int):
        self.pid = pid
        self.peak = 0
        self.samples = 0
        #: Every pid seen in the tree, so teardown can wait for all of them.
        self.seen = set()

    def sample(self) -> None:
        pids = process_tree(self.pid)
        self.seen.update(pids)
        self.peak = max(self.peak, pss_bytes(pids))
        self.samples += 1

    async def run(self, stop: asyncio.Event) -> None:
        while not stop.is_set():
            self.sample()
            try:
                await asyncio.wait_for(stop.wait(), _PSS_PERIOD_S)
            except asyncio.TimeoutError:
                pass


class _Reader:
    """Frames from one connection, fed to a handler until EOF."""

    def __init__(self, reader: asyncio.StreamReader, handle: Callable):
        self.reader = reader
        self.handle = handle
        self.decoder = FrameDecoder()

    async def run(self) -> None:
        while True:
            try:
                chunk = await self.reader.read(_READ_CHUNK)
            except ConnectionError:
                # A reset ends the stream like EOF; what arrived is checked
                # against the emission log afterwards.
                return
            if not chunk:
                return
            for frame in self.decoder.feed_frames(chunk):
                self.handle(frame)


class LoadResult:
    def __init__(self) -> None:
        self.record_walls: List[float] = []  # due time per record
        self.lags: List[float] = []  # actual send - due
        self.end_wall = 0.0
        self.first_send = 0.0
        self.credit_wait_s = 0.0
        self.emit_walls: List[float] = []
        self.emit_offsets: List[int] = []
        self.emit_lines: List[bytes] = []
        self.degraded = 0
        self.error: Optional[str] = None


async def connect_until_up(socket_path: str, proc, timeout_s: float):
    """Connect as soon as the service accepts; None if it died or timed out."""
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            return None
        try:
            return await asyncio.open_unix_connection(socket_path)
        except OSError:
            await asyncio.sleep(0.005)
    return None


async def _hello(reader, writer, frame: bytes) -> protocol.Frame:
    writer.write(frame)
    await writer.drain()
    decoder = FrameDecoder()
    while True:
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            raise ConnectionError("service closed during the handshake")
        frames = decoder.feed_frames(chunk)
        if frames:
            if frames[0].kind != protocol.HELLO_ACK:
                raise ConnectionError(f"handshake answered with {frames[0].name}")
            return frames[0]


async def drive(
    subscriber,
    socket_path: str,
    records: Sequence[object],
    record_times: Sequence[float],
    end_time: float,
    rate: float,
    sampler: PssSampler,
    done_timeout_s: float,
) -> LoadResult:
    """Stream ``records`` into the service and collect every emission.

    ``subscriber`` is the (reader, writer) pair that proved the service up.
    ``rate`` is stream seconds per wall second.  ``end_time`` is the stream
    time the end-of-stream marker is due.
    """
    result = LoadResult()
    stop_sampling = asyncio.Event()
    sampling = asyncio.create_task(sampler.run(stop_sampling))
    sub_reader, sub_writer = subscriber
    src_writer = None
    try:
        await _hello(sub_reader, sub_writer, protocol.encode_hello("subscribe", from_offset=0))
        acking = True

        def on_emit(frame: protocol.Frame) -> None:
            if frame.kind != protocol.EMIT:
                result.error = result.error or f"subscriber got {frame.name}"
                return
            result.emit_walls.append(time.perf_counter())
            result.emit_offsets.append(int(frame.data))
            result.emit_lines.append(frame.line)
            result.degraded += int(frame.degraded)
            # No ACK once the stream ends: the service closes after its final
            # flush, and a write into the closed socket would abort the
            # transport before the last EMIT frames are read.
            if acking and len(result.emit_offsets) % _ACK_EVERY == 0:
                sub_writer.write(protocol.encode_ack(int(frame.data)))

        subscribing = asyncio.create_task(_Reader(sub_reader, on_emit).run())

        src_reader, src_writer = await asyncio.open_unix_connection(socket_path)
        ack = await _hello(src_reader, src_writer, protocol.encode_hello("source", source="bench0"))
        flow = {"credit": int(ack.data.get("credit", 0)), "paused": bool(ack.data.get("paused"))}
        changed = asyncio.Event()
        ended = asyncio.Event()

        def on_flow(frame: protocol.Frame) -> None:
            if frame.kind == protocol.CREDIT:
                flow["credit"] += int(frame.data)
            elif frame.kind == protocol.PAUSE:
                flow["paused"] = True
            elif frame.kind == protocol.RESUME:
                flow["paused"] = False
            elif frame.kind == protocol.END_ACK:
                ended.set()
            else:
                result.error = result.error or f"source got {frame.name}: {frame.data}"
                ended.set()
            changed.set()

        flowing = asyncio.create_task(_Reader(src_reader, on_flow).run())

        start = time.perf_counter() + 0.05
        schedule = Schedule(start, record_times[0], rate)
        result.first_send = start
        for seq, (record, stream_time) in enumerate(zip(records, record_times), 1):
            due = schedule.due(stream_time)
            now = time.perf_counter()
            if due > now:
                await src_writer.drain()
                await asyncio.sleep(due - now)
            if flow["credit"] <= 0 or flow["paused"]:
                await src_writer.drain()
                t_wait = time.perf_counter()
                while flow["credit"] <= 0 or flow["paused"]:
                    if flowing.done():
                        raise ConnectionError("service closed while the source waited for credit")
                    changed.clear()
                    await changed.wait()
                result.credit_wait_s += time.perf_counter() - t_wait
            encode = protocol.encode_reading if hasattr(record, "tag") else protocol.encode_report
            src_writer.write(encode(seq, record))
            flow["credit"] -= 1
            result.record_walls.append(due)
            result.lags.append(time.perf_counter() - due)
        due = schedule.due(end_time)
        now = time.perf_counter()
        if due > now:
            await src_writer.drain()
            await asyncio.sleep(due - now)
        result.end_wall = due
        acking = False
        src_writer.write(protocol.encode_source_end())
        await src_writer.drain()
        await asyncio.wait_for(ended.wait(), done_timeout_s)
        # The service closes subscribers once the final flush is delivered.
        await asyncio.wait_for(subscribing, done_timeout_s)
        flowing.cancel()
    except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
        result.error = result.error or f"{type(exc).__name__}: {exc}"
    finally:
        stop_sampling.set()
        await sampling
        for writer in (sub_writer, src_writer):
            if writer is not None:
                writer.close()
    return result

