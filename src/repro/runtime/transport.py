"""The shard wire: one codec and one framed connection for every worker.

Both worker-backed executors speak this codec over a stream socket — a
``socket.socketpair()`` to a locally forked worker (``process``) or a TCP
connection to a ``repro shard-host`` (``remote``).  Frames are
length-prefixed exactly like the ingest service's wire protocol
(:func:`repro.serve.protocol.wrap_frame` / :func:`~repro.serve.protocol
.split_frames`): ``u32 length (big-endian) | u8 type | payload``.  Three
rules keep the hot path binary and the cold path simple:

* **Hot frames are struct-packed.**  ``STEP`` requests and ``EVENTS``
  replies — the two frames exchanged every epoch — pack fixed-width fields
  with :mod:`struct`, no pickling: a routed :class:`~repro.streams.records
  .Epoch` is encoded straight to ``STEP`` bytes and a list of
  :class:`~repro.streams.records.LocationEvent`\\ s straight to ``EVENTS``
  bytes, and both decode straight back.  Floats cross as IEEE-754 f64, so
  a worker's emissions are **bit-identical** to an in-process shard's.
* **Control frames are pickled.**  Boot, snapshot/restore state trees,
  stats, and belief fetches are rare and structurally rich (nested dicts of
  numpy arrays); they cross as a pickled tuple inside one ``CONTROL``
  frame.  That makes the wire exactly as trusting as ``multiprocessing``:
  run shard hosts only on networks where every peer may execute code.
* **Heartbeats are empty frames** (``HB``), so the parent's
  deadline-bounded receive tells a dead link from a slow reply.

Every decode failure — truncation, trailing bytes, an unknown frame type, a
bad pickle — raises :class:`~repro.errors.WorkerError`: a desynchronized
link is a dead worker, and the supervisor heals it like one.

The shard host (:class:`ShardHostServer`) reads one boot frame per accepted
connection under a deadline, then forks a worker
(:func:`~repro.runtime.workers._worker_main`) straight onto the accepted
socket, then only watches its children: a worker whose peer hung up is
terminated, a dead worker's socket is shut down so the peer sees EOF at
once, and :meth:`ShardHostServer.shutdown` kills them all.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import socket
import struct
import threading
import time as _time
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..errors import WorkerError
from ..streams.records import (
    Epoch,
    LocationEvent,
    LocationStatistics,
    TagId,
    make_epoch,
)

# Frame type codes (u8 on the wire).
T_CONTROL = 1  # pickled tuple: boot, snapshot/restore, stats, ok/error, ...
T_STEP = 2  # struct-packed routed epoch (the parent→worker hot path)
T_EVENTS = 3  # struct-packed emitted events (the worker→parent hot path)
T_HB = 4  # empty heartbeat frame

#: time f64 | x y z f64 | flags u8 | heading f64 | n_obj u32 | n_shelf u32
#: (flags bit 0: position present; bit 1: heading present — handheld
#: readers report neither, positioning dropouts report no position)
_STEP_HEAD = struct.Struct("!ddddBdII")
_STEP_HAS_POSITION = 0x01
_STEP_HAS_HEADING = 0x02
_EVENTS_HEAD = struct.Struct("!I")
#: time f64 | tag number u32 | x y z f64 | has_stats u8
_EVENT_FIXED = struct.Struct("!dIdddB")
#: covariance 9×f64 (row-major) | confidence radius f64 | sample size u32
_EVENT_STATS = struct.Struct("!9ddI")

#: Frame-size guard.  Control frames carry whole checkpoint state trees
#: (arena slabs included), so the ceiling is per-message memory, not a
#: protocol limit.
MAX_MESSAGE_BYTES = 1 << 30

#: Deadline for the TCP connect + boot of one remote shard, on both ends.
CONNECT_TIMEOUT_S = 10.0


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split a ``host:port`` string (validated by RuntimeConfig)."""
    host, _, port = str(endpoint).rpartition(":")
    return host, int(port)


# ---------------------------------------------------------------------------
# Message codec: ("step", Epoch) / ("events", [LocationEvent]) / ("hb",) /
# any other tuple (pickled) <-> framed bytes
# ---------------------------------------------------------------------------
def _encode_step(epoch: Epoch) -> bytes:
    position = epoch.reported_position
    heading = epoch.reported_heading
    x, y, z = (0.0, 0.0, 0.0) if position is None else position
    flags = (0 if position is None else _STEP_HAS_POSITION) | (
        0 if heading is None else _STEP_HAS_HEADING
    )
    objects = [tag.number for tag in epoch.object_tags]
    shelves = [tag.number for tag in epoch.shelf_tags]
    head = _STEP_HEAD.pack(
        epoch.time,
        x,
        y,
        z,
        flags,
        0.0 if heading is None else heading,
        len(objects),
        len(shelves),
    )
    return head + struct.pack(f"!{len(objects) + len(shelves)}I", *objects, *shelves)


def _decode_step(payload: bytes) -> tuple:
    time, x, y, z, flags, heading, n_obj, n_shelf = _STEP_HEAD.unpack_from(payload)
    numbers = struct.unpack_from(f"!{n_obj + n_shelf}I", payload, _STEP_HEAD.size)
    _expect_end(payload, _STEP_HEAD.size + 4 * (n_obj + n_shelf))
    epoch = make_epoch(
        time,
        (x, y, z) if flags & _STEP_HAS_POSITION else None,
        object_tags=numbers[:n_obj],
        shelf_tags=numbers[n_obj:],
        reported_heading=heading if flags & _STEP_HAS_HEADING else None,
    )
    return ("step", epoch)


def _encode_events(events: List[LocationEvent]) -> bytes:
    parts = [_EVENTS_HEAD.pack(len(events))]
    for event in events:
        x, y, z = event.position
        stats = event.statistics
        parts.append(
            _EVENT_FIXED.pack(
                event.time, event.tag.number, x, y, z, 0 if stats is None else 1
            )
        )
        if stats is not None:
            parts.append(
                _EVENT_STATS.pack(
                    *stats.covariance, stats.confidence_radius, stats.sample_size
                )
            )
    return b"".join(parts)


def _decode_events(payload: bytes) -> tuple:
    (count,) = _EVENTS_HEAD.unpack_from(payload)
    offset = _EVENTS_HEAD.size
    events = []
    for _ in range(count):
        time, number, x, y, z, has_stats = _EVENT_FIXED.unpack_from(payload, offset)
        offset += _EVENT_FIXED.size
        statistics = None
        if has_stats:
            values = _EVENT_STATS.unpack_from(payload, offset)
            offset += _EVENT_STATS.size
            statistics = LocationStatistics(
                covariance=values[:9],
                confidence_radius=values[9],
                sample_size=values[10],
            )
        events.append(
            LocationEvent(
                time=time,
                tag=TagId.object(number),
                position=(x, y, z),
                statistics=statistics,
            )
        )
    _expect_end(payload, offset)
    return ("events", events)


def _decode_control(payload: bytes) -> tuple:
    stream = io.BytesIO(payload)
    message = pickle.Unpickler(stream).load()
    _expect_end(payload, stream.tell())
    if not (isinstance(message, tuple) and message and isinstance(message[0], str)):
        raise ValueError(f"control payload is not a message tuple: {message!r:.80}")
    return message


def _expect_end(payload: bytes, offset: int) -> None:
    if offset != len(payload):
        raise ValueError(f"{len(payload) - offset} trailing bytes")


def encode_message(message: tuple) -> bytes:
    """One wire message → one length-prefixed frame."""
    from ..serve.protocol import wrap_frame  # deferred: serve imports runtime

    op = message[0]
    if op == "hb":
        return wrap_frame(T_HB)
    if op == "step":
        return wrap_frame(T_STEP, _encode_step(message[1]))
    if op == "events":
        return wrap_frame(T_EVENTS, _encode_events(message[1]))
    return wrap_frame(
        T_CONTROL, pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    )


_DECODERS = {
    T_STEP: _decode_step,
    T_EVENTS: _decode_events,
    T_CONTROL: _decode_control,
}
_FRAME_NAMES = {T_CONTROL: "CONTROL", T_STEP: "STEP", T_EVENTS: "EVENTS", T_HB: "HB"}


def decode_payload(kind: int, payload: bytes) -> tuple:
    """One frame's type + payload → its wire message (:class:`WorkerError`
    on anything malformed)."""
    if kind == T_HB:
        if payload:
            raise WorkerError(f"malformed HB frame: {len(payload)} trailing bytes")
        return ("hb",)
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise WorkerError(f"unknown transport frame type {kind}")
    try:
        return decoder(payload)
    except Exception as exc:  # struct.error, UnpicklingError, EOFError, ...
        raise WorkerError(
            f"malformed {_FRAME_NAMES[kind]} frame: {type(exc).__name__}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# FramedConnection: send / recv / poll of whole messages over a stream socket
# ---------------------------------------------------------------------------
class FramedConnection:
    """Blocking-socket message connection with a pipe-like API.

    ``send`` / ``recv`` / ``poll`` carry whole wire messages.  A clean peer
    close surfaces as :class:`EOFError` from ``recv``; a malformed frame as
    :class:`~repro.errors.WorkerError`.  ``bytes_sent`` / ``bytes_received``
    count framed wire bytes per link; worker proxies surface them in shard
    stats so the serve STATS document aggregates per-link wire cost.
    """

    def __init__(self, sock: socket.socket, max_message_bytes: int = MAX_MESSAGE_BYTES):
        sock.setblocking(True)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._max = int(max_message_bytes)
        self._buffer = bytearray()
        self._frames: deque = deque()
        self._eof = False
        self._closed = False
        self._send_lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- sending -------------------------------------------------------
    def send(self, message: tuple) -> None:
        data = encode_message(message)
        with self._send_lock:
            if self._closed:
                raise BrokenPipeError("connection closed")
            self._sock.sendall(data)
            self.bytes_sent += len(data)

    # -- receiving -----------------------------------------------------
    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        """True when ``recv`` would not block (a message — or EOF — is ready)."""
        from ..serve.protocol import split_frames  # deferred: serve imports runtime

        if self._frames or self._eof or self._closed:
            return True  # a closed connection's recv raises promptly
        deadline = None if timeout is None else _time.monotonic() + timeout
        while True:
            remaining = (
                None if deadline is None else max(0.0, deadline - _time.monotonic())
            )
            readable, _, _ = select.select([self._sock], [], [], remaining)
            if not readable:
                return False
            try:
                chunk = self._sock.recv(1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                self._eof = True
                return True
            self.bytes_received += len(chunk)
            self._buffer.extend(chunk)
            try:
                for kind, payload in split_frames(self._buffer, self._max, WorkerError):
                    self._frames.append(decode_payload(kind, payload))
            except WorkerError:
                self._eof = True  # framing is lost: nothing after this is readable
                raise
            if self._frames:
                return True
            if deadline is not None and _time.monotonic() >= deadline:
                return False

    def recv(self) -> tuple:
        while not self._frames:
            if self._eof or self._closed:
                raise EOFError("connection closed by peer")
            self.poll(None)
        return self._frames.popleft()

    @property
    def alive(self) -> bool:
        return not (self._eof or self._closed)

    def close(self) -> None:
        """Shut the link down for every holder of the socket, then close it.

        ``shutdown`` (not just ``close``) so the peer sees EOF even while a
        forked process still holds a copy of this descriptor.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# ---------------------------------------------------------------------------
# Host side: the shard-host server
# ---------------------------------------------------------------------------
def _peer_closed(sock: socket.socket) -> bool:
    """Whether the peer hung up, without consuming the worker's bytes."""
    try:
        return sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
    except BlockingIOError:
        return False
    except OSError:
        return True


def _shut(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class ShardHostServer:
    """A TCP worker pool: one forked shard worker per accepted connection.

    ``repro shard-host`` wraps :meth:`serve_forever`; tests run it on a
    thread with ``port=0`` and read :attr:`address`.  The server holds no
    shard state of its own — all determinism lives in the booted config —
    so killing and restarting a shard host is exactly a worker death to
    the connected runtime's supervisor.

    Each connection must send its boot frame within
    :data:`CONNECT_TIMEOUT_S`; an idle peer is dropped before anything is
    forked.  The serving loop reaps its workers every tick: a worker whose
    peer hung up is terminated (even one wedged mid-request), and a dead
    worker's socket is shut down so its peer sees EOF at once.

    Trust model: boot and control frames are pickled (same as
    ``multiprocessing``), so bind only to networks where every peer is
    trusted to execute code.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, int(port)))
        self._listener.listen(64)
        #: The bound (host, port) — read this after ``port=0``.
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        #: Live worker process -> the host's copy of its socket.
        self._workers: Dict[object, socket.socket] = {}
        self._workers_lock = threading.Lock()
        # Self-pipe: shutdown() writes a byte so the accept loop's select
        # wakes immediately instead of riding out its timeout slice.
        self._wake_r, self._wake_w = os.pipe()
        self._serve_thread: Optional[threading.Thread] = None
        self._done = threading.Event()
        self._done.set()  # not serving yet

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def workers(self) -> List[object]:
        """The worker processes this host has not reaped yet."""
        with self._workers_lock:
            return list(self._workers)

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`shutdown`."""
        self._serve_thread = threading.current_thread()
        self._done.clear()
        try:
            while not self._stopping.is_set():
                try:
                    readable, _, _ = select.select(
                        [self._listener, self._wake_r], [], [], 0.25
                    )
                except OSError:
                    break
                if self._wake_r in readable or self._stopping.is_set():
                    break
                self._reap()
                if not readable:
                    continue
                try:
                    sock, _peer = self._listener.accept()
                except OSError:
                    break
                threading.Thread(
                    target=self._boot_worker,
                    args=(sock,),
                    name="repro-host-boot",
                    daemon=True,
                ).start()
        finally:
            # Close from the loop thread so the kernel socket is truly gone
            # (a close racing a concurrent select keeps the LISTEN entry
            # alive until the select returns — rebinding the port would
            # fail) before shutdown() returns to a waiting caller.
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._done.set()

    def _boot_worker(self, sock: socket.socket) -> None:
        """Read the boot frame under the deadline, then fork the worker."""
        from .workers import _worker_main, worker_context  # deferred: no cycle

        conn = FramedConnection(sock)
        try:
            if not conn.poll(CONNECT_TIMEOUT_S):
                raise WorkerError("no boot frame before the deadline")
            boot = conn.recv()
            if boot[0] != "boot":
                conn.send(("error", "WorkerError", "expected a boot frame first"))
                raise WorkerError("expected a boot frame first")
            process = worker_context().Process(
                target=_worker_main,
                args=(sock, *boot[1:]),
                name=f"repro-shard-{boot[1]}",
                daemon=True,
            )
            process.start()
        except (EOFError, OSError, WorkerError):
            conn.close()
            return
        except BaseException as exc:
            try:
                conn.send(("error", type(exc).__name__, str(exc)))
            except OSError:
                pass
            conn.close()
            return
        with self._workers_lock:
            self._workers[process] = sock
            stopping = self._stopping.is_set()
        if stopping:
            self._stop_workers()

    def _reap(self) -> None:
        with self._workers_lock:
            workers = list(self._workers.items())
        for process, sock in workers:
            if not process.is_alive():
                with self._workers_lock:
                    self._workers.pop(process, None)
                _shut(sock)
            elif _peer_closed(sock):
                process.terminate()  # reaped (and its socket shut) next tick

    def _stop_workers(self) -> None:
        with self._workers_lock:
            workers = list(self._workers.items())
            self._workers.clear()
        for process, _ in workers:
            if process.is_alive():
                process.terminate()
        for process, sock in workers:
            process.join(5.0)
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(5.0)
            _shut(sock)

    def shutdown(self, wait_s: float = 5.0) -> None:
        """Stop accepting, kill every live worker, close every link.

        Waits up to ``wait_s`` for the accept loop to exit so the listening
        port is genuinely free on return (safe to rebind immediately).  The
        wait is skipped when called from the serving thread itself — e.g.
        from a signal handler interrupting :meth:`serve_forever`.
        """
        self._stopping.set()
        try:
            os.write(self._wake_w, b"x")
        except OSError:  # pragma: no cover
            pass
        if threading.current_thread() is not self._serve_thread:
            self._done.wait(wait_s)
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        self._stop_workers()
