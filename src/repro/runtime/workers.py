"""Worker-backed shards: one worker loop and one proxy for both executors.

The thread executor keeps every shard inside one interpreter, so routing,
resampling bookkeeping, and event merging all contend for the GIL; only the
numpy kernels overlap.  The ``process`` and ``remote`` executors move each
:class:`~repro.runtime.shard.FilterShard` into its own long-lived worker
process — spawned once at runtime construction, not per epoch — that runs
:func:`_worker_main` over one framed socket
(:class:`~repro.runtime.transport.FramedConnection`):

* ``process`` forks the worker locally onto one end of a
  ``socket.socketpair()``;
* ``remote`` connects to a ``repro shard-host`` over TCP and ships a boot
  frame (shard index, re-seeded config, output policy, engine factory —
  the factory carries the world model); the host forks the same worker
  loop onto the accepted socket.

Either way the parent holds one :class:`ShardWorkerProxy`, which differs
only in how it connects.  Per epoch the link carries one struct-packed
``STEP`` frame (the routed sub-epoch) and one ``EVENTS`` reply; checkpoint
state trees cross only on explicit ``snapshot`` / ``restore`` requests.
A local worker's :class:`~repro.inference.arena.BeliefArena` is backed by
a :class:`~repro.inference.arena.SharedSlab`, so the parent reads particle
blocks by attaching the slab (:meth:`ShardWorkerProxy.arena_view`); off
host the same call fetches the packed blocks over the link instead.

Determinism: a worker builds its shard from exactly the same re-seeded
config the in-process executors use, and decodes each epoch to the same
routed content, so both worker executors are **bitwise identical** to the
serial executor at equal shard counts.

Lifecycle: ``ready`` handshake at spawn (carrying the arena segment, and a
``segment`` notice whenever a grow replaces it, so the parent can reclaim
it even if the worker later dies uncleanly), graceful ``stop`` at teardown
(the worker releases its own segment).  ``finish`` replies with the last
events plus a post-run summary, so a proxy stays queryable after its
worker retires.

Liveness: every worker runs a heartbeat thread that sends ``HB`` frames
between replies, and every parent-side receive is deadline-bounded.  A dead
link, a malformed frame, or a silent worker (no frames within the
heartbeat grace) surfaces promptly as :class:`~repro.errors.WorkerError`; a
worker whose heartbeats still flow but whose reply misses the op deadline
surfaces as :class:`~repro.errors.WorkerTimeout` (hung, not dead).  Both
subclass :class:`~repro.errors.InferenceError`, so without a supervisor the
runtime's abort path reaps every worker; with one
(``RuntimeConfig.supervisor``) the shard is respawned and replayed.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import socket
import threading
import time as _time
from typing import Dict, List, Optional

import numpy as np

from ..config import InferenceConfig, OutputPolicyConfig, SupervisorConfig
from ..errors import InferenceError, StateError, WorkerError, WorkerTimeout
from ..faults import fault_point
from ..inference.arena import BeliefView, attach_shared_slab
from ..inference.estimates import LocationEstimate
from ..models.joint import RFIDWorldModel
from ..streams.records import LocationEvent
from .shard import FilterShard
from .transport import CONNECT_TIMEOUT_S, FramedConnection, parse_endpoint

#: Cadence of worker heartbeat frames (and the parent's poll slice).
HEARTBEAT_INTERVAL_S = 0.25
#: No frame of any kind (reply or heartbeat) for this long ⇒ the worker is
#: unreachable — declared dead even without an EOF on the link.
HEARTBEAT_GRACE_S = 10.0
#: Per-op deadline when no supervisor sets a tighter one.  Generous — it
#: exists to turn "hangs forever" into a typed error, not to race real ops.
DEFAULT_OP_TIMEOUT_S = 300.0


def worker_context() -> mp.context.BaseContext:
    """The multiprocessing context workers run under (fork when available)."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _ensure_resource_tracker() -> None:
    """Start the resource tracker in the parent before any worker forks.

    Forked workers then inherit (and register their shared-memory segments
    with) the *parent's* tracker, so the parent-side unlink after a worker
    crash genuinely unregisters the name.  Without this each worker lazily
    spawns a private tracker that outlives it only to warn about a segment
    the parent already reclaimed.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker API moved/unavailable
        pass


class FactoredEngineFactory:
    """Picklable default engine factory for shards.

    Builds a :class:`~repro.inference.factored.FactoredParticleFilter`,
    optionally over a shared-memory arena (local workers, whose parent
    attaches the slab).  Being a plain object rather than a closure, it
    crosses a ``spawn`` start or a remote boot frame.
    """

    def __init__(
        self,
        model: RFIDWorldModel,
        initial_heading: float = 0.0,
        shared_arena: bool = True,
    ):
        self.model = model
        self.initial_heading = float(initial_heading)
        self.shared_arena = bool(shared_arena)

    def __call__(self, config: InferenceConfig):
        from ..inference.factored import FactoredParticleFilter

        return FactoredParticleFilter(
            self.model,
            config,
            initial_heading=self.initial_heading,
            shared_arena=self.shared_arena,
        )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _segment_of(shard: FilterShard):
    arena = getattr(shard.engine, "arena", None)
    return None if arena is None else arena.shared_segment()


def _pack_beliefs(arena) -> tuple:
    """Every live block packed contiguously, for an off-host ``beliefs``
    reply: ``(slots, None, (positions, parents, log_weights))`` where
    ``slots`` maps object id → (start, count) into the packed columns."""
    ids = arena.object_ids()
    if not ids:
        empty = np.zeros(0, dtype=arena.dtype)
        return {}, None, (empty.reshape(0, 3), np.zeros(0, dtype=np.int32), empty)
    slots: Dict[int, tuple] = {}
    start = 0
    for object_id in ids:
        slots[object_id] = (start, arena.count(object_id))
        start += arena.count(object_id)
    columns = tuple(
        np.concatenate([column(object_id) for object_id in ids])
        for column in (arena.positions, arena.parents, arena.log_weights)
    )
    return slots, None, columns


def _serve_request(shard: FilterShard, message: tuple) -> List[tuple]:
    """The replies one request produces (raises on a failed request)."""
    op = message[0]
    if op == "step":
        fault_point("worker.step")
        shard.step_async(message[1])
        return [("events", shard.collect_events())]
    if op == "finish":
        shard.finish()
        events = shard.collect_events()
        known = shard.known_objects()
        estimates = {number: shard.object_estimate(number) for number in known}
        return [("events", events), ("ok", (shard.stats(), known, estimates))]
    if op == "snapshot":
        return [("ok", shard.snapshot(message[1]))]
    if op == "restore":
        shard.restore(message[1])
        return [("ok", None)]
    if op == "stats":
        return [("ok", shard.stats())]
    if op == "known":
        return [("ok", shard.known_objects())]
    if op == "estimate":
        return [("ok", shard.object_estimate(message[1]))]
    if op == "beliefs":
        arena = getattr(shard.engine, "arena", None)
        if arena is None:
            return [("ok", None)]
        segment = arena.shared_segment()
        if message[1] and segment is not None:  # the parent can attach
            return [("ok", (arena.slot_table(), segment, None))]
        return [("ok", _pack_beliefs(arena))]
    raise InferenceError(f"unknown worker op {op!r}")


def _worker_main(
    sock: socket.socket,
    index: int,
    config: InferenceConfig,
    policy: OutputPolicyConfig,
    engine_factory,
    heartbeat_interval_s: float,
) -> None:
    """Body of one worker process: build the shard, serve its link.

    Request errors are replied as ``("error", kind, text)`` so a failed
    snapshot (say, an engine without state capture) leaves the worker
    serving — matching the in-process executors, where a failed checkpoint
    does not kill the runtime.  A lost or desynchronized link ends the
    loop; anything that kills the process surfaces to the parent as EOF.
    """
    # Forked from a shard host or a service that installed its own signal
    # handling: terminate() must simply kill a worker, never run (or wake)
    # the parent's handlers in this copy of its interpreter.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    conn = FramedConnection(sock)
    try:
        shard = FilterShard(index, engine_factory(config), policy)
    except BaseException as exc:  # construction failed: report and bail
        try:
            conn.send(("error", type(exc).__name__, str(exc)))
        finally:
            conn.close()
        return
    segment = _segment_of(shard)
    hb_stop = threading.Event()

    # Heartbeats prove liveness between replies: the parent treats a silent
    # link as a dead worker, and a heartbeating-but-late reply as a hang.
    def _heartbeat() -> None:
        while not hb_stop.wait(heartbeat_interval_s):
            try:
                conn.send(("hb",))
            except OSError:
                return

    try:
        conn.send(("ready", segment))
        threading.Thread(
            target=_heartbeat, name=f"repro-shard-{index}-hb", daemon=True
        ).start()
        while True:
            message = conn.recv()
            if message[0] == "stop":
                conn.send(("bye",))
                break
            try:
                replies = _serve_request(shard, message)
            except BaseException as exc:
                replies = [("error", type(exc).__name__, str(exc))]
            if _segment_of(shard) != segment:
                segment = _segment_of(shard)
                conn.send(("segment", segment))
            for reply in replies:
                conn.send(reply)
    except (EOFError, OSError, WorkerError):
        pass  # the parent is gone, or the link desynchronized
    finally:
        hb_stop.set()
        arena = getattr(shard.engine, "arena", None)
        if arena is not None:
            arena.release()
        conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
class ShardWorkerProxy:
    """Parent-side handle to one shard worker, local or remote.

    Implements the runtime's split-phase shard surface (``step_async`` /
    ``collect_events``, ``finish``, ``snapshot_async`` /
    ``collect_snapshot``, ``close``) plus the
    :class:`~repro.runtime.shard.FilterShard` query surface over one
    :class:`~repro.runtime.transport.FramedConnection`.  With ``endpoint``
    unset it forks a local worker onto a socketpair (:attr:`process` holds
    it); with ``endpoint="host:port"`` it boots one on a shard host.
    """

    def __init__(
        self,
        index: int,
        config: InferenceConfig,
        policy: OutputPolicyConfig,
        engine_factory,
        endpoint: Optional[str] = None,
        supervisor: Optional[SupervisorConfig] = None,
    ):
        self.index = index
        self.endpoint = endpoint
        #: Deadline for one op (send → final reply).  Supervised runtimes
        #: tighten this from SupervisorConfig.op_timeout_s.
        self.op_timeout_s = (
            supervisor.op_timeout_s if supervisor else DEFAULT_OP_TIMEOUT_S
        )
        self.heartbeat_interval_s = (
            supervisor.heartbeat_interval_s if supervisor else HEARTBEAT_INTERVAL_S
        )
        self.heartbeat_grace_s = (
            supervisor.heartbeat_grace_s if supervisor else HEARTBEAT_GRACE_S
        )
        #: The local worker process (None for remote workers, and once closed).
        self.process = None
        self._dead = False
        self._closed = False
        self._finishing = False
        #: (stats, known objects, {number: LocationEstimate}) shipped by
        #: ``finish`` — answers queries once the worker has retired.
        self._final: Optional[tuple] = None
        #: Last (name, capacity, dtype) a local worker advertised — the
        #: reclamation key if it dies without releasing its own segment.
        self._segment = None
        boot = (index, config, policy, engine_factory, self.heartbeat_interval_s)
        if endpoint is None:
            self._conn = self._fork(boot)
        else:
            self._conn = self._connect(boot)
        try:
            reply = self._recv()
            if reply[0] != "ready":
                raise InferenceError(
                    f"shard worker {index} sent {reply[0]!r} instead of ready"
                )
        except BaseException:
            self.close(force=True)
            raise
        self._segment = reply[1]

    def _fork(self, boot: tuple) -> FramedConnection:
        ctx = worker_context()
        _ensure_resource_tracker()
        parent_sock, child_sock = socket.socketpair()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_sock, *boot),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        try:
            self.process.start()
        finally:
            child_sock.close()  # the worker's copy is its own now
        return FramedConnection(parent_sock)

    def _connect(self, boot: tuple) -> FramedConnection:
        try:
            sock = socket.create_connection(
                parse_endpoint(self.endpoint), timeout=CONNECT_TIMEOUT_S
            )
            conn = FramedConnection(sock)
        except OSError as exc:
            raise WorkerError(
                f"shard worker {self.index}: cannot reach shard host "
                f"{self.endpoint}: {exc}"
            ) from exc
        try:
            conn.send(("boot", *boot))
        except OSError as exc:
            conn.close()
            raise WorkerError(
                f"shard worker {self.index}: shard host {self.endpoint} "
                "dropped the boot frame"
            ) from exc
        return conn

    # -- liveness -------------------------------------------------------
    def is_alive(self) -> bool:
        """Whether the worker behind this proxy is believed reachable."""
        return (
            not self._dead
            and self._conn.alive
            and (self.process is None or self.process.is_alive())
        )

    def _death_detail(self) -> str:
        if self.endpoint is not None:
            return f" (shard host {self.endpoint})"
        return "" if self.process is None else f" (exit code {self.process.exitcode})"

    # -- plumbing ------------------------------------------------------
    def _send(self, message: tuple) -> None:
        if self._dead:
            raise WorkerError(f"shard worker {self.index} is not running")
        fault_point("worker.send")
        try:
            self._conn.send(message)
        except OSError as exc:
            self._dead = True
            raise WorkerError(
                f"shard worker {self.index} died (connection closed on send)"
            ) from exc

    def _recv(self) -> tuple:
        """Deadline-bounded receive; heartbeat and segment notices are
        consumed silently.

        Never blocks forever: a dead or desynchronized link raises
        :class:`WorkerError` immediately, a silent worker (no frame within
        ``heartbeat_grace_s``) raises :class:`WorkerError`, and a worker
        whose heartbeats flow but whose reply misses the op deadline
        raises :class:`WorkerTimeout`.
        """
        fault_point("worker.recv")
        limit = self.op_timeout_s
        start = last_frame = _time.monotonic()
        while True:
            elapsed = _time.monotonic() - start
            if elapsed >= limit:
                self._dead = True
                raise WorkerTimeout(
                    f"shard worker {self.index} hung: no reply within "
                    f"{limit:.1f}s (heartbeats still arriving)"
                )
            try:
                ready = self._conn.poll(min(self.heartbeat_interval_s, limit - elapsed))
                reply = self._conn.recv() if ready else None
            except (EOFError, OSError) as exc:
                self._dead = True
                raise WorkerError(
                    f"shard worker {self.index} died mid-request"
                    f"{self._death_detail()}"
                ) from exc
            except WorkerError as exc:
                self._dead = True
                raise WorkerError(
                    f"shard worker {self.index} link broke: {exc}"
                    f"{self._death_detail()}"
                ) from exc
            if reply is None:
                if _time.monotonic() - last_frame >= self.heartbeat_grace_s:
                    self._dead = True
                    raise WorkerError(
                        f"shard worker {self.index} died silently: no "
                        f"frames for {self.heartbeat_grace_s:.1f}s"
                        f"{self._death_detail()}"
                    )
                continue
            last_frame = _time.monotonic()
            op = reply[0]
            if op == "hb":
                continue
            if op == "segment":
                self._segment = reply[1]
                continue
            if op == "error":
                _, kind, text = reply
                if kind == "StateError":
                    raise StateError(f"shard worker {self.index}: {text}")
                raise InferenceError(f"shard worker {self.index}: {kind}: {text}")
            return reply

    def _request(self, message: tuple) -> tuple:
        self._send(message)
        return self._recv()

    # -- the split-phase shard surface ---------------------------------
    def step_async(self, epoch) -> None:
        self._send(("step", epoch))

    def finish(self) -> None:
        self._send(("finish",))
        self._finishing = True

    def collect_events(self) -> List[LocationEvent]:
        reply = self._recv()
        if reply[0] != "events":
            raise InferenceError(
                f"shard worker {self.index} sent {reply[0]!r} instead of events"
            )
        if self._finishing:
            self._final = self._recv()[1]
        return reply[1]

    def snapshot_async(self, mode: str = "full") -> None:
        """Request the worker shard's state tree; ``mode="delta"`` ships
        only its dirty blocks, cutting link traffic like disk bytes."""
        self._send(("snapshot", mode))

    def collect_snapshot(self) -> dict:
        return self._recv()[1]

    def restore(self, state: dict) -> None:
        self._request(("restore", state))

    # -- FilterShard query surface -------------------------------------
    def known_objects(self) -> List[int]:
        if self._final is not None:
            return list(self._final[1])
        return self._request(("known",))[1]

    def object_estimate(self, number: int) -> LocationEstimate:
        if self._final is None:
            return self._request(("estimate", number))[1]
        try:
            return self._final[2][number]
        except KeyError:
            raise InferenceError(f"unknown object {number}") from None

    def stats(self) -> Dict[str, float]:
        if self._final is not None:
            row = dict(self._final[0])
        else:
            row = self._request(("stats",))[1]
        row["wire_bytes_sent"] = self._conn.bytes_sent
        row["wire_bytes_recv"] = self._conn.bytes_received
        return row

    def arena_view(self) -> Optional[BeliefView]:
        """The worker's beliefs: an attach of its shared slab (zero-copy)
        for a local worker, a packed fetch over the link otherwise; None
        for engines without an arena."""
        payload = self._request(("beliefs", self.process is not None))[1]
        if payload is None:
            return None
        slots, segment, columns = payload
        if segment is None:
            return BeliefView(slots, *columns)
        self._segment = segment
        slab = attach_shared_slab(*segment)
        return BeliefView(slots, slab.positions, slab.parents, slab.log_weights, slab)

    # -- teardown -------------------------------------------------------
    def _unlink_segment(self) -> None:
        """Reclaim the worker's last advertised segment if it leaked.

        A graceful worker unlinks its own segment, so the attach below
        normally finds nothing; after a crash this is what keeps shared
        memory from outliving the runtime.  ``unlink`` also unregisters the
        name from the (fork-shared) resource tracker.
        """
        segment, self._segment = self._segment, None
        if segment is None:
            return
        try:
            slab = attach_shared_slab(*segment)
        except FileNotFoundError:
            return
        slab.unlink()
        slab.close()

    def close(self, force: bool = False, timeout: float = 5.0) -> None:
        """Stop the worker and reclaim its resources.  Idempotent.

        Graceful by default (``stop``, drain to ``bye``; the worker releases
        its own segment); ``force`` (or an unresponsive worker) skips the
        goodbye.  A local worker is then joined — terminated if it does not
        exit — and any leaked shared-memory segment unlinked; a remote one
        is reaped by its shard host once the link closes.
        """
        if self._closed:
            return
        graceful = not force and self.is_alive()
        self._closed = self._dead = True
        conn, process = self._conn, self.process
        if graceful:
            try:
                conn.send(("stop",))
                # Drain queued replies (e.g. an uncollected step) and
                # heartbeat frames until the goodbye; a deadline bounds a
                # wedged worker even while its heartbeats keep arriving.
                deadline = _time.monotonic() + timeout
                while _time.monotonic() < deadline and conn.poll(
                    max(0.0, deadline - _time.monotonic())
                ):
                    if conn.recv()[0] == "bye":
                        break
            except (EOFError, OSError, WorkerError):
                pass
        conn.close()
        if process is None:
            return
        if not graceful and process.is_alive():
            # Forced (or already-dead link): don't wait out a hung worker's
            # join timeout before killing it.
            process.terminate()
        process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout)
        self.process = None
        self._unlink_segment()
