"""Socket shard-transport tests: localhost-TCP parity and live re-sharding.

The contracts under test:

* the remote executor at an equal shard count is **byte-identical** to the
  serial executor — the wire codec (struct-packed step/events frames) is an
  exact encoding, not an approximation;
* a dead shard host heals exactly like a dead local worker: the supervisor
  respawns the proxy (reconnecting to a fresh host on the same endpoint),
  restores from the checkpoint, replays the journal, and the merged output
  stays byte-identical;
* a live re-shard (``ShardedRuntime.reshard``) migrates a running N-shard
  layout to M shards at an epoch boundary and continues **bitwise-identical
  to a stop-the-world checkpoint → re-sharded restore** at the same epoch —
  including the spatial-index region sets, which ride along with their
  objects.
"""

import pickle
import socket
import struct
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.config import (
    InferenceConfig,
    OutputPolicyConfig,
    RuntimeConfig,
    SupervisorConfig,
)
from repro import faults
from repro.errors import WorkerError
from repro.faults import FaultPlan, FaultRule
from repro.runtime import FactoredEngineFactory, ShardedRuntime, ShardWorkerProxy
from repro.runtime import transport
from repro.runtime.transport import (
    T_CONTROL,
    T_EVENTS,
    T_HB,
    T_STEP,
    FramedConnection,
    ShardHostServer,
    decode_payload,
    encode_message,
    parse_endpoint,
)
from repro.runtime.workers import HEARTBEAT_GRACE_S
from repro.serve.protocol import wrap_frame
from repro.state import reshard_states, restore_runtime
from repro.streams.records import (
    LocationEvent,
    LocationStatistics,
    TagId,
    make_epoch,
)

POLICY = OutputPolicyConfig(delay_s=20.0)


@pytest.fixture(scope="module")
def scenario():
    from repro.simulation.layout import LayoutConfig
    from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

    simulator = WarehouseSimulator(
        WarehouseConfig(layout=LayoutConfig(n_objects=6, n_shelf_tags=3), seed=11)
    )
    trace = simulator.generate()
    config = InferenceConfig(reader_particles=50, object_particles=100, seed=7)
    return simulator.world_model(), trace, config


@contextmanager
def shard_host(port=0):
    server = ShardHostServer(port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(5.0)


def remote_config(server, n_shards, supervisor=None, **extra):
    return RuntimeConfig(
        n_shards=n_shards,
        executor="remote",
        shard_hosts=(f"127.0.0.1:{server.port}",),
        supervisor=supervisor,
        **extra,
    )


def serial_events(model, trace, config, n_shards):
    return (
        ShardedRuntime(model, config, RuntimeConfig(n_shards=n_shards), POLICY)
        .run(trace.epochs())
        .events
    )


def assert_events_equal(events, reference):
    assert len(events) == len(reference)
    for ours, ref in zip(events, reference):
        assert ours.time == ref.time and ours.tag == ref.tag
        np.testing.assert_array_equal(ours.position, ref.position)
        assert ours.statistics == ref.statistics


def wire_roundtrip(message):
    frame = encode_message(message)
    (length,) = struct.unpack("!I", frame[:4])
    assert length == len(frame) - 4
    return decode_payload(frame[4], frame[5:])


class TestWireCodec:
    def test_step_frame_roundtrip_is_exact(self):
        epoch = make_epoch(
            12.5,
            (1.25, -3.5, 0.0),
            object_tags=[3, 1, 4, 1, 5],
            shelf_tags=[9, 2, 6],
            reported_heading=0.7853981633974483,
        )
        op, decoded = wire_roundtrip(("step", epoch))
        assert op == "step"
        assert decoded == epoch

    def test_step_frame_dropout_epoch(self):
        """Handheld readers / positioning dropouts: no position, no
        heading — both must round-trip as None, not as the origin."""
        _, decoded = wire_roundtrip(("step", make_epoch(1.0)))
        assert decoded.reported_position is None
        assert decoded.reported_heading is None
        assert decoded.object_tags == frozenset() == decoded.shelf_tags

    def test_events_frame_preserves_flat_covariance(self):
        """LocationStatistics.covariance is a flat row-major 9-tuple; the
        EVENTS frame must reproduce exactly that shape, bit for bit."""
        covariance = tuple(float(v) for v in range(9))
        events = [
            LocationEvent(
                30.0,
                TagId.object(4),
                (1.0, 2.0, 3.0),
                LocationStatistics(covariance, 0.25, 17),
            ),
            LocationEvent(31.0, TagId.object(5), (0.0, 0.0, 0.0)),
        ]
        op, decoded = wire_roundtrip(("events", events))
        assert op == "events"
        assert decoded == events
        assert decoded[0].statistics.covariance == covariance
        assert decoded[1].statistics is None

    def test_parse_endpoint(self):
        assert parse_endpoint("10.0.0.7:9200") == ("10.0.0.7", 9200)


def _payload(message):
    return encode_message(message)[5:]


_STEP = _payload(("step", make_epoch(3.0, (1.0, 2.0, 0.0), object_tags=[7, 8])))
_EVENTS = _payload(
    ("events", [LocationEvent(3.0, TagId.object(7), (1.0, 2.0, 0.0))])
)


class TestMalformedFrames:
    """Every decode failure on a shard link is a typed WorkerError — never a
    raw struct.error or UnpicklingError — and the link is dead after it."""

    @pytest.mark.parametrize(
        "kind, payload",
        [
            (T_STEP, _STEP[:-3]),  # truncated tag vector
            (T_STEP, _STEP[:10]),  # truncated header
            (T_STEP, _STEP + b"\x00"),  # trailing bytes
            (T_EVENTS, _EVENTS[:-5]),  # truncated row
            (T_EVENTS, _EVENTS + b"\x00"),  # trailing bytes
            (T_HB, b"\x00"),  # heartbeats carry nothing
            (T_CONTROL, b"not a pickle"),
            (T_CONTROL, pickle.dumps(("ok", 1))[:-2]),  # truncated pickle
            (T_CONTROL, pickle.dumps(("ok", 1)) + b"junk"),  # trailing bytes
            (T_CONTROL, pickle.dumps(42)),  # not a message tuple
            (99, b""),  # unknown frame type
        ],
        ids=[
            "step-tags", "step-head", "step-trailing", "events-row",
            "events-trailing", "hb-payload", "control-garbage",
            "control-truncated", "control-trailing", "control-not-tuple",
            "unknown-kind",
        ],
    )
    def test_malformed_frame_is_worker_error(self, kind, payload):
        ours, theirs = socket.socketpair()
        conn = FramedConnection(ours)
        try:
            theirs.sendall(wrap_frame(kind, payload))
            with pytest.raises(WorkerError, match="malformed|unknown"):
                conn.recv()
            assert not conn.alive
        finally:
            conn.close()
            theirs.close()

    @pytest.mark.parametrize("prefix", [b"\x00\x00\x00\x00", b"\x7f\xff\xff\xff"])
    def test_bad_length_prefix_is_worker_error(self, prefix):
        ours, theirs = socket.socketpair()
        conn = FramedConnection(ours)
        try:
            theirs.sendall(prefix + b"\x01")
            with pytest.raises(WorkerError, match="zero-length|exceeds"):
                conn.recv()
        finally:
            conn.close()
            theirs.close()

    def test_malformed_reply_marks_the_proxy_dead(self, scenario):
        """A worker whose reply does not decode is a dead worker: the proxy
        raises WorkerError (what the supervisor heals) and stops trusting
        the link."""
        model, _, config = scenario
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def fake_host():
            sock, _ = listener.accept()
            conn = FramedConnection(sock)
            assert conn.recv()[0] == "boot"
            conn.send(("ready", None))
            assert conn.recv() == ("stats",)
            sock.sendall(wrap_frame(T_EVENTS, _EVENTS[:-1]))
            try:
                conn.recv()  # hold the link open until the proxy drops it
            except EOFError:
                pass
            conn.close()

        host = threading.Thread(target=fake_host, daemon=True)
        host.start()
        proxy = ShardWorkerProxy(
            0,
            config,
            POLICY,
            FactoredEngineFactory(model, shared_arena=False),
            endpoint=f"127.0.0.1:{port}",
        )
        try:
            with pytest.raises(WorkerError, match="malformed EVENTS"):
                proxy.stats()
            assert not proxy.is_alive()
            with pytest.raises(WorkerError, match="not running"):
                proxy.known_objects()
        finally:
            proxy.close()
            host.join(5.0)
            listener.close()


def wait_reaped(server, process, within_s=HEARTBEAT_GRACE_S):
    """True once the host has reaped ``process`` (dead and deregistered)."""
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        if process not in server.workers and not process.is_alive():
            return True
        time.sleep(0.05)
    return False


class TestShardHostWorkers:
    """The shard host forks workers straight onto their sockets; nothing
    relays, so only these contracts keep it from accumulating orphans."""

    def boot(self, server, scenario):
        model, _, config = scenario
        return ShardWorkerProxy(
            0,
            config,
            POLICY,
            FactoredEngineFactory(model, shared_arena=False),
            endpoint=f"127.0.0.1:{server.port}",
        )

    def test_idle_peer_is_dropped_before_forking(self, monkeypatch):
        monkeypatch.setattr(transport, "CONNECT_TIMEOUT_S", 0.3)
        with shard_host() as server:
            peer = socket.create_connection(("127.0.0.1", server.port))
            peer.settimeout(10.0)
            try:
                assert peer.recv(1) == b""  # the host hung up on us
            finally:
                peer.close()
            assert server.workers == []

    def test_force_closed_link_reaps_the_worker(self, scenario):
        with shard_host() as server:
            proxy = self.boot(server, scenario)
            [process] = server.workers
            proxy.close(force=True)
            assert wait_reaped(server, process)

    def test_wedged_worker_is_reaped_when_its_link_closes(self, scenario):
        faults.install(
            FaultPlan(rules=(FaultRule("worker.step", action="delay", delay_s=60.0),))
        )
        try:
            with shard_host() as server:
                proxy = self.boot(server, scenario)
                [process] = server.workers
                proxy.step_async(make_epoch(1.0, (0.0, 1.0, 0.0)))
                time.sleep(0.3)  # the worker is now asleep inside its step
                proxy.close(force=True)
                assert wait_reaped(server, process)
        finally:
            faults.clear()

    def test_shutdown_leaves_no_live_child(self, scenario):
        server = ShardHostServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        proxies = [self.boot(server, scenario) for _ in range(2)]
        workers = server.workers
        assert len(workers) == 2
        server.shutdown()
        thread.join(5.0)
        assert not any(process.is_alive() for process in workers)
        assert server.workers == []
        for proxy in proxies:
            proxy.close(force=True)


class TestRemoteParity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_remote_executor_bitwise_vs_serial(self, scenario, n_shards):
        model, trace, config = scenario
        reference = serial_events(model, trace, config, n_shards)
        with shard_host() as server:
            runtime = ShardedRuntime(
                model, config, remote_config(server, n_shards), POLICY
            )
            try:
                runtime.run(trace.epochs())
            finally:
                runtime.abort()
        assert_events_equal(runtime.sink.events, reference)

    def test_remote_belief_fetch_matches_local_arena(self, scenario):
        """Explicit belief-fetch replaces shared-memory reads off-host: the
        fetched particle blocks must be the worker's arena verbatim."""
        model, trace, config = scenario
        epochs = trace.epochs()
        serial = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        for epoch in epochs[:10]:
            serial.step(epoch)
        with shard_host() as server:
            runtime = ShardedRuntime(model, config, remote_config(server, 2), POLICY)
            try:
                for epoch in epochs[:10]:
                    runtime.step(epoch)
                for local, remote in zip(serial.shards, runtime.shards):
                    view = remote.arena_view()
                    local_arena = local.engine.arena
                    assert view.object_ids() == local_arena.object_ids()
                    for number in view.object_ids():
                        np.testing.assert_array_equal(
                            view.positions(number), local_arena.positions(number)
                        )
                        np.testing.assert_array_equal(
                            view.parents(number), local_arena.parents(number)
                        )
                        np.testing.assert_array_equal(
                            view.log_weights(number),
                            local_arena.log_weights(number),
                        )
            finally:
                runtime.abort()
        serial.abort()

    def test_remote_stats_report_wire_bytes(self, scenario):
        model, trace, config = scenario
        with shard_host() as server:
            runtime = ShardedRuntime(model, config, remote_config(server, 2), POLICY)
            try:
                for epoch in trace.epochs()[:5]:
                    runtime.step(epoch)
                rows = runtime.shard_stats()
            finally:
                runtime.abort()
        for row in rows:
            assert row["wire_bytes_sent"] > 0
            assert row["wire_bytes_recv"] > 0

    def test_unreachable_host_raises_worker_error(self, scenario):
        model, trace, config = scenario
        server = ShardHostServer()
        port = server.port
        server.shutdown()  # nothing listens here any more
        config_remote = RuntimeConfig(
            n_shards=2, executor="remote", shard_hosts=(f"127.0.0.1:{port}",)
        )
        with pytest.raises(WorkerError, match="cannot reach shard host"):
            ShardedRuntime(model, config, config_remote, POLICY)


class TestSupervisedRecovery:
    def test_dead_shard_host_heals_like_local_death(self, scenario, tmp_path):
        """Checkpoint, kill the shard host mid-run, bring a fresh host up
        on the same port: the supervisor reconnects, restores from the
        checkpoint, replays the journal, and the output is byte-identical."""
        model, trace, config = scenario
        reference = serial_events(model, trace, config, 2)
        supervisor = SupervisorConfig(backoff_base_s=0.05, op_timeout_s=30.0)
        epochs = trace.epochs()
        with shard_host() as first:
            port = first.port
            runtime = ShardedRuntime(
                model,
                config,
                remote_config(
                    first,
                    2,
                    supervisor=supervisor,
                    checkpoint_every_s=6.0,
                    checkpoint_dir=str(tmp_path),
                ),
                POLICY,
            )
            try:
                for epoch in epochs[: len(epochs) // 2]:
                    runtime.step(epoch)
                # The whole host dies: every session is torn down, both
                # worker sockets go EOF.
                first.shutdown()
                with shard_host(port=port) as second:  # noqa: F841
                    for epoch in epochs[len(epochs) // 2 :]:
                        runtime.step(epoch)
                    runtime.finish()
                    stats = runtime.supervisor_stats()
                    assert stats["restarts"] >= 2  # both shards died
            finally:
                runtime.abort()
        assert_events_equal(runtime.sink.events, reference)


class TestLiveReshard:
    @pytest.mark.parametrize("executor", ["serial", "remote"])
    def test_live_reshard_matches_stop_the_world(
        self, scenario, tmp_path, executor
    ):
        """Live 2→4 at an epoch boundary == checkpoint at that epoch +
        re-sharded restore, bit for bit — on both in-process and socket
        transports."""
        model, trace, config = scenario
        epochs = trace.epochs()
        cut = len(epochs) // 2

        reference = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        for epoch in epochs[:cut]:
            reference.step(epoch)
        reference.checkpoint(str(tmp_path / "cut"))
        reference.abort()
        restored, _ = restore_runtime(
            str(tmp_path / "cut"), model, RuntimeConfig(n_shards=4)
        )
        for epoch in epochs[cut:]:
            restored.step(epoch)
        restored.finish()
        expected_post = restored.sink.events

        def run_live(runtime_config):
            runtime = ShardedRuntime(model, config, runtime_config, POLICY)
            try:
                for epoch in epochs[:cut]:
                    runtime.step(epoch)
                emitted_before = len(runtime.sink.events)
                runtime.reshard(4)
                assert runtime.n_shards == 4
                assert len(runtime.shards) == 4
                assert runtime.reshards_total == 1
                assert runtime.last_reshard_ms is not None
                for epoch in epochs[cut:]:
                    runtime.step(epoch)
                runtime.finish()
            finally:
                runtime.abort()
            return runtime, runtime.sink.events[emitted_before:]

        if executor == "serial":
            runtime, live_post = run_live(RuntimeConfig(n_shards=2))
        else:
            with shard_host() as server:
                runtime, live_post = run_live(remote_config(server, 2))
        assert runtime.migrated_objects_total > 0
        assert_events_equal(live_post, expected_post)

    def test_reshard_same_layout_is_noop(self, scenario):
        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        for epoch in trace.epochs()[:5]:
            runtime.step(epoch)
        shards_before = runtime.shards
        runtime.reshard(2)
        assert runtime.shards is shards_before
        assert runtime.reshards_total == 0
        runtime.abort()

    def test_reshard_writes_fresh_checkpoint_baseline(self, scenario, tmp_path):
        """With a checkpoint dir armed, the live re-shard lands a new
        checkpoint before ingest resumes — supervised recovery never sees
        the broken-journal gap."""
        from repro.state import latest_checkpoint, load_checkpoint

        model, trace, config = scenario
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(
                n_shards=2,
                executor="process",
                supervisor=SupervisorConfig(backoff_base_s=0.01),
                checkpoint_every_s=3600.0,  # periodic cadence never fires
                checkpoint_dir=str(tmp_path),
            ),
            POLICY,
        )
        try:
            epochs = trace.epochs()
            for epoch in epochs[:8]:
                runtime.step(epoch)
            runtime.reshard(3)
            manifest = load_checkpoint(latest_checkpoint(tmp_path))
            assert manifest.n_shards == 3
            assert manifest.epochs_processed == 8
            # The new baseline is immediately usable: kill a worker and the
            # supervisor recovers from it rather than escalating.
            runtime.shards[1].process.kill()
            runtime.shards[1].process.join(5.0)
            for epoch in epochs[8:12]:
                runtime.step(epoch)
            assert runtime.supervisor_stats()["restarts"] == 1
        finally:
            runtime.abort()

    def test_reshard_without_checkpoint_dir_breaks_journal(self, scenario):
        """No checkpoint dir: a worker death after a live re-shard has no
        baseline and must escalate loudly, not silently diverge."""
        model, trace, config = scenario
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(
                n_shards=2,
                executor="process",
                supervisor=SupervisorConfig(backoff_base_s=0.01),
            ),
            POLICY,
        )
        try:
            epochs = trace.epochs()
            for epoch in epochs[:6]:
                runtime.step(epoch)
            runtime.reshard(3)
            runtime.shards[0].process.kill()
            runtime.shards[0].process.join(5.0)
            with pytest.raises(WorkerError, match="beyond recovery"):
                for epoch in epochs[6:10]:
                    runtime.step(epoch)
        finally:
            runtime.abort()

    def test_reshard_invalid_count_rejected(self, scenario):
        from repro.errors import StateError

        model, trace, config = scenario
        runtime = ShardedRuntime(model, config, RuntimeConfig(n_shards=2), POLICY)
        with pytest.raises(StateError):
            runtime.reshard(0)
        runtime.abort()


class TestSelectorMigration:
    def test_reshard_migrates_spatial_regions_with_objects(self):
        """The elastic N→M path must carry the spatial-index regions and
        their per-object attachments — an empty selector silently disables
        Case-2 negative evidence on every migrated shard."""
        from repro.runtime.router import EpochRouter
        from repro.simulation.layout import LayoutConfig
        from repro.simulation.warehouse import WarehouseConfig, WarehouseSimulator

        simulator = WarehouseSimulator(
            WarehouseConfig(layout=LayoutConfig(n_objects=8, n_shelf_tags=3), seed=3)
        )
        trace = simulator.generate()
        config = InferenceConfig(
            reader_particles=40, object_particles=80, seed=5
        ).with_index()
        runtime = ShardedRuntime(
            simulator.world_model(), config, RuntimeConfig(n_shards=2), POLICY
        )
        for epoch in trace.epochs():
            runtime.step(epoch)
        old_states = [shard.snapshot("full") for shard in runtime.shards]
        old_selectors = [s["engine"]["selector"] for s in old_states]
        assert any(
            rec["objects"]
            for sel in old_selectors
            for rec in sel["index"]["regions"]
        ), "scenario never attached an object — test is vacuous"
        router = EpochRouter(3, "hash")
        new_states = reshard_states(
            old_states,
            router,
            3,
            config.seed,
            spatial_enabled=True,
            epochs_processed=runtime.epochs_processed,
        )
        runtime.abort()

        attachments = {}
        for sel in old_selectors:
            for rec in sel["index"]["regions"]:
                attachments.setdefault(rec["id"], set()).update(rec["objects"])
        for m, state in enumerate(new_states):
            selector = state["engine"]["selector"]
            assert selector is not None
            regions = selector["index"]["regions"]
            # Region geometry and order come from new shard m's *source*
            # frame, old shard (m * n_old) // n_new — geometry differs
            # slightly between old shards because each duplicates the
            # reader belief with its own RNG stream.
            source_regions = {
                rec["id"]: rec
                for rec in old_selectors[(m * 2) // 3]["index"]["regions"]
            }
            assert [r["id"] for r in regions] == list(source_regions)
            for rec in regions:
                src = source_regions[rec["id"]]
                assert rec["lo"] == src["lo"] and rec["hi"] == src["hi"]
                # Attachments are the union across every old shard,
                # re-filtered by the new router.
                expected = sorted(
                    n for n in attachments[rec["id"]] if router.shard_of(n) == m
                )
                assert rec["objects"] == expected
        # Nothing dropped: the union across new shards is the old union.
        migrated = {
            n
            for state in new_states
            for rec in state["engine"]["selector"]["index"]["regions"]
            for n in rec["objects"]
        }
        original = {n for ids in attachments.values() for n in ids}
        assert migrated == original


class TestConfig:
    def test_remote_requires_shard_hosts(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="shard_hosts"):
            RuntimeConfig(n_shards=2, executor="remote")

    def test_shard_hosts_require_remote_executor(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="remote"):
            RuntimeConfig(n_shards=2, shard_hosts=("127.0.0.1:9000",))

    @pytest.mark.parametrize("endpoint", ["nohost", "host:", "host:0", "host:99999"])
    def test_bad_endpoints_rejected(self, endpoint):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RuntimeConfig(n_shards=1, executor="remote", shard_hosts=(endpoint,))

    def test_heartbeat_knobs_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="heartbeat_interval_s"):
            SupervisorConfig(heartbeat_interval_s=0.0)
        with pytest.raises(ConfigurationError, match="heartbeat_grace_s"):
            SupervisorConfig(heartbeat_interval_s=1.0, heartbeat_grace_s=0.5)

    def test_heartbeat_knobs_reach_workers(self, scenario):
        model, trace, config = scenario
        runtime = ShardedRuntime(
            model,
            config,
            RuntimeConfig(
                n_shards=2,
                executor="process",
                supervisor=SupervisorConfig(
                    heartbeat_interval_s=0.1, heartbeat_grace_s=4.0
                ),
            ),
            POLICY,
        )
        try:
            for proxy in runtime.shards:
                assert proxy.heartbeat_interval_s == 0.1
                assert proxy.heartbeat_grace_s == 4.0
        finally:
            runtime.abort()
