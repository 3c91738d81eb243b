"""Tests for multi-host shard serving (repro.engine.remote).

The invariant under test is the remote tier's contract: serving through
socket-connected shard servers is *bit-identical* to the serial in-memory
oracle, and every failure — unreachable shard, stale snapshot, protocol
skew — *fails closed* with a typed :class:`RemoteShardError` rather than a
partial merge.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    FaultPlan,
    InferenceIndex,
    OnlineRecommendationService,
    PROTOCOL_VERSION,
    RecommendationService,
    RemoteExecutor,
    RemoteProtocolError,
    RemoteShardError,
    ReplicaRejectedError,
    SerialExecutor,
    ShardServer,
    ShardedInferenceIndex,
    SnapshotFormatError,
    save_snapshot,
    snapshot_fingerprint,
    spawn_shard_server,
)
from repro.engine.remote import (
    _recv_message,
    decode_message,
    encode_message,
    parse_address,
    parse_replica_set,
)
from repro.models import BprMF

K = 6


@pytest.fixture(scope="module")
def model(tiny_split):
    model = BprMF(tiny_split, embedding_dim=8, seed=2)
    model.eval()
    return model


@pytest.fixture(scope="module")
def index(model, tiny_split):
    return InferenceIndex.from_model(model, tiny_split)


@pytest.fixture(scope="module")
def snap_path(index, tmp_path_factory):
    return save_snapshot(tmp_path_factory.mktemp("remote") / "serve.snap",
                         index, candidate_modes=("int8",))


@pytest.fixture(scope="module")
def other_snap_path(tiny_split, tmp_path_factory):
    """A second snapshot with different content (different model seed)."""
    model = BprMF(tiny_split, embedding_dim=8, seed=7)
    model.eval()
    index = InferenceIndex.from_model(model, tiny_split)
    return save_snapshot(tmp_path_factory.mktemp("remote2") / "other.snap",
                         index, candidate_modes=("int8",))


@pytest.fixture(scope="module")
def servers(snap_path):
    """Two in-process shard servers over the module snapshot (S=2)."""
    started = [ShardServer(snap_path, shard, 2).start() for shard in range(2)]
    yield started
    for server in started:
        server.close()


@pytest.fixture(scope="module")
def addresses(servers):
    return [f"{host}:{port}" for host, port in
            (server.address for server in servers)]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #

class TestProtocol:
    def test_roundtrip_preserves_fields_and_arrays(self):
        arrays = {"users": np.arange(5, dtype=np.int64),
                  "scores": np.linspace(0, 1, 12).reshape(3, 4),
                  "codes": np.array([[1, -2], [3, 4]], dtype=np.int8)}
        frame = encode_message("top_k", {"k": 3, "exclude_train": True},
                               arrays)
        kind, fields, decoded = decode_message(frame[12:])
        assert kind == "top_k"
        assert fields == {"k": 3, "exclude_train": True}
        for name, want in arrays.items():
            assert decoded[name].dtype == want.dtype
            assert np.array_equal(decoded[name], want)

    def test_none_arrays_are_dropped_and_empty_arrays_survive(self):
        frame = encode_message("x", {}, {"absent": None,
                                         "empty": np.empty((3, 0))})
        _, _, arrays = decode_message(frame[12:])
        assert "absent" not in arrays
        assert arrays["empty"].shape == (3, 0)

    def test_truncated_body_is_a_protocol_error(self):
        frame = encode_message("x", {"a": 1}, {"b": np.arange(4)})
        with pytest.raises(RemoteProtocolError):
            decode_message(frame[12:-8])

    def test_garbage_is_a_protocol_error(self):
        with pytest.raises(RemoteProtocolError):
            decode_message(b"\x00" * 32)

    def test_protocol_error_is_a_shard_error(self):
        # Callers can catch the one typed error for every remote failure.
        assert issubclass(RemoteProtocolError, RemoteShardError)

    def test_parse_address(self):
        assert parse_address("localhost:901") == ("localhost", 901)
        assert parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)
        for bad in ("no-port", ":80", "host:notaport", "host:0", "host:70000"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_parse_replica_set(self):
        assert parse_replica_set("h:1") == [("h", 1)]
        assert parse_replica_set("h1:1, h2:2") == [("h1", 1), ("h2", 2)]
        assert parse_replica_set(("h", 8080)) == [("h", 8080)]
        assert parse_replica_set(["h1:1", ("h2", 2)]) == [("h1", 1),
                                                          ("h2", 2)]
        with pytest.raises(ValueError, match="empty"):
            parse_replica_set([])
        with pytest.raises(ValueError, match="empty"):
            parse_replica_set(" , ")
        with pytest.raises(ValueError, match="duplicate"):
            parse_replica_set("h:1,h:1")


class TestFingerprint:
    def test_stable_across_reads(self, snap_path):
        assert snapshot_fingerprint(snap_path) == \
            snapshot_fingerprint(snap_path)

    def test_differs_for_different_content(self, snap_path, other_snap_path):
        # Same geometry, same metadata shape — only the embedding bytes
        # differ, and the fingerprint must still split them.
        assert snapshot_fingerprint(snap_path) != \
            snapshot_fingerprint(other_snap_path)

    def test_rejects_non_snapshots(self, tmp_path):
        junk = tmp_path / "junk.snap"
        junk.write_bytes(b"not a snapshot at all, but long enough to read")
        with pytest.raises(SnapshotFormatError):
            snapshot_fingerprint(junk)
        with pytest.raises(SnapshotFormatError):
            snapshot_fingerprint(tmp_path / "missing.snap")


# --------------------------------------------------------------------- #
# Handshake
# --------------------------------------------------------------------- #

class TestHandshake:
    def _raw_exchange(self, server, message: bytes):
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(message)
            return _recv_message(sock)

    def test_version_skew_is_rejected(self, servers):
        kind, fields, _ = self._raw_exchange(
            servers[0],
            encode_message("handshake", {
                "protocol": PROTOCOL_VERSION + 1, "shard_id": 0,
                "num_shards": 2, "policy": "contiguous"}))
        assert kind == "error"
        assert "protocol version" in fields["message"]

    def test_request_before_handshake_is_rejected(self, servers):
        kind, fields, _ = self._raw_exchange(
            servers[0],
            encode_message("top_k", {"k": 1, "exclude_train": False},
                           {"users": np.zeros(1, dtype=np.int64)}))
        assert kind == "error"
        assert "handshake" in fields["message"]

    def test_geometry_mismatch_is_rejected(self, snap_path, addresses):
        # Policy drift: the servers hold contiguous shards.
        with RemoteExecutor(addresses, policy="strided") as executor:
            with pytest.raises(RemoteShardError, match="geometry"):
                executor.fan_out("top_k", np.zeros(1, dtype=np.int64), 1,
                                 False, None, None)
        # Shard-order drift: address i must serve shard i.
        with RemoteExecutor(addresses[::-1]) as executor:
            with pytest.raises(RemoteShardError, match="geometry"):
                executor.fan_out("top_k", np.zeros(1, dtype=np.int64), 1,
                                 False, None, None)

    def test_snapshot_identity_mismatch_is_rejected(self, addresses,
                                                    other_snap_path):
        # The router saved other_snap_path; the servers hold snap_path.
        executor = RemoteExecutor(addresses, snapshot_path=other_snap_path)
        with executor:
            with pytest.raises(RemoteShardError,
                               match="snapshot identity mismatch"):
                executor.fan_out("top_k", np.zeros(1, dtype=np.int64), 1,
                                 False, None, None)

    def test_unpinned_client_is_accepted(self, addresses):
        # No snapshot_path/fingerprint = trust the servers' file.
        with RemoteExecutor(addresses) as executor:
            results = executor.fan_out("top_k", np.zeros(1, dtype=np.int64),
                                       2, False, None, None)
        assert len(results) == 2

    def test_handshake_rejection_is_not_retried(self, addresses,
                                                other_snap_path):
        executor = RemoteExecutor(addresses, snapshot_path=other_snap_path,
                                  max_retries=5, retry_backoff=0.2)
        start = time.perf_counter()
        with executor, pytest.raises(RemoteShardError):
            executor.fan_out("top_k", np.zeros(1, dtype=np.int64), 1,
                             False, None, None)
        # 5 retries at 0.2s+ backoff would take > 6s; a deterministic
        # rejection must surface immediately instead.
        assert time.perf_counter() - start < 2.0


# --------------------------------------------------------------------- #
# Executor semantics
# --------------------------------------------------------------------- #

class TestRemoteExecutor:
    def test_run_refuses_closures(self, addresses):
        with RemoteExecutor(addresses) as executor:
            with pytest.raises(TypeError):
                executor.run([lambda: None])

    def test_bind_check_rejects_other_geometry(self, addresses):
        with RemoteExecutor(addresses) as executor:
            executor.bind_check(2, "contiguous")
            with pytest.raises(ValueError):
                executor.bind_check(3, "contiguous")
            with pytest.raises(ValueError):
                executor.bind_check(2, "strided")

    def test_close_is_idempotent_and_terminal(self, addresses):
        executor = RemoteExecutor(addresses)
        executor.fan_out("top_k", np.zeros(1, dtype=np.int64), 1, False,
                         None, None)
        executor.close()
        executor.close()
        with pytest.raises(RemoteShardError, match="closed"):
            executor.fan_out("top_k", np.zeros(1, dtype=np.int64), 1,
                             False, None, None)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RemoteExecutor([])
        with pytest.raises(ValueError):
            RemoteExecutor(["h:1"], policy="diagonal")
        with pytest.raises(ValueError):
            RemoteExecutor(["h:1"], timeout=0)
        with pytest.raises(ValueError):
            RemoteExecutor(["h:1"], max_retries=-1)
        with pytest.raises(ValueError):
            RemoteExecutor(["not-an-address"])

    def test_sharded_index_parity_through_sockets(self, index, addresses):
        users = np.arange(index.num_users, dtype=np.int64)
        with RemoteExecutor(addresses) as executor:
            sharded = ShardedInferenceIndex.from_index(index, 2,
                                                       executor=executor)
            for exclude in (True, False):
                want = index.top_k(users, K, exclude_train=exclude)
                got = sharded.top_k(users, K, exclude_train=exclude)
                assert np.array_equal(want, got)


# --------------------------------------------------------------------- #
# Service integration
# --------------------------------------------------------------------- #

class TestRemoteService:
    def test_bit_exact_parity_both_modes(self, snap_path, addresses):
        users = np.arange(30, dtype=np.int64)
        for mode in (None, "int8"):
            with RecommendationService(snapshot=snap_path,
                                       candidate_mode=mode) as oracle:
                want = oracle.top_k(users, K)
            with RecommendationService(snapshot=snap_path, executor="remote",
                                       shard_addresses=addresses,
                                       candidate_mode=mode) as service:
                assert service.num_shards == 2  # inferred from the addresses
                got = service.top_k(users, K)
            assert np.array_equal(want, got)

    def test_recommend_and_score_pairs(self, snap_path, addresses):
        with RecommendationService(snapshot=snap_path) as oracle, \
                RecommendationService(snapshot=snap_path, executor="remote",
                                      shard_addresses=addresses) as service:
            assert service.recommend(3, k=K) == oracle.recommend(3, k=K)
            users = np.array([0, 1, 2], dtype=np.int64)
            items = np.array([5, 1, 9], dtype=np.int64)
            assert np.array_equal(oracle.score_pairs(users, items),
                                  service.score_pairs(users, items))

    def test_single_address_still_serves_over_the_socket(self, snap_path):
        with ShardServer(snap_path, 0, 1).start() as server:
            address = "{}:{}".format(*server.address)
            before = server.requests_served
            with RecommendationService(snapshot=snap_path,
                                       shard_addresses=[address]) as service:
                assert service.sharded is not None
                service.top_k(np.arange(4, dtype=np.int64), K)
            assert server.requests_served > before

    def test_remote_requires_snapshot_and_addresses(self, model, tiny_split,
                                                    snap_path):
        with pytest.raises(ValueError, match="snapshot"):
            RecommendationService(model, tiny_split, executor="remote",
                                  shard_addresses=["h:1"])
        with pytest.raises(ValueError, match="shard_addresses"):
            RecommendationService(snapshot=snap_path, executor="remote")
        with pytest.raises(ValueError, match="at least one"):
            RecommendationService(snapshot=snap_path, shard_addresses=[])
        with pytest.raises(ValueError, match="executor='remote'"):
            RecommendationService(snapshot=snap_path, executor="threads",
                                  shard_addresses=["h:1"], num_shards=2)

    def test_shard_count_mismatch_is_rejected(self, snap_path, addresses):
        with pytest.raises(ValueError):
            RecommendationService(snapshot=snap_path, executor="remote",
                                  shard_addresses=addresses, num_shards=3)

    def test_refresh_is_rejected_over_remote(self, tiny_split, snap_path,
                                             addresses):
        # A model whose embeddings differ from the snapshot, so the
        # ships_payloads guard actually triggers (an unchanged snapshot is
        # a legal no-op refresh).
        other = BprMF(tiny_split, embedding_dim=8, seed=11)
        other.eval()
        with RecommendationService(snapshot=snap_path, executor="remote",
                                   shard_addresses=addresses) as service:
            with pytest.raises(ValueError, match="payload-shipping"):
                service.refresh(other)

    def test_spurious_refresh_over_remote_is_a_noop(self, model, snap_path,
                                                    addresses):
        # Unchanged embeddings: refresh keeps the whole stack, including the
        # snapshot-bound executor — no raise, no detach.
        with RecommendationService(snapshot=snap_path,
                                   shard_addresses=addresses) as service:
            executor = service.sharded.executor
            assert service.refresh(model) is service
            assert service.snapshot is not None
            assert service.sharded.executor is executor


class TestOnlineRemoteParity:
    @pytest.mark.parametrize("mode", [None, "int8"])
    def test_ingest_compact_ingest_matches_serial_path(self, index, snap_path,
                                                       addresses, mode):
        """Shipped divergence must track the router's online state through
        compaction: ingested pairs stay excluded and grown user ids serve —
        bit for bit the in-process serial path, before and after the
        compacted base supersedes the snapshot's stored CSR."""
        new_user = index.num_users + 2  # leaves an id gap to backfill
        all_users = np.concatenate([np.arange(index.num_users), [new_user]])
        events = (np.asarray([0, 1, 1, 3, new_user, new_user]),
                  np.asarray([2, 5, 6, 1, 0, 4]))
        late_events = (np.asarray([2]), np.asarray([7]))
        with OnlineRecommendationService(
                snapshot=snap_path, num_shards=2,
                candidate_mode=mode) as oracle, OnlineRecommendationService(
                snapshot=snap_path, shard_addresses=addresses,
                candidate_mode=mode) as remote:
            assert oracle.ingest(*events) == remote.ingest(*events)
            served = remote.top_k(all_users, K)
            np.testing.assert_array_equal(served,
                                          oracle.top_k(all_users, K))
            # Freshly ingested train items must not be recommended back.
            rows = {int(u): i for i, u in enumerate(all_users)}
            for user, item in zip(*events):
                assert int(item) not in served[rows[int(user)]]
            oracle.compact(publish=False)
            remote.compact(publish=False)
            np.testing.assert_array_equal(remote.top_k(all_users, K),
                                          oracle.top_k(all_users, K))
            assert oracle.ingest(*late_events) == remote.ingest(*late_events)
            np.testing.assert_array_equal(remote.top_k(all_users, K),
                                          oracle.top_k(all_users, K))

    def test_ingest_then_serve_matches_serial_online(self, snap_path,
                                                     addresses):
        events_users = np.array([0, 1, 1, 2, 5], dtype=np.int64)
        events_items = np.array([3, 7, 11, 2, 18], dtype=np.int64)
        users = np.arange(30, dtype=np.int64)
        with OnlineRecommendationService(snapshot=snap_path) as oracle:
            oracle.ingest(events_users, events_items)
            want = oracle.top_k(users, K)
        with OnlineRecommendationService(
                snapshot=snap_path, executor="remote",
                shard_addresses=addresses) as service:
            service.ingest(events_users, events_items)
            got = service.top_k(users, K)
        assert np.array_equal(want, got)

    def test_new_user_growth_ships_user_block(self, snap_path, addresses,
                                              index):
        new_user = index.num_users + 1  # beyond the snapshot's id space
        events_users = np.array([new_user, new_user, 0], dtype=np.int64)
        events_items = np.array([2, 9, 4], dtype=np.int64)
        probe = np.array([0, new_user], dtype=np.int64)
        with OnlineRecommendationService(snapshot=snap_path) as oracle:
            oracle.ingest(events_users, events_items)
            want = oracle.top_k(probe, K)
        with OnlineRecommendationService(
                snapshot=snap_path, executor="remote",
                shard_addresses=addresses) as service:
            service.ingest(events_users, events_items)
            got = service.top_k(probe, K)
        assert np.array_equal(want, got)


# --------------------------------------------------------------------- #
# Fault paths
# --------------------------------------------------------------------- #

class TestFaults:
    def test_killed_shard_raises_typed_error_not_partial_merge(self,
                                                               snap_path):
        procs, addrs = [], []
        try:
            for shard in range(2):
                process, (host, port) = spawn_shard_server(snap_path, shard, 2)
                procs.append(process)
                addrs.append(f"{host}:{port}")
            users = np.arange(8, dtype=np.int64)
            with RecommendationService(snapshot=snap_path, executor="remote",
                                       shard_addresses=addrs) as service:
                executor = service.sharded.executor
                executor.max_retries = 1
                executor.retry_backoff = 0.01
                baseline = service.top_k(users, K)
                assert baseline.shape == (users.size, K)
                # Kill shard 1 mid-session: the established connection dies
                # and the reconnect attempts hit a dead port.
                procs[1].kill()
                procs[1].join()
                with pytest.raises(RemoteShardError):
                    service.top_k(users, K)
        finally:
            for process in procs:
                process.kill()
                process.join()

    def test_slow_start_retries_with_backoff_until_success(self, snap_path):
        port = _free_port()
        holder = {}

        def launch_later():
            time.sleep(0.4)
            holder["server"] = ShardServer(snap_path, 0, 1,
                                           port=port).start()

        thread = threading.Thread(target=launch_later, daemon=True)
        # jitter_seed pins the backoff sleep sequence (full jitter would
        # otherwise make the elapsed-time assertion flaky).
        executor = RemoteExecutor([f"127.0.0.1:{port}"],
                                  snapshot_path=snap_path,
                                  timeout=2.0, max_retries=6,
                                  retry_backoff=0.1, jitter_seed=0)
        try:
            thread.start()
            start = time.perf_counter()
            results = executor.fan_out(
                "top_k", np.arange(3, dtype=np.int64), K, True, None, None)
            elapsed = time.perf_counter() - start
            # It must have waited through the dead window (connect refused →
            # backoff → retry), not succeeded instantly or given up.
            assert elapsed >= 0.3
            assert len(results) == 1
            ids, scores = results[0]
            assert ids.shape[0] == 3
        finally:
            executor.close()
            thread.join()
            holder["server"].close()

    def test_request_timeout_is_a_typed_error(self, snap_path):
        # FaultPlan delay beyond the client timeout on every request: the
        # one fault-injection seam, replacing the old request_delay_s knob.
        plan = FaultPlan(seed=1).inject("server.request", "delay",
                                        seconds=1.0)
        with ShardServer(snap_path, 0, 1, fault_plan=plan).start() \
                as server:
            executor = RemoteExecutor(["{}:{}".format(*server.address)],
                                      timeout=0.1, max_retries=1,
                                      retry_backoff=0.01, jitter_seed=0)
            with executor:
                start = time.perf_counter()
                with pytest.raises(RemoteShardError, match="exhausted"):
                    executor.fan_out("top_k", np.zeros(1, dtype=np.int64),
                                     1, False, None, None)
                # Bounded: 2 attempts x 0.1s timeout + backoff, not hanging.
                assert time.perf_counter() - start < 3.0
        assert plan.requests_seen("server.request") >= 1

    def test_unreachable_address_exhausts_retries(self):
        executor = RemoteExecutor([f"127.0.0.1:{_free_port()}"],
                                  timeout=0.2, max_retries=2,
                                  retry_backoff=0.01, jitter_seed=0)
        with executor:
            with pytest.raises(RemoteShardError, match="3 sweep"):
                executor.fan_out("top_k", np.zeros(1, dtype=np.int64), 1,
                                 False, None, None)

    def test_server_side_failure_is_reported_not_retried(self, addresses):
        # A user id far outside the snapshot's matrix blows up server-side
        # (IndexError in the payload executor); the message must surface as
        # a typed error immediately — re-running it would re-fail.
        bad_users = np.array([10 ** 6], dtype=np.int64)
        with RemoteExecutor(addresses, max_retries=3,
                            retry_backoff=0.2) as executor:
            start = time.perf_counter()
            with pytest.raises(RemoteShardError, match="failed"):
                executor.fan_out("top_k", bad_users, 1, False, None, None)
            assert time.perf_counter() - start < 2.0

    def test_garbled_frame_is_retried_as_transport_fault(self, snap_path,
                                                         index):
        # One garbled reply (unparseable frame), then clean service: the
        # client must treat the desync as a transport fault and recover.
        plan = FaultPlan(seed=5).inject("server.request", "garble", at=0)
        with ShardServer(snap_path, 0, 1, fault_plan=plan).start() as server:
            executor = RemoteExecutor(["{}:{}".format(*server.address)],
                                      snapshot_path=snap_path, timeout=2.0,
                                      max_retries=3, retry_backoff=0.01,
                                      jitter_seed=0)
            users = np.arange(5, dtype=np.int64)
            with executor:
                results = executor.fan_out("top_k", users, K, True,
                                           None, None)
            assert np.array_equal(results[0][0],
                                  index.top_k(users, K, exclude_train=True))
        assert ("server.request", 0, "garble") in plan.fired


class TestReplicaFailover:
    """Tentpole: replica faults fail over without ever changing results."""

    def _pair(self, snap_path, plan=None):
        """Two same-shard replicas; the first carries the fault plan."""
        first = ShardServer(snap_path, 0, 1, fault_plan=plan).start()
        second = ShardServer(snap_path, 0, 1).start()
        replica_set = [["{}:{}".format(*first.address),
                        "{}:{}".format(*second.address)]]
        return first, second, replica_set

    def test_failover_to_sibling_is_transparent_and_bit_identical(
            self, snap_path, index):
        plan = FaultPlan(seed=2).inject("server.request", "reset", after=1)
        first, second, replica_set = self._pair(snap_path, plan)
        users = np.arange(index.num_users, dtype=np.int64)
        want = index.top_k(users, K, exclude_train=True)
        try:
            with RemoteExecutor(replica_set, snapshot_path=snap_path,
                                timeout=2.0, max_retries=3,
                                retry_backoff=0.01, jitter_seed=0) as executor:
                for _ in range(5):
                    results = executor.fan_out("top_k", users, K, True,
                                               None, None)
                    assert np.array_equal(results[0][0], want)
                health = executor.health_stats()
                assert health["failovers"] >= 1
                replicas = health["shards"][0]["replicas"]
                # The sticky preference moved to the healthy sibling.
                assert replicas[1]["requests"] >= 4
                assert replicas[0]["failures"] >= 1
        finally:
            first.close()
            second.close()

    def test_exhausted_replica_set_fails_closed(self, snap_path):
        # Both replicas reset every request: the typed error must name the
        # whole replica set, and no partial result may escape.
        plan_a = FaultPlan(seed=3).inject("server.request", "reset")
        plan_b = FaultPlan(seed=4).inject("server.request", "reset")
        first = ShardServer(snap_path, 0, 1, fault_plan=plan_a).start()
        second = ShardServer(snap_path, 0, 1, fault_plan=plan_b).start()
        replica_set = [["{}:{}".format(*first.address),
                        "{}:{}".format(*second.address)]]
        try:
            with RemoteExecutor(replica_set, snapshot_path=snap_path,
                                timeout=1.0, max_retries=1,
                                retry_backoff=0.01, jitter_seed=0) as executor:
                with pytest.raises(RemoteShardError,
                                   match="exhausted all 2 replica"):
                    executor.fan_out("top_k", np.zeros(1, dtype=np.int64),
                                     1, False, None, None)
        finally:
            first.close()
            second.close()

    def test_stale_replica_is_skipped_never_served(self, snap_path,
                                                   other_snap_path, index):
        # Replica 0 serves a different snapshot: its handshake rejection
        # must disqualify it (circuit "rejected"), with the fresh sibling
        # serving the exact results — a stale replica is never merged.
        stale = ShardServer(other_snap_path, 0, 1).start()
        fresh = ShardServer(snap_path, 0, 1).start()
        replica_set = [["{}:{}".format(*stale.address),
                        "{}:{}".format(*fresh.address)]]
        users = np.arange(10, dtype=np.int64)
        try:
            with RemoteExecutor(replica_set, snapshot_path=snap_path,
                                timeout=2.0, jitter_seed=0) as executor:
                results = executor.fan_out("top_k", users, K, True,
                                           None, None)
                assert np.array_equal(
                    results[0][0], index.top_k(users, K, exclude_train=True))
                replicas = executor.health_stats()["shards"][0]["replicas"]
                assert replicas[0]["circuit"] == "rejected"
                assert "snapshot identity mismatch" in replicas[0]["last_error"]
        finally:
            stale.close()
            fresh.close()

    def test_all_replicas_stale_raises_without_burning_retries(
            self, snap_path, other_snap_path):
        stale_a = ShardServer(other_snap_path, 0, 1).start()
        stale_b = ShardServer(other_snap_path, 0, 1).start()
        replica_set = [["{}:{}".format(*stale_a.address),
                        "{}:{}".format(*stale_b.address)]]
        try:
            executor = RemoteExecutor(replica_set, snapshot_path=snap_path,
                                      timeout=2.0, max_retries=6,
                                      retry_backoff=0.3, jitter_seed=0)
            start = time.perf_counter()
            with executor, pytest.raises(RemoteShardError,
                                         match="rejected the handshake"):
                executor.fan_out("top_k", np.zeros(1, dtype=np.int64), 1,
                                 False, None, None)
            # Deterministic rejections must short-circuit the retry budget
            # (6 sweeps x 0.3s+ backoff would take seconds).
            assert time.perf_counter() - start < 2.0
        finally:
            stale_a.close()
            stale_b.close()

    def test_rejected_error_is_typed(self):
        assert issubclass(ReplicaRejectedError, RemoteShardError)

    def test_circuit_breaker_opens_then_halfopen_probe_recovers(self,
                                                                snap_path,
                                                                index):
        # Phase 1: the only replica is down → consecutive transport faults
        # trip the breaker open.  Phase 2: the replica comes back on the
        # same port; after the cooldown a half-open probe closes the
        # circuit and serving resumes.
        port = _free_port()
        executor = RemoteExecutor([f"127.0.0.1:{port}"],
                                  snapshot_path=snap_path, timeout=0.5,
                                  max_retries=2, retry_backoff=0.01,
                                  breaker_threshold=2,
                                  breaker_cooldown=0.05, jitter_seed=0)
        users = np.arange(4, dtype=np.int64)
        try:
            with pytest.raises(RemoteShardError):
                executor.fan_out("top_k", users, K, True, None, None)
            replica = executor.health_stats()["shards"][0]["replicas"][0]
            assert replica["circuit"] == "open"
            assert replica["consecutive_failures"] >= 2
            server = ShardServer(snap_path, 0, 1, port=port).start()
            try:
                time.sleep(0.06)  # past the cooldown: next attempt probes
                results = executor.fan_out("top_k", users, K, True,
                                           None, None)
                assert np.array_equal(
                    results[0][0], index.top_k(users, K, exclude_train=True))
                replica = executor.health_stats()["shards"][0]["replicas"][0]
                assert replica["circuit"] == "closed"
                assert replica["probes"] >= 1
                assert replica["probe_successes"] >= 1
            finally:
                server.close()
        finally:
            executor.close()

    def test_client_fault_plan_reset_forces_failover(self, snap_path, index):
        # Client-side injection: the request never reaches replica 0's
        # socket, the executor records the fault and serves from replica 1.
        first, second, replica_set = self._pair(snap_path)
        client_plan = FaultPlan(seed=9).inject("client.request", "reset",
                                               at=0)
        users = np.arange(6, dtype=np.int64)
        try:
            with RemoteExecutor(replica_set, snapshot_path=snap_path,
                                timeout=2.0, max_retries=2,
                                retry_backoff=0.01, jitter_seed=0,
                                fault_plan=client_plan) as executor:
                results = executor.fan_out("top_k", users, K, True,
                                           None, None)
                assert np.array_equal(
                    results[0][0], index.top_k(users, K, exclude_train=True))
                assert executor.health_stats()["failovers"] >= 1
        finally:
            first.close()
            second.close()
        assert ("client.request", 0, "reset") in client_plan.fired

    def test_backoff_is_jittered_capped_and_deterministic(self):
        executor_a = RemoteExecutor(["h:1"], retry_backoff=0.1,
                                    max_backoff=0.4, jitter_seed=123)
        executor_b = RemoteExecutor(["h:1"], retry_backoff=0.1,
                                    max_backoff=0.4, jitter_seed=123)
        delays_a = [executor_a._backoff_delay(attempt)
                    for attempt in range(1, 12)]
        delays_b = [executor_b._backoff_delay(attempt)
                    for attempt in range(1, 12)]
        assert delays_a == delays_b  # seeded: reproducible
        for attempt, delay in enumerate(delays_a, start=1):
            assert 0.0 <= delay <= min(0.4, 0.1 * 2 ** (attempt - 1))
        # Late attempts stay capped instead of growing without bound.
        assert max(delays_a[6:]) <= 0.4
        # Different seeds decorrelate the sequences (thundering herd).
        executor_c = RemoteExecutor(["h:1"], retry_backoff=0.1,
                                    max_backoff=0.4, jitter_seed=124)
        assert [executor_c._backoff_delay(a) for a in range(1, 12)] \
            != delays_a
        for executor in (executor_a, executor_b, executor_c):
            executor.close()

    def test_service_accepts_replica_lists_and_surfaces_health(
            self, snap_path):
        first, second, _ = self._pair(snap_path)
        try:
            replica_set = ["{}:{},{}:{}".format(*first.address,
                                                *second.address)]
            users = np.arange(8, dtype=np.int64)
            with RecommendationService(snapshot=snap_path) as oracle:
                want = oracle.top_k(users, K)
            with RecommendationService(snapshot=snap_path, executor="remote",
                                       shard_addresses=replica_set) as service:
                assert np.array_equal(service.top_k(users, K), want)
                health = service.health_stats()
                assert health["num_shards"] == 1
                assert health["replicas_per_shard"] == [2]
            # Local serving has no replicas to monitor.
            with RecommendationService(snapshot=snap_path) as local:
                assert local.health_stats() is None
        finally:
            first.close()
            second.close()


# --------------------------------------------------------------------- #
# Server lifecycle + CLI validation
# --------------------------------------------------------------------- #

class TestShardServer:
    def test_constructor_validation(self, snap_path, tmp_path):
        with pytest.raises(ValueError):
            ShardServer(snap_path, 2, 2)
        with pytest.raises(ValueError):
            ShardServer(snap_path, 0, 0)
        with pytest.raises(ValueError):
            ShardServer(snap_path, 0, 1, policy="diagonal")
        with pytest.raises(SnapshotFormatError):
            ShardServer(tmp_path / "missing.snap", 0, 1)

    def test_close_is_idempotent(self, snap_path):
        server = ShardServer(snap_path, 0, 1).start()
        server.close()
        server.close()

    def test_worker_cache_keyed_by_file_identity(self, index, tiny_split,
                                                 tmp_path):
        from repro.engine.remote import (_WORKER_BLOCKS, _WORKER_SHARDS,
                                         _worker_block, _worker_shard)
        path = save_snapshot(tmp_path / "live.snap", index,
                             candidate_modes=("int8",))
        first = _worker_shard(str(path), 2, "contiguous", 0)
        again = _worker_shard(str(path), 2, "contiguous", 0)
        assert again is first  # same file: cached
        _worker_block(str(path), 2, "contiguous", 0, "int8")
        changed = BprMF(tiny_split, embedding_dim=8, seed=99)
        changed.eval()
        save_snapshot(path, InferenceIndex.from_model(changed, tiny_split),
                      candidate_modes=("int8",))
        fresh = _worker_shard(str(path), 2, "contiguous", 0)
        assert fresh is not first  # republish invalidates
        assert not np.array_equal(fresh[0].item_embeddings,
                                  first[0].item_embeddings)
        # superseded entries were evicted, not accumulated
        keys = [key for key in _WORKER_SHARDS if key[0] == str(path)]
        assert len(keys) == 1 and keys[0][1] == fresh[3]
        assert all(key[1] == fresh[3] for key in _WORKER_BLOCKS
                   if key[0] == str(path))

    def test_cli_shard_server_validation(self, snap_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="shard-id"):
            main(["shard-server", str(snap_path), "--shard-id", "3",
                  "--num-shards", "2"])
        with pytest.raises(SystemExit, match="num-shards"):
            main(["shard-server", str(snap_path), "--shard-id", "0",
                  "--num-shards", "0"])
        with pytest.raises(SystemExit, match="error"):
            main(["shard-server", "/nonexistent/serve.snap",
                  "--shard-id", "0", "--num-shards", "1"])

    def test_cli_recommend_remote_validation(self, snap_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="--snapshot"):
            main(["recommend", "--executor", "remote",
                  "--shard-addr", "h:1"])
        with pytest.raises(SystemExit, match="--shard-addr"):
            main(["recommend", "--snapshot", str(snap_path),
                  "--executor", "remote"])
        with pytest.raises(SystemExit, match="--executor remote"):
            main(["recommend", "--snapshot", str(snap_path),
                  "--shard-addr", "h:1", "--executor", "serial"])
        with pytest.raises(SystemExit, match="does not match"):
            main(["recommend", "--snapshot", str(snap_path),
                  "--executor", "remote", "--shard-addr", "h:1",
                  "--shards", "3"])

    def test_cli_recommend_replica_set_reports_health(self, snap_path,
                                                      capsys):
        import json
        from repro.cli import main
        first = ShardServer(snap_path, 0, 1).start()
        second = ShardServer(snap_path, 0, 1).start()
        try:
            addr = "{}:{},{}:{}".format(*first.address, *second.address)
            assert main(["recommend", "--snapshot", str(snap_path),
                         "--executor", "remote", "--shard-addr", addr,
                         "--users", "0,2", "-k", str(K), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["health"]["num_shards"] == 1
            assert payload["health"]["replicas_per_shard"] == [2]
            assert payload["health"]["requests"] >= 1
        finally:
            first.close()
            second.close()


class TestSingleShardShortCircuit:
    """Satellite: num_shards == 1 must never cross the fan-out seam."""

    class _SentinelExecutor(SerialExecutor):
        def __init__(self):
            self.calls = 0

        def run(self, tasks):
            self.calls += 1
            raise AssertionError("single-shard serving used the executor")

        def fan_out(self, kind, *request):
            self.calls += 1
            raise AssertionError("single-shard serving used the executor")

    def test_object_executor_is_never_called(self, index):
        sentinel = self._SentinelExecutor()
        with RecommendationService(index=index, num_shards=1,
                                   executor=sentinel) as service:
            users = np.arange(10, dtype=np.int64)
            service.top_k(users, K)
            service.recommend(0, k=K)
            service.score_pairs(users[:3], np.array([1, 2, 3]))
        assert sentinel.calls == 0

    def test_string_executors_are_not_constructed(self, index):
        for name in ("serial", "threads"):
            with RecommendationService(index=index, num_shards=1,
                                       executor=name) as service:
                assert isinstance(service._executor, SerialExecutor)

    def test_unknown_executor_name_still_rejected(self, index):
        # "process" names the removed multi-process executor; out-of-process
        # serving goes through shard servers and executor="remote".
        for name in ("carrier-pigeon", "process"):
            with pytest.raises(ValueError, match="unknown executor"):
                RecommendationService(index=index, num_shards=1,
                                      executor=name)
