"""Tests for serving snapshots (repro.engine.snapshot)."""

import struct
import zlib

import numpy as np
import pytest

from repro.engine import (
    InferenceIndex,
    OnlineRecommendationService,
    RecommendationService,
    SerialExecutor,
    SNAPSHOT_VERSION,
    ServingSnapshot,
    SnapshotFormatError,
    ThreadedExecutor,
    UserItemIndex,
    load_snapshot,
    quantize_item_matrix,
    save_snapshot,
    snapshot_info,
)
from repro.models import BprMF, MultiVAE

K = 6


@pytest.fixture()
def model(tiny_split):
    model = BprMF(tiny_split, embedding_dim=8, seed=2)
    model.eval()
    return model


@pytest.fixture()
def index(model, tiny_split):
    return InferenceIndex.from_model(model, tiny_split)


@pytest.fixture()
def snap_path(index, tmp_path):
    return save_snapshot(tmp_path / "serve.snap", index,
                         candidate_modes=("int8",),
                         metadata={"model": "bpr", "seed": 2})


class TestRoundTrip:
    def test_header_describes_the_index(self, index, snap_path):
        info = snapshot_info(snap_path)
        assert info["format_version"] == SNAPSHOT_VERSION
        assert info["num_users"] == index.num_users
        assert info["num_items"] == index.num_items
        assert info["dim"] == index.user_embeddings.shape[1]
        assert info["dtype"] == index.dtype.name
        assert info["candidate_modes"] == ["int8"]
        assert info["has_exclusion"] is True
        assert info["metadata"] == {"model": "bpr", "seed": 2}

    @pytest.mark.parametrize("mmap", [True, False])
    def test_sections_round_trip_bit_exact(self, index, snap_path, mmap):
        snapshot = load_snapshot(snap_path, mmap=mmap)
        np.testing.assert_array_equal(snapshot.section("user_embeddings"),
                                      index.user_embeddings)
        np.testing.assert_array_equal(snapshot.section("item_embeddings"),
                                      index.item_embeddings)
        np.testing.assert_array_equal(snapshot.section("item_norms"),
                                      index.item_norms)
        excl = snapshot.exclusion()
        np.testing.assert_array_equal(excl.indptr, index.exclusion.indptr)
        np.testing.assert_array_equal(excl.indices, index.exclusion.indices)

    def test_mmap_views_are_read_only_memmaps(self, snap_path):
        snapshot = load_snapshot(snap_path, mmap=True)
        for name in snapshot.section_names:
            section = snapshot.section(name)
            assert isinstance(section, np.memmap), name
            assert not section.flags.writeable, name
        with pytest.raises(ValueError):
            snapshot.section("user_embeddings")[0, 0] = 1.0

    def test_owning_load_gives_writable_arrays(self, snap_path):
        snapshot = load_snapshot(snap_path, mmap=False)
        section = snapshot.section("user_embeddings")
        assert not isinstance(section, np.memmap)
        section[0, 0] = 42.0  # owning copy: mutation must not raise

    def test_section_alignment(self, snap_path):
        info = snapshot_info(snap_path)
        for name, spec in info["sections"].items():
            assert spec["offset"] % 64 == 0, name

    def test_unknown_section_lists_available(self, snap_path):
        snapshot = load_snapshot(snap_path)
        with pytest.raises(KeyError, match="item_norms"):
            snapshot.section("nope")

    def test_exclusion_optional(self, index, tmp_path):
        bare = InferenceIndex(index.num_users, index.num_items,
                              user_embeddings=index.user_embeddings,
                              item_embeddings=index.item_embeddings)
        path = save_snapshot(tmp_path / "bare.snap", bare)
        snapshot = load_snapshot(path)
        assert not snapshot.has_exclusion
        assert snapshot.exclusion() is None
        assert snapshot.inference_index().exclusion is None

    def test_candidate_modes_deduped(self, index, tmp_path):
        path = save_snapshot(tmp_path / "dupe.snap", index,
                             candidate_modes=("int8", "int8"))
        assert snapshot_info(path)["candidate_modes"] == ["int8"]

    def test_repr_mentions_geometry(self, snap_path):
        text = repr(load_snapshot(snap_path))
        assert "mmap" in text and "users=" in text and "items=" in text


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="cannot read"):
            load_snapshot(tmp_path / "absent.snap")

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a snapshot, but long enough to read")
        with pytest.raises(SnapshotFormatError, match="not a repro serving"):
            load_snapshot(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"REPRO")
        with pytest.raises(SnapshotFormatError, match="too short"):
            load_snapshot(path)

    def test_version_mismatch(self, snap_path):
        # Rewrite the preamble with a bumped version, same header length/crc.
        raw = snap_path.read_bytes()
        magic, _, header_len, crc = struct.unpack("<8sIQI", raw[:24])
        snap_path.write_bytes(
            struct.pack("<8sIQI", magic, SNAPSHOT_VERSION + 1, header_len, crc)
            + raw[24:])
        with pytest.raises(SnapshotFormatError, match="version"):
            load_snapshot(snap_path)

    def test_corrupted_header_fails_checksum(self, snap_path):
        raw = bytearray(snap_path.read_bytes())
        raw[30] ^= 0xFF  # flip a byte inside the JSON header
        snap_path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            load_snapshot(snap_path)

    def test_tampered_header_with_fixed_crc_cannot_lie_about_size(
            self, snap_path):
        # Even a checksum-consistent header cannot point sections past EOF.
        import json
        raw = snap_path.read_bytes()
        magic, version, header_len, _ = struct.unpack("<8sIQI", raw[:24])
        header = json.loads(raw[24:24 + header_len].decode("utf-8"))
        header["sections"]["item_norms"]["nbytes"] = 10 ** 12
        patched = json.dumps(header, sort_keys=True).encode("utf-8")
        snap_path.write_bytes(
            struct.pack("<8sIQI", magic, version, len(patched),
                        zlib.crc32(patched))
            + patched + raw[24 + header_len:])
        with pytest.raises(SnapshotFormatError,
                           match="does not match|past"):
            load_snapshot(snap_path)

    def _rewrite_header(self, snap_path, mutate):
        """Apply ``mutate(header)`` and re-checksum, keeping the data region."""
        import json
        raw = snap_path.read_bytes()
        magic, version, header_len, _ = struct.unpack("<8sIQI", raw[:24])
        header = json.loads(raw[24:24 + header_len].decode("utf-8"))
        mutate(header)
        patched = json.dumps(header, sort_keys=True).encode("utf-8")
        snap_path.write_bytes(
            struct.pack("<8sIQI", magic, version, len(patched),
                        zlib.crc32(patched))
            + patched + raw[24 + header_len:])

    def test_negative_offset_rejected_despite_valid_crc(self, snap_path):
        # A negative offset would alias the preamble/header bytes as data.
        def mutate(header):
            header["sections"]["item_norms"]["offset"] = -64
        self._rewrite_header(snap_path, mutate)
        with pytest.raises(SnapshotFormatError, match="negative"):
            load_snapshot(snap_path)

    def test_nbytes_inconsistent_with_shape_rejected(self, snap_path):
        # nbytes must equal prod(shape) * itemsize or the section view would
        # reshape-fail (mmap) or read garbage (owning load).
        def mutate(header):
            header["sections"]["item_norms"]["nbytes"] -= 8
        self._rewrite_header(snap_path, mutate)
        with pytest.raises(SnapshotFormatError, match="does not match"):
            load_snapshot(snap_path)

    def test_negative_dimension_rejected(self, snap_path):
        def mutate(header):
            header["sections"]["item_norms"]["shape"] = [-1]
        self._rewrite_header(snap_path, mutate)
        with pytest.raises(SnapshotFormatError, match="negative"):
            load_snapshot(snap_path)

    def test_missing_section_table_rejected(self, snap_path):
        def mutate(header):
            del header["sections"]
        self._rewrite_header(snap_path, mutate)
        with pytest.raises(SnapshotFormatError, match="section table"):
            load_snapshot(snap_path)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_truncated_sections(self, snap_path, mmap):
        raw = snap_path.read_bytes()
        snap_path.write_bytes(raw[:len(raw) - 128])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot(snap_path, mmap=mmap)

    def test_truncated_header(self, snap_path):
        snap_path.write_bytes(snap_path.read_bytes()[:30])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot(snap_path)

    def test_format_error_is_a_value_error(self):
        assert issubclass(SnapshotFormatError, ValueError)

    def test_save_rejects_unknown_candidate_mode(self, index, tmp_path):
        with pytest.raises(ValueError, match="unknown candidate mode"):
            save_snapshot(tmp_path / "x.snap", index, candidate_modes=("pq",))

    def test_save_rejects_scorer_fallback(self, tiny_split, tmp_path):
        vae = MultiVAE(tiny_split, embedding_dim=8, seed=0)
        vae.eval()
        scorer = InferenceIndex.from_model(vae, tiny_split)
        with pytest.raises(ValueError, match="factorised"):
            save_snapshot(tmp_path / "x.snap", scorer)

    def test_failed_save_leaves_no_temp_file(self, index, tmp_path):
        with pytest.raises(ValueError):
            save_snapshot(tmp_path / "x.snap", index, candidate_modes=("pq",))
        assert list(tmp_path.iterdir()) == []


class TestServingParity:
    def _oracle(self, index, users):
        return index.top_k(users, K)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_inference_index_serves_identically(self, index, snap_path, mmap):
        users = np.arange(index.num_users)
        rebuilt = load_snapshot(snap_path, mmap=mmap).inference_index()
        np.testing.assert_array_equal(rebuilt.top_k(users, K),
                                      self._oracle(index, users))

    def test_stored_block_matches_requantisation(self, index, snap_path):
        snapshot = load_snapshot(snap_path)
        stored = snapshot.quantized_block("int8")
        fresh = quantize_item_matrix(index.item_embeddings, "int8",
                                     item_norms=index.item_norms)
        np.testing.assert_array_equal(stored.codes, fresh.codes)
        np.testing.assert_array_equal(stored.scales, fresh.scales)
        np.testing.assert_array_equal(stored.bound_norms, fresh.bound_norms)

    def test_unstored_mode_falls_back_to_quantising(self, index, snap_path):
        snapshot = load_snapshot(snap_path)
        block = snapshot.quantized_block("float32")
        fresh = quantize_item_matrix(index.item_embeddings, "float32",
                                     item_norms=index.item_norms)
        np.testing.assert_array_equal(block.codes, fresh.codes)
        with pytest.raises(ValueError, match="unknown candidate mode"):
            snapshot.quantized_block("pq")

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    def test_sharded_index_parity(self, index, snap_path, policy):
        users = np.arange(index.num_users)
        sharded = load_snapshot(snap_path).sharded_index(3, policy=policy)
        np.testing.assert_array_equal(sharded.top_k(users, K),
                                      self._oracle(index, users))

    @pytest.mark.parametrize("mode", [None, "int8"])
    def test_service_snapshot_kwarg_parity(self, index, snap_path, mode):
        users = np.arange(index.num_users)
        with RecommendationService(index=index, num_shards=2,
                                   candidate_mode=mode) as oracle:
            expected = oracle.top_k(users, K)
        for source in (snap_path, load_snapshot(snap_path)):
            with RecommendationService(snapshot=source, num_shards=2,
                                       candidate_mode=mode) as service:
                np.testing.assert_array_equal(service.top_k(users, K),
                                              expected)


class TestExecutorHygiene:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(ValueError, match="max_workers"):
            ThreadedExecutor(max_workers=workers)

    @pytest.mark.parametrize("executor_cls", [SerialExecutor,
                                              ThreadedExecutor])
    def test_context_manager_closes(self, executor_cls):
        with executor_cls() as executor:
            assert executor.run([lambda: 1, lambda: 2]) == [1, 2]
        executor.close()  # already closed: still a no-op

    def test_service_close_shuts_executor_down(self, index):
        executor = ThreadedExecutor(max_workers=2)
        service = RecommendationService(index=index, num_shards=2,
                                        executor=executor)
        service.top_k(np.arange(4), K)
        service.close()
        assert executor._pool is None


class TestServiceWiring:
    def test_snapshot_and_index_are_exclusive(self, index, snap_path):
        with pytest.raises(ValueError, match="not both"):
            RecommendationService(index=index, snapshot=snap_path)

    def test_unknown_executor_name(self, index):
        with pytest.raises(ValueError, match="executor"):
            RecommendationService(index=index, num_shards=2,
                                  executor="gpu")

    def test_snapshot_sets_dtype_and_property(self, snap_path):
        with RecommendationService(snapshot=snap_path) as service:
            assert service.snapshot is not None
            assert service.index.dtype == service.snapshot.dtype

    def test_refresh_detaches_the_snapshot(self, model, tiny_split, snap_path):
        service = RecommendationService(model, tiny_split, num_shards=1)
        assert service.snapshot is None
        with RecommendationService(snapshot=snap_path) as snap_service:
            assert snap_service.snapshot is not None


class TestOnlinePublish:
    def _service(self, model, tmp_path, **kwargs):
        return OnlineRecommendationService(
            model, snapshot_path=tmp_path / "live.snap", **kwargs)

    def test_publish_then_reload_serves_identically(self, model, tmp_path):
        service = self._service(model, tmp_path)
        users = np.arange(service.num_users)
        expected = service.top_k(users, K)
        path = service.publish_snapshot()
        service.close()
        with RecommendationService(snapshot=path) as reloaded:
            np.testing.assert_array_equal(reloaded.top_k(users, K), expected)

    def test_publish_folds_pending_delta(self, model, tmp_path):
        service = self._service(model, tmp_path)
        users = np.arange(service.num_users)
        service.ingest(np.asarray([0, 1]), np.asarray([3, 4]))
        expected = service.top_k(users, K)
        path = service.publish_snapshot()
        assert service.delta_size == 0  # publishing compacted first
        service.close()
        with RecommendationService(snapshot=path) as reloaded:
            np.testing.assert_array_equal(reloaded.top_k(users, K), expected)

    def test_compact_publishes_in_background(self, model, tmp_path):
        service = self._service(model, tmp_path)
        service.ingest(np.asarray([0]), np.asarray([5]))
        service.compact()
        service.wait_published()
        assert service.publishes == 1
        assert (tmp_path / "live.snap").exists()
        stats = service.online_stats
        assert stats["publishes"] == 1
        assert stats["snapshot_path"].endswith("live.snap")
        service.close()

    def test_background_publish_error_surfaces_on_wait(self, model, tmp_path):
        service = OnlineRecommendationService(
            model, snapshot_path=tmp_path / "missing-dir" / "live.snap")
        service.publish_snapshot(background=True)
        with pytest.raises(OSError):
            service.wait_published()
        service.close()

    def test_publish_without_a_path_anywhere_raises(self, model):
        service = OnlineRecommendationService(model)
        with pytest.raises(ValueError, match="path"):
            service.publish_snapshot()
        service.close()

    def test_overlay_with_pending_delta_cannot_be_saved_directly(
            self, model, tmp_path):
        service = OnlineRecommendationService(model)
        service.ingest(np.asarray([0]), np.asarray([2]))
        with pytest.raises(ValueError, match="compact"):
            save_snapshot(tmp_path / "x.snap", service.index)
        service.close()

    def test_served_user_item_space_survives_round_trip(self, model, tmp_path):
        service = self._service(model, tmp_path)
        path = service.publish_snapshot()
        service.close()
        snapshot = load_snapshot(path)
        assert isinstance(snapshot, ServingSnapshot)
        assert "compactions" in snapshot.metadata
        assert isinstance(snapshot.exclusion(), UserItemIndex)
