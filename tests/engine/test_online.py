"""Tests for the online-serving subsystem (delta overlay, ingest, compaction)."""

import numpy as np
import pytest

from repro.engine import (
    InferenceIndex,
    InteractionDelta,
    OnlineRecommendationService,
    OnlineUserItemIndex,
    RecommendationService,
    UserItemIndex,
)
from repro.models import BprMF, MultiVAE


@pytest.fixture()
def model(tiny_split):
    model = BprMF(tiny_split, embedding_dim=8, seed=2)
    model.eval()
    return model


def _rebuild(online: OnlineUserItemIndex) -> UserItemIndex:
    """From-scratch build on the accumulated interactions (the oracle)."""
    users, items = online.all_pairs()
    return UserItemIndex(online.num_users, online.num_items, users, items)


class TestInteractionDelta:
    def test_add_keys_merges_sorted_batches(self):
        delta = InteractionDelta(num_items=10)
        delta.add_keys(np.asarray([7, 12, 31], dtype=np.int64))
        delta.add_keys(np.asarray([3, 15], dtype=np.int64))
        np.testing.assert_array_equal(delta.keys, [3, 7, 12, 15, 31])
        assert delta.nnz == 5

    def test_contains_keys_shapes(self):
        delta = InteractionDelta(num_items=10)
        delta.add_keys(np.asarray([5, 17], dtype=np.int64))
        got = delta.contains_keys(np.asarray([[5, 6], [17, 18]]))
        np.testing.assert_array_equal(got, [[True, False], [True, False]])
        assert not InteractionDelta(10).contains_keys(np.asarray([5])).any()

    def test_pairs_for_and_counts(self):
        delta = InteractionDelta(num_items=10)
        # user 0: items 3, 9 — user 2: item 1
        delta.add_keys(np.asarray([3, 9, 21], dtype=np.int64))
        rows, cols = delta.pairs_for(np.asarray([2, 0, 1]))
        np.testing.assert_array_equal(rows, [0, 1, 1])
        np.testing.assert_array_equal(cols, [1, 3, 9])
        np.testing.assert_array_equal(delta.counts(np.asarray([0, 1, 2])),
                                      [2, 0, 1])


class TestOnlineUserItemIndex:
    def _base(self, rng, num_users=20, num_items=15, nnz=60):
        return UserItemIndex(num_users, num_items,
                             rng.integers(0, num_users, nnz),
                             rng.integers(0, num_items, nnz))

    def test_ingest_drops_base_delta_and_batch_duplicates(self, rng):
        base = self._base(rng)
        online = OnlineUserItemIndex(base)
        known_user = int(base.users_with_items()[0])
        known_item = int(base.items_for(known_user)[0])
        users = np.asarray([known_user, 3, 3, 3])
        items = np.asarray([known_item, 9, 9, 8])
        fresh_users, fresh_items = online.ingest(users, items)
        assert fresh_users.size == 2  # (3,9) and (3,8); dupes + known dropped
        again_users, again_items = online.ingest(users, items)
        assert again_users.size == 0  # now in the delta
        assert online.nnz == base.nnz + 2

    def test_read_api_matches_from_scratch_build(self, rng):
        base = self._base(rng)
        online = OnlineUserItemIndex(base)
        online.ingest(rng.integers(0, 20, 40), rng.integers(0, 15, 40))
        oracle = _rebuild(online)
        users = np.arange(20)
        np.testing.assert_array_equal(online.counts(), oracle.counts())
        np.testing.assert_array_equal(online.membership(users),
                                      oracle.membership(users))
        np.testing.assert_array_equal(online.flat_keys, oracle.flat_keys)
        np.testing.assert_array_equal(online.users_with_items(),
                                      oracle.users_with_items())
        for user in range(20):
            np.testing.assert_array_equal(online.items_for(user),
                                          oracle.items_for(user))
        probe_users = rng.integers(0, 20, (8, 1))
        probe_items = rng.integers(0, 15, (8, 6))
        np.testing.assert_array_equal(online.contains(probe_users, probe_items),
                                      oracle.contains(probe_users, probe_items))
        scores_a = rng.normal(size=(5, 15))
        scores_b = scores_a.copy()
        batch = rng.integers(0, 20, 5)
        np.testing.assert_array_equal(online.mask(scores_a, batch),
                                      oracle.mask(scores_b, batch))

    def test_grown_users_live_in_the_delta(self, rng):
        base = self._base(rng)
        online = OnlineUserItemIndex(base)
        online.grow_users(25)
        online.ingest(np.asarray([22, 22]), np.asarray([1, 4]))
        np.testing.assert_array_equal(online.items_for(22), [1, 4])
        assert online.counts(np.asarray([22]))[0] == 2
        assert online.contains(np.asarray([22]), np.asarray([4]))[0]
        oracle = _rebuild(online)
        np.testing.assert_array_equal(online.membership(np.arange(25)),
                                      oracle.membership(np.arange(25)))

    def test_compact_bit_identical_to_rebuild(self, rng):
        base = self._base(rng)
        online = OnlineUserItemIndex(base)
        online.grow_users(23)
        online.ingest(rng.integers(0, 23, 50), rng.integers(0, 15, 50))
        oracle = _rebuild(online)
        online.compact()
        assert online.delta.nnz == 0
        np.testing.assert_array_equal(online.base.indptr, oracle.indptr)
        np.testing.assert_array_equal(online.base.indices, oracle.indices)
        np.testing.assert_array_equal(online.base.flat_keys, oracle.flat_keys)

    def test_compact_without_delta_keeps_base(self, rng):
        base = self._base(rng)
        online = OnlineUserItemIndex(base)
        online.compact()
        assert online.base is base  # nothing to merge, no rebuild

    def test_from_flat_keys_matches_constructor(self, rng):
        users = rng.integers(0, 12, 40)
        items = rng.integers(0, 9, 40)
        built = UserItemIndex(12, 9, users, items)
        fast = UserItemIndex.from_flat_keys(12, 9, built.flat_keys)
        np.testing.assert_array_equal(fast.indptr, built.indptr)
        np.testing.assert_array_equal(fast.indices, built.indices)
        np.testing.assert_array_equal(fast.flat_keys, built.flat_keys)

    def test_validation(self, rng):
        online = OnlineUserItemIndex(self._base(rng))
        with pytest.raises(IndexError):
            online.ingest(np.asarray([50]), np.asarray([0]))
        with pytest.raises(IndexError):
            online.ingest(np.asarray([0]), np.asarray([99]))
        with pytest.raises(ValueError):
            online.ingest(np.asarray([0, 1]), np.asarray([0]))
        with pytest.raises(ValueError):
            online.grow_users(3)
        with pytest.raises(ValueError):
            OnlineUserItemIndex(self._base(rng), num_users=5)


class TestOnlineService:
    def test_ingested_item_leaves_recommendations(self, model):
        service = OnlineRecommendationService(model)
        before = service.recommend(0, k=3)
        consumed = before[0]
        stats = service.ingest(np.asarray([0]), np.asarray([consumed]))
        assert stats["ingested"] == 1 and stats["touched_users"] == 1
        after = service.recommend(0, k=3)
        assert consumed not in after

    def test_invalidation_is_targeted(self, model):
        service = OnlineRecommendationService(model)
        service.recommend(0, k=3)
        untouched = service.recommend(1, k=3)
        service.ingest(np.asarray([0]), np.asarray([5]))
        assert service.recommend(1, k=3) == untouched
        assert service.cache_hits == 1  # user 1 never left the cache

    def test_overlay_matches_rebuild_service(self, model, tiny_split, rng):
        service = OnlineRecommendationService(model)
        users = rng.integers(0, tiny_split.num_users, 30)
        items = rng.integers(0, tiny_split.num_items, 30)
        service.ingest(users, items)
        all_users = np.arange(service.num_users)
        got = service.top_k(all_users, 5)
        pair_users, pair_items = service.overlay.all_pairs()
        oracle = RecommendationService(index=InferenceIndex(
            service.num_users, service.num_items,
            user_embeddings=service.index.user_embeddings,
            item_embeddings=service.index.item_embeddings,
            exclusion=UserItemIndex(service.num_users, service.num_items,
                                    pair_users, pair_items)))
        np.testing.assert_array_equal(got, oracle.top_k(all_users, 5))
        service.compact()
        np.testing.assert_array_equal(service.top_k(all_users, 5), got)

    def test_auto_compaction_threshold(self, model):
        service = OnlineRecommendationService(model, compact_threshold=5)
        stats = service.ingest(np.asarray([0, 0, 1, 1]),
                               np.asarray([30, 31, 30, 31]))
        if stats["ingested"] < 5:
            assert not stats["compacted"]
        stats = service.ingest(np.asarray([2, 2, 3]), np.asarray([30, 31, 30]))
        assert stats["compacted"] and service.compactions >= 1
        assert service.delta_size == 0

    @pytest.mark.parametrize("policy", ["mean", "zeros"])
    def test_new_users_get_fallback_rows(self, model, tiny_split, policy):
        service = OnlineRecommendationService(model, new_user_policy=policy)
        base_users = tiny_split.num_users
        stats = service.ingest(np.asarray([base_users, base_users]),
                               np.asarray([3, 7]))
        assert stats["new_users"] == 1
        assert service.num_users == base_users + 1
        row = service.index.user_embeddings[base_users]
        if policy == "zeros":
            np.testing.assert_array_equal(row, np.zeros_like(row))
        else:
            np.testing.assert_allclose(
                row, service.index.user_embeddings[:base_users].mean(axis=0))
        recs = service.recommend(base_users, k=4)
        assert 3 not in recs and 7 not in recs  # consumed items excluded

    def test_sharded_overlays_follow_ingest(self, model, tiny_split, rng):
        service = OnlineRecommendationService(model, num_shards=3)
        plain = OnlineRecommendationService(model)
        users = rng.integers(0, tiny_split.num_users + 2, 40)
        items = rng.integers(0, tiny_split.num_items, 40)
        service.ingest(users, items)
        plain.ingest(users, items)
        all_users = np.arange(service.num_users)
        np.testing.assert_array_equal(service.top_k(all_users, 5),
                                      plain.top_k(all_users, 5))
        service.compact()
        np.testing.assert_array_equal(service.top_k(all_users, 5),
                                      plain.top_k(all_users, 5))

    def test_ingest_keeps_quantised_block_compact_rebuilds(self, model):
        service = OnlineRecommendationService(model, candidate_mode="int8")
        backend_before = service.candidates
        block_before = backend_before.block
        service.ingest(np.asarray([0]), np.asarray([4]))
        assert service.candidates is backend_before  # ingest: no requantise
        assert service.candidates.block is block_before
        service.compact()
        assert service.candidates is not backend_before  # compaction rebuilds

    def test_refresh_preserves_ingested_state(self, model, tiny_split):
        service = OnlineRecommendationService(model)
        base_users = tiny_split.num_users
        service.ingest(np.asarray([0, base_users]), np.asarray([9, 9]))
        model.user_factors.data[:] = -model.user_factors.data
        service.refresh()
        assert service.num_users == base_users + 1  # grown user survives
        assert service.overlay.contains(np.asarray([0]), np.asarray([9]))[0]
        ranked = service.recommend(0, k=tiny_split.num_items - 1)
        # Past the user's unexcluded items the list pads with excluded ones
        # (ascending id, like every other tie); item 9 must rank below every
        # item the user may still be recommended.
        allowed = tiny_split.num_items - int(service.overlay.counts([0])[0])
        assert 9 not in ranked[:allowed]
        tail = np.asarray(ranked[allowed:], dtype=np.int64)
        assert service.overlay.contains(np.zeros_like(tail), tail).all()

    def test_spurious_refresh_is_a_true_noop(self, model):
        # Nothing ingested, embeddings unchanged: refresh must keep the whole
        # warm stack — overlay object, caches, counters — untouched.
        service = OnlineRecommendationService(model, candidate_mode="int8")
        before = service.recommend(0, k=5)
        index_before = service.index
        overlay_before = service.overlay
        candidates_before = service.candidates
        assert service.refresh() is service
        assert service.index is index_before
        assert service.overlay is overlay_before
        assert service.index.exclusion is overlay_before  # rewrapped
        assert service.candidates is candidates_before
        assert service.recommend(0, k=5) == before
        assert service.cache_hits >= 1  # LRU survived the refresh

    def test_noop_refresh_error_restores_overlay(self, model, tiny_split):
        # Built from a prebuilt index there is no model to re-freeze from;
        # the failed refresh must leave the overlay wrapped back in place.
        index = InferenceIndex.from_model(model, tiny_split)
        service = OnlineRecommendationService(index=index)
        overlay = service.overlay
        with pytest.raises(ValueError, match="no model"):
            service.refresh()
        assert service.index.exclusion is overlay
        assert service.overlay is overlay

    def test_online_stats_counters(self, model):
        service = OnlineRecommendationService(model, compact_threshold=100)
        service.ingest(np.asarray([0, 1]), np.asarray([3, 4]))
        stats = service.online_stats
        assert stats["ingested_pairs"] == 2
        assert stats["delta_size"] == 2
        assert stats["compactions"] == 0
        assert stats["compact_threshold"] == 100

    def test_validation_and_limits(self, model, tiny_split):
        with pytest.raises(ValueError, match="compact_threshold"):
            OnlineRecommendationService(model, compact_threshold=0)
        with pytest.raises(ValueError, match="new_user_policy"):
            OnlineRecommendationService(model, new_user_policy="random")
        service = OnlineRecommendationService(model, max_user_growth=2)
        with pytest.raises(ValueError, match="max_user_growth"):
            service.ingest(np.asarray([tiny_split.num_users + 10]),
                           np.asarray([0]))
        with pytest.raises(IndexError):
            service.ingest(np.asarray([0]), np.asarray([tiny_split.num_items]))
        with pytest.raises(IndexError):
            service.ingest(np.asarray([-1]), np.asarray([0]))

    def test_scorer_fallback_cannot_grow_users(self, tiny_split):
        model = MultiVAE(tiny_split, seed=0)
        model.eval()
        service = OnlineRecommendationService(model, tiny_split)
        # Existing users ingest fine through the scorer path …
        before = service.recommend(0, k=3)
        service.ingest(np.asarray([0]), np.asarray([before[0]]))
        assert before[0] not in service.recommend(0, k=3)
        # … but unseen users have no embedding row to fall back to.
        with pytest.raises(ValueError, match="factorised"):
            service.ingest(np.asarray([tiny_split.num_users]), np.asarray([0]))

    def test_compact_preserves_certificate_counters(self, model):
        service = OnlineRecommendationService(model, candidate_mode="int8")
        service.top_k(np.arange(10), 5)
        stats_before = service.certificate_stats
        assert stats_before["users"] == 10
        service.compact()
        # Compaction is invisible to serving — monitoring counters included.
        assert service.certificate_stats == stats_before
