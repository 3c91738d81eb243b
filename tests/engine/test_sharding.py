"""Tests for item-partitioned sharded serving (repro.engine.sharding)."""

import threading

import numpy as np
import pytest

from repro.engine import (
    InferenceIndex,
    ItemShard,
    RecommendationService,
    SerialExecutor,
    ShardedInferenceIndex,
    ThreadedExecutor,
    partition_items,
)
from repro.models import BprMF, MultiVAE


@pytest.fixture()
def model(tiny_split):
    model = BprMF(tiny_split, embedding_dim=8, seed=2)
    model.eval()
    return model


@pytest.fixture()
def index(model, tiny_split):
    return InferenceIndex.from_model(model, tiny_split)


def safe_masked_k(index):
    """Largest k whose masked top-k never reaches the -inf tail.

    The tail (and every other tie) is covered by ``test_tied_top_k_parity``.
    """
    return index.num_items - int(index.exclusion.counts().max())


@pytest.fixture()
def tied_index(index):
    """Adversarial ties: items 10-29 copy item 5, and user 3 scores all 0."""
    users = index.user_embeddings.copy()
    users[3] = 0.0
    items = index.item_embeddings.copy()
    items[10:30] = items[5]
    return InferenceIndex(index.num_users, index.num_items,
                          user_embeddings=users, item_embeddings=items,
                          exclusion=index.exclusion)


def total_order_top_k(index, users, k):
    """Oracle: rank masked scores by score descending, then id ascending."""
    scores = index.scores(users, mask_train=True)
    ids = np.broadcast_to(np.arange(index.num_items), scores.shape)
    return np.lexsort((ids, -scores), axis=-1)[:, :k]


class TestPartitionItems:
    def test_contiguous_blocks(self):
        parts = partition_items(10, 4, "contiguous")
        assert [list(p) for p in parts] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_strided_deal(self):
        parts = partition_items(7, 3, "strided")
        assert [list(p) for p in parts] == [[0, 3, 6], [1, 4], [2, 5]]

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    def test_non_divisible_catalogue_leaves_empty_shards(self, policy):
        parts = partition_items(5, 7, policy)
        assert len(parts) == 7
        assert sum(p.size for p in parts) == 5
        assert sum(p.size == 0 for p in parts) == 2

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_items,num_shards",
                             [(40, 1), (40, 7), (40, 40), (3, 8), (0, 3)])
    def test_exact_disjoint_cover(self, policy, num_items, num_shards):
        parts = partition_items(num_items, num_shards, policy)
        assert len(parts) == num_shards
        merged = np.concatenate(parts) if parts else np.empty(0, np.int64)
        assert sorted(merged.tolist()) == list(range(num_items))
        for part in parts:  # each shard's ids arrive sorted
            assert np.array_equal(part, np.sort(part))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_items(10, 0)
        with pytest.raises(ValueError):
            partition_items(10, 2, policy="roundrobin")


class TestItemShard:
    def test_locate_maps_owned_items_only(self, index):
        ids = np.array([3, 7, 11], dtype=np.int64)
        shard = ItemShard(0, ids, index.item_embeddings[ids])
        owned, local = shard.locate(np.array([3, 4, 11, 7, 0]))
        np.testing.assert_array_equal(owned, [True, False, True, True, False])
        assert list(local[owned]) == [0, 2, 1]

    def test_empty_shard_yields_zero_width_candidates(self, index):
        empty = np.empty(0, dtype=np.int64)
        shard = ItemShard(0, empty, index.item_embeddings[empty])
        users = np.arange(4)
        ids, scores = shard.local_top_k(index.user_embeddings[users], users,
                                        k=5, exclude_train=False)
        assert ids.shape == (4, 0) and scores.shape == (4, 0)
        owned, _ = shard.locate(np.array([0, 1]))
        assert not owned.any()

    def test_local_exclusion_matches_parent_slice(self, index, tiny_split):
        sharded = ShardedInferenceIndex.from_index(index, 3, policy="strided")
        parent = index.exclusion
        for shard in sharded.shards:
            for user in range(0, tiny_split.num_users, 7):
                expected = [item for item in parent.items_for(user)
                            if item in set(shard.item_ids.tolist())]
                got = shard.item_ids[shard.exclusion.items_for(user)]
                assert list(got) == expected

    def test_mismatched_embedding_slice_raises(self, index):
        with pytest.raises(ValueError):
            ItemShard(0, np.array([0, 1]), index.item_embeddings[:3])


class TestShardedParity:
    """The acceptance gate: sharded == unsharded, tied scores included."""

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_masked_top_k_parity(self, index, policy, num_shards):
        users = np.arange(index.num_users)
        k = safe_masked_k(index)
        sharded = ShardedInferenceIndex.from_index(index, num_shards,
                                                   policy=policy)
        np.testing.assert_array_equal(index.top_k(users, k),
                                      sharded.top_k(users, k))

    @pytest.mark.parametrize("tail", [False, True],
                             ids=["k20", "k_catalogue_minus_1"])
    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_tied_top_k_parity(self, tied_index, policy, num_shards, tail):
        """Duplicate items and an all-zero user row tie across the k-th
        place; at k = catalogue-1 the masked -inf tail ties as well."""
        users = np.arange(tied_index.num_users)
        k = tied_index.num_items - 1 if tail else 20
        expected = total_order_top_k(tied_index, users, k)
        np.testing.assert_array_equal(tied_index.top_k(users, k), expected)
        sharded = ShardedInferenceIndex.from_index(tied_index, num_shards,
                                                   policy=policy)
        np.testing.assert_array_equal(sharded.top_k(users, k), expected)

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_shards", [2, 4, 7])
    def test_k_larger_than_any_shard(self, index, policy, num_shards):
        """k > items-per-shard: every shard returns all it has, merge is exact."""
        users = np.arange(index.num_users)
        k = index.num_items  # larger than every shard for num_shards >= 2
        sharded = ShardedInferenceIndex.from_index(index, num_shards,
                                                   policy=policy)
        result = sharded.top_k(users, k, exclude_train=False)
        assert result.shape == (users.size, index.num_items)  # no over-return
        np.testing.assert_array_equal(
            index.top_k(users, k, exclude_train=False), result)

    def test_k_beyond_catalogue_clamps_like_unsharded(self, index):
        users = np.arange(5)
        sharded = ShardedInferenceIndex.from_index(index, 4)
        result = sharded.top_k(users, index.num_items + 100, exclude_train=False)
        assert result.shape == (5, index.num_items)
        np.testing.assert_array_equal(
            index.top_k(users, index.num_items + 100, exclude_train=False),
            result)

    def test_more_shards_than_items(self, index):
        """Empty shards (S > catalogue) contribute nothing and break nothing."""
        users = np.arange(index.num_users)
        sharded = ShardedInferenceIndex.from_index(index, index.num_items + 5)
        assert any(s.num_local_items == 0 for s in sharded.shards)
        np.testing.assert_array_equal(index.top_k(users, 10),
                                      sharded.top_k(users, 10))

    def test_each_row_has_unique_items(self, index):
        sharded = ShardedInferenceIndex.from_index(index, 7, policy="strided")
        result = sharded.top_k(np.arange(index.num_users), index.num_items,
                               exclude_train=False)
        for row in result:  # no item fabricated or duplicated by the merge
            assert len(set(row.tolist())) == result.shape[1]

    def test_score_pairs_parity_and_range_check(self, index, rng):
        users = rng.integers(0, index.num_users, 64)
        items = rng.integers(0, index.num_items, 64)
        sharded = ShardedInferenceIndex.from_index(index, 5, policy="strided")
        np.testing.assert_array_equal(index.score_pairs(users, items),
                                      sharded.score_pairs(users, items))
        with pytest.raises(IndexError):
            sharded.score_pairs(users[:1], np.array([index.num_items]))

    def test_recommend_matches_unsharded(self, index):
        sharded = ShardedInferenceIndex.from_index(index, 3)
        assert sharded.recommend(4, k=6) == index.recommend(4, k=6)


class TestMergeDeterminism:
    def test_ties_break_by_ascending_item_id(self):
        ids = np.array([[9, 2, 5], [1, 8, 0]])
        scores = np.array([[1.0, 1.0, 2.0], [3.0, 3.0, 3.0]])
        merged = ShardedInferenceIndex._merge(ids, scores, width=3)
        np.testing.assert_array_equal(merged, [[5, 2, 9], [0, 1, 8]])

    def test_neg_inf_candidates_sort_last(self):
        ids = np.array([[0, 1, 2]])
        scores = np.array([[-np.inf, 5.0, -np.inf]])
        merged = ShardedInferenceIndex._merge(ids, scores, width=3)
        np.testing.assert_array_equal(merged, [[1, 0, 2]])


class TestExecutors:
    def test_serial_runs_in_order(self):
        calls = []
        tasks = [lambda i=i: calls.append(i) or i for i in range(5)]
        assert SerialExecutor().run(tasks) == [0, 1, 2, 3, 4]
        assert calls == [0, 1, 2, 3, 4]

    def test_threaded_preserves_task_order(self):
        executor = ThreadedExecutor(max_workers=4)
        tasks = [lambda i=i: i * i for i in range(8)]
        assert executor.run(tasks) == [i * i for i in range(8)]
        executor.close()
        assert executor._pool is None  # close releases the pool

    def test_threaded_single_task_runs_inline(self):
        executor = ThreadedExecutor()
        assert executor.run([lambda: 42]) == [42]
        assert not executor._pool._threads  # no thread spun up for one task
        executor.close()

    def test_threaded_pool_is_built_once_under_concurrent_first_runs(self):
        executor = ThreadedExecutor(max_workers=2)
        pool = executor._pool
        barrier = threading.Barrier(4)
        results = []

        def first_run():
            barrier.wait()
            results.append(executor.run([lambda: 1, lambda: 2]))

        callers = [threading.Thread(target=first_run) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=10.0)
            assert not caller.is_alive()
        assert results == [[1, 2]] * 4
        assert executor._pool is pool  # eager: no racing lazy init
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run([lambda: 1, lambda: 2])

    def test_threaded_fanout_parity(self, index):
        users = np.arange(index.num_users)
        serial = ShardedInferenceIndex.from_index(index, 4)
        threaded = ShardedInferenceIndex.from_index(
            index, 4, executor=ThreadedExecutor(max_workers=4))
        np.testing.assert_array_equal(serial.top_k(users, 10),
                                      threaded.top_k(users, 10))
        threaded.close()


class TestValidation:
    def test_requires_factorized_index(self, tiny_split):
        vae = MultiVAE(tiny_split, embedding_dim=8, seed=0)
        vae.eval()
        scorer_index = InferenceIndex.from_model(vae, tiny_split)
        assert not scorer_index.is_factorized
        with pytest.raises(ValueError, match="factorised"):
            ShardedInferenceIndex.from_index(scorer_index, 2)

    def test_top_k_argument_validation(self, index):
        sharded = ShardedInferenceIndex.from_index(index, 2)
        with pytest.raises(ValueError):
            sharded.top_k(np.arange(3), 0)
        with pytest.raises(ValueError):
            sharded.top_k(np.arange(4).reshape(2, 2), 3)

    def test_exclude_train_without_exclusion_raises(self, index):
        bare = InferenceIndex(index.num_users, index.num_items,
                              user_embeddings=index.user_embeddings,
                              item_embeddings=index.item_embeddings)
        sharded = ShardedInferenceIndex.from_index(bare, 2)
        with pytest.raises(ValueError):
            sharded.top_k(np.arange(3), 5)
        np.testing.assert_array_equal(
            sharded.top_k(np.arange(3), 5, exclude_train=False),
            bare.top_k(np.arange(3), 5, exclude_train=False))

    def test_shards_must_cover_catalogue(self, index):
        ids = np.arange(3, dtype=np.int64)
        shard = ItemShard(0, ids, index.item_embeddings[ids])
        with pytest.raises(ValueError, match="cover"):
            ShardedInferenceIndex(index.num_users, index.num_items,
                                  index.user_embeddings, [shard])


class TestServiceIntegration:
    @pytest.mark.parametrize("num_shards", [2, 4, 7])
    def test_service_routes_through_shards(self, model, tiny_split, num_shards):
        users = np.arange(tiny_split.num_users)
        plain = RecommendationService(model)
        sharded = RecommendationService(model, num_shards=num_shards)
        assert sharded.sharded is not None
        assert sharded.sharded.num_shards == num_shards
        np.testing.assert_array_equal(plain.top_k(users, 8),
                                      sharded.top_k(users, 8))

    def test_service_parallel_executor(self, model, tiny_split):
        users = np.arange(tiny_split.num_users)
        sharded = RecommendationService(model, num_shards=4,
                                        executor="threads")
        assert isinstance(sharded.sharded.executor, ThreadedExecutor)
        plain = RecommendationService(model)
        np.testing.assert_array_equal(plain.top_k(users, 8),
                                      sharded.top_k(users, 8))
        sharded.close()

    def test_single_shard_stays_on_plain_path(self, model):
        service = RecommendationService(model, num_shards=1)
        assert service.sharded is None

    def test_invalid_shard_count(self, model):
        with pytest.raises(ValueError):
            RecommendationService(model, num_shards=0)

    def test_refresh_reshards_new_snapshot(self, model, tiny_split):
        service = RecommendationService(model, num_shards=3)
        executor = service.sharded.executor
        model.user_factors.data[:] = -model.user_factors.data
        service.refresh()
        # The sharded backend was rebuilt from the new snapshot (same
        # executor, fresh shard slices) and serves the new weights.
        assert service.sharded.executor is executor
        plain = RecommendationService(model)
        users = np.arange(tiny_split.num_users)
        np.testing.assert_array_equal(plain.top_k(users, 8),
                                      service.top_k(users, 8))

    def test_batched_requests_cross_shard_blocks(self, model, tiny_split):
        users = np.arange(tiny_split.num_users)
        small = RecommendationService(model, num_shards=4, batch_size=7)
        large = RecommendationService(model, num_shards=4, batch_size=10_000)
        np.testing.assert_array_equal(small.top_k(users, 5),
                                      large.top_k(users, 5))

    def test_repr_mentions_sharding(self, model):
        service = RecommendationService(model, num_shards=3,
                                        executor="threads")
        assert "shards=3" in repr(service)
        service.close()
