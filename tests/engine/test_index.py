"""Tests for UserItemIndex / InferenceIndex (vectorised masking and top-K)."""

import numpy as np
import pytest

from repro.engine import InferenceIndex, UserItemIndex, train_exclusion_index
from repro.engine.index import top_k_indices
from repro.models import BprMF, LightGCN, MultiVAE


class TestUserItemIndex:
    def test_items_sorted_and_deduped(self):
        index = UserItemIndex(3, 5, users=[1, 1, 1, 0], items=[4, 2, 4, 0])
        np.testing.assert_array_equal(index.items_for(0), [0])
        np.testing.assert_array_equal(index.items_for(1), [2, 4])
        np.testing.assert_array_equal(index.items_for(2), [])
        assert index.nnz == 3

    def test_counts_and_active_users(self):
        index = UserItemIndex(4, 6, users=[0, 2, 2], items=[1, 3, 5])
        np.testing.assert_array_equal(index.counts(), [1, 0, 2, 0])
        np.testing.assert_array_equal(index.counts(np.array([2, 0])), [2, 1])
        np.testing.assert_array_equal(index.users_with_items(), [0, 2])

    def test_flat_pairs_cover_batch(self):
        index = UserItemIndex(4, 6, users=[0, 2, 2], items=[1, 3, 5])
        rows, cols = index.flat_pairs(np.array([2, 1, 0]))
        np.testing.assert_array_equal(rows, [0, 0, 2])
        np.testing.assert_array_equal(cols, [3, 5, 1])

    def test_mask_matches_per_user_loop(self, tiny_split, rng):
        """The satellite guarantee: flat-index masking == per-user masking."""
        index = train_exclusion_index(tiny_split)
        positives = tiny_split.train_positive_sets()
        users = rng.choice(tiny_split.num_users, size=17, replace=False)

        scores = rng.normal(size=(users.size, tiny_split.num_items))
        expected = scores.copy()
        for row, user in enumerate(users):
            seen = positives[int(user)]
            if seen:
                expected[row, list(seen)] = -np.inf

        index.mask(scores, users)
        np.testing.assert_array_equal(scores, expected)

    def test_membership_matches_sets(self, tiny_split):
        index = train_exclusion_index(tiny_split)
        positives = tiny_split.train_positive_sets()
        users = np.arange(tiny_split.num_users)
        matrix = index.membership(users)
        for user in users:
            assert set(np.nonzero(matrix[user])[0]) == positives[int(user)]

    def test_split_cache_shared(self, tiny_split):
        assert train_exclusion_index(tiny_split) is train_exclusion_index(tiny_split)
        assert (UserItemIndex.from_split(tiny_split, "test")
                is UserItemIndex.from_split(tiny_split, "test"))

    def test_invalid_partition_rejected(self, tiny_split):
        with pytest.raises(ValueError):
            UserItemIndex.from_split(tiny_split, "nope")

    def test_empty_batch(self):
        index = UserItemIndex(3, 4, users=[], items=[])
        rows, cols = index.flat_pairs(np.array([0, 1], dtype=np.int64))
        assert rows.size == 0 and cols.size == 0
        scores = np.ones((2, 4))
        index.mask(scores, np.array([0, 1]))
        np.testing.assert_array_equal(scores, np.ones((2, 4)))

    def test_flat_keys_sorted_and_complete(self, tiny_split):
        index = train_exclusion_index(tiny_split)
        keys = index.flat_keys
        assert keys.size == index.nnz
        assert np.all(np.diff(keys) > 0)  # strictly sorted unique pairs
        expected = set()
        for user, item in zip(tiny_split.train_users, tiny_split.train_items):
            expected.add(int(user) * tiny_split.num_items + int(item))
        assert set(keys.tolist()) == expected

    def test_contains_matches_sets(self, tiny_split, rng):
        index = train_exclusion_index(tiny_split)
        positives = tiny_split.train_positive_sets()
        users = rng.integers(tiny_split.num_users, size=40)
        candidates = rng.integers(tiny_split.num_items, size=(40, 7))
        result = index.contains(users[:, None], candidates)
        assert result.shape == (40, 7)
        for row, user in enumerate(users):
            for col in range(7):
                expected = int(candidates[row, col]) in positives[int(user)]
                assert result[row, col] == expected

    def test_contains_searchsorted_fallback_matches_dense(self):
        """Id spaces above the dense-table limit use the flat-key search."""
        users = [0, 1, 9000, 9000]
        items = [5, 9999, 0, 123]
        big = UserItemIndex(10_000, 10_000, users=users, items=items)  # 1e8 cells
        assert big._dense_membership() is None
        probe_users = np.array([0, 0, 1, 9000, 9000, 42])
        probe_items = np.array([5, 6, 9999, 123, 124, 42])
        expected = np.array([True, False, True, True, False, False])
        np.testing.assert_array_equal(big.contains(probe_users, probe_items), expected)

    def test_contains_rejects_out_of_range_ids_in_both_branches(self):
        small = UserItemIndex(3, 4, users=[0, 1], items=[1, 0])  # dense table
        big = UserItemIndex(10_000, 10_000, users=[0, 1], items=[5, 0])  # flat keys
        for index in (small, big):
            with pytest.raises(IndexError):
                index.contains(np.array([0]), np.array([index.num_items]))
            with pytest.raises(IndexError):
                index.contains(np.array([0]), np.array([-1]))
            with pytest.raises(IndexError):
                index.contains(np.array([index.num_users]), np.array([0]))

    def test_contains_on_empty_index(self):
        index = UserItemIndex(3, 4, users=[], items=[])
        result = index.contains(np.array([[0], [1]]), np.array([[1, 2], [0, 3]]))
        assert result.shape == (2, 2)
        assert not result.any()


class TestTopKIndices:
    def test_sorted_by_score(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.7]])
        np.testing.assert_array_equal(top_k_indices(scores, 3)[0], [1, 3, 2])

    def test_k_capped_at_items(self):
        scores = np.array([[0.3, 0.1]])
        assert top_k_indices(scores, 10).shape == (1, 2)

    def test_total_order_on_random_ties(self, rng):
        scores = rng.integers(-2, 3, size=(40, 25)).astype(float)
        scores[rng.random(scores.shape) < 0.2] = -np.inf
        ids = np.broadcast_to(np.arange(25), scores.shape)
        oracle = np.lexsort((ids, -scores), axis=-1)
        for k in (1, 5, 12, 24, 25):
            np.testing.assert_array_equal(top_k_indices(scores, k),
                                          oracle[:, :k])


class TestInferenceIndex:
    def test_factorized_matches_score_users(self, tiny_split):
        model = LightGCN(tiny_split, embedding_dim=8, num_layers=2, seed=0)
        model.eval()
        index = InferenceIndex.from_model(model)
        assert index.is_factorized
        users = np.array([0, 3, 5])
        np.testing.assert_allclose(index.scores(users), model.score_users(users))

    def test_scorer_fallback(self, tiny_split):
        model = MultiVAE(tiny_split, embedding_dim=8, seed=0)
        model.eval()
        index = InferenceIndex.from_model(model)
        assert not index.is_factorized
        users = np.array([1, 2])
        np.testing.assert_allclose(index.scores(users), model.score_users(users))

    def test_masked_scores_match_per_user_masking(self, tiny_split):
        model = BprMF(tiny_split, embedding_dim=8, seed=1)
        model.eval()
        index = InferenceIndex.from_model(model)
        users = np.arange(min(12, tiny_split.num_users))

        expected = np.asarray(model.score_users(users), dtype=np.float64).copy()
        positives = tiny_split.train_positive_sets()
        for row, user in enumerate(users):
            seen = positives[int(user)]
            if seen:
                expected[row, list(seen)] = -np.inf

        np.testing.assert_allclose(index.scores(users, mask_train=True), expected)

    def test_embeddings_are_frozen_copies(self, tiny_split):
        model = BprMF(tiny_split, embedding_dim=8, seed=1)
        index = InferenceIndex.from_model(model)
        before = index.scores(np.array([0]))
        model.user_factors.data += 100.0  # training continues...
        np.testing.assert_allclose(index.scores(np.array([0])), before)

    def test_score_pairs(self, tiny_split):
        model = BprMF(tiny_split, embedding_dim=8, seed=1)
        model.eval()
        index = InferenceIndex.from_model(model)
        users = np.array([0, 1, 2])
        items = np.array([3, 0, 5])
        full = model.score_users(users)
        np.testing.assert_allclose(index.score_pairs(users, items),
                                   full[np.arange(3), items])

    def test_top_k_excludes_train_items(self, tiny_split):
        model = BprMF(tiny_split, embedding_dim=8, seed=1)
        model.eval()
        index = InferenceIndex.from_model(model)
        positives = tiny_split.train_positive_sets()
        top = index.top_k(np.arange(tiny_split.num_users), k=5)
        for user, row in enumerate(top):
            assert not (set(int(i) for i in row) & positives[user])

    def test_requires_scorer_or_embeddings(self):
        with pytest.raises(ValueError):
            InferenceIndex(3, 4)
        with pytest.raises(ValueError):
            InferenceIndex(3, 4, user_embeddings=np.zeros((3, 2)))

    def test_item_norms_cached_and_correct(self, tiny_split):
        model = BprMF(tiny_split, embedding_dim=8, seed=1)
        model.eval()
        index = InferenceIndex.from_model(model)
        norms = index.item_norms
        np.testing.assert_allclose(
            norms, np.linalg.norm(index.item_embeddings, axis=1))
        assert index.item_norms is norms  # one build per snapshot
        assert not norms.flags.writeable

    def test_item_norms_require_factorized_index(self, tiny_split):
        model = MultiVAE(tiny_split, embedding_dim=8, seed=0)
        model.eval()
        index = InferenceIndex.from_model(model)
        with pytest.raises(ValueError, match="factorised"):
            index.item_norms

    def test_rescore_matches_full_scores(self, tiny_split, rng):
        model = BprMF(tiny_split, embedding_dim=8, seed=1)
        model.eval()
        index = InferenceIndex.from_model(model)
        users = np.array([0, 2, 5])
        lists = rng.integers(0, tiny_split.num_items, size=(3, 6))
        expected = np.take_along_axis(index.scores(users), lists, axis=1)
        np.testing.assert_allclose(index.rescore(users, lists), expected)
        with pytest.raises(ValueError):
            index.rescore(users, lists[:2])

    def test_rescore_scorer_fallback(self, tiny_split, rng):
        model = MultiVAE(tiny_split, embedding_dim=8, seed=0)
        model.eval()
        index = InferenceIndex.from_model(model)
        users = np.array([1, 3])
        lists = rng.integers(0, tiny_split.num_items, size=(2, 4))
        expected = np.take_along_axis(index.scores(users), lists, axis=1)
        np.testing.assert_allclose(index.rescore(users, lists), expected)

    def test_dtype_configurable(self, tiny_split):
        model = BprMF(tiny_split, embedding_dim=8, seed=1)
        index = InferenceIndex.from_model(model, dtype=np.float32)
        assert index.scores(np.array([0])).dtype == np.float32

    def test_masking_never_corrupts_scorer_owned_arrays(self, tiny_split):
        """A scorer returning its own cached matrix must not get -inf
        written back into it by a masked scores() call."""
        cached = np.zeros((tiny_split.num_users, tiny_split.num_items))

        class _CachedScorer:
            split = tiny_split

            def score_users(self, users):
                return cached  # the scorer's own array, shared across calls

        index = InferenceIndex.from_model(_CachedScorer(), tiny_split)
        users = np.arange(tiny_split.num_users)
        masked = index.scores(users, mask_train=True)
        assert np.isneginf(masked).any()
        assert np.isfinite(cached).all(), "scorer's cached array was corrupted"


class TestTopKScoreBuffer:
    """The perf satellite: ``top_k`` reuses one preallocated score buffer."""

    @pytest.fixture()
    def index(self, tiny_split):
        model = BprMF(tiny_split, embedding_dim=8, seed=1)
        model.eval()
        return InferenceIndex.from_model(model)

    def test_no_allocation_growth_across_calls(self, index, tiny_split):
        users = np.arange(tiny_split.num_users)
        index.top_k(users, 5)
        buffer = index._score_buffer
        assert buffer.shape == (tiny_split.num_users, tiny_split.num_items)
        for _ in range(10):
            index.top_k(users, 5)
            index.top_k(users[:3], 2)  # smaller batches reuse a prefix view
            assert index._score_buffer is buffer, (
                "top_k must not reallocate its score buffer between calls")

    def test_buffer_grows_once_for_larger_batches(self, index):
        index.top_k(np.arange(4), 3)
        small = index._score_buffer
        index.top_k(np.arange(9), 3)
        grown = index._score_buffer
        assert grown is not small and grown.shape[0] == 9
        index.top_k(np.arange(6), 3)
        assert index._score_buffer is grown

    def test_buffered_path_matches_scores_oracle(self, index, tiny_split):
        users = np.arange(tiny_split.num_users)
        expected = top_k_indices(index.scores(users, mask_train=True), 5)
        np.testing.assert_array_equal(index.top_k(users, 5), expected)
        # Masking -inf into the buffer must not leak into the next call.
        unmasked = top_k_indices(index.scores(users), 5)
        np.testing.assert_array_equal(
            index.top_k(users, 5, exclude_train=False), unmasked)

    def test_top_k_without_exclusion_still_raises(self, tiny_split):
        model = BprMF(tiny_split, embedding_dim=8, seed=1)
        model.eval()
        index = InferenceIndex.from_model(model, exclusion=None)
        index.exclusion = None
        with pytest.raises(ValueError, match="exclusion"):
            index.top_k(np.arange(3), 2)

    def test_oversized_batches_never_pin_a_giant_buffer(self, index):
        from repro.engine.index import _SCORE_BUFFER_MAX_ROWS
        index.top_k(np.arange(5), 3)
        small = index._score_buffer
        # A score-everyone batch (user ids may repeat) must not grow the
        # resident buffer past the cap — it takes the fresh-allocation path.
        huge = np.zeros(_SCORE_BUFFER_MAX_ROWS + 7, dtype=np.int64)
        expected = top_k_indices(index.scores(huge, mask_train=True), 3)
        np.testing.assert_array_equal(index.top_k(huge, 3), expected)
        assert index._score_buffer is small

    def test_concurrent_top_k_calls_stay_correct(self, index, tiny_split):
        """Racing threads must never corrupt each other's shared buffer."""
        import threading

        users_a = np.arange(tiny_split.num_users)
        users_b = users_a[::-1].copy()
        expected = {
            "a": top_k_indices(index.scores(users_a, mask_train=True), 5),
            "b": top_k_indices(index.scores(users_b, mask_train=True), 5),
        }
        failures = []
        barrier = threading.Barrier(2)

        def hammer(label, users):
            barrier.wait()
            for _ in range(50):
                if not np.array_equal(index.top_k(users, 5), expected[label]):
                    failures.append(label)
                    return

        threads = [threading.Thread(target=hammer, args=("a", users_a)),
                   threading.Thread(target=hammer, args=("b", users_b))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
