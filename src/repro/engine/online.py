"""Online serving: incremental index updates over the frozen-snapshot stack.

Every other serving structure in :mod:`repro.engine` is a frozen snapshot:
:class:`UserItemIndex` is memoised per split, :class:`InferenceIndex` and the
candidate blocks are built once, and a new interaction used to force a full
rebuild.  This module makes the stack *updatable* without giving up exactness,
using the snapshot + delta + compaction shape of streaming ingestion systems:

* :class:`InteractionDelta` — an append-only log of new (user, item)
  interactions held as **sorted flat keys** (``user * num_items + item``).
  Appends are one linear merge of two sorted arrays; membership is one
  ``searchsorted``; per-user slices come from two ``searchsorted`` calls on
  the user's key range.  No per-event Python loops anywhere.
* :class:`OnlineUserItemIndex` — a frozen base :class:`UserItemIndex` with a
  delta overlaid on top, presenting the same read API (``contains``,
  ``mask``, ``flat_pairs``, ``counts``, ``membership`` …) so it can stand in
  for the base anywhere on the serving path.  Every operation is one
  vectorised pass over the base (table lookup / CSR gather) OR'd with one
  vectorised pass over the delta (binary search) — the serving-path "no
  per-user Python loops" invariant is preserved.  The delta is kept
  **disjoint** from the base, so counts and nnz stay additive and
  :meth:`OnlineUserItemIndex.compact` is a single linear merge of two sorted
  key arrays into a fresh CSR that is **bit-identical** to a from-scratch
  :class:`UserItemIndex` build on the accumulated interactions — the
  correctness oracle of this subsystem, mirroring "the exact path stays the
  oracle" from sharded and candidate serving.
* :class:`OnlineRecommendationService` — a :class:`RecommendationService`
  whose exclusion state is updatable: ``ingest(users, items)`` folds new
  interactions (including previously unseen users, which get a fallback
  embedding row appended under a configurable policy) into the overlay,
  invalidates **only the touched users'** LRU cache entries, and
  auto-compacts once the delta outgrows ``compact_threshold``.  Ingest
  composes with ``num_shards`` (each shard's local exclusion gets its own
  sliced overlay, updated through :meth:`ItemShard.locate`, and still serves
  through the existing executor seam) and with ``candidate_mode`` (stage-1
  bound masking reads the overlay dynamically, so ingest never requantises;
  compaction rebuilds the candidate backend like a fresh service would).

Exactness contract ("updates are exact"): for any ingest sequence, serving
through the overlay is bit-identical to serving a full rebuild on the same
accumulated interactions, before and after ``compact()`` — scores come from
the same embedding matrices and the masked (user, item) set is identical, so
top-K, sharded top-K and certified two-stage top-K all agree with the
rebuilt oracle.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .index import InferenceIndex, UserItemIndex, _expand_slices, _FlatPairOps
from .observability import metrics, span
from .service import RecommendationService
from .snapshot import save_snapshot
from .wal import WriteAheadLog

__all__ = [
    "NEW_USER_POLICIES",
    "InteractionDelta",
    "OnlineUserItemIndex",
    "OnlineRecommendationService",
]

#: Embedding fallback policies for previously unseen users: ``"mean"`` serves
#: them from the mean of the snapshot's existing user rows (a popularity-like
#: cold-start ranking), ``"zeros"`` from a zero vector (uniform scores; the
#: ascending-id tie-break makes the ranking deterministic).
NEW_USER_POLICIES = ("mean", "zeros")


def _merge_sorted_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Merge two sorted, mutually disjoint int64 key arrays in linear time.

    ``searchsorted`` places every right key among the left ones; offsetting
    by its own rank turns those into positions in the merged array, and one
    boolean scatter routes both inputs — no comparison sort over the union.
    """
    if not left.size:
        return right.copy()
    if not right.size:
        return left.copy()
    merged = np.empty(left.size + right.size, dtype=np.int64)
    positions = np.searchsorted(left, right) + np.arange(right.size, dtype=np.int64)
    from_right = np.zeros(merged.size, dtype=bool)
    from_right[positions] = True
    merged[positions] = right
    merged[~from_right] = left
    return merged


class InteractionDelta:
    """Append-only log of (user, item) interactions as sorted flat keys.

    The key space is ``user * num_items + item`` — the same flat encoding as
    :attr:`UserItemIndex.flat_keys`, so delta and base merge without any
    remapping.  The log only ever grows; callers keep it disjoint from their
    base index (see :meth:`OnlineUserItemIndex.ingest`).
    """

    def __init__(self, num_items: int) -> None:
        self.num_items = int(num_items)
        self._keys = np.empty(0, dtype=np.int64)

    @property
    def keys(self) -> np.ndarray:
        """Sorted unique flat keys of every logged pair."""
        return self._keys

    @property
    def nnz(self) -> int:
        return int(self._keys.size)

    def add_keys(self, keys: np.ndarray) -> None:
        """Merge sorted unique ``keys`` (disjoint from the log) into the log."""
        if keys.size:
            self._keys = _merge_sorted_keys(self._keys, keys)

    def contains_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised membership of flat ``keys`` (any shape) in the log."""
        keys = np.asarray(keys, dtype=np.int64)
        if not self._keys.size:
            return np.zeros(keys.shape, dtype=bool)
        positions = np.minimum(np.searchsorted(self._keys, keys),
                               self._keys.size - 1)
        return self._keys[positions] == keys

    def _bounds(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Start/stop positions of each user's key range ``[u*I, (u+1)*I)``."""
        lo = np.searchsorted(self._keys, users * np.int64(self.num_items))
        hi = np.searchsorted(self._keys, (users + 1) * np.int64(self.num_items))
        return lo, hi

    def counts(self, users: np.ndarray) -> np.ndarray:
        """Logged pairs per user — two binary searches, no iteration."""
        users = np.asarray(users, dtype=np.int64)
        lo, hi = self._bounds(users)
        return hi - lo

    def pairs_for(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(batch_row, item) coordinates of the users' logged pairs.

        The delta-side counterpart of :meth:`UserItemIndex.flat_pairs`: the
        per-user key ranges come from :meth:`_bounds` and one global arange
        minus running offsets turns them into gather positions.
        """
        users = np.asarray(users, dtype=np.int64)
        lo, hi = self._bounds(users)
        rows, positions = _expand_slices(hi - lo, lo)
        return rows, self._keys[positions] % self.num_items

    def __repr__(self) -> str:
        return f"InteractionDelta(items={self.num_items}, nnz={self.nnz})"


class OnlineUserItemIndex(_FlatPairOps):
    """A frozen :class:`UserItemIndex` base with a delta overlay on top.

    Presents the :class:`UserItemIndex` read API so it can replace the base
    anywhere on the serving path (score masking, candidate-bound masking,
    membership tests).  ``num_users`` may exceed the base's — previously
    unseen users live entirely in the delta until the next compaction.  The
    base itself is never mutated (it may be the split-cached index shared
    with the trainer and evaluator); :meth:`compact` swaps in a freshly
    merged CSR instead.
    """

    def __init__(self, base: UserItemIndex, *,
                 num_users: Optional[int] = None) -> None:
        self.base = base
        self.num_items = base.num_items
        self.num_users = base.num_users if num_users is None else int(num_users)
        if self.num_users < base.num_users:
            raise ValueError("overlay cannot cover fewer users than its base")
        self.delta = InteractionDelta(self.num_items)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def grow_users(self, num_users: int) -> None:
        """Extend the user id space (new users start with empty histories)."""
        if num_users < self.num_users:
            raise ValueError("user id space can only grow")
        self.num_users = int(num_users)

    def ingest(self, users: np.ndarray,
               items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fold new (user, item) pairs into the delta; return the novel ones.

        Pairs already present in the base or the delta (and duplicates inside
        the batch) are dropped, keeping the delta disjoint from the base so
        counts stay additive and compaction is a pure merge.  Returns the
        deduplicated ``(users, items)`` actually added, sorted by flat key.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError("users and items must be aligned 1-d arrays")
        if users.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if users.min() < 0 or users.max() >= self.num_users:
            raise IndexError("user id out of range for this index")
        if items.min() < 0 or items.max() >= self.num_items:
            raise IndexError("item id out of range for this index")
        keys = np.unique(users * np.int64(self.num_items) + items)
        keys = keys[~self.delta.contains_keys(keys)]
        key_users = keys // self.num_items
        in_base_range = key_users < self.base.num_users
        if in_base_range.any():
            known = np.zeros(keys.size, dtype=bool)
            known[in_base_range] = self.base.contains(
                key_users[in_base_range],
                keys[in_base_range] % self.num_items)
            keys = keys[~known]
        self.delta.add_keys(keys)
        return keys // self.num_items, keys % self.num_items

    def compact(self) -> "OnlineUserItemIndex":
        """Merge the delta into a fresh frozen base CSR; empty the delta.

        One linear merge of two sorted disjoint key arrays feeds
        :meth:`UserItemIndex.from_flat_keys`, whose result is bit-identical
        (same ``indptr``/``indices``/``flat_keys``) to a from-scratch
        :class:`UserItemIndex` build on the accumulated interactions — the
        subsystem's correctness oracle, pinned by the property sweep.
        """
        if self.delta.nnz or self.num_users != self.base.num_users:
            merged = _merge_sorted_keys(self.base.flat_keys, self.delta.keys)
            self.base = UserItemIndex.from_flat_keys(
                self.num_users, self.num_items, merged)
            self.delta = InteractionDelta(self.num_items)
        return self

    # ------------------------------------------------------------------ #
    # UserItemIndex read API (one base pass OR'd with one delta pass)
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return self.base.nnz + self.delta.nnz

    @property
    def flat_keys(self) -> np.ndarray:
        """Sorted flat keys of every indexed pair (merged on demand)."""
        return _merge_sorted_keys(self.base.flat_keys, self.delta.keys)

    def all_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """(users, items) of every accumulated interaction, sorted by key.

        This is what a from-scratch rebuild should be fed — the oracle
        construction used by the parity tests and the online benchmark.
        """
        keys = self.flat_keys
        return keys // self.num_items, keys % self.num_items

    def counts(self, users: Optional[np.ndarray] = None) -> np.ndarray:
        if users is None:
            users = np.arange(self.num_users, dtype=np.int64)
        users = np.asarray(users, dtype=np.int64)
        base_counts = np.zeros(users.shape, dtype=np.int64)
        in_base = users < self.base.num_users
        if in_base.all():
            base_counts = self.base.counts(users)
        elif in_base.any():
            base_counts[in_base] = self.base.counts(users[in_base])
        return base_counts + self.delta.counts(users)

    def users_with_items(self) -> np.ndarray:
        return np.nonzero(self.counts() > 0)[0].astype(np.int64)

    def items_for(self, user: int) -> np.ndarray:
        user = int(user)
        if user < self.base.num_users:
            base_items = self.base.items_for(user)
        else:
            base_items = np.empty(0, dtype=np.int64)
        lo, hi = self.delta._bounds(np.asarray([user], dtype=np.int64))
        delta_items = self.delta.keys[lo[0]:hi[0]] % self.num_items
        return _merge_sorted_keys(base_items, delta_items)

    def flat_pairs(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        users = np.asarray(users, dtype=np.int64)
        in_base = users < self.base.num_users
        if in_base.all():
            base_rows, base_cols = self.base.flat_pairs(users)
        elif in_base.any():
            sel = np.nonzero(in_base)[0]
            rows, base_cols = self.base.flat_pairs(users[sel])
            base_rows = sel[rows]
        else:
            base_rows = base_cols = np.empty(0, dtype=np.int64)
        delta_rows, delta_cols = self.delta.pairs_for(users)
        if not delta_rows.size:
            return base_rows, base_cols
        return (np.concatenate([base_rows, delta_rows]),
                np.concatenate([base_cols, delta_cols]))

    def contains(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            raise IndexError("user id out of range for this index")
        if items.size and (items.min() < 0 or items.max() >= self.num_items):
            raise IndexError("item id out of range for this index")
        users, items = np.broadcast_arrays(users, items)
        keys = users * np.int64(self.num_items) + items
        result = self.delta.contains_keys(keys)
        in_base = users < self.base.num_users
        if in_base.all():
            result = result | self.base.contains(users, items)
        elif in_base.any():
            result = result.copy()
            result[in_base] |= self.base.contains(users[in_base],
                                                  items[in_base])
        return result

    def __repr__(self) -> str:
        return (f"OnlineUserItemIndex(users={self.num_users}, "
                f"items={self.num_items}, base_nnz={self.base.nnz}, "
                f"delta_nnz={self.delta.nnz})")


class OnlineRecommendationService(RecommendationService):
    """A :class:`RecommendationService` that folds in new interactions online.

    On top of the frozen-snapshot service this adds:

    * :meth:`ingest` — append new (user, item) interactions.  Consumed items
      disappear from the affected users' recommendations immediately (the
      exclusion overlay is read dynamically by every backend: exact, sharded
      and two-stage candidates).  Previously unseen user ids grow the user
      matrix with a fallback embedding row (``new_user_policy``).
    * Targeted cache invalidation — only the users actually touched by an
      ingest lose their LRU entries; everyone else keeps serving from cache.
    * :meth:`compact` — fold the delta into fresh frozen CSRs (bit-identical
      to a rebuild) and requantise the candidate backend; runs automatically
      once the delta reaches ``compact_threshold`` pairs.
    * :meth:`publish_snapshot` — write the compacted frozen state as a
      :mod:`repro.engine.snapshot` artifact (atomic ``os.replace`` publish,
      so mapped readers only ever see complete files).  With
      ``snapshot_path=…`` every compaction republishes in a background
      thread — the heavy quantise-and-write work happens off the serving
      path, and fresh snapshots ship without a stop-the-world refreeze.
    * Durable ingest via a write-ahead log (``wal_path=…``): every event
      batch is appended to a checksummed :class:`repro.engine.wal.WriteAheadLog`
      before it touches in-memory serving state (true write-ahead ordering),
      so acknowledged events survive process death — and a failed append
      leaves serving exactly on the durable prefix, never ahead of it.  Construction over an existing log *is* recovery — intact
      records are replayed onto the snapshot base (a torn tail record is
      detected by checksum and dropped), and because compaction is
      serving-invariant the recovered service serves bit-identically to the
      service that never crashed, for any crash point.  Replay is idempotent
      (ingest dedups against the base), so a snapshot republish plus
      :meth:`repro.engine.wal.WriteAheadLog.rotate` merely bounds the log —
      correctness never depends on rotation having happened.

    The wrapped snapshot machinery is reused as-is: sharded serving keeps its
    executor seam (each shard's local exclusion gets a sliced overlay), and
    candidate serving keeps its quantised blocks (ingest never requantises —
    item embeddings are untouched — only compaction rebuilds the backend).
    Concurrent ``ingest`` / ``compact`` calls serialise on an internal lock;
    serving *during* an ingest from another thread is safe because every
    mutation is an atomic swap of an immutable structure (the delta's sorted
    key array, the compacted base CSR, the grown embedding matrix) — a
    concurrent reader sees the complete old state or the complete new state,
    never a partial one.  The :class:`repro.engine.AsyncRecommendationFrontend`
    additionally funnels all batches through one worker thread, so coalesced
    traffic never races at all.
    """

    def __init__(self, model=None, split=None, *,
                 compact_threshold: int = 100_000,
                 new_user_policy: str = "mean",
                 max_user_growth: int = 1_000_000,
                 snapshot_path=None, wal_path=None, wal_fsync: str = "batch",
                 wal_batch_interval: int = 64, wal_fault_plan=None,
                 **kwargs) -> None:
        self.compact_threshold = int(compact_threshold)
        if self.compact_threshold < 1:
            raise ValueError("compact_threshold must be a positive integer")
        if new_user_policy not in NEW_USER_POLICIES:
            raise ValueError(f"unknown new_user_policy {new_user_policy!r}; "
                             f"options: {NEW_USER_POLICIES}")
        self.new_user_policy = new_user_policy
        self.max_user_growth = int(max_user_growth)
        self.snapshot_path = Path(snapshot_path) if snapshot_path else None
        # Serialises concurrent ingest/compact calls (reentrant: an ingest
        # crossing compact_threshold compacts while holding the lock).
        self._ingest_lock = threading.RLock()
        self.publishes = 0
        self._publisher: Optional[threading.Thread] = None
        self._publish_error: Optional[BaseException] = None
        super().__init__(model, split, **kwargs)
        if self.index.exclusion is None:
            raise ValueError("online serving needs an exclusion index to fold "
                             "new interactions into")
        self.ingested_pairs = 0
        self.new_users = 0
        self.compactions = 0
        self._extra_users = 0
        self._base_users = self.index.num_users
        self._fallback_row_cache: Optional[np.ndarray] = None
        self._wrap_overlays()
        self._wal: Optional[WriteAheadLog] = None
        self.wal_replayed = 0
        self._replaying = False
        if wal_path is not None:
            # Opening the log IS crash recovery: intact records survive a
            # torn tail and are replayed below, so construction over the
            # snapshot base + an existing WAL reproduces the uncrashed
            # service's serving state bit-identically.
            self._wal = WriteAheadLog(wal_path, fsync=wal_fsync,
                                      batch_interval=wal_batch_interval,
                                      fault_plan=wal_fault_plan)
            if self._wal.recovered:
                with self._ingest_lock:
                    self._replaying = True
                    try:
                        for users, items in self._wal.recovered:
                            self._ingest_locked(users, items, log=False)
                            self.wal_replayed += 1
                            metrics().inc("wal.replayed_records")
                    finally:
                        self._replaying = False

    # ------------------------------------------------------------------ #
    @staticmethod
    def _frozen_base(exclusion) -> UserItemIndex:
        """Unwrap an existing (compacted) overlay so wrapping never nests."""
        if isinstance(exclusion, OnlineUserItemIndex):
            return exclusion.compact().base
        return exclusion

    def _wrap_overlays(self) -> None:
        """Put a delta overlay in front of every (frozen) exclusion index."""
        self._overlay = OnlineUserItemIndex(self._frozen_base(self.index.exclusion))
        self.index.exclusion = self._overlay
        self._shard_overlays: List[OnlineUserItemIndex] = []
        if self._sharded is not None:
            self._sharded.exclusion = self._overlay
            for shard in self._sharded.shards:
                overlay = OnlineUserItemIndex(self._frozen_base(shard.exclusion))
                shard.exclusion = overlay
                self._shard_overlays.append(overlay)

    @property
    def overlay(self) -> OnlineUserItemIndex:
        """The master exclusion overlay (base CSR + pending delta)."""
        return self._overlay

    @property
    def delta_size(self) -> int:
        """Pairs currently pending in the delta (compaction trigger)."""
        return self._overlay.delta.nnz

    def _fallback_row(self) -> np.ndarray:
        """The embedding row served to previously unseen users."""
        if self.new_user_policy == "zeros":
            return np.zeros(self.index.user_embeddings.shape[1],
                            dtype=self.index.dtype)
        if self._fallback_row_cache is None:
            # Mean over the *original* snapshot rows, cached so every growth
            # batch appends identical rows regardless of who grew before.
            original = self.index.user_embeddings[:self._base_users]
            if original.shape[0] == 0:
                row = np.zeros(original.shape[1], dtype=self.index.dtype)
            else:
                row = original.mean(axis=0).astype(self.index.dtype)
            self._fallback_row_cache = row
        return self._fallback_row_cache

    def _check_growth(self, num_users: int) -> int:
        """Rows :meth:`_grow_users` would append; raises where it would.

        Split out so ingest can refuse a batch *before* logging it to the
        WAL: an event the log carries must be replayable, and a batch this
        check rejects would raise identically during recovery.
        """
        grown = num_users - self.index.num_users
        if grown <= 0:
            return 0
        if self._extra_users + grown > self.max_user_growth:
            # The user id space is dense: one typo'd id would otherwise
            # allocate embedding rows for every id below it.
            raise ValueError(
                f"ingest would grow the user space by {self._extra_users + grown} "
                f"rows, above max_user_growth={self.max_user_growth}; raise the "
                f"limit if the traffic is genuine")
        if not self.index.is_factorized:
            raise ValueError(
                "previously unseen users need a factorised snapshot to append "
                "a fallback embedding row to; scorer-fallback indexes cannot "
                "serve users the model has never embedded")
        return grown

    def _grow_users(self, num_users: int) -> int:
        """Append fallback rows so ids up to ``num_users`` become servable."""
        grown = self._check_growth(num_users)
        if grown <= 0:
            return 0
        fallback = self._fallback_row()
        matrix = np.concatenate([
            self.index.user_embeddings,
            np.broadcast_to(fallback, (grown, fallback.size)),
        ])
        self.index.rebind_users(matrix)
        if self._sharded is not None:
            self._sharded.rebind_users(self.index.user_embeddings)
        self._overlay.grow_users(num_users)
        for overlay in self._shard_overlays:
            overlay.grow_users(num_users)
        self._extra_users += grown
        return grown

    # ------------------------------------------------------------------ #
    def ingest(self, users, items) -> dict:
        """Fold new (user, item) interaction events into the serving state.

        Returns a stats dict: ``events`` seen, ``ingested`` novel pairs,
        ``duplicates`` dropped (already consumed or repeated in the batch),
        ``new_users`` created, ``touched_users`` whose cache entries were
        invalidated, and whether the call triggered a ``compacted`` merge.
        """
        registry = metrics()
        with span("online.ingest"), registry.timer("online.ingest_s"), \
                self._ingest_lock:
            stats = self._ingest_locked(users, items)
        registry.inc("online.ingest_calls")
        registry.inc("online.ingest_events", stats["events"])
        registry.inc("online.ingested_pairs", stats["ingested"])
        return stats

    def _ingest_locked(self, users, items, *, log: bool = True) -> dict:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError("users and items must be aligned 1-d arrays")
        stats = {"events": int(users.size), "ingested": 0, "duplicates": 0,
                 "new_users": 0, "touched_users": 0, "invalidated": 0,
                 "compacted": False}
        if users.size == 0:
            return stats
        if users.min() < 0:
            raise IndexError("user id out of range for this index")
        if items.min() < 0 or items.max() >= self.num_items:
            raise IndexError("item id out of range for this index")
        self._check_growth(int(users.max()) + 1)
        if log and self._wal is not None:
            # True write-ahead ordering: the raw batch hits the log before
            # any in-memory state changes, so a failed append (disk full,
            # torn write) leaves serving exactly on the durable prefix —
            # the live service never serves an event recovery would lose.
            # Replay dedups, so logging raw events (duplicates included)
            # keeps "acked == logged" with no derived state on disk.
            self._wal.append(users, items)
        stats["new_users"] = self._grow_users(int(users.max()) + 1)
        fresh_users, fresh_items = self._overlay.ingest(users, items)
        if self._sharded is not None:
            for shard, overlay in zip(self._sharded.shards,
                                      self._shard_overlays):
                owned, local = shard.locate(fresh_items)
                if owned.any():
                    overlay.delta.add_keys(np.unique(
                        fresh_users[owned] * np.int64(overlay.num_items)
                        + local[owned]))
        touched = np.unique(fresh_users)
        stats["ingested"] = int(fresh_users.size)
        stats["duplicates"] = int(users.size) - int(fresh_users.size)
        stats["touched_users"] = int(touched.size)
        stats["invalidated"] = self.invalidate_users(touched)
        self.ingested_pairs += int(fresh_users.size)
        self.new_users += stats["new_users"]
        if self.delta_size >= self.compact_threshold:
            self.compact()
            stats["compacted"] = True
        return stats

    def compact(self, *,
                publish: Optional[bool] = None) -> "OnlineRecommendationService":
        """Fold every overlay's delta into a fresh frozen base CSR.

        Serving results are unchanged by construction (the invariant the
        property sweep pins), so no cache invalidation is needed; the
        candidate backend is rebuilt like a fresh service's would be (the
        heavyweight rebuild work belongs to compaction, never to ingest).

        ``publish`` controls whether the compacted state is republished as an
        on-disk snapshot in a background thread; the default republishes
        exactly when the service was constructed with ``snapshot_path=…``.
        """
        registry = metrics()
        with span("online.compact"), registry.timer("online.compact_s"), \
                self._ingest_lock:
            self._overlay.compact()
            for overlay in self._shard_overlays:
                overlay.compact()
            if self._candidates is not None:
                previous = self._candidates
                self._candidates = self._build_candidates()
                # Compaction is invisible to serving; the aggregate
                # certificate and escalation counters must not reset
                # mid-stream (unlike refresh, where new embeddings genuinely
                # start a new story).
                for counter in ("total_batches", "certified_batches",
                                "total_users", "certified_users",
                                "escalation_rounds", "escalated_users",
                                "exact_fallback_users", "last_certificate"):
                    setattr(self._candidates, counter,
                            getattr(previous, counter))
            self.compactions += 1
        registry.inc("online.compactions")
        if publish is None:
            # Replay must not republish: recovery reconstructs serving state,
            # it does not advance the published artifact.
            publish = self.snapshot_path is not None and not self._replaying
        if publish:
            self.publish_snapshot(background=True)
        return self

    # ------------------------------------------------------------------ #
    def _publish_target(self, path) -> Path:
        if path is not None:
            return Path(path)
        if self.snapshot_path is not None:
            return self.snapshot_path
        if self._snapshot is not None:
            return self._snapshot.path
        raise ValueError("no snapshot path to publish to: pass path=… or "
                         "construct the service with snapshot_path=…")

    def publish_snapshot(self, path=None, *, candidate_modes=None,
                         metadata=None, background: bool = False) -> Path:
        """Write the compacted frozen serving state as a snapshot artifact.

        Pending delta pairs are folded first (one frozen CSR per snapshot),
        then the embeddings/norms/exclusion — and a quantised block per entry
        of ``candidate_modes`` (default: the serving ``candidate_mode``, else
        int8) — land in ``path`` via the atomic tmp-file + ``os.replace``
        publish of :func:`repro.engine.snapshot.save_snapshot`: a worker
        mapping the old file keeps its (unlinked) pages, a worker opening the
        path sees the new complete snapshot, never a partial write.

        With ``background=True`` the quantise-and-write work runs on a
        daemon thread (at most one in flight; a new publish joins the
        previous one).  The captured state is immune to later ingests —
        embedding matrices are replaced, never mutated, and the compacted
        base CSR is frozen — so the published file reflects this compaction
        even if serving moves on meanwhile.  :meth:`wait_published` (also
        called by :meth:`close`) joins the thread and re-raises its error.
        """
        target = self._publish_target(path)
        if candidate_modes is None:
            candidate_modes = ((self.candidate_mode,)
                               if self.candidate_mode is not None else ("int8",))
        with self._ingest_lock:
            # Compact, capture, and mark the WAL under one lock hold: every
            # event at or below the mark is provably inside the captured
            # frozen state, so rotating to the mark after the write can
            # never drop an event the published file does not carry.
            if self.delta_size \
                    or self._overlay.num_users != self._overlay.base.num_users:
                self.compact(publish=False)
            # Capture the frozen state *now*: later ingests swap in new
            # matrices and new base CSRs but never mutate these objects in
            # place.
            frozen = InferenceIndex(
                self.index.num_users, self.index.num_items,
                user_embeddings=self.index.user_embeddings,
                item_embeddings=self.index.item_embeddings,
                exclusion=self._overlay.base, dtype=self.index.dtype,
                copy=False)
            frozen._item_norms = self.index.item_norms  # reuse cached norms
            # Rotate only when the publish target is the file a recovered
            # service would be constructed from; publishing a side copy must
            # leave the log covering the original base.  (Rotation is a
            # space bound, not a correctness requirement — replay dedups.)
            # The mark is a record sequence number, so it stays valid even
            # when a still-in-flight earlier publish rotates the log between
            # this capture and our own worker's rotate call.
            wal_mark = None
            if self._wal is not None and (
                    Path(target) == self.snapshot_path
                    or (self._snapshot is not None
                        and Path(target) == Path(self._snapshot.path))):
                wal_mark = self._wal.mark()
        stamp = {"compactions": self.compactions,
                 "ingested_pairs": self.ingested_pairs,
                 "new_users": self.new_users}
        stamp.update(metadata or {})

        def write() -> None:
            registry = metrics()
            with registry.timer("online.publish_s"):
                save_snapshot(target, frozen, candidate_modes=candidate_modes,
                              metadata=stamp)
                if wal_mark is not None:
                    self._wal.rotate(wal_mark)
            registry.inc("online.publishes")

        if not background:
            self.wait_published()
            write()
            self.publishes += 1
            return target

        self.wait_published()

        def worker() -> None:
            try:
                write()
                self.publishes += 1
            except BaseException as error:  # surfaced by wait_published()
                self._publish_error = error

        self._publisher = threading.Thread(
            target=worker, name="repro-snapshot-publisher", daemon=True)
        self._publisher.start()
        return target

    def wait_published(self, timeout: Optional[float] = None) -> None:
        """Join the in-flight background publish; re-raise its failure."""
        publisher = self._publisher
        if publisher is not None:
            publisher.join(timeout)
            if not publisher.is_alive():
                self._publisher = None
        error, self._publish_error = self._publish_error, None
        if error is not None:
            raise error

    def close(self) -> None:
        """Drain the background publisher, then release fan-out resources.

        A background publish failure is re-raised, but only after the
        executor's worker pool is released — close() must never leak
        processes or threads on the error path.
        """
        try:
            self.wait_published()
        finally:
            try:
                super().close()
            finally:
                if self._wal is not None:
                    self._wal.close()

    # ------------------------------------------------------------------ #
    def refresh(self, model=None) -> "OnlineRecommendationService":
        """Re-freeze from the model, preserving accumulated interactions.

        Pending deltas are compacted first so the refreshed snapshot (and its
        re-sliced shard exclusions) build from one frozen CSR; users created
        by ingest keep existing — their fallback rows are re-appended from
        the refreshed embeddings (the fallback is recomputed, matching what a
        fresh service built from the new model plus the same ingest history
        would serve).

        A refresh with nothing ingested since the last compaction is a true
        no-op when the embeddings are unchanged: caches stay warm, the
        overlays and any adopted snapshot survive, nothing is recompacted.
        """
        if self.delta_size == 0 and self._extra_users == 0:
            # Nothing ingested since the last compaction: defer entirely to
            # the base refresh, which keeps the whole warm stack (LRU cache,
            # sharded slices, quantised blocks, an adopted snapshot) when the
            # re-frozen embeddings are unchanged.  The overlay is unwrapped
            # only for the comparison and restored on the no-op path, so a
            # spurious refresh is observably free.
            previous = self.index
            self.index.exclusion = self._overlay.base
            try:
                super().refresh(model)
            except BaseException:
                self.index.exclusion = self._overlay
                raise
            if self.index is previous:
                self.index.exclusion = self._overlay
                return self
            self._base_users = self.index.num_users
            self._fallback_row_cache = None
            self._wrap_overlays()
            return self
        self._overlay.compact()
        for overlay in self._shard_overlays:
            overlay.compact()
        # Hand the frozen merged CSR to the snapshot rebuild; overlays are
        # re-wrapped (and growth re-applied) on top of the fresh state.
        self.index.exclusion = self._overlay.base
        extra = self._extra_users
        self._extra_users = 0
        self._fallback_row_cache = None
        try:
            super().refresh(model)
        except BaseException:
            # E.g. a remote executor rejecting re-frozen embeddings: restore
            # the overlay wiring (compaction above is serving-invariant) so
            # the service keeps serving its pre-refresh state.
            self.index.exclusion = self._overlay
            self._extra_users = extra
            raise
        self._base_users = self.index.num_users
        self._wrap_overlays()
        if extra:
            self._grow_users(self._base_users + extra)
        return self

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The attached write-ahead log, or ``None`` (in-memory ingest)."""
        return self._wal

    @property
    def wal_stats(self) -> Optional[dict]:
        """Durability counters of the attached WAL, or ``None`` without one."""
        if self._wal is None:
            return None
        stats = self._wal.stats()
        stats["replayed_records"] = self.wal_replayed
        return stats

    @property
    def online_stats(self) -> dict:
        """Aggregate ingest/compaction counters of this service."""
        return {
            "ingested_pairs": self.ingested_pairs,
            "new_users": self.new_users,
            "delta_size": self.delta_size,
            "compactions": self.compactions,
            "compact_threshold": self.compact_threshold,
            "new_user_policy": self.new_user_policy,
            "snapshot_path": (str(self.snapshot_path)
                              if self.snapshot_path else None),
            "publishes": self.publishes,
            "wal": self.wal_stats,
        }

    def __repr__(self) -> str:
        return (f"Online{super().__repr__()[:-1]}, "
                f"delta={self.delta_size}/{self.compact_threshold}, "
                f"compactions={self.compactions})")
