"""Benchmark — zero-copy snapshot serving: load-time + bit-parity gates.

Freezes a trained model's serving state into a :mod:`repro.engine.snapshot`
artifact and gates three claims (all CI-enforced, not just reported):

* **O(open) cold start.**  ``load_snapshot(mmap=True)`` plus rebuilding the
  full serving stack from the mapped sections (index, exclusion, int8 block)
  must be at least ``MIN_LOAD_SPEEDUP``x faster than the freeze-from-model
  path it replaces (re-freezing the embeddings, rebuilding the exclusion
  CSR, requantising the candidate block).
* **Bounded first request.**  The first top-K batch served off a fresh mmap
  (cold views, pages faulted on demand) must land within
  ``FIRST_REQUEST_BUDGET_S`` — a generous absolute bound that catches
  pathological paging, not micro-noise.
* **Bit-identical serving.**  For every cell of S ∈ {1, 4} ×
  candidate_mode ∈ {None, int8} × dtype ∈ {float64, float32} ×
  mmap ∈ {True, False}, serving from the snapshot must return bit-exact
  top-K lists (same ids, same order) versus the in-memory index it was
  saved from.  Any drift fails the build.  (Out-of-process parity over
  shard servers is gated by ``bench_remote_serving.py``.)

Environment knobs: ``REPRO_BENCH_DATASET`` (e.g. ``tiny`` for the CI smoke
run) and ``REPRO_BENCH_JSON`` (artifact directory, see ``artifacts.py``).

Run stand-alone with ``python benchmarks/bench_snapshot_serving.py`` or via
pytest: ``pytest benchmarks/bench_snapshot_serving.py -s``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.data import chronological_split, dataset_preset  # noqa: E402
from repro.engine import (  # noqa: E402
    InferenceIndex,
    RecommendationService,
    load_snapshot,
    quantize_item_matrix,
    save_snapshot,
)
from repro.engine.index import _SPLIT_INDEX_CACHE  # noqa: E402
from repro.models import LightGCN  # noqa: E402

SHARD_COUNTS = (1, 4)
CANDIDATE_MODES = (None, "int8")
DTYPES = (np.float64, np.float32)
DEFAULT_DATASETS = ("mooc", "games")
TOP_K = 10

#: The load-path gate: opening a snapshot must beat re-freezing from the
#: model by at least this factor (the ISSUE's >=10x claim).
MIN_LOAD_SPEEDUP = 10.0
#: Absolute ceiling on the first mmap-served batch (catches pathological
#: paging; deliberately generous so CI jitter cannot trip it).
FIRST_REQUEST_BUDGET_S = 2.0


def _datasets():
    override = os.environ.get("REPRO_BENCH_DATASET")
    if override:
        return tuple(name.strip() for name in override.split(",") if name.strip())
    return DEFAULT_DATASETS


def _time(callable_, repeats: int = 9) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _build(name: str):
    # Serving-scale embedding dim: the freeze-vs-open comparison is about the
    # per-worker cold-start work (GCN propagation, CSR build, quantisation),
    # which a toy dim would understate relative to the fixed open cost.
    split = chronological_split(dataset_preset(name, seed=0))
    model = LightGCN(split, embedding_dim=1024, num_layers=3, seed=0)
    model.eval()
    return model, split


def _freeze_from_model(model, split, dtype) -> InferenceIndex:
    """The cold-start work a serving worker does today, end to end.

    Clearing the split's memoised exclusion cache and the model's cached
    final embeddings makes every repeat pay the real GCN propagation and the
    real CSR build, exactly like a fresh process would; the int8 block and
    the item norms are part of the frozen state too, so they count.
    """
    if hasattr(split, _SPLIT_INDEX_CACHE):
        delattr(split, _SPLIT_INDEX_CACHE)
    if hasattr(model, "_cached_final"):
        model._cached_final = None
    index = InferenceIndex.from_model(model, split, dtype=dtype)
    quantize_item_matrix(index.item_embeddings, "int8",
                         item_norms=index.item_norms)
    return index


def _open_snapshot(path):
    """The replacement cold start: map the file, adopt every section."""
    snapshot = load_snapshot(path, mmap=True)
    index = snapshot.inference_index()
    snapshot.quantized_block("int8")
    return snapshot, index


def check_parity(index: InferenceIndex, path, users: np.ndarray) -> int:
    """Assert snapshot serving is bit-identical to in-memory serving.

    Sweeps S x candidate_mode x mmap on one dtype's snapshot; the in-memory
    :class:`RecommendationService` over the original index is the oracle for
    each cell (same backend configuration, no snapshot involved).
    """
    comparisons = 0
    for num_shards in SHARD_COUNTS:
        for mode in CANDIDATE_MODES:
            with RecommendationService(
                    index=index, num_shards=num_shards,
                    candidate_mode=mode) as oracle_service:
                oracle = oracle_service.top_k(users, TOP_K)
            for mmap in (True, False):
                with RecommendationService(
                        snapshot=load_snapshot(path, mmap=mmap),
                        num_shards=num_shards, candidate_mode=mode) as svc:
                    got = svc.top_k(users, TOP_K)
                assert np.array_equal(oracle, got), (
                    f"snapshot serving (S={num_shards}, mode={mode}, "
                    f"mmap={mmap}) diverges from the in-memory oracle")
                comparisons += 1
    return comparisons


def run_snapshot_serving(datasets=None, repeats: int = 9):
    """Gate load-time, first-request latency and parity for every dataset."""
    rows = []
    for name in (datasets or _datasets()):
        model, split = _build(name)
        for dtype in DTYPES:
            index = _freeze_from_model(model, split, dtype)
            users = np.arange(index.num_users, dtype=np.int64)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / f"{name}-{np.dtype(dtype).name}.snap"
                save_ms = _time(lambda: save_snapshot(
                    path, index, candidate_modes=("int8",)), repeats) * 1e3

                freeze_s = _time(
                    lambda: _freeze_from_model(model, split, dtype), repeats)
                # The open path is microseconds-cheap, so take many more
                # repeats: best-of-N on a ~0.1 ms operation needs a larger N
                # to reliably catch an unloaded scheduling window in CI.
                load_s = _time(lambda: _open_snapshot(path), repeats * 5)
                speedup = freeze_s / load_s
                assert speedup >= MIN_LOAD_SPEEDUP, (
                    f"{name}/{np.dtype(dtype).name}: mmap load is only "
                    f"{speedup:.1f}x faster than freeze-from-model "
                    f"(gate: >={MIN_LOAD_SPEEDUP}x)")

                _, cold_index = _open_snapshot(path)
                first_batch = users[:min(128, users.size)]
                start = time.perf_counter()
                cold_index.top_k(first_batch, TOP_K)
                first_request_s = time.perf_counter() - start
                assert first_request_s <= FIRST_REQUEST_BUDGET_S, (
                    f"{name}/{np.dtype(dtype).name}: first mmap-served "
                    f"request took {first_request_s:.3f}s "
                    f"(budget: {FIRST_REQUEST_BUDGET_S}s)")

                comparisons = check_parity(index, path, users)
                rows.append({
                    "dataset": name,
                    "dtype": np.dtype(dtype).name,
                    "users": int(index.num_users),
                    "items": int(index.num_items),
                    "snapshot_bytes": int(path.stat().st_size),
                    "save_ms": save_ms,
                    "freeze_ms": freeze_s * 1e3,
                    "load_ms": load_s * 1e3,
                    "load_speedup": speedup,
                    "first_request_ms": first_request_s * 1e3,
                    "parity_checks": comparisons,
                })
    return rows


def format_rows(rows) -> str:
    header = (f"{'dataset':<10} {'dtype':>8} {'users':>6} {'items':>6} "
              f"{'bytes':>9} {'freeze ms':>10} {'load ms':>8} "
              f"{'speedup':>8} {'1st req ms':>11} {'parity':>7}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['dataset']:<10} {row['dtype']:>8} {row['users']:>6d} "
            f"{row['items']:>6d} {row['snapshot_bytes']:>9d} "
            f"{row['freeze_ms']:>10.2f} {row['load_ms']:>8.3f} "
            f"{row['load_speedup']:>7.1f}x {row['first_request_ms']:>11.2f} "
            f"{row['parity_checks']:>7d}")
    return "\n".join(lines)


def _write_artifact(rows) -> None:
    try:
        from .artifacts import write_artifact
    except ImportError:  # pragma: no cover - direct script execution
        from artifacts import write_artifact
    preset = ",".join(sorted({row["dataset"] for row in rows}))
    write_artifact("bench_snapshot_serving", rows, preset=preset)


def test_snapshot_serving():
    rows = run_snapshot_serving()
    try:
        from .conftest import print_block
        print_block("Snapshot serving — mmap cold start vs freeze-from-model",
                    format_rows(rows))
    except ImportError:  # pragma: no cover - direct script execution
        print(format_rows(rows))
    _write_artifact(rows)


def main() -> int:
    rows = run_snapshot_serving()
    print(format_rows(rows))
    _write_artifact(rows)
    print(f"OK: load >={MIN_LOAD_SPEEDUP:.0f}x faster than freeze, serving "
          f"bit-identical across S={SHARD_COUNTS}, "
          f"modes={CANDIDATE_MODES}, dtypes=(float64, float32), "
          f"mmap and owning loads")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
