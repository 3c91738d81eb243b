"""The train-layergcn workload: ``Trainer.fit`` on a seeded latent split.

LayerGCN runs in the paper configuration (d=64, L=4, DegreeDrop 0.1,
BPR + L2, Adam) for a fixed number of epochs with per-epoch validation and
early stopping off.  The benchmark drives ``fit`` itself; its only hook is a
timer around the batch iterator ``fit`` asks the model for, which stamps
when each step starts and ends.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

import numpy as np

from .stats import percentile, settle_heap, stream, vm_hwm_mb, \
    windowed_tail
from .tracing import SpanRecorder

from repro.autograd import Adam, Tensor
from repro.core.layergcn import LayerGCN
from repro.data.dataset import DataSplit
from repro.engine import PropagationEngine
from repro.eval import RankingEvaluator
from repro.training import Trainer, TrainerConfig

USERS = 3000
ITEMS = 1500
LATENT = 8
PER_USER = (10, 40)            # interactions per user, uniform inclusive
EPOCHS = 3
BATCH_SIZE = 1024
#: Set-up takes about 25 ms here and single reps range from 17 to 40 ms,
#: so its median needs many reps.
SETUP_REPS = 100
#: Steps slower than this miss the latency limit.
SLO_MS = 250.0
#: Tail percentile and steps per window.
TAIL = (80.0, 50)
#: The epoch traced in a traced run; the epoch after it is the untraced
#: comparison for ``trace.overhead_pct``.
TRACED_EPOCH = 2


def interactions(seed: int) -> Dict[str, np.ndarray]:
    """Latent-preference interactions split 70/10/20 in per-user order.

    Each user picks distinct items by Gumbel top-k over popularity plus
    latent affinity.  Items that never occur in training are dropped and the
    rest re-indexed, so every item has a training edge.
    """
    rng = stream(seed, "train/interactions")
    users_f = rng.standard_normal((USERS, LATENT))
    items_f = rng.standard_normal((ITEMS, LATENT))
    popularity = -np.log(np.arange(1, ITEMS + 1, dtype=np.float64))
    rng.shuffle(popularity)
    counts = rng.integers(PER_USER[0], PER_USER[1] + 1, size=USERS)
    chosen = []
    for start in range(0, USERS, 500):
        logits = (users_f[start:start + 500] @ items_f.T
                  * (3.0 / np.sqrt(LATENT)) + popularity)
        gumbel = logits - np.log(-np.log(rng.random(logits.shape)))
        order = np.argsort(-gumbel, axis=1)[:, :PER_USER[1]]
        chosen.extend(order[row, :counts[start + row]]
                      for row in range(order.shape[0]))
    users = np.repeat(np.arange(USERS, dtype=np.int64), counts)
    items = np.concatenate(chosen).astype(np.int64)
    position = np.concatenate([np.arange(count) for count in counts])
    size = np.repeat(counts, counts)
    parts = {"train": position < 0.7 * size,
             "valid": (position >= 0.7 * size) & (position < 0.8 * size),
             "test": position >= 0.8 * size}
    kept_items, remap = np.unique(items[parts["train"]], return_inverse=True)
    lookup = np.full(ITEMS, -1, dtype=np.int64)
    lookup[kept_items] = np.arange(kept_items.size)
    data = {"num_items": int(kept_items.size)}
    for name, mask in parts.items():
        mapped = lookup[items[mask]]
        keep = mapped >= 0
        data[f"{name}_users"] = users[mask][keep]
        data[f"{name}_items"] = mapped[keep]
    return data


def build(data: Dict[str, np.ndarray], seed: int) -> Trainer:
    """Split, graph, model and trainer: the training set-up."""
    split = DataSplit("scalebench", USERS, data["num_items"],
                      data["train_users"], data["train_items"],
                      data["valid_users"], data["valid_items"],
                      data["test_users"], data["test_items"])
    model = LayerGCN(split, embedding_dim=64, num_layers=4, l2_reg=1e-3,
                     edge_dropout="degreedrop", dropout_ratio=0.1,
                     batch_size=BATCH_SIZE, seed=seed)
    config = TrainerConfig(epochs=EPOCHS, learning_rate=1e-3,
                           early_stopping_patience=0, restore_best=False)
    return Trainer(model, split, config)


class StepTimer:
    """Wraps the model's batch iterator: step and next-batch durations."""

    def __init__(self, model, recorder: SpanRecorder) -> None:
        self.steps: List[float] = []
        self.traced_fetches: List[float] = []
        make_batches = model.make_batches

        def timed(rng=None):
            iterator = make_batches(rng)
            handed_out = None
            while True:
                asked = time.perf_counter()
                if handed_out is not None:
                    self.steps.append(asked - handed_out)
                try:
                    batch = next(iterator)
                except StopIteration:
                    return
                handed_out = time.perf_counter()
                if recorder.enabled:
                    self.traced_fetches.append(handed_out - asked)
                yield batch

        recorder.patch(model, "make_batches", timed)


def install_training_spans(recorder: SpanRecorder, model) -> None:
    recorder.wrap(model, "train_step", "model.train_step")
    recorder.wrap(PropagationEngine, "forward", "propagation.forward")
    recorder.wrap(PropagationEngine, "backward", "propagation.backward")
    recorder.wrap(Tensor, "backward", "autograd.backward")
    recorder.wrap(Adam, "step", "optim.step")
    recorder.wrap(RankingEvaluator, "evaluate", "eval.evaluate")


def run_train(ctx) -> dict:
    data = interactions(ctx.seed)
    setups = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        trainer = build(data, ctx.seed)
        setups.append(time.perf_counter() - started)

    recorder = SpanRecorder()
    timer = StepTimer(trainer.model, recorder)
    epochs: List[tuple] = []        # (epoch, start, begin_epoch seconds)
    begin_epoch = trainer.model.begin_epoch

    def toggled_begin_epoch(epoch: int) -> None:
        recorder.enabled = bool(ctx.trace) and epoch == TRACED_EPOCH
        started = time.perf_counter()
        begin_epoch(epoch)
        epochs.append((epoch, started, time.perf_counter() - started))

    recorder.patch(trainer.model, "begin_epoch", toggled_begin_epoch)
    if ctx.trace:
        install_training_spans(recorder, trainer.model)
    settle_heap()
    try:
        started = time.perf_counter()
        history = trainer.fit()
        fit_s = time.perf_counter() - started
        finished = time.perf_counter()
    finally:
        recorder.enabled = False
        recorder.restore()
    rss = vm_hwm_mb()

    losses = [loss for epoch in history.batch_losses for loss in epoch]
    bad = sum(1 for loss in losses if not np.isfinite(loss))
    # The same seed must retrace the same trajectory: a fresh set-up trained
    # for one epoch must reach the main run's epoch-1 validation score.
    again = build(data, ctx.seed)
    again.config.epochs = 1
    repeat = again.fit().validation_scores.get(1)
    deterministic = repeat == history.validation_scores.get(1)
    recall = history.validation_scores.get(EPOCHS, 0.0)
    steps_ms = [value * 1e3 for value in timer.steps]
    q, window = TAIL
    tail = windowed_tail(steps_ms, q, window)
    problems = []
    if bad:
        problems.append(f"{bad} non-finite losses")
    if not deterministic:
        problems.append(f"same seed gave epoch-1 recall {repeat} vs "
                        f"{history.validation_scores.get(1)}")
    if len(losses) != len(steps_ms):
        problems.append("step timer and loss history disagree")
    within = sum(1 for value in steps_ms if value <= SLO_MS)
    detail = {"epochs": EPOCHS, "steps": len(losses), "fit_s": fit_s,
              "train_interactions": int(data["train_users"].size),
              "validation": history.validation_scores,
              "tail": f"p{q:g} of step time, median of {tail['windows']} "
                      f"windows of {window} steps",
              "slo_ms": SLO_MS, "setup_reps_s": setups, "problems": problems}
    result = {
        "attempted": len(losses),
        "failed": bad,
        "correct": not problems,
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput": data["train_users"].size * EPOCHS / fit_s,
            "latency_p50_ms": percentile(steps_ms, 50),
            "latency_tail_ms": tail["value"],
            "slo_attainment": within / len(losses),
            "success_rate": (len(losses) - bad) / len(losses),
            "peak_rss_mb": rss,
            "recall_at_20": recall,
        },
        "detail": detail,
    }
    if ctx.trace:
        result["layers"] = training_layers(recorder, timer, epochs, finished,
                                           trainer.split.num_train)
        result["recorder"] = recorder
    return result


def training_layers(recorder: SpanRecorder, timer: StepTimer, epochs,
                    finished: float, num_train: int) -> Dict[str, float]:
    def median_ms(name, spans=None):
        spans = recorder.by_name(name) if spans is None else spans
        return statistics.median(span.duration * 1e3 for span in spans) \
            if spans else 0.0

    train_steps = recorder.by_name("model.train_step")
    step_ids = {span.id for span in train_steps}
    backward_ids = {span.id for span in recorder.by_name("autograd.backward")}
    forwards = [span for span in recorder.by_name("propagation.forward")
                if span.parent in step_ids]
    backwards = [span for span in recorder.by_name("propagation.backward")
                 if span.parent in backward_ids]
    evaluations = recorder.by_name("eval.evaluate")
    # Epoch wall time runs from one begin_epoch to the next (validation
    # included); the traced epoch is compared with the untraced one after it.
    bounds = [start for _, start, _ in epochs] + [finished]
    rate = {epoch: num_train / (bounds[index + 1] - bounds[index])
            for index, (epoch, _, _) in enumerate(epochs)}
    untraced = rate.get(TRACED_EPOCH + 1, 0.0)
    traced = rate.get(TRACED_EPOCH, 0.0)
    return {
        "pipeline.next_batch_ms": statistics.median(timer.traced_fetches) * 1e3
        if timer.traced_fetches else 0.0,
        "pruning.begin_epoch_ms": statistics.median(
            seconds for _, _, seconds in epochs) * 1e3,
        "propagation.forward_ms": median_ms(None, forwards),
        "propagation.backward_ms": median_ms(None, backwards),
        "propagation.calls_per_step": len(forwards) / len(train_steps)
        if train_steps else 0.0,
        "model.train_step_ms": median_ms("model.train_step"),
        "autograd.backward_ms": median_ms("autograd.backward"),
        "optim.step_ms": median_ms("optim.step"),
        "train.steps_per_epoch": len(timer.steps) / len(epochs),
        "eval.evaluate_s": median_ms("eval.evaluate", evaluations) / 1e3,
        "trace.overhead_pct": 100.0 * (untraced - traced) / untraced
        if untraced else 0.0,
    }


WORKLOADS = {"train-layergcn": run_train}
