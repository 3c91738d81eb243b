#!/usr/bin/env python3
"""Scale benchmark entry point: one workload, one seed, one run.

    python3 scalebench/run.py --workload serve-exact --seed 1 --seconds 20 \\
        --trace 0

Prints a detail line (environment stamp, sample sizes, check results) and,
as the last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero, without that last line, when the program is
missing or the run could not produce its numbers, and non-zero after it
when a check on the program's output failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

# Pinned before numpy is imported anywhere; shard servers inherit them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

# glibc malloc, pinned like the thread counts: blocks up to 32 MiB come from
# the heap, and freed heap memory is kept rather than returned to the
# kernel.  A repeated allocation (every compaction's merged key arrays, every
# score block) then reuses pages already mapped.  Left to its defaults,
# glibc maps each such array afresh, and the page faults that follow cost
# 3-4 ms of a 16-ms 100k x 10k compaction on a 2-vCPU VM, a cost that
# depends on the host.  The variables reach the shard servers; this process
# sets the same through mallopt, because glibc reads them only at start-up.
MALLOC_MMAP_THRESHOLD = 32 << 20
MALLOC_TRIM_THRESHOLD = (1 << 31) - 1
os.environ["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)
os.environ["MALLOC_TRIM_THRESHOLD_"] = str(MALLOC_TRIM_THRESHOLD)


def _pin_malloc() -> bool:
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    # M_TRIM_THRESHOLD is -1 and M_MMAP_THRESHOLD is -3 in glibc's malloc.h.
    return (mallopt(-1, MALLOC_TRIM_THRESHOLD) == 1
            and mallopt(-3, MALLOC_MMAP_THRESHOLD) == 1)


MALLOC_PINNED = _pin_malloc()

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_NAMES = ("serve-exact", "serve-remote", "serve-online",
                  "train-layergcn")

E2E_UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "slo_attainment": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "recall_at_20": "ratio",
}

LAYER_UNITS = {
    "frontend.queue_wait_p50_ms": "ms",
    "frontend.queue_wait_p99_ms": "ms",
    "frontend.batch_occupancy": "count",
    "frontend.shed": "count",
    "service.top_k_p50_ms": "ms",
    "service.top_k_p99_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "index.matmul_ms": "ms",
    "index.mask_ms": "ms",
    "index.select_ms": "ms",
    "index.score_block_mb": "MB",
    "sharding.top_k_ms": "ms",
    "sharding.fan_out_ms": "ms",
    "sharding.merge_ms": "ms",
    "remote.round_trip_ms": "ms",
    "remote.shard_compute_ms": "ms",
    "remote.wire_ms": "ms",
    "remote.encode_ms": "ms",
    "remote.decode_ms": "ms",
    "remote.request_bytes": "bytes",
    "remote.reply_bytes": "bytes",
    "remote.retries": "count",
    "remote.failovers": "count",
    "snapshot.open_s": "s",
    "snapshot.save_s": "s",
    "online.ingest_ms": "ms",
    "online.ingest_ack_p99_ms": "ms",
    "online.compact_ms": "ms",
    "online.compactions": "count",
    "online.invalidated_per_ingest": "count",
    "wal.append_ms": "ms",
    "wal.sync_ms": "ms",
    "wal.replay_s": "s",
    "wal.records_replayed": "count",
    "pipeline.next_batch_ms": "ms",
    "pruning.begin_epoch_ms": "ms",
    "propagation.forward_ms": "ms",
    "propagation.backward_ms": "ms",
    "propagation.calls_per_step": "count",
    "model.train_step_ms": "ms",
    "autograd.backward_ms": "ms",
    "optim.step_ms": "ms",
    "train.steps_per_epoch": "count",
    "eval.evaluate_s": "s",
    "trace.overhead_pct": "%",
    "loadgen.lateness_p99_ms": "ms",
}


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    workdir: Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _json_default(value):
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def write_trace(recorder, context: Context) -> None:
    """Spans to ``.scalebench/traces``; self time per span name to stderr."""
    from scalebench.tracing import self_time_summary

    traces = context.root / ".scalebench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = f"{context.workload}-seed{context.seed}"
    recorder.write(traces / f"{stem}.jsonl")
    summary = self_time_summary(recorder.spans)
    (traces / f"{stem}-self.json").write_text(json.dumps(summary, indent=1))
    print(f"self time per span ({len(recorder.spans)} spans, "
          f"{recorder.dropped} dropped):", file=sys.stderr)
    for name, row in summary.items():
        print(f"  {name:24s} calls={row['calls']:7d} "
              f"self_p50={row['self_p50_ms']:9.3f} ms "
              f"self_total={row['self_total_ms']:11.1f} ms", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources (src/repro) are not under "
              f"{ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from scalebench import serving, training
    from scalebench.stats import SampleTooSmall, environment_stamp

    workloads = {**serving.WORKLOADS, **training.WORKLOADS}
    runs = ROOT / ".scalebench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    # A fresh directory per run: a WAL or snapshot left by an earlier run
    # must never be replayed into this one.
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    context = Context(args.workload, args.seed, args.seconds,
                      bool(args.trace), ROOT, workdir)
    try:
        result = workloads[args.workload](context)
    except (serving.RunFailure, SampleTooSmall) as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if context.trace:
        # A layer the workload never calls reports 0: no work, no time.
        values = {name: result["layers"].get(name, 0.0)
                  for name in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        values, units = result["metrics"], E2E_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    if context.trace:
        write_trace(result["recorder"], context)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": context.trace,
                      "stamp": {**environment_stamp(),
                                "malloc_pinned": MALLOC_PINNED},
                      "detail": result["detail"]}, default=_json_default))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
