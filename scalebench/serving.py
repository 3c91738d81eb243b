"""The serving workloads: serve-exact, serve-remote and serve-online.

Each workload generates its inputs from the seed, sets the serving stack up
``SETUP_REPS`` times (the median is ``setup_s``), drives it for a warm-up
and then the measured phase, and checks the served lists against an
independent reference before it reports anything.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .loadgen import Record, closed_loop, open_loop, open_loop_schedule, \
    zipf_sampler
from .stats import GcPauses, cpu_steal_s, percentile, reset_peak_rss, \
    settle_heap, slot_maxima, stream, vm_hwm_mb, windowed_tail
from .tracing import SpanRecorder

from repro.engine import (AsyncRecommendationFrontend, InferenceIndex,
                          OnlineRecommendationService, RecommendationService,
                          RemoteExecutor, ShardedInferenceIndex,
                          UserItemIndex, WriteAheadLog, save_snapshot)
from repro.engine import remote as remote_module
from repro.engine import service as service_module
from repro.engine import wal as wal_module
from repro.engine.index import top_k_indices
from repro.engine.observability import Tracer, set_tracer
from repro.engine.remote import decode_message, encode_message

K = 20
CLIENTS = 64
CACHE_SIZE = 4096
SETUP_REPS = 3
WARMUP_S = 1.0
#: Traced runs alternate untraced and traced windows of this length, so
#: drift on the host hits both halves alike.
TOGGLE_S = 1.0
#: Served lists checked against the reference per closed-loop run.
VERIFY_SAMPLE = 2048
#: A traced-window batch replayed through the index kernels (at most).
REPLAY_BATCHES = 32
#: Times each recorded wire message is replayed through the codec.
CODEC_REPEATS = 20
#: Seconds a shard server has to print its address.
SHARD_START_TIMEOUT_S = 60.0
#: How often the open loop samples the host's CPU steal counter.
STEAL_PERIOD_S = 0.25


@dataclass(frozen=True)
class Geometry:
    users: int
    items: int
    dim: int = 64
    rank: int = 16
    #: Per-user exclusion count range (uniform, inclusive).
    excluded: tuple = (2, 18)


SCALE = Geometry(100_000, 100_000)
ONLINE = Geometry(100_000, 10_000)

#: Latency limits behind slo_attainment, per workload (ms).
SLO_MS = {"serve-exact": 250.0, "serve-remote": 150.0, "serve-online": 25.0}
#: Tail percentile and independent samples per window, per workload.  The
#: closed loops' samples are batches.  serve-online's are slots of
#: completion time (``ONLINE_SLOT_S``): the reads a compaction held up
#: finish together after it, so they share one fate, and the slowest read
#: of a slot is one sample.  A 20-s run has 4 windows of 100 slots.  About
#: 4.6 compactions a second put some 23 stalls in each window, so a
#: window's 10 slowest slots are its typical compaction stalls, not its
#: single longest one.
TAIL = {"serve-exact": (80.0, 50), "serve-remote": (80.0, 50),
        "serve-online": (90.0, 100)}
ONLINE_SLOT_S = 0.05

#: Open-loop traffic of serve-online.
ONLINE_RATE = 700.0           # operations per second, reads and writes
ONLINE_WRITE_SHARE = 0.10
ONLINE_EVENTS_PER_WRITE = 12
ONLINE_ZIPF = 0.8
ONLINE_COMPACT_THRESHOLD = 175
#: The first seconds after a restart run slower (first compactions, cold
#: cache), so the open loop warms up longer than the closed loops.
ONLINE_WARMUP_S = 3.0
WAL_RECORDS = 5000
WAL_EVENTS_PER_RECORD = 4
#: Reads of untouched users checked per serve-online run (at most).
ONLINE_VERIFY = 4096
#: A run whose generator fell further behind its schedule is invalid.
MAX_LATENESS_P99_MS = 50.0


class RunFailure(RuntimeError):
    """A check on the program's output failed; the run is refused."""


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #

def embeddings(seed: int, geometry: Geometry):
    """Seeded low-rank float32 user and item matrices plus a little noise."""
    rng = stream(seed, f"embeddings/{geometry.users}x{geometry.items}")
    projection = (rng.standard_normal((geometry.rank, geometry.dim),
                                      dtype=np.float32)
                  / np.float32(np.sqrt(geometry.rank)))

    def side(count):
        base = rng.standard_normal((count, geometry.rank), dtype=np.float32)
        noise = rng.standard_normal((count, geometry.dim), dtype=np.float32)
        return base @ projection + np.float32(0.1) * noise

    return side(geometry.users), side(geometry.items)


def exclusions(seed: int, geometry: Geometry):
    """Seeded per-user exclusion pairs (duplicates allowed, as in logs)."""
    rng = stream(seed, f"exclusions/{geometry.users}x{geometry.items}")
    low, high = geometry.excluded
    counts = rng.integers(low, high + 1, size=geometry.users)
    users = np.repeat(np.arange(geometry.users, dtype=np.int64), counts)
    items = rng.integers(0, geometry.items, size=users.size)
    return users, items


def build_index(geometry: Geometry, vectors, pairs) -> InferenceIndex:
    exclusion = UserItemIndex(geometry.users, geometry.items, *pairs)
    return InferenceIndex(geometry.users, geometry.items,
                          user_embeddings=vectors[0],
                          item_embeddings=vectors[1],
                          exclusion=exclusion, dtype=np.float32)


# ---------------------------------------------------------------------- #
# Shard servers
# ---------------------------------------------------------------------- #

def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class ShardFleet:
    """``repro shard-server`` processes, one per shard, on localhost."""

    def __init__(self, root: Path, snapshot: Path, num_shards: int,
                 logdir: Path) -> None:
        self.processes: List[subprocess.Popen] = []
        self.addresses: List[str] = []
        self._logs = []
        try:
            for shard in range(num_shards):
                log = open(logdir / f"shard{shard}.log", "ab")
                self._logs.append(log)
                self.processes.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "shard-server",
                     str(snapshot), "--shard-id", str(shard),
                     "--num-shards", str(num_shards)],
                    # Unbuffered, so no line can hide in a Python-side
                    # buffer while the selector waits on the pipe.
                    stdout=subprocess.PIPE, stderr=log, cwd=root, bufsize=0,
                    env=child_env(root)))
            deadline = time.monotonic() + SHARD_START_TIMEOUT_S
            for shard, process in enumerate(self.processes):
                self.addresses.append(
                    self._read_address(shard, process, deadline))
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _read_address(shard: int, process, deadline: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(process.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RunFailure(f"shard server {shard} did not come up")
                line = process.stdout.readline().decode()
                if not line:
                    raise RunFailure(f"shard server {shard} exited with "
                                     f"{process.wait()}")
                if line.startswith("listening on "):
                    return line.split()[-1]

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(process.pid) for process in self.processes)

    def close(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
        for log in self._logs:
            log.close()
        self.processes = []


# ---------------------------------------------------------------------- #
# Tracing setup
# ---------------------------------------------------------------------- #

def _reply_info(args, kwargs, result):
    info = {"bytes": len(args[0])}
    try:
        spans = result[1]["trace"]["spans"]
        info["shard_s"] = max(float(span["duration_s"]) for span in spans)
    except (KeyError, TypeError, ValueError, IndexError):
        pass
    return info


def install_serving_spans(recorder: SpanRecorder) -> dict:
    """Wrap the serving layers' public entry points; returns side stores."""
    side = {"replies": [], "requests": []}
    recorder.wrap(AsyncRecommendationFrontend, "recommend", "frontend.recommend")
    recorder.wrap(AsyncRecommendationFrontend, "ingest", "frontend.ingest")
    recorder.wrap(RecommendationService, "top_k", "service.top_k")
    recorder.wrap(ShardedInferenceIndex, "top_k", "sharding.top_k")
    recorder.wrap(RemoteExecutor, "fan_out", "sharding.fan_out")
    recorder.wrap(service_module, "load_snapshot", "snapshot.open")
    recorder.wrap(OnlineRecommendationService, "ingest", "online.ingest",
                  info=lambda a, k, r: {"invalidated": r["invalidated"]})
    recorder.wrap(OnlineRecommendationService, "compact", "online.compact")
    recorder.wrap(WriteAheadLog, "append", "wal.append")

    def encode_info(args, kwargs, result):
        if args[0] == "top_k" and len(side["requests"]) < REPLAY_BATCHES:
            side["requests"].append((args, kwargs))
        return {"bytes": len(result)}

    def decode_info(args, kwargs, result):
        if (result[0] == "top_k_result"
                and len(side["replies"]) < REPLAY_BATCHES):
            side["replies"].append(bytes(args[0]))
        return _reply_info(args, kwargs, result)

    recorder.wrap(remote_module, "encode_message", "remote.encode",
                  info=encode_info)
    recorder.wrap(remote_module, "decode_message", "remote.decode",
                  info=decode_info)
    # The WAL calls os.fsync through its module's ``os``; hand it a copy of
    # the os namespace whose fsync is wrapped, leaving os itself alone.
    proxy = types.SimpleNamespace(**{name: getattr(os, name)
                                     for name in dir(os)
                                     if not name.startswith("__")})
    recorder.wrap(proxy, "fsync", "wal.sync")
    recorder.patch(wal_module, "os", proxy)
    return side


async def toggle(recorder: SpanRecorder, until: float,
                 windows: List[tuple], tracer: Optional[Tracer] = None) -> None:
    """Alternate untraced and traced windows of ``TOGGLE_S`` until ``until``.

    ``tracer`` is the program's own request tracer, installed only in traced
    windows: with it, shard servers report their compute time in replies.
    """
    traced = False
    while True:
        now = time.perf_counter()
        if now >= until:
            break
        recorder.enabled = traced
        if tracer is not None:
            set_tracer(tracer if traced else None)
        end = min(until, now + TOGGLE_S)
        windows.append((now, end, traced))
        await asyncio.sleep(end - now)
        traced = not traced
    recorder.enabled = False
    if tracer is not None:
        set_tracer(None)


async def sample_steal(until: float, samples: List[tuple]) -> None:
    """Append ``(time, steal seconds)`` every ``STEAL_PERIOD_S`` until
    ``until``, so each tail window can be told how much CPU the host took."""
    while True:
        samples.append((time.perf_counter(), cpu_steal_s()))
        if samples[-1][0] >= until:
            return
        await asyncio.sleep(STEAL_PERIOD_S)


def window_steal(samples: List[tuple], start: float, span: float,
                 count: int) -> List[float]:
    """Share of CPU time stolen by the host over each of ``count`` tail
    windows of ``span`` seconds from ``start``."""
    times = np.array([sample[0] for sample in samples])
    steal = np.array([sample[1] for sample in samples])
    shares = []
    for index in range(count):
        low = start + index * span
        stolen = (np.interp(low + span, times, steal)
                  - np.interp(low, times, steal))
        shares.append(stolen / span / os.cpu_count())
    return shares


# ---------------------------------------------------------------------- #
# Metrics shared by the serving workloads
# ---------------------------------------------------------------------- #

def _in_windows(start: float, windows, traced: bool) -> bool:
    return any(low <= start < high and flag == traced
               for low, high, flag in windows)


def _window_seconds(windows, traced: bool) -> float:
    return sum(high - low for low, high, flag in windows if flag == traced)


def index_replay(index: InferenceIndex, batches: List[np.ndarray]) -> dict:
    """Replay recorded batches through the index kernels, one at a time."""
    times = {"matmul": [], "mask": [], "select": []}
    for users in batches:
        start = time.perf_counter()
        scores = index.scores(users)
        matmul = time.perf_counter()
        index.exclusion.mask(scores, users)
        masked = time.perf_counter()
        top_k_indices(scores, K)
        done = time.perf_counter()
        times["matmul"].append(matmul - start)
        times["mask"].append(masked - matmul)
        times["select"].append(done - masked)
    rows = statistics.median(users.size for users in batches)
    block = rows * index.num_items * index.dtype.itemsize / 2 ** 20
    return {"index.matmul_ms": statistics.median(times["matmul"]) * 1e3,
            "index.mask_ms": statistics.median(times["mask"]) * 1e3,
            "index.select_ms": statistics.median(times["select"]) * 1e3,
            "index.score_block_mb": block}


def serving_layers(recorder: SpanRecorder, side: dict, phase: tuple,
                   windows, reads: List[Record], log: "BatchLog", service,
                   frontend, index: InferenceIndex) -> Dict[str, float]:
    """Per-layer metrics of a traced serving run (0 where a layer is idle)."""
    low, high = phase
    in_phase = [span for span in recorder.spans if low <= span.start < high]

    def named(name):
        return [span for span in in_phase if span.name == name]

    def ms(spans):
        return [span.duration * 1e3 for span in spans]

    def median(values, default=0.0):
        return statistics.median(values) if values else default

    top_k = named("service.top_k")
    traced_reads = [record for record in reads
                    if _in_windows(record.sent, windows, True)]
    # A read that waited for a batch was served by one that ended after it
    # was sent; the others were cache hits.
    waits = [(log.starts[batch] - record.sent) * 1e3
             for record, (batch, _) in log.serving(traced_reads)
             if log.ends[batch] >= record.sent]
    stats = frontend.stats()
    layers = {
        "frontend.queue_wait_p50_ms": percentile(waits, 50) if waits else 0.0,
        "frontend.queue_wait_p99_ms": percentile(waits, 99) if waits else 0.0,
        "frontend.batch_occupancy": stats["mean_occupancy"],
        "frontend.shed": float(stats["shed"]),
        "service.top_k_p50_ms": percentile(ms(top_k), 50),
        "service.top_k_p99_ms": percentile(ms(top_k), 99),
        "service.cache_hit_ratio": service.cache_stats()["hit_rate"],
    }
    batches = [log.users[batch] for batch, start in enumerate(log.starts)
               if _in_windows(start, windows, True)][:REPLAY_BATCHES]
    layers.update(index_replay(index, batches))

    sharded = named("sharding.top_k")
    fan_out = named("sharding.fan_out")
    layers["sharding.top_k_ms"] = median(ms(sharded))
    layers["sharding.fan_out_ms"] = median(ms(fan_out))
    fan_out_by_parent = {span.parent: span for span in fan_out}
    layers["sharding.merge_ms"] = median(
        [(span.duration - fan_out_by_parent[span.id].duration) * 1e3
         for span in sharded if span.id in fan_out_by_parent])

    encodes = named("remote.encode")
    decodes = named("remote.decode")
    encode_by_parent = {span.parent: span for span in encodes}
    round_trips, computes, wires = [], [], []
    for span in fan_out:
        encode = encode_by_parent.get(span.id)
        round_trip = span.duration - (encode.duration if encode else 0.0)
        shard = [d.info.get("shard_s", 0.0) for d in decodes
                 if span.start <= d.start and d.end <= span.end]
        compute = max(shard) if shard else 0.0
        round_trips.append(round_trip * 1e3)
        computes.append(compute * 1e3)
        wires.append((round_trip - compute) * 1e3)
    layers["remote.round_trip_ms"] = median(round_trips)
    layers["remote.shard_compute_ms"] = median(computes)
    layers["remote.wire_ms"] = median(wires)
    layers["remote.request_bytes"] = median(
        [float(span.info["bytes"]) for span in encodes])
    layers["remote.reply_bytes"] = median(
        [float(span.info["bytes"]) for span in decodes])
    layers.update(codec_replay(side))
    health = service.health_stats()
    if health:
        counters = service.stats()["metrics"]["counters"]
        layers["remote.retries"] = float(counters.get("remote.retries", 0))
        layers["remote.failovers"] = float(health["failovers"])
    else:
        layers["remote.retries"] = layers["remote.failovers"] = 0.0

    opens = recorder.by_name("snapshot.open")
    layers["snapshot.open_s"] = median([span.duration for span in opens])
    return layers


def codec_replay(side: dict) -> Dict[str, float]:
    """Replay recorded wire messages through encode/decode, out of band."""
    encode, decode = [], []
    for args, kwargs in side["requests"]:
        for _ in range(CODEC_REPEATS):
            start = time.perf_counter()
            encode_message(*args, **kwargs)
            encode.append(time.perf_counter() - start)
    for body in side["replies"]:
        for _ in range(CODEC_REPEATS):
            start = time.perf_counter()
            decode_message(body)
            decode.append(time.perf_counter() - start)
    return {"remote.encode_ms": statistics.median(encode) * 1e3
            if encode else 0.0,
            "remote.decode_ms": statistics.median(decode) * 1e3
            if decode else 0.0}


def overhead_pct(untraced: float, traced: float) -> float:
    """How much lower ``traced`` is than ``untraced``, in percent."""
    if untraced <= 0:
        return 0.0
    return 100.0 * (untraced - traced) / untraced


# ---------------------------------------------------------------------- #
# serve-exact and serve-remote: closed loop
# ---------------------------------------------------------------------- #

class BatchLog:
    """Every batch the service scored, in order: for whom and when it ended.

    Float32 scores depend on the shape of the matrix product that computed
    them (a one-row batch takes a different BLAS kernel than a 64-row one),
    so a list is checked against the reference scored on the very batch
    that served it.
    """

    def __init__(self, service, recorder: SpanRecorder) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.users: List[np.ndarray] = []
        top_k = service.top_k

        def logged(users, k, exclude_train=True):
            start = time.perf_counter()
            rows = top_k(users, k, exclude_train=exclude_train)
            self.starts.append(start)
            self.users.append(np.array(users, dtype=np.int64))
            self.ends.append(time.perf_counter())
            return rows

        recorder.patch(service, "top_k", logged)

    def serving(self, reads: List[Record]) -> List[tuple]:
        """(read, (batch, row)) for every successful read.

        A read was served by the last batch holding its user that ended
        before the read returned (a cache hit by the batch that filled the
        cache).
        """
        ends: Dict[int, List[float]] = {}
        where: Dict[int, List[tuple]] = {}
        for batch, (end, users) in enumerate(zip(self.ends, self.users)):
            for row, user in enumerate(users.tolist()):
                ends.setdefault(user, []).append(end)
                where.setdefault(user, []).append((batch, row))
        served = []
        for record in reads:
            if record.error is not None:
                continue
            found = bisect.bisect_right(ends.get(record.user, []), record.done)
            if found == 0:
                raise RunFailure(f"no batch served user {record.user}")
            served.append((record, where[record.user][found - 1]))
        return served


def verify_reads(reads: List[Record], log: BatchLog, reference_top_k,
                 budget: int, skip=frozenset()) -> dict:
    """Served lists vs the reference, batch by batch, for a spread of batches.

    Batches are sampled evenly until ``budget`` users; every read they
    served is compared element for element.
    """
    served = log.serving([record for record in reads
                          if record.user not in skip])
    batches = sorted({batch for _, (batch, _) in served})
    size = statistics.fmean(log.users[batch].size for batch in batches) \
        if batches else 1.0
    stride = max(1, int(len(batches) * size // budget))
    chosen = {batch: reference_top_k(log.users[batch])
              for batch in batches[::stride]}
    checked = mismatched = overlap = 0
    for record, (batch, position) in served:
        if batch not in chosen:
            continue
        want = tuple(int(item) for item in chosen[batch][position])
        checked += 1
        mismatched += record.result != want
        overlap += len(set(record.result) & set(want))
    return {"checked": checked, "mismatched": mismatched,
            "recall": overlap / (checked * K) if checked else 0.0}


def batch_shape_reorders(reads: List[Record], reference_top_k,
                         limit: int) -> int:
    """Reads whose list differs from the reference scored in 1024-user
    blocks; reported, not failed (see :class:`BatchLog`)."""
    sample = [record for record in reads if record.error is None][:limit]
    users = np.asarray([record.user for record in sample], dtype=np.int64)
    differ = 0
    for start in range(0, users.size, 1024):
        rows = reference_top_k(users[start:start + 1024])
        for record, row in zip(sample[start:start + 1024], rows):
            differ += record.result != tuple(int(item) for item in row)
    return differ


def run_closed(ctx, workload: str) -> dict:
    """serve-exact (in-process, S=1) or serve-remote (2 shard servers)."""
    remote = workload == "serve-remote"
    vectors = embeddings(ctx.seed, SCALE)
    pairs = exclusions(ctx.seed, SCALE)
    clients = [stream(ctx.seed, f"client/{client}").integers(
        0, SCALE.users, size=8192) for client in range(CLIENTS)]
    first_users = stream(ctx.seed, "first-batch").integers(
        0, SCALE.users, size=CLIENTS)
    detail: dict = {}
    snapshot_path = ctx.workdir / "scale.snap"
    if remote:
        index = build_index(SCALE, vectors, pairs)
        started = time.perf_counter()
        save_snapshot(snapshot_path, index, candidate_modes=())
        detail["snapshot_save_s"] = time.perf_counter() - started
        del index
    gc.collect()
    detail["peak_rss_reset"] = reset_peak_rss()

    recorder = SpanRecorder()
    side = install_serving_spans(recorder) if ctx.trace else {}
    fleets: List[ShardFleet] = []

    def open_service():
        if remote:
            fleet = ShardFleet(ctx.root, snapshot_path, 2, ctx.workdir)
            fleets.append(fleet)
            return RecommendationService(snapshot=snapshot_path,
                                         shard_addresses=fleet.addresses,
                                         cache_size=CACHE_SIZE)
        return RecommendationService(
            index=build_index(SCALE, vectors, pairs), cache_size=CACHE_SIZE)

    async def main():
        setups = []
        service = frontend = None
        for rep in range(SETUP_REPS):
            recorder.enabled = bool(ctx.trace)
            started = time.perf_counter()
            service = open_service()
            if rep == SETUP_REPS - 1:
                log = BatchLog(service, recorder)
            frontend = AsyncRecommendationFrontend(service)
            first = await asyncio.gather(*[frontend.recommend(int(user), K)
                                           for user in first_users])
            setups.append(time.perf_counter() - started)
            recorder.enabled = False
            if len(first) != CLIENTS:
                raise RunFailure("first batch incomplete")
            if rep < SETUP_REPS - 1:
                await frontend.close()
                service.close()
                if remote:
                    fleets.pop(0).close()
                # Free the torn-down state now, not while the next set-up
                # builds or at a later collection, so the peak resident set
                # does not depend on GC timing.
                service = frontend = None
                gc.collect()
        settle_heap()
        start = time.perf_counter()
        phase = (start + WARMUP_S, start + WARMUP_S + ctx.seconds)
        windows: List[tuple] = []
        tasks = [closed_loop(frontend, clients, K, phase[1])]
        if ctx.trace:
            async def traced_phase():
                await asyncio.sleep(WARMUP_S)
                await toggle(recorder, phase[1], windows,
                             Tracer(capacity=64) if remote else None)
            tasks.append(traced_phase())
        records = (await asyncio.gather(*tasks))[0]
        await frontend.close()
        return setups, records, phase, windows, service, frontend, log

    try:
        with GcPauses() as gc_pauses:
            (setups, records, phase, windows, service, frontend,
             log) = asyncio.run(main())
        rss = vm_hwm_mb() + sum(fleet.peak_rss_mb() for fleet in fleets)
    finally:
        recorder.restore()
        for fleet in fleets:
            fleet.close()

    measured = [record for record in records if record.sent >= phase[0]]
    detail["gc_pauses"] = gc_pauses.summary(*phase)
    # Freshly opened state, built only now so it stays out of peak_rss_mb.
    if remote:
        reference_service = RecommendationService(snapshot=snapshot_path,
                                                  num_shards=2)
        reference_top_k = reference_service.top_k
    else:
        reference_service = None
        reference_top_k = build_index(SCALE, vectors, pairs).top_k

    def reference(users):
        return reference_top_k(users, K)

    check = verify_reads(measured, log, reference, VERIFY_SAMPLE)
    detail.update({"verified": check["checked"],
                   "mismatched": check["mismatched"],
                   "batch_shape_reorders": batch_shape_reorders(
                       measured, reference, VERIFY_SAMPLE // 2),
                   "setup_reps_s": setups})
    if reference_service is not None:
        reference_service.close()
    service.close()
    return closed_metrics(ctx, workload, measured, phase, windows, setups,
                          rss, check, detail, recorder, side, log, service,
                          frontend)


def closed_metrics(ctx, workload, measured, phase, windows, setups, rss,
                   check, detail, recorder, side, log, service,
                   frontend) -> dict:
    low, high = phase
    mismatched = check["mismatched"]
    failed = sum(1 for record in measured if record.error is not None)
    completed = [record for record in measured
                 if record.error is None and record.done < high]
    latencies = [record.latency * 1e3 for record in measured
                 if record.error is None]
    limit = SLO_MS[workload]
    within = sum(1 for record in measured
                 if record.error is None and record.latency * 1e3 <= limit)
    # Requests answered by one batch share one fate: the tail is taken over
    # batches (each batch's slowest request), in the order they ran.
    worst: Dict[int, float] = {}
    for record, (batch, _) in log.serving(measured):
        worst[batch] = max(worst.get(batch, 0.0), record.latency * 1e3)
    q, window = TAIL[workload]
    tail = windowed_tail([worst[batch] for batch in sorted(worst)], q,
                         window)
    per_second = np.bincount(
        [int(record.done - low) for record in completed],
        minlength=int(ctx.seconds))[:int(ctx.seconds)]
    detail["completed_per_second"] = per_second.tolist()
    detail.update({"tail": f"p{q:g} of per-batch worst latency, median of "
                           f"{tail['windows']} windows of {window} batches",
                   "batches": len(worst), "slo_ms": limit,
                   "first_error": next((r.error for r in measured if r.error),
                                       None)})
    result = {
        "attempted": len(measured),
        "failed": failed + mismatched,
        "correct": (mismatched == 0 and failed == 0
                    and check["checked"] > 0),
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput": len(completed) / ctx.seconds,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_tail_ms": tail["value"],
            "slo_attainment": within / len(measured),
            "success_rate": (len(measured) - failed) / len(measured),
            "peak_rss_mb": rss,
            "recall_at_20": check["recall"],
        },
        "detail": detail,
    }
    if ctx.trace:
        layers = serving_layers(recorder, side, phase, windows, measured,
                                log, service, frontend, service.index)
        rates = {}
        for flag in (False, True):
            done = sum(1 for record in completed
                       if _in_windows(record.done, windows, flag))
            rates[flag] = done / max(_window_seconds(windows, flag), 1e-9)
        layers["trace.overhead_pct"] = overhead_pct(rates[False], rates[True])
        layers["loadgen.lateness_p99_ms"] = 0.0
        layers["snapshot.save_s"] = detail.get("snapshot_save_s", 0.0)
        result["layers"] = layers
        result["recorder"] = recorder
    return result


# ---------------------------------------------------------------------- #
# serve-online: open loop with writes
# ---------------------------------------------------------------------- #

def run_online(ctx) -> dict:
    vectors = embeddings(ctx.seed, ONLINE)
    base_users, base_items = exclusions(ctx.seed, ONLINE)
    wal_rng = stream(ctx.seed, "wal")
    wal_users = np.repeat(wal_rng.integers(0, ONLINE.users, WAL_RECORDS),
                          WAL_EVENTS_PER_RECORD)
    wal_items = wal_rng.integers(0, ONLINE.items, wal_users.size)
    traffic = stream(ctx.seed, "traffic")
    sampler = zipf_sampler(traffic, ONLINE.users, ONLINE_ZIPF)
    schedule = open_loop_schedule(
        traffic, ONLINE_WARMUP_S + ctx.seconds, ONLINE_RATE,
        ONLINE_WRITE_SHARE,
        sampler, ONLINE_EVENTS_PER_WRITE, ONLINE.items)
    first_user = int(sampler(1)[0])

    snapshot_path = ctx.workdir / "online.snap"
    index = build_index(ONLINE, vectors, (base_users, base_items))
    started = time.perf_counter()
    save_snapshot(snapshot_path, index, candidate_modes=())
    save_s = time.perf_counter() - started
    del index
    template = ctx.workdir / "template.wal"
    with WriteAheadLog(template) as log:
        for record in range(WAL_RECORDS):
            span = slice(record * WAL_EVENTS_PER_RECORD,
                         (record + 1) * WAL_EVENTS_PER_RECORD)
            log.append(wal_users[span], wal_items[span])
    gc.collect()
    rss_reset = reset_peak_rss()

    recorder = SpanRecorder()
    side = install_serving_spans(recorder) if ctx.trace else {}

    def restart(path: Path):
        return OnlineRecommendationService(
            snapshot=snapshot_path, wal_path=path,
            compact_threshold=ONLINE_COMPACT_THRESHOLD, cache_size=CACHE_SIZE)

    acked: List[tuple] = []

    async def run_op(index: int):
        user = int(schedule.users[index])
        if schedule.kinds[index] == "read":
            return await live["frontend"].recommend(user, K)
        items = schedule.items[index]
        users = np.full(items.size, user, dtype=np.int64)
        await live["frontend"].ingest(users, items)
        acked.append((users, items))
        return None

    live: dict = {}
    steal: List[tuple] = []

    async def main():
        setups, constructs = [], []
        service = None
        for rep in range(SETUP_REPS):
            path = ctx.workdir / f"restart{rep}.wal"
            shutil.copyfile(template, path)
            recorder.enabled = bool(ctx.trace)
            started = time.perf_counter()
            service = restart(path)
            constructs.append(time.perf_counter() - started)
            if rep == SETUP_REPS - 1:
                log = BatchLog(service, recorder)
            frontend = AsyncRecommendationFrontend(service)
            await frontend.recommend(first_user, K)
            setups.append(time.perf_counter() - started)
            recorder.enabled = False
            if service.wal_replayed != WAL_RECORDS:
                raise RunFailure(f"restart replayed {service.wal_replayed} "
                                 f"of {WAL_RECORDS} WAL records")
            if rep < SETUP_REPS - 1:
                await frontend.close()
                service.close()
                service = frontend = None
                gc.collect()
        empty_s = None
        if ctx.trace:
            started = time.perf_counter()
            restart(ctx.workdir / "empty.wal").close()
            empty_s = time.perf_counter() - started
        live["frontend"] = frontend
        compactions = service.compactions
        settle_heap()
        # Write back the set-up's files (snapshot, WAL template and copies)
        # now, so the phase's WAL fsyncs do not wait on them.
        os.sync()
        start = time.perf_counter() + 0.05
        phase = (start + ONLINE_WARMUP_S,
                 start + ONLINE_WARMUP_S + ctx.seconds)
        windows: List[tuple] = []
        tasks = [open_loop(schedule, start, run_op),
                 sample_steal(phase[1] + 0.1, steal)]
        if ctx.trace:
            async def traced_phase():
                await asyncio.sleep(max(0.0, phase[0] - time.perf_counter()))
                await toggle(recorder, phase[1], windows)
            tasks.append(traced_phase())
        records = (await asyncio.gather(*tasks))[0]
        await frontend.close()
        compactions = service.compactions - compactions
        return setups, constructs, empty_s, records, phase, windows, \
            service, frontend, compactions, log

    try:
        with GcPauses() as gc_pauses:
            (setups, constructs, empty_s, records, phase, windows, service,
             frontend, compactions, log) = asyncio.run(main())
        rss = vm_hwm_mb()
    finally:
        recorder.restore()

    # Reference: the snapshot base plus every replayed and acknowledged
    # event, folded into one freshly built index.
    all_users = np.concatenate([base_users, wal_users]
                               + [users for users, _ in acked])
    all_items = np.concatenate([base_items, wal_items]
                               + [items for _, items in acked])
    reference = build_index(ONLINE, vectors, (all_users, all_items))
    touched = {int(users[0]) for users, _ in acked}
    reads = [record for record in records if record.kind == "read"]

    def reference_top_k(users):
        return reference.top_k(users, K)

    check = verify_reads(reads, log, reference_top_k, ONLINE_VERIFY,
                         skip=touched)
    mismatched = check["mismatched"]
    untouched = [record for record in reads if record.user not in touched]
    end_state_ok = np.array_equal(service.overlay.flat_keys,
                                  reference.exclusion.flat_keys)
    probe = np.asarray(sorted(touched)[:2048], dtype=np.int64)
    end_reads_ok = probe.size == 0 or np.array_equal(
        service.top_k(probe, K), reference.top_k(probe, K))
    service.close()

    measured = [record for record in records if record.due >= phase[0]]
    measured_reads = [record for record in measured if record.kind == "read"]
    writes = [record for record in measured if record.kind == "write"]
    failed = sum(1 for record in measured if record.error is not None)
    lateness = [(record.sent - record.due) * 1e3 for record in records]
    lateness_p99 = percentile(lateness, 99)
    limit = SLO_MS["serve-online"]
    within = sum(1 for record in measured
                 if record.error is None and record.latency * 1e3 <= limit)
    ok_reads = [record for record in measured_reads if record.error is None]
    completed = [record for record in ok_reads if record.done < phase[1]]
    q, window = TAIL["serve-online"]
    tail = windowed_tail(slot_maxima(ok_reads, phase[0], ONLINE_SLOT_S),
                         q, window)
    detail_windows = tail["values"]
    # Reads over the limit that a collector pause of 5 ms or more held up.
    slow = [record for record in ok_reads if record.latency * 1e3 > limit]
    slow_in_gc = sum(1 for record in slow if any(
        record.due <= start < record.done and seconds >= 0.005
        for start, seconds, _ in gc_pauses.pauses))
    valid = lateness_p99 <= MAX_LATENESS_P99_MS
    problems = []
    if mismatched:
        problems.append(f"{mismatched} reads of untouched users differ "
                        f"from the reference")
    if not end_state_ok:
        problems.append("live exclusion state differs from the reference")
    if not end_reads_ok:
        problems.append("live end-state reads differ from the reference")
    if not valid:
        problems.append(f"generator fell behind: lateness p99 "
                        f"{lateness_p99:.1f} ms > {MAX_LATENESS_P99_MS} ms")
    detail = {"verified_reads": check["checked"], "mismatched": mismatched,
              "batch_shape_reorders": batch_shape_reorders(
                  untouched, reference_top_k, len(untouched)),
              "touched_users": len(touched), "acked_writes": len(acked),
              "compactions": compactions, "setup_reps_s": setups,
              "lateness_p99_ms": lateness_p99, "valid": valid,
              "tail": f"p{q:g} of the slowest read latency from due time "
                      f"per {ONLINE_SLOT_S * 1e3:g}-ms slot, median of "
                      f"{tail['windows']} windows of {window} slots",
              "slo_ms": limit, "problems": problems,
              "tail_windows_ms": detail_windows,
              "tail_windows_steal": window_steal(
                  steal, phase[0], window * ONLINE_SLOT_S, tail["windows"]),
              "gc_pauses": gc_pauses.summary(*phase),
              "slow_reads": len(slow), "slow_reads_in_gc": slow_in_gc,
              "peak_rss_reset": rss_reset,
              "first_error": next((r.error for r in measured if r.error),
                                  None)}
    result = {
        "attempted": len(measured),
        "failed": failed + mismatched,
        "correct": not problems and failed == 0 and check["checked"] > 0,
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput": len(completed) / ctx.seconds,
            "latency_p50_ms": percentile(
                [record.latency * 1e3 for record in ok_reads], 50),
            "latency_tail_ms": tail["value"],
            "slo_attainment": within / len(measured),
            "success_rate": (len(measured) - failed) / len(measured),
            "peak_rss_mb": rss,
            "recall_at_20": check["recall"],
        },
        "detail": detail,
    }
    if ctx.trace:
        layers = serving_layers(recorder, side, phase, windows,
                                measured_reads, log, service, frontend,
                                service.index)
        low, high = phase
        in_phase = [span for span in recorder.spans
                    if low <= span.start < high]

        def durations(name):
            return [span.duration * 1e3 for span in in_phase
                    if span.name == name]

        def median(values):
            return statistics.median(values) if values else 0.0

        ingests = [span for span in in_phase if span.name == "online.ingest"]
        traced_writes = [record.latency * 1e3 for record in writes
                         if record.error is None
                         and _in_windows(record.due, windows, True)]
        layers.update({
            "online.ingest_ms": median(durations("online.ingest")),
            "online.ingest_ack_p99_ms": percentile(traced_writes, 99)
            if traced_writes else 0.0,
            "online.compact_ms": median(durations("online.compact")),
            "online.compactions": float(compactions),
            "online.invalidated_per_ingest": statistics.fmean(
                span.info["invalidated"] for span in ingests)
            if ingests else 0.0,
            "wal.append_ms": median(durations("wal.append")),
            "wal.sync_ms": median(durations("wal.sync")),
            "wal.replay_s": max(0.0, statistics.median(constructs) - empty_s),
            "wal.records_replayed": float(WAL_RECORDS),
            "snapshot.save_s": save_s,
            "loadgen.lateness_p99_ms": lateness_p99,
        })
        # Open-loop throughput is the offered rate in both halves, so the
        # tracing cost shows as median read latency instead.
        means = {}
        for flag in (False, True):
            values = [record.latency for record in ok_reads
                      if _in_windows(record.due, windows, flag)]
            means[flag] = statistics.median(values) if values else 0.0
        layers["trace.overhead_pct"] = -overhead_pct(means[False], means[True])
        result["layers"] = layers
        result["recorder"] = recorder
    return result


WORKLOADS = {
    "serve-exact": lambda ctx: run_closed(ctx, "serve-exact"),
    "serve-remote": lambda ctx: run_closed(ctx, "serve-remote"),
    "serve-online": run_online,
}
