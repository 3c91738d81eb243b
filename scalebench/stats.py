"""Sample statistics, seeded input streams and the run environment stamp.

Every timing the benchmark reports goes through the program's own
``percentile`` (the same linear interpolation as ``numpy.percentile``) or
:func:`windowed_tail`, which refuses samples too small to support the
percentile it is asked for.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.observability import percentile

#: A tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: A windowed tail is the median of at least this many windows.
MIN_WINDOWS = 3


class SampleTooSmall(ValueError):
    """A statistic was asked of fewer samples than it needs."""


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """``percentile(samples, q)``, refused unless >= 10 samples lie beyond q."""
    beyond = len(samples) * (100.0 - q) / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        raise SampleTooSmall(
            f"p{q:g} of {len(samples)} samples has only {beyond:.1f} beyond "
            f"it; need {MIN_TAIL_SAMPLES}")
    return percentile(samples, q)


def windowed_tail(samples: Sequence[float], q: float,
                  window: int) -> Dict[str, float]:
    """Median over consecutive fixed-size windows of each window's p``q``.

    ``samples`` must be in time order and independent of one another.  A
    slow stretch then moves only the windows it covers, where one
    whole-phase percentile would move with it.  The trailing partial window
    is dropped.
    """
    count = len(samples) // window
    if count < MIN_WINDOWS:
        raise SampleTooSmall(
            f"{len(samples)} samples make {count} windows of {window}; "
            f"need {MIN_WINDOWS}")
    values = [tail_percentile(samples[i * window:(i + 1) * window], q)
              for i in range(count)]
    return {"value": statistics.median(values), "windows": count,
            "window": window, "percentile": q, "values": values}


def slot_maxima(records, start: float, slot: float) -> List[float]:
    """The largest ``latency`` (in ms) per ``slot`` seconds of ``done`` time
    from ``start``, in time order; slots that hold no record are skipped.

    Operations that finish together were held up together (by one stall of
    the worker, say), so they are one sample, not many: the slowest of each
    slot stands for all of them.
    """
    slowest: Dict[int, float] = {}
    for record in records:
        index = int((record.done - start) // slot)
        slowest[index] = max(slowest.get(index, 0.0), record.latency * 1e3)
    return [slowest[index] for index in sorted(slowest)]


# ---------------------------------------------------------------------- #
# Seeded input streams
# ---------------------------------------------------------------------- #

def stream(seed: int, name: str) -> np.random.Generator:
    """An independent generator for one named input stream of a run.

    The stream name is hashed into the seed sequence's spawn key, so the
    draws of one stream never depend on how much another stream consumed,
    and adding a stream leaves the others unchanged.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(key,)))


# ---------------------------------------------------------------------- #
# Environment
# ---------------------------------------------------------------------- #

def _openblas_runtime_threads():
    """Threads the loaded OpenBLAS reports, or ``None`` if it cannot tell."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment_stamp() -> Dict[str, object]:
    """nproc, interpreter, numpy/BLAS versions and the pinned thread counts."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the stamp is informative only
        blas_text = "unknown"
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "blas_threads": _openblas_runtime_threads(),
        "thread_env": {name: value for name, value in sorted(os.environ.items())
                       if name.endswith("_NUM_THREADS")},
        "malloc_env": {name: value for name, value in sorted(os.environ.items())
                       if name.startswith("MALLOC_")},
        "platform": sys.platform,
    }


def settle_heap() -> None:
    """Collect set-up garbage, then exempt the set-up heap from collection.

    A gen-2 collection walks every tracked object.  Over the heap built
    before the measured phase (numpy, scipy, the program's modules, the
    generated inputs) one took 20-60 ms and landed in the tail of whichever
    window it hit.  Frozen objects are skipped, so collections during the
    phase walk only what the phase itself allocates.
    """
    gc.collect()
    gc.freeze()


class GcPauses:
    """Collector pauses, timed through ``gc.callbacks`` while installed.

    A read held up by a collection is slow for a reason of the harness's
    heap as much as the program's, so each run reports the pauses that fell
    in its measured phase next to its tail.
    """

    def __init__(self) -> None:
        #: (start, seconds, generation) per collection, in order.
        self.pauses: List[Tuple[float, float, int]] = []
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._started = now
        else:
            self.pauses.append((self._started, now - self._started,
                                int(info["generation"])))

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def summary(self, low: float, high: float) -> Dict[str, float]:
        """Count, total, longest and gen-2 count of pauses in [low, high)."""
        inside = [(seconds, generation)
                  for start, seconds, generation in self.pauses
                  if low <= start < high]
        return {"count": len(inside),
                "total_ms": sum(seconds for seconds, _ in inside) * 1e3,
                "max_ms": max((seconds for seconds, _ in inside),
                              default=0.0) * 1e3,
                "gen2": sum(1 for _, generation in inside if generation == 2)}


def cpu_steal_s() -> float:
    """CPU time the hypervisor gave to others while this VM's CPUs wanted
    to run, in seconds since boot, summed over CPUs (0 where unknown)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def reset_peak_rss() -> bool:
    """Restart this process's ``VmHWM`` from its current resident set.

    Called after the offline preparation (input generation, snapshot save,
    WAL template), so ``peak_rss_mb`` covers serving and not that build.
    The malloc heap keeps freed memory (see ``run.py``), so its free pages
    are handed back first; otherwise the build's garbage would stay resident
    and count.  Returns False where the kernel does not allow it.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def vm_hwm_mb(pid: int = 0) -> float:
    """Peak resident set (``VmHWM``) of a process in MiB; 0 if it is gone."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return 0.0
    return 0.0

