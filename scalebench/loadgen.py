"""Closed-loop clients and an open-loop arrival schedule, both on asyncio.

All load comes from one event loop.  A closed-loop client sends its next
request only after the previous one returned; the open loop sends every
operation at its due time whatever the system is doing, and each operation
is timed from that due time, so a stall also counts against the operations
queued behind it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, NamedTuple, Optional

import numpy as np

from .tracing import REQUEST


class Record(NamedTuple):
    """One finished operation: when it was due and sent, when it finished.

    A tuple of plain values, built once the operation is over: the garbage
    collector stops walking such tuples after its first pass, so tens of
    thousands of records do not lengthen collection pauses in the run.
    """

    kind: str
    due: float
    sent: float
    done: float
    user: int
    result: Optional[tuple] = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Schedule:
    """Open-loop operations: offsets from the start, kinds and payloads."""

    offsets: np.ndarray
    kinds: List[str]
    users: np.ndarray
    items: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.offsets.size)


def open_loop_schedule(rng: np.random.Generator, duration: float,
                       rate: float, write_share: float,
                       user_sampler: Callable[[int], np.ndarray],
                       items_per_write: int, num_items: int) -> Schedule:
    """Poisson arrivals with exact counts over ``[0, duration)``.

    Given its count, a Poisson process's arrival times are independent
    uniform draws, so drawing ``round(rate * duration)`` sorted uniforms
    gives Poisson arrivals with an exact operation count; exactly
    ``round(write_share * count)`` of them, chosen at random, are writes.
    """
    count = int(round(rate * duration))
    writes = int(round(write_share * count))
    offsets = np.sort(rng.uniform(0.0, duration, size=count))
    is_write = np.zeros(count, dtype=bool)
    is_write[rng.choice(count, size=writes, replace=False)] = True
    kinds = ["write" if flag else "read" for flag in is_write]
    users = user_sampler(count)
    items = rng.integers(0, num_items, size=(count, items_per_write))
    return Schedule(offsets, kinds, users, items)


def zipf_sampler(rng: np.random.Generator, num_users: int,
                 exponent: float) -> Callable[[int], np.ndarray]:
    """Users drawn with P(rank r) proportional to r**-exponent.

    Ranks map to user ids through a seeded permutation so the hot users are
    spread over the id space.
    """
    weights = np.arange(1, num_users + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    permutation = rng.permutation(num_users)

    def sample(count: int) -> np.ndarray:
        return permutation[rng.choice(num_users, size=count, p=weights)]

    return sample


async def closed_loop(frontend, client_users: List[np.ndarray], k: int,
                      until: float) -> List[Record]:
    """Each client sends from its own user list until ``until``."""
    records: List[Record] = []

    async def client(index: int, users: np.ndarray) -> None:
        position = 0
        while True:
            sent = time.perf_counter()
            if sent >= until:
                return
            user = int(users[position % users.size])
            position += 1
            REQUEST.set(f"c{index}.{position}")
            result = error = None
            try:
                result = tuple(await frontend.recommend(user, k))
            except Exception as failure:  # noqa: BLE001 - counted as failed
                error = f"{type(failure).__name__}: {failure}"
            records.append(Record("read", sent, sent, time.perf_counter(),
                                  user, result, error))

    await asyncio.gather(*[client(index, users)
                           for index, users in enumerate(client_users)])
    return records


async def open_loop(schedule: Schedule, start: float,
                    run_op: Callable[[int], Awaitable[Optional[list]]]
                    ) -> List[Record]:
    """Send every scheduled operation at ``start + offset``.

    ``run_op(index)`` performs operation ``index`` and returns its result.
    ``Record.sent - Record.due`` is how late the generator was; the caller
    reports it and refuses a run whose generator fell behind.
    """
    records: List[Optional[Record]] = [None] * len(schedule)
    # Only in-flight operations hold a task: a finished one drops out, so
    # the harness does not grow the heap the garbage collector walks.
    tasks: set = set()

    async def launch(index: int, due: float, sent: float) -> None:
        REQUEST.set(f"o{index}")
        result = error = None
        try:
            result = await run_op(index)
        except Exception as failure:  # noqa: BLE001 - counted as failed
            error = f"{type(failure).__name__}: {failure}"
        records[index] = Record(
            schedule.kinds[index], due, sent, time.perf_counter(),
            int(schedule.users[index]),
            None if result is None else tuple(result), error)

    for index in range(len(schedule)):
        due = start + float(schedule.offsets[index])
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        task = asyncio.ensure_future(
            launch(index, due, time.perf_counter()))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    while tasks:
        await asyncio.gather(*list(tasks))
    return records
