"""Open-loop schedules: exact counts, and every operation sent once."""

import asyncio
import time

import numpy as np
import pytest

from scalebench.loadgen import open_loop, open_loop_schedule, zipf_sampler
from scalebench.stats import stream


@pytest.mark.parametrize("duration,rate,share", [(21.0, 1100.0, 0.1),
                                                 (3.0, 333.0, 0.25),
                                                 (1.0, 10.0, 0.0)])
def test_schedule_has_exact_counts(duration, rate, share):
    rng = stream(1, "traffic")
    schedule = open_loop_schedule(rng, duration, rate, share,
                                  zipf_sampler(rng, 1000, 1.0), 4, 50)
    count = round(rate * duration)
    assert len(schedule) == count
    assert schedule.kinds.count("write") == round(share * count)
    assert schedule.users.shape == (count,)
    assert schedule.items.shape == (count, 4)
    assert np.all(np.diff(schedule.offsets) >= 0)
    assert schedule.offsets.min() >= 0 and schedule.offsets.max() < duration


def test_schedule_repeats_for_a_seed():
    def make():
        rng = stream(9, "traffic")
        return open_loop_schedule(rng, 2.0, 500.0, 0.1,
                                  zipf_sampler(rng, 100, 1.0), 4, 10)

    first, second = make(), make()
    assert np.array_equal(first.offsets, second.offsets)
    assert first.kinds == second.kinds
    assert np.array_equal(first.users, second.users)


def test_zipf_sampler_is_skewed():
    users = zipf_sampler(stream(2, "zipf"), 10_000, 1.0)(50_000)
    counts = np.sort(np.bincount(users, minlength=10_000))[::-1]
    assert counts[:100].sum() > 0.4 * users.size


def test_open_loop_sends_every_operation_on_time():
    rng = stream(4, "traffic")
    schedule = open_loop_schedule(rng, 0.3, 200.0, 0.1,
                                  zipf_sampler(rng, 100, 1.0), 2, 10)
    seen = []

    async def run_op(index):
        seen.append(index)
        await asyncio.sleep(0.001)
        return [index]

    records = asyncio.run(open_loop(schedule, time.perf_counter() + 0.01,
                                    run_op))
    assert len(records) == len(schedule)
    assert sorted(seen) == list(range(len(schedule)))
    assert all(record.sent >= record.due for record in records)
    assert all(record.done > record.sent for record in records)
    assert [record.kind for record in records] == schedule.kinds
    assert [record.result for record in records] == [
        (index,) for index in range(len(schedule))]
