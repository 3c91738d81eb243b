"""Span recording from outside, and self time under overlapping children."""

import asyncio
import concurrent.futures
import contextvars
import types

import pytest

from scalebench.tracing import (Span, SpanRecorder, self_time_summary,
                                self_times, union_length)


def span(span_id, name, start, end, parent=None):
    return Span(name, start, end, span_id, parent, None, None)


def test_union_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(1, 1), (2, 1)]) == 0
    assert union_length([]) == 0


def test_self_time_with_overlapping_siblings():
    spans = [span(1, "parent", 0.0, 10.0),
             span(2, "child", 1.0, 4.0, parent=1),
             span(3, "child", 3.0, 6.0, parent=1),   # overlaps its sibling
             span(4, "child", 8.0, 12.0, parent=1),  # runs past the parent
             span(5, "grandchild", 1.5, 2.0, parent=2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(0.5)
    summary = self_time_summary(spans)
    assert summary["child"]["calls"] == 3
    assert summary["parent"]["self_total_ms"] == pytest.approx(3000.0)


class Service:
    def work(self, value):
        return value * 2

    async def serve(self, value, pool):
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        return await loop.run_in_executor(pool, context.run, self.work, value)


def test_parent_follows_await_and_worker_thread_and_restores():
    recorder = SpanRecorder()
    recorder.wrap(Service, "serve", "service.serve")
    recorder.wrap(Service, "work", "service.work",
                  info=lambda args, kwargs, result: {"result": result})
    recorder.enabled = True
    service = Service()
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        assert asyncio.run(service.serve(21, pool)) == 42
    serve, = recorder.by_name("service.serve")
    work, = recorder.by_name("service.work")
    assert work.parent == serve.id and serve.parent is None
    assert work.info == {"result": 42}
    assert serve.start <= work.start <= work.end <= serve.end
    recorder.restore()
    assert "serve" in vars(Service) and Service.work(None, 2) == 4
    assert not hasattr(Service.serve, "__wrapped__")


def test_disabled_recorder_records_nothing_and_instance_patch_restores():
    recorder = SpanRecorder()
    service = Service()
    recorder.wrap(service, "work", "service.work")
    assert service.work(3) == 6 and recorder.spans == []
    recorder.enabled = True
    service.work(3)
    assert len(recorder.spans) == 1
    recorder.restore()
    assert "work" not in vars(service)


def test_patch_module_attribute_and_restore():
    module = types.SimpleNamespace(value=1)
    recorder = SpanRecorder()
    recorder.patch(module, "value", 2)
    assert module.value == 2
    recorder.restore()
    assert module.value == 1
