"""Unit tests for the tracing primitives (Span, TraceContext, runtime)."""

import sys
import threading

import pytest

from repro import _hot
from repro.trace import runtime
from repro.trace import (
    TraceContext,
    active_tracer,
    add_counter,
    annotate,
    current_span,
    disable_tracing,
    enable_tracing,
    observe,
    scoped_tracing,
    stage,
    tracing,
    wrap_task,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    disable_tracing()
    yield
    disable_tracing()


class TestSpanBasics:
    def test_nesting_assigns_parent_ids(self):
        ctx = TraceContext()
        with ctx.span("outer") as outer:
            with ctx.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with ctx.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None
        assert len(ctx.spans()) == 3

    def test_span_ids_unique_and_monotonic(self):
        ctx = TraceContext()
        with ctx.span("a"):
            pass
        with ctx.span("b"):
            pass
        ids = [s.span_id for s in ctx.spans()]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_duration_positive_and_closed(self):
        ctx = TraceContext()
        with ctx.span("timed") as sp:
            assert sp.is_open()
        assert not sp.is_open()
        assert sp.duration_ns > 0
        assert sp.duration_ms == pytest.approx(sp.duration_ns / 1e6)

    def test_exception_marks_error_status(self):
        ctx = TraceContext()
        with pytest.raises(ValueError):
            with ctx.span("boom"):
                raise ValueError("nope")
        sp = ctx.spans()[0]
        assert sp.status == "error:ValueError"
        assert not sp.is_open()

    def test_attrs_recorded_and_settable(self):
        ctx = TraceContext()
        with ctx.span("op", plugin="sz", input_bytes=100) as sp:
            sp.set_attr("output_bytes", 10)
        d = ctx.spans()[0].to_dict()
        assert d["attrs"] == {"plugin": "sz", "input_bytes": 100,
                              "output_bytes": 10}
        assert d["duration_ns"] > 0

    def test_start_finish_pair_api(self):
        ctx = TraceContext()
        sp = ctx.start_span("manual")
        assert ctx.current_span() is sp
        child = ctx.start_span("child")
        assert child.parent_id == sp.span_id
        ctx.finish_span(child)
        assert ctx.current_span() is sp
        ctx.finish_span(sp)
        assert ctx.current_span() is None
        ctx.finish_span(sp)  # double finish is a no-op
        assert sp.status == "ok"

    def test_thread_identity_recorded(self):
        ctx = TraceContext()
        with ctx.span("main-op") as sp:
            pass
        assert sp.thread_id == threading.get_ident()
        assert sp.thread_name == threading.current_thread().name

    def test_self_time_subtracts_children(self):
        ctx = TraceContext()
        with ctx.span("parent") as parent:
            with ctx.span("child"):
                pass
        child = ctx.spans()[1]
        expected = parent.duration_ns - child.duration_ns
        assert ctx.self_time_ns(parent) == max(0, expected)

    def test_clear(self):
        ctx = TraceContext()
        with ctx.span("x"):
            pass
        ctx.add_counter("c")
        ctx.observe("h", 1.0)
        ctx.clear()
        assert ctx.spans() == []
        assert ctx.counters() == {}
        assert ctx.histograms() == {}


class TestCountersHistograms:
    def test_counter_accumulates(self):
        ctx = TraceContext()
        ctx.add_counter("faults")
        ctx.add_counter("faults", 4)
        assert ctx.counters() == {"faults": 5}

    def test_histogram_stats(self):
        ctx = TraceContext()
        for v in (1.0, 2.0, 4.0, 8.0):
            ctx.observe("sizes", v)
        hist = ctx.histograms()["sizes"]
        assert hist.count == 4
        assert hist.min == 1.0
        assert hist.max == 8.0
        assert hist.mean == pytest.approx(3.75)
        assert sum(hist.buckets.values()) == 4

    def test_histogram_concurrent_observe(self):
        ctx = TraceContext()

        def record():
            for _ in range(200):
                ctx.observe("n", 1.0)
                ctx.add_counter("c")

        threads = [threading.Thread(target=record) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ctx.histograms()["n"].count == 800
        assert ctx.counters()["c"] == 800


class TestRuntime:
    def test_disabled_by_default(self):
        assert active_tracer() is None
        assert current_span() is None

    def test_enable_disable(self):
        ctx = enable_tracing()
        assert active_tracer() is ctx
        assert disable_tracing() is ctx
        assert active_tracer() is None

    def test_tracing_scope_restores_previous(self):
        outer = enable_tracing()
        with tracing() as inner:
            assert active_tracer() is inner
            assert inner is not outer
        assert active_tracer() is outer

    def test_helpers_are_noops_when_disabled(self):
        # none of these should raise or record anything
        add_counter("nope")
        observe("nope", 1.0)
        annotate(key="value")
        with stage("nothing"):
            pass
        fn = wrap_task(lambda: 42)
        assert fn() == 42

    def test_stage_records_span_when_enabled(self):
        with tracing() as ctx:
            with stage("work", detail=1) as sp:
                annotate(extra=2)
        assert sp.name == "work"
        assert sp.attrs == {"detail": 1, "extra": 2}
        assert len(ctx.spans()) == 1

    def test_wrap_task_carries_parent_across_threads(self):
        results = {}
        with tracing() as ctx:
            with ctx.span("root") as root:
                def task():
                    with ctx.span("worker-op"):
                        pass
                    results["thread"] = threading.get_ident()

                wrapped = wrap_task(task)
                t = threading.Thread(target=wrapped)
                t.start()
                t.join()
        worker_span = [s for s in ctx.spans() if s.name == "worker-op"][0]
        assert worker_span.parent_id == root.span_id
        assert worker_span.thread_id == results["thread"]
        assert worker_span.thread_id != root.thread_id


    def test_scoped_tracer_visible_only_to_its_context(self):
        seen = {}

        def raw():
            seen["raw"] = active_tracer()
            with stage("raw-op"):
                pass

        def carried():
            seen["carried"] = active_tracer()
            with stage("carried-op"):
                pass

        with scoped_tracing() as ctx:
            with ctx.span("request") as request:
                for name, target in (("raw", raw),
                                     ("carried", wrap_task(carried))):
                    t = threading.Thread(target=target, name=name)
                    t.start()
                    t.join(timeout=10)
                    assert not t.is_alive()
        assert seen == {"raw": None, "carried": ctx}
        carried_op = [s for s in ctx.spans() if s.name == "carried-op"]
        assert [s.parent_id for s in carried_op] == [request.span_id]
        assert not any(s.name == "raw-op" for s in ctx.spans())
        assert active_tracer() is None and runtime.ACTIVE is None

    def test_concurrent_scopes_leave_no_tracer_open(self):
        # a lost update on the open-scope count would leave ACTIVE and
        # the hot-path flag set after every scope has closed
        errors = []

        def churn():
            for _ in range(300):
                with scoped_tracing() as ctx:
                    if active_tracer() is not ctx:
                        errors.append("saw another scope's tracer")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert runtime.ACTIVE is None and not _hot.ANY


class TestExclusiveInvariant:
    """The double-count audit behind exclusive-time attribution.

    The aggregate report clamps negative self time to zero, which would
    *hide* a span tree where children claim more wall time than their
    parent (the signature of a re-entrant or misparented span).
    ``exclusive_invariant_violations`` surfaces it instead.
    """

    def test_reentrant_nesting_on_one_thread_is_consistent(self):
        # the regression shape: the same stage name re-entered on the
        # same thread (recursive chunking does this) must NOT trip the
        # invariant — nesting splits time, it never duplicates it
        ctx = TraceContext()
        with ctx.span("compress"):
            with ctx.span("compress"):
                with ctx.span("compress"):
                    pass
            with ctx.span("compress"):
                pass
        assert ctx.exclusive_invariant_violations() == []

    def test_fabricated_double_count_is_reported(self):
        ctx = TraceContext()
        with ctx.span("parent") as parent:
            with ctx.span("child") as child:
                pass
        # stretch the child past its parent: two spans now claim the
        # same wall time, which exclusive attribution would double count
        child.end_ns = parent.end_ns + 10_000_000
        violations = ctx.exclusive_invariant_violations()
        assert len(violations) == 1
        assert "parent" in violations[0]

    def test_cross_thread_children_may_exceed_parent(self):
        # a parallel fan-out legitimately runs children concurrently:
        # their summed durations exceed the parent's wall time without
        # any double count, so other-thread children are excluded
        ctx = TraceContext()
        with ctx.span("fanout") as parent:
            def worker():
                with ctx.span("task"):
                    pass

            threads = [threading.Thread(target=worker) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for sp in ctx.spans():
            if sp.name == "task":
                sp.parent_id = parent.span_id  # ensure parented
                sp.end_ns = parent.end_ns + 5_000_000
        assert ctx.exclusive_invariant_violations() == []

    def test_open_spans_are_skipped(self):
        ctx = TraceContext()
        sp = ctx.start_span("never-finished")
        assert ctx.exclusive_invariant_violations() == []
        ctx.finish_span(sp)
