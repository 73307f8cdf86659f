"""Cross-process trace propagation: wire format, stitching, integration.

The contract under test is ``pressio-spanwire/1`` (see
``docs/OBSERVABILITY.md``): the parent injects its context into
``PRESSIO_TRACE_CONTEXT``, the child records spans against a fresh
context, and the parent stitches the child's fragments into one tree —
ids remapped, roots re-parented under the invoke span, timestamps
mapped across ``perf_counter_ns`` epochs and clamped into the invoke
span's bounds.
"""

import json
import os
import time

import numpy as np
import pytest

from repro import PressioData
from repro.trace import (active_tracer, current_span, disable_tracing,
                         enable_tracing, render_tree, tracing)
from repro.trace import propagate
from repro.trace.context import TraceContext


@pytest.fixture(autouse=True)
def _clean_tracer():
    disable_tracing()
    os.environ.pop(propagate.ENV_VAR, None)
    yield
    disable_tracing()
    os.environ.pop(propagate.ENV_VAR, None)


# ---------------------------------------------------------------------------
# inject + extract
# ---------------------------------------------------------------------------

class TestWireFormat:
    def test_serialize_carries_span_id_baggage_and_sink(self):
        ctx = TraceContext("parent")
        ctx.baggage.update({"tenant": "cli", "pressio:abs": 1e-4,
                            "unpicklable": object()})
        enable_tracing(ctx)
        with ctx.span("invoke") as sp:
            wire = propagate.serialize_context(sink="/tmp/frags.jsonl")
            payload = json.loads(wire)
        assert payload["version"] == propagate.WIRE_VERSION
        assert payload["parent_span_id"] == sp.span_id
        assert payload["baggage"] == {"tenant": "cli", "pressio:abs": 1e-4}
        assert payload["sampled"] is True
        assert payload["sink"] == "/tmp/frags.jsonl"

    def test_serialize_returns_none_when_tracing_off(self):
        assert propagate.serialize_context() is None

    def test_child_env_sets_wire_variable(self):
        enable_tracing(TraceContext("parent"))
        env = propagate.child_env(sink="/tmp/x.jsonl")
        assert propagate.ENV_VAR in env
        remote = propagate.extract(env)
        assert remote is not None
        assert remote.sink == "/tmp/x.jsonl"

    def test_child_env_strips_stale_variable_when_untraced(self):
        stale = {propagate.ENV_VAR: '{"version": "pressio-spanwire/1"}',
                 "PATH": "/bin"}
        env = propagate.child_env(environ=stale)
        assert propagate.ENV_VAR not in env
        assert env["PATH"] == "/bin"

    def test_extract_round_trip(self):
        wire = json.dumps({"version": propagate.WIRE_VERSION,
                           "parent_span_id": 7,
                           "baggage": {"tenant": "t"},
                           "sampled": False,
                           "sink": None})
        remote = propagate.extract(wire)
        assert remote.parent_span_id == 7
        assert remote.baggage == {"tenant": "t"}
        assert remote.sampled is False
        assert remote.sink is None

    @pytest.mark.parametrize("raw", [
        "",                                     # absent
        "not json {",                           # malformed
        '"just a string"',                      # wrong shape
        '{"version": "pressio-spanwire/2"}',    # future major
        '{"version": "other-wire/1"}',          # alien protocol
        '{}',                                   # missing version
    ])
    def test_extract_degrades_to_none(self, raw):
        assert propagate.extract(raw) is None

    def test_extract_reads_os_environ_by_default(self):
        os.environ[propagate.ENV_VAR] = json.dumps(
            {"version": propagate.WIRE_VERSION, "parent_span_id": 3,
             "baggage": {}, "sampled": True, "sink": None})
        remote = propagate.extract()
        assert remote is not None and remote.parent_span_id == 3


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

class TestChildLifecycle:
    def test_child_scope_installs_fresh_context_with_baggage(self):
        remote = propagate.RemoteParent(parent_span_id=9,
                                        baggage={"tenant": "t"})
        with propagate.child_scope(remote, "worker", tid=1) as ctx:
            assert ctx is not None
            assert active_tracer() is ctx
            assert ctx.baggage["tenant"] == "t"
            assert ctx.baggage["remote_parent_span_id"] == 9
            with ctx.span("work") as sp:
                pass
        root = ctx.roots()
        assert [r.name for r in root] == ["worker"]  # fresh id space
        assert root[0].attrs["tid"] == 1 and root[0].end_ns is not None
        assert sp.parent_id == root[0].span_id
        assert active_tracer() is None  # the scope closed behind itself

    def test_child_scope_resets_fork_inherited_current_span(self):
        # simulate fork(): the parent's ContextVar still points at a
        # span from the parent's id space when the child starts
        parent_ctx = TraceContext("parent")
        enable_tracing(parent_ctx)
        inherited = parent_ctx.start_span("parent-op")
        remote = propagate.RemoteParent(parent_span_id=inherited.span_id)
        with propagate.child_scope(remote, "worker") as child_ctx:
            with child_ctx.span("work"):
                pass
        assert child_ctx.roots()[0].parent_id is None, (
            "child span must not parent onto an id from the "
            "parent's id space")
        assert not any(s.name == "work" for s in parent_ctx.spans())
        assert current_span() is inherited  # restored on exit
        parent_ctx.finish_span(inherited)

    def test_unsampled_or_absent_context_stays_untraced(self):
        with propagate.child_scope(None) as ctx:
            assert ctx is None and active_tracer() is None
        with propagate.child_scope(
                propagate.RemoteParent(sampled=False)) as ctx:
            assert ctx is None

    def test_child_scope_dumps_fragments_to_sink(self, tmp_path):
        sink = str(tmp_path / "frags.jsonl")
        remote = propagate.RemoteParent(sink=sink)
        with pytest.raises(RuntimeError):
            with propagate.child_scope(remote, "worker") as ctx:
                with ctx.span("work"):
                    pass
                raise RuntimeError("the child's work failed")
        lines = propagate.read_fragments(sink)
        assert lines[0]["kind"] == "anchor"
        assert lines[0]["pid"] == os.getpid()
        assert any(ln["kind"] == "span" and ln["name"] == "work"
                   for ln in lines)
        root = [ln for ln in lines if ln.get("name") == "worker"]
        assert root[0]["status"] == "error:RuntimeError"

    def test_child_scope_swallows_sink_write_failure(self, tmp_path):
        remote = propagate.RemoteParent(
            sink=str(tmp_path / "no-such-dir" / "frags.jsonl"))
        with propagate.child_scope(remote, "worker") as ctx:
            with ctx.span("work"):
                pass
        # exiting the scope above must not raise

    def test_read_fragments_skips_torn_lines(self, tmp_path):
        sink = tmp_path / "torn.jsonl"
        sink.write_text('{"kind": "anchor", "pid": 1, "epoch_ns": 0}\n'
                        '{"kind": "span", "span_id": 1, "name": "x",\n')
        lines = propagate.read_fragments(str(sink))
        assert len(lines) == 1 and lines[0]["kind"] == "anchor"


# ---------------------------------------------------------------------------
# stitch
# ---------------------------------------------------------------------------

def _child_fragments(epoch_skew_ns: int = 0):
    """A hand-built child fragment stream with two spans and a counter."""
    child_epoch = (time.time_ns() - time.perf_counter_ns()
                   + epoch_skew_ns)
    now = time.perf_counter_ns() - epoch_skew_ns
    return [
        {"kind": "anchor", "pid": 4242, "epoch_ns": child_epoch},
        {"kind": "span", "span_id": 1, "parent_id": None,
         "name": "worker", "start_ns": now + 1000, "end_ns": now + 9000,
         "thread_id": 1, "attrs": {"k": "v"}, "status": "ok"},
        {"kind": "span", "span_id": 2, "parent_id": 1,
         "name": "stage", "start_ns": now + 2000, "end_ns": now + 5000,
         "thread_id": 1, "attrs": {}, "status": "ok"},
        {"kind": "counter", "name": "items", "value": 3},
    ]


class TestStitch:
    def _invoke(self, ctx):
        invoke = ctx.start_span("invoke")
        time.sleep(0.001)
        ctx.finish_span(invoke)
        return invoke

    def test_remaps_ids_and_reparents_under_invoke(self):
        ctx = TraceContext("parent")
        invoke = self._invoke(ctx)
        adopted = propagate.stitch(ctx, _child_fragments(), invoke)
        assert adopted == 2
        spans = {sp.name: sp for sp in ctx.spans()}
        worker, stage = spans["worker"], spans["stage"]
        assert worker.parent_id == invoke.span_id
        assert stage.parent_id == worker.span_id
        assert worker.span_id != 1 and stage.span_id != 2
        assert worker.attrs["remote_pid"] == 4242
        assert ctx.counters()["items"] == 3
        # the stitched tree renders with the child nested under invoke
        tree = render_tree(ctx)
        assert tree.index("invoke") < tree.index("worker") \
            < tree.index("stage")

    def test_timestamps_clamped_into_invoke_bounds_under_skew(self):
        for skew in (-3_600_000_000_000, 0, 3_600_000_000_000):
            ctx = TraceContext("parent")
            invoke = self._invoke(ctx)
            propagate.stitch(ctx, _child_fragments(epoch_skew_ns=skew),
                             invoke)
            for sp in ctx.spans():
                assert sp.start_ns >= invoke.start_ns
                assert sp.end_ns <= invoke.end_ns
                assert sp.end_ns >= sp.start_ns
            assert ctx.exclusive_invariant_violations() == []

    def test_same_thread_child_shares_invoke_thread(self):
        ctx = TraceContext("parent")
        invoke = self._invoke(ctx)
        propagate.stitch(ctx, _child_fragments(), invoke,
                         same_thread=True)
        worker = next(sp for sp in ctx.spans() if sp.name == "worker")
        assert worker.thread_id == invoke.thread_id

    def test_process_pool_child_gets_synthetic_thread(self):
        ctx = TraceContext("parent")
        invoke = self._invoke(ctx)
        propagate.stitch(ctx, _child_fragments(), invoke,
                         same_thread=False)
        worker = next(sp for sp in ctx.spans() if sp.name == "worker")
        assert worker.thread_id == -4242
        assert worker.thread_name == "pid-4242"

    def test_open_at_dump_span_closed_with_zero_duration(self):
        ctx = TraceContext("parent")
        invoke = self._invoke(ctx)
        frags = _child_fragments()
        frags[1]["end_ns"] = None
        propagate.stitch(ctx, frags, invoke)
        worker = next(sp for sp in ctx.spans() if sp.name == "worker")
        assert worker.status == "open-at-dump"
        assert worker.end_ns == worker.start_ns

    def test_stitch_from_sink_file(self, tmp_path):
        sink = tmp_path / "frags.jsonl"
        sink.write_text("\n".join(json.dumps(ln)
                                  for ln in _child_fragments()) + "\n")
        ctx = TraceContext("parent")
        invoke = self._invoke(ctx)
        assert propagate.stitch(ctx, str(sink), invoke) == 2


# ---------------------------------------------------------------------------
# end to end across real process boundaries
# ---------------------------------------------------------------------------

class TestCrossProcessIntegration:
    def test_external_compressor_yields_one_stitched_tree(self, library):
        ext = library.get_compressor("external")
        assert ext.set_options({
            "external:compressor": "sz",
            "external:config_json": '{"pressio:abs": 1e-4}',
        }) == 0
        rng = np.random.default_rng(3)
        data = PressioData.from_numpy(
            rng.random((16, 16, 16)).astype(np.float64))
        with tracing() as trace:
            compressed = ext.compress(data)
            template = PressioData.empty(data.dtype, data.dims)
            ext.decompress(compressed, template)

        spans = trace.spans()
        by_name = {}
        for sp in spans:
            by_name.setdefault(sp.name, []).append(sp)
        # parent side: one invoke span per operation
        invokes = by_name["external:invoke"]
        assert len(invokes) == 2
        # child side: worker root stitched under each invoke
        workers = by_name["worker"]
        assert len(workers) == 2
        invoke_ids = {sp.span_id for sp in invokes}
        assert all(w.parent_id in invoke_ids for w in workers)
        assert all(w.attrs.get("remote_pid") for w in workers)
        # child stages survive with their own nesting
        assert "worker:read_input" in by_name
        # the child's inner sz compress ran under the worker span tree
        worker_ids = {w.span_id for w in workers}
        child_ops = [sp for sp in spans
                     if sp.name.startswith("compress")
                     and sp.attrs.get("remote_pid")]
        assert child_ops, "inner compress span should be stitched in"
        # the stitched tree satisfies the exclusive-time invariant
        assert trace.exclusive_invariant_violations() == []
        # and renders as ONE tree: child spans nested under invoke
        tree = render_tree(trace)
        assert tree.index("external:invoke") < tree.index("worker")

    def test_process_pool_children_stitch_under_pool_invoke(self, library):
        comp = library.get_compressor("many_independent")
        assert comp.set_options({
            "many_independent:compressor": "zfp",
            "many_independent:mode": "process",
            "many_independent:nthreads": 2,
            "zfp:accuracy": 1e-3,
        }) == 0
        rng = np.random.default_rng(5)
        chunks = [PressioData.from_numpy(rng.random((8, 8, 8)))
                  for _ in range(3)]
        with tracing() as trace:
            comp.compress_many(chunks)
        by_name = {}
        for sp in trace.spans():
            by_name.setdefault(sp.name, []).append(sp)
        invoke = by_name["process_pool:invoke"][0]
        workers = by_name.get("worker", [])
        assert len(workers) == 3
        assert all(w.parent_id == invoke.span_id for w in workers)
        # concurrent children: synthetic per-pid threads, invariant holds
        assert all(w.thread_id < 0 for w in workers)
        assert trace.exclusive_invariant_violations() == []
