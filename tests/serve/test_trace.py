"""``pressio-spanwire/1`` propagation across the serve socket.

A traced client request must produce ONE span tree: the client's
``serve:<op>`` invoke span with the worker's spans stitched underneath,
ids remapped and timestamps clamped — exactly the contract the
cross-process propagation tests pin, but here over a live daemon.

The daemon runs each traced request under a tracer scoped to that
request, so its fragments never pick up another tenant's spans, and
traced requests run concurrently rather than one at a time.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.meta.executor import THREAD_NAME_PREFIX
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeServer
from repro.trace import disable_tracing, enable_tracing, tracing
from repro.trace.context import TraceContext
from repro.trace.propagate import ENV_VAR


@pytest.fixture(autouse=True)
def _clean_tracer():
    disable_tracing()
    yield
    disable_tracing()


def test_traced_roundtrip_stitches_worker_spans(server):
    arr = np.linspace(0, 1, 256, dtype=np.float32)
    ctx = TraceContext("client")
    enable_tracing(ctx)
    client = ServeClient(port=server.port, use_shm=False)
    try:
        out, _stats = client.roundtrip(arr, "sz")
        np.testing.assert_array_equal(out.shape, arr.shape)
    finally:
        client.close()
        disable_tracing()

    spans = ctx.spans()
    # the stitcher marks adopted spans with the worker's pid; the
    # client-side invoke span has no such attribute
    invokes = [s for s in spans if s.name == "serve:roundtrip"
               and "remote_pid" not in s.attrs]
    remote = [s for s in spans if "remote_pid" in s.attrs]
    assert len(invokes) == 1, [s.name for s in spans]
    invoke = invokes[0]
    assert remote, "no worker-side span was stitched into the tree"
    assert invoke.attrs.get("remote_spans", 0) >= 1
    # stitched children hang under the invoke span with remapped parents
    assert any(s.parent_id == invoke.span_id for s in remote)


def test_traced_shm_request_disables_lean_but_stays_correct(server):
    # the shm fast path refuses traced requests (lean replies carry no
    # fragments); tracing must transparently fall back and still work
    arr = np.arange(512, dtype=np.float64)
    ctx = TraceContext("client")
    enable_tracing(ctx)
    client = ServeClient(port=server.port, use_shm=True)
    try:
        out, _ = client.roundtrip(arr, "noop")
        np.testing.assert_array_equal(out, arr)
    finally:
        client.close()
        disable_tracing()
    assert any(s.name == "serve:roundtrip" for s in ctx.spans())


def test_untraced_requests_carry_no_fragments(server):
    arr = np.arange(64, dtype=np.float32)
    client = ServeClient(port=server.port, lean=False)
    try:
        from repro.serve.wire import Request

        resp = client._call(Request(
            op="roundtrip", compressor="noop", dtype=str(arr.dtype),
            dims=arr.shape, payload=arr.tobytes()))
        assert resp.ok and not resp.fragments
    finally:
        client.close()


# ---------------------------------------------------------------------------
# request isolation: a served request's tracer is visible to it alone
# ---------------------------------------------------------------------------

_UNTRACED_TENANT = """
import sys, time
import numpy as np
from repro.serve.client import ServeClient

client = ServeClient(port=int(sys.argv[1]), tenant="untraced",
                     use_shm=False)
arr = np.random.default_rng(1).random((24, 24, 24)).astype(np.float32)
print("ready", flush=True)
deadline = time.monotonic() + 60
while time.monotonic() < deadline:
    client.compress(arr, "zfp")
"""


@contextlib.contextmanager
def _untraced_tenant(server):
    """Another process looping untraced 24^3 zfp compresses at ``server``."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    env.pop(ENV_VAR, None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _UNTRACED_TENANT, str(server.port)],
        stdout=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline().strip() == b"ready"
        _wait_for_completions(server, 3)
        yield
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def _wait_for_completions(server, n: int) -> None:
    target = server.pool.completed + n
    deadline = time.monotonic() + 30
    while server.pool.completed < target:
        assert time.monotonic() < deadline, "untraced tenant made no progress"
        time.sleep(0.01)


def _remote(ctx: TraceContext) -> list:
    return [s for s in ctx.spans() if "remote_pid" in s.attrs]


@pytest.mark.slow
def test_traced_request_fragments_hold_only_its_own_spans():
    rng = np.random.default_rng(3)
    field = rng.random((64, 64, 64)).astype(np.float32)
    ctx = TraceContext("client")
    with ServeServer(port=0, workers=2) as server, _untraced_tenant(server):
        client = ServeClient(port=server.port, use_shm=False)
        try:
            before = server.pool.completed
            with tracing(ctx):
                for _ in range(5):
                    client.compress(field, "sz", {"pressio:abs": 1e-4})
            overlapped = server.pool.completed - before - 5
        finally:
            client.close()
    assert overlapped > 0, "the untraced tenant never ran alongside"
    remote = _remote(ctx)
    ops = [s for s in remote if s.name == "compress"]
    assert len(ops) == 5
    foreign = [(s.name, s.attrs.get("plugin")) for s in remote
               if s.attrs.get("plugin") == "zfp" or s.name.startswith("zfp:")]
    assert foreign == []


def test_concurrent_traced_requests_overlap(server):
    rng = np.random.default_rng(4)
    field = rng.random((64, 64, 64)).astype(np.float32)
    ctx = TraceContext("client")
    barrier = threading.Barrier(2)
    errors: list[str] = []

    def caller() -> None:
        client = ServeClient(port=server.port, use_shm=False)
        try:
            barrier.wait(timeout=10)
            for _ in range(4):
                client.compress(field, "zfp", {"pressio:abs": 1e-4})
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            client.close()

    with tracing(ctx):
        threads = [threading.Thread(target=caller) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert errors == []
    served = sorted((s for s in _remote(ctx) if s.name == "serve:compress"),
                    key=lambda s: s.start_ns)
    assert any(later.start_ns < earlier.end_ns
               for earlier, later in zip(served, served[1:])), (
        "traced requests ran strictly one after another")
    assert len(served) == 8


@pytest.mark.slow
def test_chunking_in_traced_request_is_one_tree(server):
    rng = np.random.default_rng(5)
    field = rng.random((32, 32, 32)).astype(np.float32)
    options = {"chunking:compressor": "zfp", "chunking:nthreads": 4,
               "chunking:chunk_size": 4096, "pressio:abs": 1e-4}
    ctx = TraceContext("client")
    with _untraced_tenant(server):
        client = ServeClient(port=server.port, use_shm=False)
        try:
            with tracing(ctx):
                client.compress(field, "chunking", options)
        finally:
            client.close()
    # the in-process daemon records the other tenant's untraced calls
    # into the process-wide tracer as roots of their own; the request's
    # stitched fragments must form one tree under the client's invoke
    by_id = {s.span_id: s for s in ctx.spans()}
    invoke = [s for s in ctx.roots() if s.name == "serve:compress"]
    assert len(invoke) == 1

    def chain(sp):
        names = []
        while sp.parent_id is not None:
            sp = by_id[sp.parent_id]
            names.append((sp.name, sp.attrs.get("plugin")))
        assert sp is invoke[0]
        return names

    remote = _remote(ctx)
    leaves = [s for s in remote
              if s.name == "compress" and s.attrs.get("plugin") == "zfp"]
    assert len(leaves) == field.size // 4096
    for leaf in leaves:
        assert chain(leaf) == [("compress", "chunking"),
                               ("serve:compress", None),
                               ("serve:compress", None)], chain(leaf)
    pooled = [s for s in leaves
              if s.thread_name.startswith(THREAD_NAME_PREFIX)]
    assert pooled, "no chunk ran on the shared executor"
