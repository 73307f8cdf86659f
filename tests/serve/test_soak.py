"""Concurrency soak: many threads, mixed tenants, mixed compressors.

The invariants under load, asserted exactly:

* zero 5xx — every request either succeeds or fails with a *client*
  class error (4xx taxonomy), and in this battery none should fail;
* every result is byte-identical to the single-threaded expectation;
* pool counter arithmetic: ``completed + failed`` equals the number of
  requests that reached the pool, and nothing is left in flight;
* gauge consistency: the health endpoint and the admission controller
  agree after the storm (in-flight back to zero, peak bounded by the
  ceiling);
* traced, with every thread on its own scoped tracer: each response
  carries only its own request's spans.

Runs under ``PRESSIO_SANITIZE=1`` in CI so the dynamic race sanitizer
watches the locks while the storm runs.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.core.data import PressioData
from repro.core.library import Pressio
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeServer
from repro.trace import active_tracer, scoped_tracing
from repro.trace.context import TraceContext

THREADS = 8
REQUESTS_PER_THREAD = 12
COMPRESSORS = ("noop", "sz", "zfp")
TENANTS = ("alpha", "beta", "gamma", "delta")


def _expected_outputs(block: np.ndarray) -> dict[str, bytes]:
    lib = Pressio()
    out: dict[str, bytes] = {}
    for cid in COMPRESSORS:
        plugin = lib.get_compressor(cid)
        data = PressioData.from_numpy(block, copy=False)
        blob = plugin.compress(data)
        res = plugin.decompress(
            blob, PressioData.empty(data.dtype, data.dims))
        out[cid] = bytes(res.as_memoryview())
    return out


def _soak_block() -> np.ndarray:
    rng = np.random.default_rng(20210429)
    return np.ascontiguousarray(
        np.cumsum(rng.standard_normal(1000)).reshape(
            10, 10, 10).astype(np.float32))


def _storm(server: ServeServer, block: np.ndarray,
           expected: dict[str, bytes], traced: bool) -> list[str]:
    """THREADS clients x REQUESTS_PER_THREAD roundtrips; returns errors.

    With ``traced`` every thread records into its own scoped tracer and
    checks, request by request, that the spans stitched back from the
    daemon are that request's alone: one worker root carrying the
    thread's tenant, and operation spans of the requested compressor.
    """
    errors: list[str] = []
    barrier = threading.Barrier(THREADS)

    def own_spans(ctx, seen: int, tenant: str, cid: str) -> str | None:
        remote = [s for s in ctx.spans()[seen:] if "remote_pid" in s.attrs]
        roots = [s.attrs.get("tenant") for s in remote
                 if s.name == "serve:roundtrip"]
        plugins = {s.attrs.get("plugin") for s in remote
                   if s.name in ("compress", "decompress")}
        if roots != [tenant] or plugins != {cid}:
            return f"foreign spans: roots {roots}, plugins {plugins}"
        return None

    def storm(tid: int) -> None:
        # even threads take the shm fast path, odd threads inline;
        # half of the shm threads disable lean replies
        tenant = TENANTS[tid % len(TENANTS)]
        client = ServeClient(port=server.port, tenant=tenant,
                             use_shm=tid % 2 == 0, lean=tid % 4 == 0)
        scope = (scoped_tracing(TraceContext(f"client-{tid}")) if traced
                 else contextlib.nullcontext())
        try:
            barrier.wait(timeout=10)
            with scope as ctx:
                for i in range(REQUESTS_PER_THREAD):
                    cid = COMPRESSORS[(tid + i) % len(COMPRESSORS)]
                    seen = len(ctx.spans()) if traced else 0
                    out, _stats = client.roundtrip(block, cid)
                    if out.tobytes() != expected[cid]:
                        errors.append(
                            f"thread {tid} req {i} ({cid}): wrong bytes")
                    problem = (own_spans(ctx, seen, tenant, cid)
                               if traced else None)
                    if problem:
                        errors.append(f"thread {tid} req {i}: {problem}")
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(f"thread {tid}: {type(exc).__name__}: {exc}")
        finally:
            client.close()

    threads = [threading.Thread(target=storm, args=(t,))
               for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "soak thread hung"
    return errors


def test_soak_mixed_tenants_compressors_and_paths():
    block = _soak_block()
    expected = _expected_outputs(block)
    total = THREADS * REQUESTS_PER_THREAD

    with ServeServer(port=0, workers=4, max_inflight=64) as server:
        assert _storm(server, block, expected, traced=False) == []

        # -- pool counter invariants -----------------------------------
        assert server.pool.completed + server.pool.failed == total
        assert server.pool.failed == 0
        assert server.pool.crashes == 0
        assert server.pool.alive_count() == 4

        # -- admission / gauge consistency -----------------------------
        assert server.admission.inflight == 0
        assert server.admission.shed == 0
        assert 1 <= server.admission.peak <= 64

        # -- quota accounting (disabled -> everything admitted) --------
        assert server.quota.admitted >= total
        assert server.quota.denied == 0

        probe = ServeClient(port=server.port)
        try:
            health = probe.health()
        finally:
            probe.close()
        assert health["inflight"] == 0
        assert health["completed"] == server.pool.completed
        assert health["failed"] == 0


def test_traced_soak_each_response_carries_only_its_own_spans():
    block = _soak_block()
    expected = _expected_outputs(block)
    with ServeServer(port=0, workers=4, max_inflight=64) as server:
        assert _storm(server, block, expected, traced=True) == []
        assert server.pool.completed == THREADS * REQUESTS_PER_THREAD
        assert server.pool.failed == 0
        assert server.admission.inflight == 0
    assert active_tracer() is None


def test_saturation_sheds_cleanly_and_recovers():
    """Past the in-flight ceiling the daemon must shed with the typed
    503 — never hang, never 500 — and serve normally afterwards."""
    from repro.serve.errors import SaturatedError, ServeError

    arr = np.linspace(0, 1, 20000, dtype=np.float64)
    failures: list[str] = []
    shed = threading.Semaphore(0)
    with ServeServer(port=0, workers=1, max_inflight=2) as server:

        def hammer(tid: int) -> None:
            client = ServeClient(port=server.port, tenant=f"t{tid}")
            try:
                for _ in range(6):
                    try:
                        client.roundtrip(arr, "zlib-best")
                    except SaturatedError as e:
                        if not e.retryable or e.retry_after_s is None:
                            failures.append("503 without retry metadata")
                        shed.release()
                    except ServeError as e:
                        failures.append(f"unexpected {e.etype}")
            except Exception as exc:  # noqa: BLE001 - collected
                failures.append(f"{type(exc).__name__}: {exc}")
            finally:
                client.close()

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert failures == []
        assert server.admission.inflight == 0
        # afterwards: an idle daemon serves normally again
        client = ServeClient(port=server.port)
        try:
            out, _ = client.roundtrip(arr, "noop")
            np.testing.assert_array_equal(out, arr)
        finally:
            client.close()
