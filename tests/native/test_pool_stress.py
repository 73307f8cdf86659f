"""Buffer pool under contention: threads, processes, and the sanitizer.

The pool's free lists are thread-local and its hit/miss/return counters
are plain module ints bumped under the GIL (see the pool docstring for
why that trade is deliberate), so "consistent" here means *bounded*,
not exact: a preempted read-modify-write can lose an increment but can
never invent one.  These tests hammer acquire/release across size
classes from many threads and from process-pool children and assert

* the counters respect those one-sided bounds and quiesce to values the
  ``pressio_pool_*`` gauges reproduce exactly,
* a single-threaded child process — where no race exists — balances
  exactly and never leaks into the parent's counters,
* cross-thread release parks buffers on the *releasing* thread's lists,
* the whole churn runs clean under the runtime sanitizer (no
  double-release / use-after-release findings from the pool itself).
"""

import concurrent.futures
import multiprocessing
import threading

import numpy as np
import pytest

from repro import obs
from repro.native import pool
from repro.obs import bridge

# spans size classes from 64 B (the floor) through 1.6 MB
SHAPES = [(16,), (96,), (1024,), (5000,), (65536,), (200_000,)]
DTYPES = [np.uint8, np.float32, np.float64]


def _churn(rounds: int, seed: int) -> int:
    """Acquire/overwrite/release across size classes; return acquire count."""
    rng = np.random.default_rng(seed)
    held = []
    for _ in range(rounds):
        shape = SHAPES[int(rng.integers(len(SHAPES)))]
        dt = DTYPES[int(rng.integers(len(DTYPES)))]
        buf = pool.acquire(shape, dt)
        buf[...] = 0  # pooled contents are undefined: fully overwrite
        held.append(buf)
        if len(held) > 4 or rng.integers(2):
            pool.release(held.pop(int(rng.integers(len(held)))))
    pool.release(*held)
    return rounds


def _threaded_churn(nthreads: int, rounds: int) -> int:
    barrier = threading.Barrier(nthreads)

    def work(seed: int) -> None:
        barrier.wait()  # maximize overlap on the counter increments
        _churn(rounds, seed)

    threads = [threading.Thread(target=work, args=(seed,))
               for seed in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return nthreads * rounds


def test_threaded_churn_keeps_counters_and_gauges_consistent():
    pool.clear()
    pool.reset_stats()
    total = _threaded_churn(nthreads=8, rounds=300)

    stats = pool.stats()
    served = stats["hits"] + stats["misses"]
    # lost increments only subtract; wholesale loss would mean the
    # counters are not being bumped at all
    assert served <= total
    assert served >= int(total * 0.9)
    # every release came from an acquire, and returns stop at the
    # per-class cap, so returns can never outrun acquires
    assert 0 <= stats["returned"] <= served
    # worker free lists died with their threads; this thread's are empty
    assert stats["pooled_bytes"] == 0

    # all threads joined, so the gauges must reproduce the counters bit
    # for bit on the next scrape
    reg = obs.MetricsRegistry()
    assert bridge.ingest_runtime(reg) == 4
    assert reg.get("pressio_pool_hits_total").value == stats["hits"]
    assert reg.get("pressio_pool_misses_total").value == stats["misses"]
    assert reg.get("pressio_pool_returns_total").value == stats["returned"]
    assert reg.get("pressio_pool_bytes").value == stats["pooled_bytes"]


def test_cross_thread_release_lands_on_releasing_thread():
    pool.clear()
    pool.reset_stats()
    bufs = [pool.acquire((1024,), np.uint8) for _ in range(4)]
    seen = {}

    def sink() -> None:
        pool.release(*bufs)
        seen.update(pool.stats())

    t = threading.Thread(target=sink)
    t.start()
    t.join()
    # the buffers parked on the sink thread's (now dead) free lists ...
    assert seen["pooled_bytes"] >= 4 * 1024
    assert seen["returned"] == 4
    # ... and never appear on this thread's
    assert pool.stats()["pooled_bytes"] == 0


def _proc_worker(rounds: int, seed: int) -> dict:
    pool.clear()
    pool.reset_stats()
    acquires = _churn(rounds, seed)
    stats = pool.stats()
    stats["acquires"] = acquires
    return stats


def test_process_pool_children_balance_exactly_and_stay_isolated():
    pool.clear()
    pool.reset_stats()
    before = pool.stats()
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        pytest.skip("fork start method unavailable")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, mp_context=ctx) as ex:
        futures = [ex.submit(_proc_worker, 200, 40 + i) for i in range(4)]
        results = [f.result() for f in futures]
    for stats in results:
        # a single-threaded child has no counter races: exact balance
        assert stats["hits"] + stats["misses"] == stats["acquires"]
        assert stats["hits"] <= stats["returned"]
        assert stats["returned"] <= stats["acquires"]
    # child churn is invisible to the parent's counters
    assert pool.stats() == before


def test_threaded_churn_is_clean_under_sanitizer():
    from repro.sanitize import runtime

    owner = not runtime.is_enabled()
    state = runtime.enable() if owner else runtime.ACTIVE
    with state.mutex:
        base = len(state.findings)
    try:
        _threaded_churn(nthreads=4, rounds=150)
        with state.mutex:
            fresh = [f.kind for f in state.findings[base:]]
        # correct pool usage must not trip the pool instrumentation
        assert "double-release" not in fresh
        assert "use-after-release" not in fresh
    finally:
        if owner:
            runtime.disable()
        else:
            with state.mutex:
                del state.findings[base:]
