"""The one worker pool behind every parallel path.

``chunking``, ``many_independent`` (thread mode) and the ``sz_omp``
slabs all run on a single process-wide ``ThreadPoolExecutor``, created
on first use and sized once from ``os.cpu_count()``.  :func:`map` is the
only way in:

* the caller's ``nthreads`` decides the *decomposition*: tasks are cut
  into ``min(nthreads, len(tasks))`` contiguous groups, and each group
  runs serially on its own clone of the inner plugin, so no clone is
  ever entered by two threads at once;
* the work runs serially on the calling thread when ``nthreads == 1``,
  when there is one task, when the inner plugin does not advertise
  ``ThreadSafety.MULTIPLE``, or when the caller is itself a pool worker
  (a nested meta-compressor), so a pool thread never blocks on the pool;
* a forked child starts with no pool and builds its own on first use.

Pool threads live for the process, so their thread-local
:mod:`repro.native.pool` free lists stay warm from one call to the next.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as _wait

from ..core.configurable import ThreadSafety
from ..trace import runtime as _trace

__all__ = ["map", "submit", "THREAD_NAME_PREFIX"]

#: name prefix of the shared pool's threads (the sanitizer's
#: unjoined-thread check exempts them: they are meant to outlive calls)
THREAD_NAME_PREFIX = "pressio-executor"

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_local = threading.local()


def _mark_worker() -> None:
    _local.worker = True


def _in_worker() -> bool:
    return getattr(_local, "worker", False)


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1,
                thread_name_prefix=THREAD_NAME_PREFIX,
                initializer=_mark_worker)
        return _pool


def _forget_pool() -> None:
    # the parent's worker threads do not exist in a forked child
    global _pool, _pool_lock, _local
    _pool = None
    _pool_lock = threading.Lock()
    _local = threading.local()


os.register_at_fork(after_in_child=_forget_pool)


def submit(fn, *args):
    """Submit one call to the shared pool; every parallel path ends here."""
    return _shared_pool().submit(fn, *args)


def _run_group(fn, worker, group: list) -> list:
    return [fn(worker, task) for task in group]


def map(fn, tasks: list, nthreads: int, inner=None) -> list:
    """``[fn(worker, t) for t in tasks]``, in parallel when safe.

    ``worker`` is ``inner`` on the serial path and a per-group
    ``inner.clone()`` on the parallel one.  Pass ``inner=None`` when the
    tasks share only read-only state (``fn`` then gets ``None``).  When
    tracing is active, the spans the workers open parent under the
    calling thread's current span.
    """
    n = len(tasks)
    parallel = (nthreads > 1 and n > 1 and not _in_worker()
                and (inner is None
                     or inner.get_configuration().get("pressio:thread_safe")
                     == ThreadSafety.MULTIPLE))
    if not parallel:
        _trace.annotate(n_tasks=n, n_workers=1, parallel=False)
        return [fn(inner, task) for task in tasks]
    groups = min(nthreads, n)
    _trace.annotate(n_tasks=n, n_workers=groups, parallel=True)
    run = _trace.wrap_task(_run_group)
    futures = []
    for g in range(groups):
        worker = inner.clone() if inner is not None else None
        futures.append(submit(run, fn, worker,
                              tasks[n * g // groups:n * (g + 1) // groups]))
    # let every group finish before surfacing the first error, so no
    # clone is still working once this call has returned
    _wait(futures)
    results = []
    for fut in futures:
        results.extend(fut.result())
    return results
