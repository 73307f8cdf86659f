"""The shared hot-path sentinel for every observer subsystem.

:meth:`repro.core.compressor.PressioCompressor.compress` must stay
zero-cost when nothing is watching: the paper's Fig. 3 overhead numbers
are pinned by ``tests/trace/test_overhead.py`` to within 1 % of the
unguarded operation bodies.  Three observers can watch an operation —
the tracer (:mod:`repro.trace.runtime`, on while any process-wide or
request-scoped tracer is open), the metrics registry
(:mod:`repro.obs.runtime`) and the flight recorder
(:mod:`repro.obs.flight`).  Each reports its state through the one
setter, :func:`set_active`, and the hot path reads the single ``ANY``
flag: one module-global read however many observers exist.

This module imports only the standard library so every runtime can
import it without cycles.
"""

from __future__ import annotations

import os
import threading

__all__ = ["ANY", "set_active"]

#: True while any observer is on.  Written only by :func:`set_active`.
ANY: bool = False

_ON: set[str] = set()
_lock = threading.Lock()


def _fresh_lock() -> None:
    # a fork() may copy the lock held by a thread that does not exist
    # in the child
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock)


def set_active(observer: str, on: bool) -> None:
    """Record whether ``observer`` is on; ``ANY`` follows the union."""
    global ANY
    with _lock:
        if on:
            _ON.add(observer)
        else:
            _ON.discard(observer)
        ANY = bool(_ON)
