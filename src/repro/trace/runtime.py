"""Which tracer records a span, and the zero-cost guards around it.

The hot path in :meth:`repro.core.compressor.PressioCompressor.compress`
reads one module global (``ACTIVE``) and compares it to ``None``; when
tracing is disabled that is the *entire* cost, so the Fig. 3 overhead
numbers are unaffected (``tests/trace/test_overhead.py`` pins this).

A tracer is open in one of two ways:

* **process-wide** — :func:`enable_tracing` / :func:`tracing`: every
  thread that has no tracer of its own records into it;
* **request-scoped** — :func:`scoped_tracing`: visible only to the
  logical context (``contextvars``) that opened it, so concurrent
  served requests, or a ``trace`` metrics plugin, each collect only
  their own spans.  A scoped tracer wins over the process-wide one.

``ACTIVE`` is non-None while any tracer is open anywhere in the process;
it is a guard, not a tracer.  :func:`active_tracer` resolves the one the
current context records into.  Helpers here are all safe to call with
tracing disabled — they degrade to no-ops — so instrumentation sites
never need their own guards:

* :func:`stage` — a span context manager (nullcontext when disabled);
* :func:`annotate` — set attributes on the current span;
* :func:`add_counter` / :func:`observe` — counter/histogram forwarding;
* :func:`wrap_task` — carry the current span and scoped tracer across a
  thread boundary so worker-pool spans parent correctly.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Any, Callable, Iterator

from .. import _hot
from .context import _CURRENT_SPAN, Span, TraceContext

__all__ = [
    "ACTIVE",
    "active_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing",
    "scoped_tracing",
    "current_span",
    "stage",
    "annotate",
    "add_counter",
    "observe",
    "wrap_task",
]

#: True while any tracer (process-wide or scoped) is open, else None.
ACTIVE: bool | None = None

#: The request-scoped tracer of the current logical context.
_SCOPED: ContextVar["TraceContext | None"] = ContextVar(
    "repro_trace_scoped", default=None
)

_process_wide: TraceContext | None = None
_open_scopes = 0
_state_lock = threading.Lock()
_NULL_CM = nullcontext()
_KEEP = object()


def _fresh_lock() -> None:
    # a fork() may copy the lock held by a thread that does not exist
    # in the child
    global _state_lock
    _state_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock)


def _update(process_wide: Any = _KEEP, scopes: int = 0,
            ) -> TraceContext | None:
    """Swap the process-wide tracer and/or count scopes opened/closed.

    Returns the prior process-wide tracer; ``ACTIVE`` and ``_hot.ANY``
    follow the new state.
    """
    global ACTIVE, _process_wide, _open_scopes
    with _state_lock:
        previous = _process_wide
        if process_wide is not _KEEP:
            _process_wide = process_wide
        _open_scopes += scopes
        on = _process_wide is not None or _open_scopes > 0
        ACTIVE = True if on else None
        _hot.set_active("tracer", on)
    return previous


def active_tracer() -> TraceContext | None:
    """The tracer this context records into, or None."""
    if ACTIVE is None:
        return None
    ctx = _SCOPED.get()
    return ctx if ctx is not None else _process_wide


def enable_tracing(ctx: TraceContext | None = None) -> TraceContext:
    """Install ``ctx`` (or a fresh context) as the process-wide tracer."""
    if ctx is None:
        ctx = TraceContext()
    _update(ctx)
    return ctx


def disable_tracing() -> TraceContext | None:
    """Remove the process-wide tracer; returns the one that was set."""
    return _update(None)


@contextmanager
def tracing(ctx: TraceContext | None = None) -> Iterator[TraceContext]:
    """Process-wide tracing for the block, then the prior tracer again.

    ::

        with tracing() as trace:
            compressor.compress(data)
        print(format_report(trace))
    """
    if ctx is None:
        ctx = TraceContext()
    previous = _update(ctx)
    try:
        yield ctx
    finally:
        _update(previous)


@contextmanager
def scoped_tracing(ctx: TraceContext | None = None,
                   ) -> Iterator[TraceContext]:
    """Tracing visible only to the current logical context.

    Other threads and requests keep recording into their own tracer (or
    none); executor tasks inherit it through :func:`wrap_task`.
    """
    if ctx is None:
        ctx = TraceContext()
    token = _SCOPED.set(ctx)
    _update(scopes=1)
    try:
        yield ctx
    finally:
        _update(scopes=-1)
        try:
            _SCOPED.reset(token)
        except ValueError:  # closed from a different context; best effort
            _SCOPED.set(None)


def current_span() -> Span | None:
    """The innermost open span, or None (also None when disabled)."""
    if ACTIVE is None:
        return None
    return _CURRENT_SPAN.get()


def stage(name: str, **attrs: Any):
    """A span context manager, or a shared nullcontext when disabled.

    This is the one-liner instrumentation sites use::

        with _trace.stage("transpose:forward", order=order):
            ...
    """
    ctx = active_tracer()
    if ctx is None:
        return _NULL_CM
    return ctx.span(name, **attrs)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the current span (no-op when disabled)."""
    if ACTIVE is None:
        return
    sp = _CURRENT_SPAN.get()
    if sp is not None:
        sp.attrs.update(attrs)


def add_counter(name: str, value: float = 1) -> None:
    """Bump a named counter on this context's tracer (no-op when none)."""
    ctx = active_tracer()
    if ctx is not None:
        ctx.add_counter(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op when disabled)."""
    ctx = active_tracer()
    if ctx is not None:
        ctx.observe(name, value)


def wrap_task(fn: Callable) -> Callable:
    """Carry the caller's current span and scoped tracer into workers.

    ``ContextVar`` state does not cross ``ThreadPoolExecutor`` workers,
    so without this the spans a worker opens would become roots — or
    miss the request's scoped tracer entirely.  The wrapper sets both
    for the duration of each call and resets them after; it does not
    enter a copied ``Context``, because one wrapped function runs on
    several pool threads at once.  When tracing is disabled the original
    callable is returned untouched (zero wrapping cost).
    """
    if ACTIVE is None:
        return fn
    scoped = _SCOPED.get()
    parent = _CURRENT_SPAN.get()

    def run(*args: Any, **kwargs: Any) -> Any:
        scope_token = _SCOPED.set(scoped)
        span_token = _CURRENT_SPAN.set(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT_SPAN.reset(span_token)
            _SCOPED.reset(scope_token)

    return run
