"""Span-based tracing primitives: :class:`Span` and :class:`TraceContext`.

The paper's headline performance claim (Fig. 3) is that the generic
interface adds < 0.5 % median overhead over the native compressor APIs.
Defending that number as pipelines grow (chunking -> transpose ->
parallel dispatch -> leaf compressor) requires attributing time to the
*stage* that spent it.  This module provides the measurement substrate:

* :class:`Span` — one timed operation with monotonic ``perf_counter_ns``
  endpoints, a parent/child id pair, and the thread it ran on;
* :class:`TraceContext` — a thread-safe collector of spans plus
  lightweight named counters and log2-bucketed histograms.

Everything here depends only on the standard library so the core
compressor path can import it without cycles.  The *active* context and
the zero-cost-when-disabled guard live in :mod:`repro.trace.runtime`;
exporters live in :mod:`repro.trace.export`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = ["Span", "Histogram", "TraceContext", "SPAN_SINK"]

#: The innermost open span of the current logical context.  Module-level
#: (not per-TraceContext) because each logical context records into one
#: tracer (:func:`repro.trace.runtime.active_tracer`) and per-instance
#: ContextVars are not collected promptly.
_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_trace_current_span", default=None
)

#: Optional tap invoked with every span as it closes (after its end
#: timestamp and status are final).  Installed by the flight recorder
#: (:mod:`repro.obs.flight`) — the dependency is inverted through this
#: hook because :mod:`repro.obs` imports :mod:`repro.trace` and a
#: forward import here would cycle.  Must never raise.
SPAN_SINK: "Any | None" = None


class Span:
    """One timed operation in the trace tree.

    Timestamps come from ``time.perf_counter_ns`` — the monotonic
    high-resolution clock, matching the paper's methodology
    (``std::chrono::steady_clock``).
    """

    __slots__ = ("name", "span_id", "parent_id", "thread_id", "thread_name",
                 "start_ns", "end_ns", "attrs", "status", "_token")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 attrs: dict[str, Any]):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        self.start_ns = time.perf_counter_ns()
        self.end_ns: int | None = None
        self.attrs = attrs
        self.status = "open"
        self._token = None

    # -- timing -----------------------------------------------------------
    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        return end - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def is_open(self) -> bool:
        return self.end_ns is None

    # -- attributes -------------------------------------------------------
    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (used by the JSONL exporter)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns if self.end_ns is not None else None,
            "status": self.status,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.name!r} id={self.span_id} "
                f"parent={self.parent_id} {self.duration_ms:.3f}ms>")


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return str(value)


class Histogram:
    """A log2-bucketed histogram of non-negative observations.

    Buckets are ``[2^k, 2^(k+1))``; only count/sum/min/max and the
    bucket array are kept, so recording is O(1) and allocation-free.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = max(0, int(value).bit_length()) if value >= 1 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class TraceContext:
    """A thread-safe collector of spans, counters, and histograms.

    All mutation goes through a single lock; span begin/end additionally
    maintain the per-logical-context "current span" used for automatic
    parenting, so nested ``span()`` calls on one thread — or on worker
    threads that were handed the parent via
    :func:`repro.trace.runtime.wrap_task` — form a correct tree.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._next_span_id = 1
        #: Request-scoped key/value pairs carried across process
        #: boundaries (tenant label, error-bound config, sampling
        #: decision).  Serialized by :mod:`repro.trace.propagate`.
        self.baggage: dict[str, Any] = {}

    # -- span lifecycle ---------------------------------------------------
    def start_span(self, name: str, **attrs: Any) -> Span:
        """Open a span parented to the current span and make it current.

        Prefer the :meth:`span` context manager; this begin/end pair
        exists for hook-style callers (the ``trace`` metrics plugin)
        whose open and close sites are separate callbacks.
        """
        parent = _CURRENT_SPAN.get()
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        sp = Span(name, span_id,
                  parent.span_id if parent is not None else None, attrs)
        sp._token = _CURRENT_SPAN.set(sp)
        with self._lock:
            self._spans.append(sp)
        return sp

    def finish_span(self, sp: Span, status: str = "ok") -> None:
        """Close ``sp`` and restore its parent as the current span."""
        if sp.end_ns is not None:
            return
        sp.end_ns = time.perf_counter_ns()
        sp.status = status
        if sp._token is not None:
            try:
                _CURRENT_SPAN.reset(sp._token)
            except ValueError:  # closed from a different context; best effort
                _CURRENT_SPAN.set(None)
            sp._token = None
        sink = SPAN_SINK
        if sink is not None:
            sink(sp)

    # -- stitching support ------------------------------------------------
    def allocate_span_id(self) -> int:
        """Reserve a fresh span id (used when adopting remote spans)."""
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        return span_id

    def adopt_span(self, sp: Span) -> None:
        """Append an externally constructed, already-closed span.

        The caller is responsible for having remapped ``span_id`` /
        ``parent_id`` via :meth:`allocate_span_id` so ids stay unique
        within this context (:mod:`repro.trace.propagate` does this when
        stitching child-process fragments).
        """
        with self._lock:
            self._spans.append(sp)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Context manager opening a child span of the current span."""
        sp = self.start_span(name, **attrs)
        try:
            yield sp
        except BaseException as e:
            self.finish_span(sp, status=f"error:{type(e).__name__}")
            raise
        else:
            self.finish_span(sp, status="ok")

    @staticmethod
    def current_span() -> Span | None:
        return _CURRENT_SPAN.get()

    # -- counters / histograms -------------------------------------------
    def add_counter(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    # -- tree queries -----------------------------------------------------
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def roots(self) -> list[Span]:
        return [s for s in self.spans() if s.parent_id is None]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def self_time_ns(self, span: Span) -> int:
        """Span duration minus its direct children's durations (>= 0)."""
        child_ns = sum(c.duration_ns for c in self.children(span))
        return max(0, span.duration_ns - child_ns)

    def exclusive_invariant_violations(self,
                                       tolerance_ns: int = 50_000,
                                       ) -> list[str]:
        """Spans whose direct children's inclusive time exceeds their own.

        The aggregate report's ``self_ms`` column silently clamps
        negative self time to zero, which *hides* a broken parenting
        relationship (two spans claiming the same wall time — the
        double-count a re-entrant or cross-thread misparented span
        produces) instead of surfacing it.  This check makes the
        invariant explicit: for every closed span, the sum of its
        direct children's durations must not exceed the parent's
        inclusive duration by more than ``tolerance_ns``.

        Children recorded on a *different* thread than their parent are
        excluded — a parallel meta-compressor legitimately runs several
        child spans concurrently inside one parent, so their durations
        may sum past the parent's wall time without any double count.

        Returns human-readable violation descriptions (empty when the
        tree is consistent).  The stage profiler asserts this before
        trusting exclusive-time attribution.
        """
        spans = self.spans()
        by_parent: dict[int | None, list[Span]] = {}
        for sp in spans:
            by_parent.setdefault(sp.parent_id, []).append(sp)
        violations: list[str] = []
        for sp in spans:
            if sp.end_ns is None:
                continue
            same_thread = [c for c in by_parent.get(sp.span_id, [])
                           if c.end_ns is not None
                           and c.thread_id == sp.thread_id]
            child_ns = sum(c.duration_ns for c in same_thread)
            if child_ns > sp.duration_ns + tolerance_ns:
                violations.append(
                    f"span {sp.name!r} (id={sp.span_id}): children sum "
                    f"{child_ns / 1e6:.3f}ms exceeds inclusive "
                    f"{sp.duration_ns / 1e6:.3f}ms by "
                    f"{(child_ns - sp.duration_ns) / 1e6:.3f}ms"
                )
        return violations

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._counters.clear()
            self._histograms.clear()
