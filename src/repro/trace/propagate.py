"""Cross-process trace propagation: the ``pressio-spanwire/1`` format.

An ``external`` worker or a process-pool child is a separate interpreter
with its own span-id space *and* its own ``perf_counter_ns`` epoch, so a
trace that stops at ``subprocess.run`` leaves the paper's ~17.5 %
out-of-process overhead (Section V(d)) unattributable.  This module
closes the boundary in three steps:

1. **inject** — :func:`serialize_context` / :func:`child_env` encode the
   parent's span id plus request baggage (tenant label, error-bound
   config, sampling decision) and an optional fragment-sink path into
   the ``PRESSIO_TRACE_CONTEXT`` environment variable;
2. **record** — the child calls :func:`extract` and runs its work
   inside :func:`child_scope` (a request-scoped tracer plus a root
   span), then emits its spans either to the sink file
   (:func:`dump_fragments`, JSONL, done by the scope itself) or in-band
   as plain dicts (:func:`collect_fragments`, for process pools and
   serve responses whose return values already cross the boundary);
3. **stitch** — the parent calls :func:`stitch` to adopt the fragments
   into its own :class:`~repro.trace.context.TraceContext`: span ids are
   remapped through :meth:`TraceContext.allocate_span_id`, child roots
   are re-parented under the parent's *invoke* span, and timestamps are
   converted between ``perf_counter_ns`` epochs via the wall-clock
   anchor each fragment stream carries.

Wire format (versioned; see ``docs/OBSERVABILITY.md``):

* env var ``PRESSIO_TRACE_CONTEXT`` — one JSON object::

      {"version": "pressio-spanwire/1", "parent_span_id": 7,
       "baggage": {"tenant": "...", ...}, "sampled": true,
       "sink": "/tmp/.../trace.jsonl"}

* fragment stream — JSONL; first line is a clock anchor
  ``{"kind": "anchor", "pid": ..., "epoch_ns": wall_ns - perf_ns}``,
  then ``span`` / ``counter`` / ``histogram`` lines.

Everything here is standard library only so both sides of any spawn can
import it without cycles.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, TextIO

from .context import _CURRENT_SPAN, Histogram, Span, TraceContext

__all__ = [
    "WIRE_VERSION",
    "ENV_VAR",
    "RemoteParent",
    "serialize_context",
    "child_env",
    "extract",
    "child_scope",
    "collect_fragments",
    "dump_fragments",
    "read_fragments",
    "stitch",
]

#: Versioned wire-format identifier; bump on incompatible change.
WIRE_VERSION = "pressio-spanwire/1"

#: Environment variable carrying the serialized context into children.
ENV_VAR = "PRESSIO_TRACE_CONTEXT"


@dataclass
class RemoteParent:
    """The deserialized inbound wire context, as seen by a child."""

    parent_span_id: int | None = None
    baggage: dict[str, Any] = field(default_factory=dict)
    sampled: bool = True
    sink: str | None = None
    version: str = WIRE_VERSION


# ---------------------------------------------------------------------------
# inject (parent side)
# ---------------------------------------------------------------------------

def serialize_context(sink: str | None = None,
                      sampled: bool = True) -> str | None:
    """The wire string for the current tracing state, or None when off.

    Captures the innermost open span's id and the active context's
    baggage.  ``sink`` names the JSONL path the child should dump span
    fragments to; leave it None when fragments return in-band (process
    pools).
    """
    from . import runtime as _trace

    ctx = _trace.active_tracer()
    if ctx is None:
        return None
    current = ctx.current_span()
    return json.dumps({
        "version": WIRE_VERSION,
        "parent_span_id": current.span_id if current is not None else None,
        "baggage": {k: v for k, v in ctx.baggage.items()
                    if isinstance(v, (str, int, float, bool)) or v is None},
        "sampled": sampled,
        "sink": sink,
    }, separators=(",", ":"))


def child_env(sink: str | None = None,
              environ: dict[str, str] | None = None) -> dict[str, str]:
    """A copy of ``environ`` (default ``os.environ``) with the wire set.

    When tracing is disabled the copy carries no wire variable (and any
    stale one inherited from an outer process is dropped, so a child
    never reports to a dead sink).
    """
    env = dict(os.environ if environ is None else environ)
    wire = serialize_context(sink=sink)
    if wire is None:
        env.pop(ENV_VAR, None)
    else:
        env[ENV_VAR] = wire
    return env


# ---------------------------------------------------------------------------
# extract / record (child side)
# ---------------------------------------------------------------------------

def extract(source: dict[str, str] | str | None = None,
            ) -> RemoteParent | None:
    """Parse the inbound wire context from an environ dict or raw string.

    Returns None when absent, malformed, or from an incompatible wire
    major version — a child must never fail its *real* work because the
    telemetry handshake is broken, so every parse problem degrades to
    "no tracing".
    """
    if source is None or isinstance(source, dict):
        raw = (os.environ if source is None else source).get(ENV_VAR)
    else:
        raw = source
    if not raw:
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    version = str(payload.get("version", ""))
    if version != WIRE_VERSION:
        # "name/major": both parts must match — a child from a future
        # incompatible wire must degrade to untraced, not half-parse
        return None
    parent = payload.get("parent_span_id")
    baggage = payload.get("baggage")
    return RemoteParent(
        parent_span_id=int(parent) if isinstance(parent, int) else None,
        baggage=dict(baggage) if isinstance(baggage, dict) else {},
        sampled=bool(payload.get("sampled", True)),
        sink=payload.get("sink") or None,
        version=version,
    )


@contextmanager
def child_scope(remote: RemoteParent | None, name: str = "child",
                root: str = "worker", **attrs: Any,
                ) -> Iterator[TraceContext | None]:
    """Trace a child's work from an inbound wire context.

    Opens a request-scoped tracer (:func:`repro.trace.runtime.scoped_tracing`)
    carrying the parent's baggage and, inside it, a ``root`` span with
    ``attrs``; yields the tracer, or None when there is no wire context
    or the parent's sampling decision said no.  On exit — success or
    failure — the root span and the scope close and, when the wire names
    a sink, the fragments are dumped there.  In-band callers call
    :func:`collect_fragments` on the yielded tracer after the block.

    Telemetry must never turn a successful operation into a failed one,
    so sink-write problems are counted on the error taxonomy (when a
    registry is active) and otherwise swallowed.
    """
    if remote is None or not remote.sampled:
        yield None
        return
    from . import runtime as _trace

    ctx = TraceContext(name)
    ctx.baggage.update(remote.baggage)
    if remote.parent_span_id is not None:
        ctx.baggage.setdefault("remote_parent_span_id",
                               remote.parent_span_id)
    # a fork()ed child inherits the parent's ContextVar state; without
    # this reset its spans would parent under a span id from the
    # *parent's* id space and cycle after stitching
    token = _CURRENT_SPAN.set(None)
    try:
        with _trace.scoped_tracing(ctx), ctx.span(root, **attrs):
            yield ctx
    finally:
        _CURRENT_SPAN.reset(token)
        if remote.sink is not None:
            try:
                dump_fragments(ctx, remote.sink)
            except OSError as e:
                from ..obs import runtime as _obs

                _obs.record_error("trace-dump", "propagate", e,
                                  sink=remote.sink)


def collect_fragments(ctx: TraceContext) -> list[dict[str, Any]]:
    """The context's spans/counters/histograms as wire-format dicts.

    The first entry is the clock anchor; feed the list straight to
    :func:`stitch` (this is the in-band path for process pools, where
    returning dicts beats a rendezvous file).
    """
    lines: list[dict[str, Any]] = [{
        "kind": "anchor",
        "version": WIRE_VERSION,
        "pid": os.getpid(),
        "epoch_ns": time.time_ns() - time.perf_counter_ns(),
    }]
    for sp in ctx.spans():
        lines.append({"kind": "span", **sp.to_dict()})
    for cname, value in ctx.counters().items():
        lines.append({"kind": "counter", "name": cname, "value": value})
    for hname, hist in ctx.histograms().items():
        lines.append({"kind": "histogram", "name": hname,
                      **hist.to_dict()})
    return lines


def dump_fragments(ctx: TraceContext, sink: str | TextIO) -> None:
    """Write the context's fragments to ``sink`` as JSONL (anchor first)."""
    lines = collect_fragments(ctx)
    if hasattr(sink, "write"):
        for line in lines:
            sink.write(json.dumps(line) + "\n")
        return
    with open(sink, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")


def read_fragments(path: str) -> list[dict[str, Any]]:
    """Parse a fragment sink file, skipping lines that fail to parse.

    A child killed mid-write leaves a torn final line; losing that one
    event beats losing the whole stitch.
    """
    out: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except ValueError:
                continue
            if isinstance(line, dict):
                out.append(line)
    return out


# ---------------------------------------------------------------------------
# stitch (parent side)
# ---------------------------------------------------------------------------

def stitch(ctx: TraceContext,
           fragments: str | Iterable[dict[str, Any]],
           invoke_span: Span,
           same_thread: bool = True) -> int:
    """Adopt child-process fragments into ``ctx`` under ``invoke_span``.

    * span ids are remapped through :meth:`TraceContext.allocate_span_id`
      so they stay unique in the parent's id space;
    * child roots (and spans whose parent is unknown) are re-parented
      under ``invoke_span``;
    * timestamps move between ``perf_counter_ns`` epochs via the child's
      wall-clock anchor, then are clamped inside ``invoke_span``'s
      bounds so the exclusive-time invariant
      (:meth:`TraceContext.exclusive_invariant_violations`) holds even
      under clock skew;
    * ``same_thread=True`` stamps the invoke span's thread id onto the
      child spans — correct for a *synchronous* child (``external``),
      whose wall time the profiler must subtract from the invoke span's
      exclusive time.  Pass False for concurrent children (process
      pools): each child keeps a synthetic per-pid thread id so
      overlapping children never sum past their parent.

    Returns the number of spans adopted.  Counters and histograms merge
    into the parent context under their child names.
    """
    if isinstance(fragments, str):
        fragments = read_fragments(fragments)
    fragments = list(fragments)
    parent_epoch = time.time_ns() - time.perf_counter_ns()
    child_epoch = parent_epoch  # identity mapping until an anchor says else
    child_pid = 0
    for line in fragments:
        if line.get("kind") == "anchor":
            child_epoch = int(line.get("epoch_ns", parent_epoch))
            child_pid = int(line.get("pid", 0))
            break
    offset_ns = child_epoch - parent_epoch

    span_lines = [ln for ln in fragments if ln.get("kind") == "span"]
    id_map: dict[int, int] = {}
    for line in span_lines:
        old = line.get("span_id")
        if isinstance(old, int):
            id_map[old] = ctx.allocate_span_id()

    lo = invoke_span.start_ns
    hi = invoke_span.end_ns if invoke_span.end_ns is not None else None

    def clamp(value: int) -> int:
        value = max(value, lo)
        return min(value, hi) if hi is not None else value

    thread_id = (invoke_span.thread_id if same_thread
                 else -(child_pid or 1))
    adopted = 0
    for line in span_lines:
        old = line.get("span_id")
        if not isinstance(old, int):
            continue
        sp = Span.__new__(Span)
        sp.name = str(line.get("name", "span"))
        sp.span_id = id_map[old]
        old_parent = line.get("parent_id")
        sp.parent_id = id_map.get(old_parent, invoke_span.span_id)
        sp.thread_id = thread_id
        sp.thread_name = (str(line.get("thread_name")
                              or f"pid-{child_pid}")
                          if same_thread else f"pid-{child_pid}")
        # same instant on the parent's clock: wall = perf + epoch holds
        # in each process, so parent_perf = child_perf + (child_epoch -
        # parent_epoch)
        start = int(line.get("start_ns", 0)) + offset_ns
        end_raw = line.get("end_ns")
        end = (int(end_raw) + offset_ns if end_raw is not None
               else start)  # open-at-dump: zero duration, flagged below
        sp.start_ns = clamp(start)
        sp.end_ns = max(clamp(end), sp.start_ns)
        attrs = line.get("attrs")
        sp.attrs = dict(attrs) if isinstance(attrs, dict) else {}
        sp.attrs.setdefault("remote_pid", child_pid)
        sp.status = str(line.get("status", "ok"))
        if end_raw is None:
            sp.status = "open-at-dump"
        sp._token = None
        ctx.adopt_span(sp)
        adopted += 1

    for line in fragments:
        kind = line.get("kind")
        if kind == "counter":
            ctx.add_counter(str(line.get("name", "counter")),
                            float(line.get("value", 0)))
        elif kind == "histogram":
            _merge_histogram(ctx, line)
    return adopted


def _merge_histogram(ctx: TraceContext, line: dict[str, Any]) -> None:
    """Fold a serialized child histogram into the parent's by name."""
    name = str(line.get("name", "histogram"))
    count = int(line.get("count", 0))
    if count <= 0:
        return
    with ctx._lock:
        hist = ctx._histograms.get(name)
        if hist is None:
            hist = ctx._histograms[name] = Histogram()
        hist.count += count
        hist.total += float(line.get("sum", 0.0))
        cmin, cmax = line.get("min"), line.get("max")
        if cmin is not None:
            hist.min = min(hist.min, float(cmin))
        if cmax is not None:
            hist.max = max(hist.max, float(cmax))
        buckets = line.get("buckets")
        if isinstance(buckets, dict):
            for key, n in buckets.items():
                try:
                    bucket = int(key)
                except ValueError:
                    continue
                hist.buckets[bucket] = hist.buckets.get(bucket, 0) + int(n)
