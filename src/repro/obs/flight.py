"""Always-on flight recorder: a crash-forensics ring buffer.

Traces and metrics answer "how is the system doing"; the flight
recorder answers "what were the last things that happened before it
went wrong" — after the fact, without having had tracing enabled in
advance of the failure.  It keeps a fixed-size ring of recent events
(closed spans, operation records, metric deltas, taxonomy errors) and
dumps a timestamped JSON bundle when:

* an unhandled exception reaches ``sys.excepthook``;
* the process receives ``SIGUSR2`` (dump-and-continue, for a live hang);
* a :class:`~repro.core.status.CorruptStreamError` is recorded on the
  error taxonomy (the "wrong bytes came back" emergency).

Cost model: when the recorder is disabled, the hot path pays the single
:data:`repro._hot.ANY` read it already paid — there is no second
sentinel.  When enabled, :meth:`FlightRecorder.record` is one dict
build and one list-slot store; the ring is *best-effort lock-free*:
concurrent writers may race a sequence number and overwrite one
another's slot, losing an event rather than blocking an operation.

The module is a dependency leaf (standard library + :mod:`repro._hot`),
so any layer — core, trace, obs, meta — may import it without cycles;
the span tap into :data:`repro.trace.context.SPAN_SINK` is installed
lazily at :func:`enable_flight` time.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import traceback
from typing import Any

from .. import _hot

__all__ = [
    "ACTIVE",
    "FlightRecorder",
    "enable_flight",
    "disable_flight",
    "flight_recording",
    "replay",
]

#: Bundle schema identifier; bump on incompatible change.
BUNDLE_SCHEMA = "pressio-flight/1"

#: The active recorder, or None when flight recording is disabled.
ACTIVE: "FlightRecorder | None" = None

_prev_excepthook = None
_prev_sigusr2 = None


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class FlightRecorder:
    """Fixed-capacity ring of recent observability events.

    ``capacity`` bounds memory; once full, each new event overwrites the
    oldest.  :meth:`snapshot` returns surviving events in sequence
    order; :meth:`dump` serializes them (plus the triggering exception,
    when any) into a timestamped bundle under :attr:`dump_dir`.
    """

    def __init__(self, capacity: int = 1024,
                 dump_dir: str | None = None) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.dump_dir = dump_dir or os.getcwd()
        self._ring: list[dict[str, Any] | None] = [None] * capacity
        self._seq = 0
        #: paths of bundles written by this recorder, oldest first.
        self.dumps: list[str] = []
        #: epoch at creation so bundle readers can map perf -> wall.
        self.epoch_ns = time.time_ns() - time.perf_counter_ns()

    # -- recording --------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> None:
        """Append one event; never blocks, never raises on field content.

        Best-effort lock-free: two threads may observe the same sequence
        number and one event wins the slot — an acceptable loss for a
        forensic buffer that must never stall an operation.
        """
        seq = self._seq
        self._seq = seq + 1
        entry = {"seq": seq, "kind": kind,
                 "perf_ns": time.perf_counter_ns(),
                 "thread_id": threading.get_ident()}
        for key, value in fields.items():
            entry[key] = _jsonable(value)
        self._ring[seq % self.capacity] = entry

    def record_span(self, sp: Any) -> None:
        """Span tap installed as :data:`repro.trace.context.SPAN_SINK`."""
        self.record("span", name=sp.name, span_id=sp.span_id,
                    parent_id=sp.parent_id, thread=sp.thread_id,
                    start_ns=sp.start_ns, end_ns=sp.end_ns,
                    duration_ns=sp.duration_ns, status=sp.status,
                    attrs=sp.attrs)

    def record_error(self, operation: str, plugin: str,
                     exc: BaseException, extra: dict[str, Any]) -> None:
        """Taxonomy tap mirrored from :func:`repro.obs.runtime.record_error`."""
        self.record("error", operation=operation, plugin=plugin,
                    etype=type(exc).__name__, message=str(exc),
                    extra=extra)

    # -- inspection -------------------------------------------------------
    def snapshot(self) -> list[dict[str, Any]]:
        """Surviving events, oldest first (a point-in-time copy)."""
        entries = [e for e in self._ring if e is not None]
        entries.sort(key=lambda e: e["seq"])
        return entries

    # -- dumping ----------------------------------------------------------
    def dump(self, reason: str,
             exc: BaseException | None = None) -> str | None:
        """Write a bundle and return its path (None if the write failed).

        The recorder must never convert a recoverable situation into an
        unrecoverable one, so filesystem failures are swallowed after a
        taxonomy count.
        """
        bundle = {
            "schema": BUNDLE_SCHEMA,
            "reason": reason,
            "pid": os.getpid(),
            "wall_time_ns": time.time_ns(),
            "epoch_ns": self.epoch_ns,
            "capacity": self.capacity,
            "events_recorded": self._seq,
            "events": self.snapshot(),
        }
        if exc is not None:
            bundle["exception"] = {
                "etype": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exception(
                    type(exc), exc, exc.__traceback__),
            }
        path = os.path.join(
            self.dump_dir,
            f"flight_{time.strftime('%Y%m%dT%H%M%S')}"
            f"_{os.getpid()}_{self._seq}.json")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(bundle, fh, indent=1)
        except OSError as e:
            from . import runtime as _obs

            _obs.record_error("flight-dump", "flight", e, path=path)
            return None
        self.dumps.append(path)
        return path


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def enable_flight(capacity: int = 1024, dump_dir: str | None = None,
                  install_hooks: bool = True) -> FlightRecorder:
    """Activate a recorder; optionally install crash/signal dump hooks.

    With ``install_hooks`` (the default) an unhandled exception reaching
    ``sys.excepthook`` dumps a bundle before delegating to the previous
    hook, and ``SIGUSR2`` dumps-and-continues (only from the main
    thread, where the signal module allows handler installation).
    """
    global ACTIVE, _prev_excepthook, _prev_sigusr2
    recorder = FlightRecorder(capacity=capacity, dump_dir=dump_dir)
    ACTIVE = recorder
    _hot.set_active("flight", True)
    from ..trace import context as _tcontext

    _tcontext.SPAN_SINK = recorder.record_span
    if install_hooks:
        _prev_excepthook = sys.excepthook

        def _flight_excepthook(etype, value, tb):
            rec = ACTIVE
            if rec is not None:
                rec.record("unhandled", etype=etype.__name__,
                           message=str(value))
                rec.dump("unhandled-exception", exc=value)
            (_prev_excepthook or sys.__excepthook__)(etype, value, tb)

        sys.excepthook = _flight_excepthook
        if threading.current_thread() is threading.main_thread():
            try:
                _prev_sigusr2 = signal.signal(
                    signal.SIGUSR2, _sigusr2_handler)
            except (ValueError, OSError, AttributeError):
                # non-main interpreter thread or a platform without
                # SIGUSR2; the excepthook/taxonomy triggers still work
                _prev_sigusr2 = None
    return recorder


def _sigusr2_handler(signum, frame) -> None:
    rec = ACTIVE
    if rec is not None:
        rec.record("signal", signum=signum)
        rec.dump("sigusr2")


def disable_flight() -> FlightRecorder | None:
    """Deactivate and uninstall hooks; returns the previous recorder."""
    global ACTIVE, _prev_excepthook, _prev_sigusr2
    previous = ACTIVE
    ACTIVE = None
    _hot.set_active("flight", False)
    from ..trace import context as _tcontext

    if getattr(_tcontext.SPAN_SINK, "__self__", None) is previous:
        _tcontext.SPAN_SINK = None
    if _prev_excepthook is not None:
        sys.excepthook = _prev_excepthook
        _prev_excepthook = None
    if (_prev_sigusr2 is not None
            and threading.current_thread() is threading.main_thread()):
        try:
            signal.signal(signal.SIGUSR2, _prev_sigusr2)
        except (ValueError, OSError):
            pass
        _prev_sigusr2 = None
    return previous


class flight_recording:
    """Scoped recorder: ``with flight_recording() as rec: ...``."""

    def __init__(self, capacity: int = 1024,
                 dump_dir: str | None = None,
                 install_hooks: bool = False) -> None:
        self._args = (capacity, dump_dir, install_hooks)
        self.recorder: FlightRecorder | None = None

    def __enter__(self) -> FlightRecorder:
        self.recorder = enable_flight(*self._args)
        return self.recorder

    def __exit__(self, *exc_info: Any) -> None:
        disable_flight()


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay(bundle: str | dict[str, Any]):
    """Rebuild a :class:`~repro.trace.context.TraceContext` from a bundle.

    Span events become closed spans with their original ids and
    timestamps, so a dumped bundle flows through the existing trace
    exporters (``render_tree``, ``write_chrome_trace``, ``aggregate``)
    exactly like a live capture.  Error events become counters named
    ``flight:error:<etype>``.
    """
    from ..trace.context import Span, TraceContext

    if isinstance(bundle, str):
        with open(bundle, "r", encoding="utf-8") as fh:
            bundle = json.load(fh)
    ctx = TraceContext("flight-replay")
    max_id = 0
    for event in bundle.get("events", []):
        kind = event.get("kind")
        if kind == "span":
            sp = Span.__new__(Span)
            sp.name = str(event.get("name", "span"))
            sp.span_id = int(event.get("span_id", 0))
            parent = event.get("parent_id")
            sp.parent_id = int(parent) if parent is not None else None
            sp.thread_id = int(event.get("thread", 0))
            sp.thread_name = f"flight-{sp.thread_id}"
            sp.start_ns = int(event.get("start_ns", 0))
            end = event.get("end_ns")
            sp.end_ns = int(end) if end is not None else sp.start_ns
            attrs = event.get("attrs")
            sp.attrs = dict(attrs) if isinstance(attrs, dict) else {}
            sp.status = str(event.get("status", "ok"))
            sp._token = None
            ctx.adopt_span(sp)
            max_id = max(max_id, sp.span_id)
        elif kind == "error":
            ctx.add_counter(
                f"flight:error:{event.get('etype', 'Exception')}")
        elif kind == "operation":
            ctx.add_counter(
                f"flight:operation:{event.get('operation', 'op')}")
    ctx._next_span_id = max_id + 1
    return ctx
