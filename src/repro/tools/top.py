"""``pressio top`` — a live terminal dashboard for compression activity.

Like ``top(1)`` for a pressio process: a refreshing table of
per-compressor throughput, operation rates, last compression ratio,
and error counts, plus the buffer-pool gauges and the
flight-recorder status.  Two data sources, one rendering path:

* **in-process** (default) — the ambient :mod:`repro.obs` registry,
  normalized by rendering to Prometheus text and re-parsing it, so
  local and remote frames are computed from the identical shape;
* **remote** (``--url http://host:9100/metrics``) — any ``/metrics``
  endpoint served by :mod:`repro.obs.server`, scraped with
  :func:`repro.obs.prometheus.fetch`.

Rendering is curses-free: plain ANSI escapes (home + clear-to-end per
frame, no alternate screen), degrading to frame-per-block plain text
with ``--no-ansi`` for dumb terminals and CI logs.  Rates are deltas
between consecutive polls divided by the actual elapsed time, so an
irregular poll cadence still reports true per-second numbers.

Examples::

    pressio top --demo                      # self-contained live demo
    pressio top --url http://127.0.0.1:9100/metrics
    pressio top --iterations 3 --no-ansi    # three frames, plain text
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..obs import prometheus as _prom
from ..obs import runtime as _obs_runtime
from ..obs.prometheus import ParsedExposition

__all__ = ["build_top_parser", "run_top", "compute_frame", "render_frame",
           "TopFrame", "CompressorRow"]

_ANSI_HOME = "\x1b[H"
_ANSI_CLEAR_BELOW = "\x1b[J"
_ANSI_HIDE_CURSOR = "\x1b[?25l"
_ANSI_SHOW_CURSOR = "\x1b[?25h"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_CYAN = "\x1b[36m"
_RESET = "\x1b[0m"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_local() -> ParsedExposition | None:
    """Scrape the in-process registry (None when collection is off).

    Parses the same :func:`repro.obs.bridge.exposition` every HTTP
    ``/metrics`` endpoint serves, so a local frame is byte-equivalent
    to scraping this process over the wire.
    """
    registry = _obs_runtime.ACTIVE
    if registry is None:
        return None
    from ..obs import bridge

    return _prom.parse(bridge.exposition(registry))


def sample_remote(url: str) -> ParsedExposition:
    return _prom.fetch(url)


def _active_span_count() -> int | None:
    """Open spans in the in-process tracer; None when no tracer is on."""
    from ..trace import runtime as trace_runtime

    ctx = trace_runtime.active_tracer()
    if ctx is None:
        return None
    return sum(1 for sp in ctx.spans() if sp.end_ns is None)


def _flight_status() -> str:
    from ..obs import flight as _flight

    rec = _flight.ACTIVE
    if rec is None:
        return "off"
    return (f"on ({min(rec._seq, rec.capacity)}/{rec.capacity} events, "
            f"{len(rec.dumps)} dumps)")


# ---------------------------------------------------------------------------
# frame computation
# ---------------------------------------------------------------------------

def _series_sum(doc: ParsedExposition, name: str,
                **match: str) -> dict[str, float]:
    """Sum a family's samples grouped by the ``plugin`` label.

    ``match`` entries must equal the sample's label exactly; labels not
    mentioned are aggregated over (operation, dtype, direction, ...).
    """
    out: dict[str, float] = {}
    for sample in doc.series(name):
        if any(sample.labels.get(k) != v for k, v in match.items()):
            continue
        plugin = sample.labels.get("plugin", sample.labels.get(
            "compressor", ""))
        out[plugin] = out.get(plugin, 0.0) + sample.value
    return out


def _scalar(doc: ParsedExposition, name: str) -> float | None:
    series = doc.series(name)
    if not series:
        return None
    return sum(s.value for s in series)


@dataclass
class CompressorRow:
    plugin: str
    ops_total: float = 0.0
    ops_per_s: float = 0.0
    bytes_per_s: float = 0.0
    last_ratio: float | None = None
    errors_total: float = 0.0
    errors_per_s: float = 0.0


@dataclass
class TopFrame:
    """Everything one refresh displays, already rate-converted."""

    source: str
    at: float
    rows: list[CompressorRow] = field(default_factory=list)
    pool: dict[str, float] = field(default_factory=dict)
    active_spans: int | None = None
    flight: str = "n/a"
    quality_count: float | None = None
    total_ops: float = 0.0
    total_errors: float = 0.0


def compute_frame(doc: ParsedExposition,
                  prev: ParsedExposition | None,
                  elapsed: float, source: str) -> TopFrame:
    """Turn a scrape (plus the previous one) into display rows.

    Counters become per-second rates over ``elapsed``; gauges pass
    through.  A counter that *decreased* (process restarted between
    polls) clamps to zero rather than reporting a negative rate.
    """
    frame = TopFrame(source=source, at=time.time())

    ops = _series_sum(doc, "pressio_operations_total")
    in_bytes = _series_sum(doc, "pressio_processed_bytes_total",
                           direction="in")
    errors = _series_sum(doc, "pressio_errors_total")
    ratios = _series_sum(doc, "pressio_last_compression_ratio")

    prev_ops = _series_sum(prev, "pressio_operations_total") if prev else {}
    prev_bytes = (_series_sum(prev, "pressio_processed_bytes_total",
                              direction="in") if prev else {})
    prev_errors = _series_sum(prev, "pressio_errors_total") if prev else {}

    def rate(cur: float, before: float) -> float:
        if elapsed <= 0:
            return 0.0
        return max(0.0, cur - before) / elapsed

    for plugin in sorted(set(ops) | set(errors)):
        frame.rows.append(CompressorRow(
            plugin=plugin or "(unlabelled)",
            ops_total=ops.get(plugin, 0.0),
            ops_per_s=rate(ops.get(plugin, 0.0), prev_ops.get(plugin, 0.0)),
            bytes_per_s=rate(in_bytes.get(plugin, 0.0),
                             prev_bytes.get(plugin, 0.0)),
            last_ratio=ratios.get(plugin),
            errors_total=errors.get(plugin, 0.0),
            errors_per_s=rate(errors.get(plugin, 0.0),
                              prev_errors.get(plugin, 0.0)),
        ))
    frame.rows.sort(key=lambda r: (-r.ops_per_s, -r.ops_total, r.plugin))
    frame.total_ops = sum(r.ops_total for r in frame.rows)
    frame.total_errors = sum(r.errors_total for r in frame.rows)

    for gauge, key in (("pressio_pool_bytes", "bytes"),
                       ("pressio_pool_hits_total", "hits"),
                       ("pressio_pool_misses_total", "misses")):
        value = _scalar(doc, gauge)
        if value is not None:
            frame.pool[key] = value
    frame.quality_count = _scalar(doc, "pressio_quality_ratio_count")
    return frame


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return (f"{value:.0f}{unit}" if unit == "B"
                    else f"{value:.1f}{unit}")
        value /= 1024.0
    return f"{value:.1f}TiB"


def _fmt_num(value: float | None, digits: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def render_frame(frame: TopFrame, ansi: bool = True) -> str:
    """One frame of the dashboard as a string (no cursor control)."""
    def style(code: str, text: str) -> str:
        return f"{code}{text}{_RESET}" if ansi else text

    clock = time.strftime("%H:%M:%S", time.localtime(frame.at))
    lines = [
        style(_BOLD, f"pressio top - {clock}  source: {frame.source}"),
        (f"ops: {frame.total_ops:.0f} total   "
         f"errors: "
         + (style(_RED, f"{frame.total_errors:.0f}")
            if frame.total_errors else "0")
         + f"   spans active: "
         + ("-" if frame.active_spans is None else str(frame.active_spans))
         + f"   flight: {frame.flight}"),
    ]
    extras = []
    if frame.pool:
        extras.append(
            "pool: " + _fmt_bytes(frame.pool.get("bytes", 0.0))
            + f" held, {frame.pool.get('hits', 0):.0f} hits"
            + f"/{frame.pool.get('misses', 0):.0f} misses")
    if frame.quality_count is not None:
        extras.append(f"quality samples: {frame.quality_count:.0f}")
    if extras:
        lines.append("   ".join(extras))
    lines.append("")

    header = (f"{'COMPRESSOR':<16} {'OPS':>8} {'OPS/S':>8} "
              f"{'THROUGHPUT':>12} {'RATIO':>8} {'ERRS':>6} {'ERR/S':>7}")
    lines.append(style(_CYAN, header))
    if not frame.rows:
        lines.append(style(_DIM, "  (no operations recorded yet)"))
    for row in frame.rows:
        errs = f"{row.errors_total:>6.0f}"
        if row.errors_total and ansi:
            errs = style(_RED, errs)
        lines.append(
            f"{row.plugin:<16} {row.ops_total:>8.0f} "
            f"{row.ops_per_s:>8.1f} {_fmt_bytes(row.bytes_per_s) + '/s':>12} "
            f"{_fmt_num(row.last_ratio):>8} {errs} "
            f"{row.errors_per_s:>7.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# demo workload
# ---------------------------------------------------------------------------

def _start_demo(interval: float) -> threading.Event:
    """Round-trip synthetic data on a daemon thread until told to stop."""
    from ..core.data import PressioData
    from ..core.library import Pressio
    from ..datasets import nyx

    stop = threading.Event()

    def work() -> None:
        library = Pressio()
        compressor = library.get_compressor("sz")
        compressor.set_options({"pressio:abs": 1e-4})
        data = PressioData.from_numpy(nyx((24, 24, 24)), copy=False)
        template = PressioData.empty(data.dtype, data.dims)
        while not stop.is_set():
            compressed = compressor.compress(data)
            compressor.decompress(compressed, template)
            stop.wait(interval)

    threading.Thread(target=work, name="pressio-top-demo",
                     daemon=True).start()
    return stop


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressio top",
        description="live per-compressor activity dashboard "
                    "(in-process registry or a remote /metrics endpoint)",
    )
    parser.add_argument("--url", default=None,
                        help="scrape this /metrics URL instead of the "
                             "in-process registry")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between refreshes (default 1.0)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="render N frames then exit "
                             "(default: until interrupted)")
    parser.add_argument("--no-ansi", action="store_true",
                        help="plain text frames, no cursor control "
                             "(for CI logs and dumb terminals)")
    parser.add_argument("--demo", action="store_true",
                        help="enable metrics and run a synthetic "
                             "round-trip workload in this process")
    return parser


def run_top(argv: list[str]) -> int:
    """The ``pressio top`` subcommand."""
    args = build_top_parser().parse_args(argv)
    ansi = not args.no_ansi and sys.stdout.isatty()
    demo_stop: threading.Event | None = None
    if args.demo:
        if args.url:
            print("error: --demo drives the in-process registry; "
                  "drop --url", file=sys.stderr)
            return 2
        if _obs_runtime.ACTIVE is None:
            _obs_runtime.enable_metrics()
        demo_stop = _start_demo(max(0.05, args.interval / 4))

    prev: ParsedExposition | None = None
    prev_at: float | None = None
    frames = 0
    out = sys.stdout
    try:
        if ansi:
            out.write(_ANSI_HIDE_CURSOR)
        while args.iterations is None or frames < args.iterations:
            if frames:
                time.sleep(args.interval)
            try:
                doc = (sample_remote(args.url) if args.url
                       else sample_local())
            except (OSError, ValueError) as e:
                print(f"error: scraping {args.url}: {e}", file=sys.stderr)
                return 1
            now = time.monotonic()
            if doc is None:
                print("metrics collection is disabled in this process; "
                      "call repro.obs.enable_metrics(), pass --demo, or "
                      "point --url at a serve-metrics endpoint",
                      file=sys.stderr)
                return 1
            elapsed = (now - prev_at) if prev_at is not None else 0.0
            frame = compute_frame(doc, prev, elapsed,
                                  source=args.url or "in-process")
            if not args.url:
                frame.active_spans = _active_span_count()
                frame.flight = _flight_status()
            body = render_frame(frame, ansi=ansi)
            if ansi:
                out.write(_ANSI_HOME + _ANSI_CLEAR_BELOW + body + "\n")
            else:
                out.write(body + "\n\n")
            out.flush()
            prev, prev_at = doc, now
            frames += 1
    except KeyboardInterrupt:
        pass
    finally:
        if ansi:
            out.write(_ANSI_SHOW_CURSOR)
            out.flush()
        if demo_stop is not None:
            demo_stop.set()
    return 0
