"""Span-based tracing and telemetry for the compression pipeline.

Usage::

    from repro.trace import tracing, format_report, render_tree

    with tracing() as trace:
        compressor.compress(data)
        compressor.decompress(compressed, template)
    print(render_tree(trace))      # nested span tree
    print(format_report(trace))    # per-plugin self time / calls / MB/s

Tracing is **zero-cost when disabled**: the instrumented hot paths read
one module global and compare it to ``None``.  The ``trace`` metrics
plugin (registered on import of :mod:`repro.metrics`) offers the same
data through ``get_metrics_results()``, and ``pressio trace`` drives it
from the command line.
"""

from .context import Histogram, Span, TraceContext
from .propagate import (
    child_env,
    child_scope,
    collect_fragments,
    dump_fragments,
    extract,
    serialize_context,
    stitch,
)
from .export import (
    aggregate,
    format_report,
    render_tree,
    write_chrome_trace,
    write_jsonl,
)
from .runtime import (
    active_tracer,
    add_counter,
    annotate,
    current_span,
    disable_tracing,
    enable_tracing,
    observe,
    scoped_tracing,
    stage,
    tracing,
    wrap_task,
)

__all__ = [
    "Span",
    "Histogram",
    "TraceContext",
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
    "aggregate",
    "format_report",
    "render_tree",
    "write_jsonl",
    "write_chrome_trace",
    "serialize_context",
    "child_env",
    "extract",
    "child_scope",
    "collect_fragments",
    "dump_fragments",
    "stitch",
]
