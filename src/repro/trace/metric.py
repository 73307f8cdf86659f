"""The ``trace`` metrics plugin: span aggregates as metrics results.

Attaching this plugin to any compressor turns on tracing for that
compressor's operations — no code changes at the call site, the same
zero-intrusion property the other metrics plugins have — and exposes
the per-plugin aggregates through the standard typed
``get_metrics_results()`` interface:

* ``trace:span_count``, ``trace:total_ms`` — whole-trace totals;
* ``trace:<plugin>:calls`` / ``:total_ms`` / ``:self_ms`` /
  ``:bytes_per_s`` — one group per plugin or stage observed.

Options: ``trace:jsonl_path`` and ``trace:chrome_path`` export the
accumulated trace when results are read; ``trace:clear_on_reset``
controls whether ``reset()`` drops collected spans.

If a tracer already covers the call (``repro.trace.tracing()`` around
it, or a served request's scoped tracer), the plugin leaves it in place
and reports from it; otherwise it opens its own context as a
request-scoped tracer (:func:`repro.trace.runtime.scoped_tracing`) for
the duration of each operation.  That scope is visible only to the
operation's own logical context, so another thread compressing at the
same time never lands in this plugin's results.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np

from ..core.metrics import PressioMetrics
from ..core.options import OptionType, PressioOptions
from ..core.registry import metric_plugin
from . import runtime
from .context import Span, TraceContext
from .export import aggregate, write_chrome_trace, write_jsonl

__all__ = ["TraceMetrics"]


@metric_plugin("trace")
class TraceMetrics(PressioMetrics):
    """Collects a span tree for every operation of the owning compressor."""

    def __init__(self) -> None:
        super().__init__()
        self._context = TraceContext()
        self._jsonl_path = ""
        self._chrome_path = ""
        self._clear_on_reset = True
        self._source: TraceContext = self._context
        self._scope: ExitStack | None = None
        self._op_span: Span | None = None

    @property
    def context(self) -> TraceContext:
        """The context results are read from (ambient when one is active)."""
        return self._source

    # -- options ----------------------------------------------------------
    def _options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set("trace:jsonl_path", self._jsonl_path)
        opts.set("trace:chrome_path", self._chrome_path)
        opts.set("trace:clear_on_reset", np.int32(self._clear_on_reset))
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        self._jsonl_path = str(self._take(options, "trace:jsonl_path",
                                          OptionType.STRING, self._jsonl_path))
        self._chrome_path = str(self._take(options, "trace:chrome_path",
                                           OptionType.STRING,
                                           self._chrome_path))
        self._clear_on_reset = bool(self._take(
            options, "trace:clear_on_reset", OptionType.INT32,
            self._clear_on_reset))

    # -- hook plumbing ----------------------------------------------------
    def _begin(self, kind: str, input) -> None:
        ambient = runtime.active_tracer()
        if ambient is not None:
            # a tracer is already collecting the op span opened by the
            # compressor itself; just report from that context
            self._source = ambient
            return
        self._source = self._context
        self._scope = ExitStack()
        self._scope.enter_context(runtime.scoped_tracing(self._context))
        self._op_span = self._scope.enter_context(self._context.span(
            kind,
            input_bytes=input.size_in_bytes,
            dtype=input.dtype.name,
            dims=list(input.dims),
        ))

    def _end(self, output) -> None:
        if self._scope is None:
            return
        if output is not None:
            self._op_span.set_attr("output_bytes", output.size_in_bytes)
        scope, self._scope, self._op_span = self._scope, None, None
        scope.close()

    def begin_compress(self, input) -> None:
        self._begin("compress", input)

    def end_compress(self, input, output) -> None:
        self._end(output)

    def begin_decompress(self, input) -> None:
        self._begin("decompress", input)

    def end_decompress(self, input, output) -> None:
        self._end(output)

    # -- results -----------------------------------------------------------
    def get_metrics_results(self) -> PressioOptions:
        # close a span leaked by an operation that errored between hooks
        self._end(None)
        ctx = self._source
        results = PressioOptions()
        spans = ctx.spans()
        results.set("trace:span_count", np.int64(len(spans)))
        roots = [s for s in spans if s.parent_id is None]
        results.set("trace:total_ms",
                    float(sum(s.duration_ms for s in roots)))
        for key, row in sorted(aggregate(ctx).items()):
            results.set(f"trace:{key}:calls", np.int64(row["calls"]))
            results.set(f"trace:{key}:total_ms", float(row["total_ms"]))
            results.set(f"trace:{key}:self_ms", float(row["self_ms"]))
            results.set(f"trace:{key}:bytes_per_s",
                        float(row["bytes_per_s"]))
        for name, value in sorted(ctx.counters().items()):
            results.set(f"trace:counter:{name}", float(value))
        if self._jsonl_path:
            write_jsonl(ctx, self._jsonl_path)
        if self._chrome_path:
            write_chrome_trace(ctx, self._chrome_path)
        return results

    def reset(self) -> None:
        self._end(None)
        if self._clear_on_reset:
            self._context.clear()
        self._source = self._context
