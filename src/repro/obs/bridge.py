"""Bridges from existing measurement sources into the metrics registry.

The registry (:mod:`repro.obs.registry`) is the *one* namespace a
scraper sees; this module maps the two measurement systems that predate
it onto that namespace:

* :func:`ingest_trace` — the per-plugin trace aggregate report
  (:func:`repro.trace.aggregate`) becomes ``pressio_trace_*`` gauges, so
  a scrape of a traced process shows the same calls/self-time/throughput
  table ``pressio trace`` prints;
* :func:`ingest_metrics_results` — the typed results of the ``time`` /
  ``size`` (or any other) metrics plugin become ``pressio_metric_*``
  gauges labelled by plugin, joining per-operation wall totals and
  compression ratios into the same scrape;
* :func:`ingest_profile` — a stage-profile artifact
  (:meth:`repro.profile.StageProfiler.result`) becomes
  ``pressio_profile_*`` gauges labelled by stage path, so the last
  profile's attribution table is scrapeable next to the trace gauges.

Both are idempotent refreshes: gauges are *set*, not incremented, so
re-ingesting after every operation (what the metrics server does for
the ambient trace context) converges instead of double counting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import prometheus, runtime
from .registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..core.options import PressioOptions
    from ..trace.context import TraceContext

__all__ = ["ingest_trace", "ingest_metrics_results", "ingest_profile",
           "ingest_runtime", "exposition"]


def _target(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    return registry if registry is not None else runtime.ACTIVE


def ingest_trace(ctx: "TraceContext",
                 registry: MetricsRegistry | None = None) -> int:
    """Refresh ``pressio_trace_*`` gauges from a trace context.

    Returns the number of aggregate rows ingested (0 when no registry
    is active and none was passed).
    """
    reg = _target(registry)
    if reg is None:
        return 0
    from ..trace.export import aggregate

    rows = aggregate(ctx)
    calls = reg.gauge("pressio_trace_calls",
                      "span count per plugin/stage in the active trace",
                      ("plugin",))
    total = reg.gauge("pressio_trace_total_ms",
                      "total wall time per plugin/stage (ms)", ("plugin",))
    self_ms = reg.gauge("pressio_trace_self_ms",
                        "self wall time per plugin/stage (ms)", ("plugin",))
    rate = reg.gauge("pressio_trace_bytes_per_second",
                     "uncompressed-side throughput per plugin/stage",
                     ("plugin",))
    errors = reg.gauge("pressio_trace_errors",
                       "error-status span count per plugin/stage",
                       ("plugin",))
    for plugin, row in rows.items():
        calls.labels(plugin=plugin).set(row["calls"])
        total.labels(plugin=plugin).set(row["total_ms"])
        self_ms.labels(plugin=plugin).set(row["self_ms"])
        rate.labels(plugin=plugin).set(row["bytes_per_s"])
        errors.labels(plugin=plugin).set(row["errors"])
    counter_gauge = reg.gauge("pressio_trace_counter",
                              "named counters from the active trace",
                              ("name",))
    for name, value in ctx.counters().items():
        counter_gauge.labels(name=name).set(value)
    return len(rows)


def ingest_profile(profile: dict, registry: MetricsRegistry | None = None
                   ) -> int:
    """Refresh ``pressio_profile_*`` gauges from a stage-profile artifact.

    ``profile`` is the dict :meth:`repro.profile.StageProfiler.result`
    returns (schema ``pressio-profile/1``).  Gauges are labelled by the
    canonical stage path, plus a per-run ``pressio_profile_wall_ms``
    labelled by the profile's label.  Returns the number of stage rows
    ingested (0 when no registry is active and none was passed).
    """
    reg = _target(registry)
    if reg is None:
        return 0
    label = str(profile.get("label", "profile"))
    wall = reg.gauge("pressio_profile_wall_ms",
                     "wall time of the last stage profile (ms)", ("label",))
    wall.labels(label=label).set(profile.get("wall_ns", 0) / 1e6)
    excl = reg.gauge("pressio_profile_stage_exclusive_ms",
                     "exclusive wall time per profiled stage (ms)",
                     ("stage",))
    calls = reg.gauge("pressio_profile_stage_calls",
                      "span count per profiled stage", ("stage",))
    rate = reg.gauge("pressio_profile_stage_bytes_per_second",
                     "uncompressed-side throughput per profiled stage",
                     ("stage",))
    alloc = reg.gauge("pressio_profile_stage_alloc_net_bytes",
                      "net allocation growth per profiled stage (bytes)",
                      ("stage",))
    stages = profile.get("stages", [])
    for row in stages:
        stage = row["path"]
        excl.labels(stage=stage).set(row["exclusive_ns"] / 1e6)
        calls.labels(stage=stage).set(row["calls"])
        rate.labels(stage=stage).set(row.get("bytes_per_s", 0.0))
        alloc.labels(stage=stage).set(row.get("alloc_net_bytes", 0))
    return len(stages)


def ingest_runtime(registry: MetricsRegistry | None = None) -> int:
    """Refresh the buffer-pool gauges.

    Exposes the :mod:`repro.native.pool` hit/miss/return counters (see
    its module docstring), so a scrape shows whether the native cores
    are recycling scratch.  Returns the number of gauges refreshed (0
    when no registry is active and none was passed).
    """
    reg = _target(registry)
    if reg is None:
        return 0
    from ..native import pool as _pool

    pool_stats = _pool.stats()
    values = (
        ("pressio_pool_hits_total",
         "buffer-pool acquires served from a free list",
         pool_stats["hits"]),
        ("pressio_pool_misses_total",
         "buffer-pool acquires that fell through to the allocator",
         pool_stats["misses"]),
        ("pressio_pool_returns_total",
         "buffers returned to the pool's free lists",
         pool_stats["returned"]),
        ("pressio_pool_bytes",
         "bytes parked on this thread's pool free lists",
         pool_stats["pooled_bytes"]),
    )
    for name, help_text, value in values:
        reg.gauge(name, help_text).set(float(value))
    return len(values)


def exposition(registry: MetricsRegistry) -> str:
    """The Prometheus text every ``/metrics`` surface serves.

    Refreshes the trace gauges (when a tracer is active) and the
    buffer-pool gauges, then renders ``registry``; the obs listener,
    the serve daemon and ``pressio top``'s local sampler all call this,
    so the three expose the same families.
    """
    from ..trace import runtime as trace_runtime

    ctx = trace_runtime.active_tracer()
    if ctx is not None:
        ingest_trace(ctx, registry)
    ingest_runtime(registry)
    return prometheus.render(registry)


#: metrics-plugin result keys worth exposing, mapped to (metric, labels).
_RESULT_KEYS = {
    "size:compression_ratio": ("pressio_metric_compression_ratio", {}),
    "size:bit_rate": ("pressio_metric_bit_rate", {}),
    "size:uncompressed_size": ("pressio_metric_uncompressed_bytes", {}),
    "size:compressed_size": ("pressio_metric_compressed_bytes", {}),
    "time:compress_total_ms": ("pressio_metric_wall_ms",
                               {"operation": "compress"}),
    "time:decompress_total_ms": ("pressio_metric_wall_ms",
                                 {"operation": "decompress"}),
    "time:compress_calls": ("pressio_metric_calls",
                            {"operation": "compress"}),
    "time:decompress_calls": ("pressio_metric_calls",
                              {"operation": "decompress"}),
    "time:compress_bytes_per_s": ("pressio_metric_bytes_per_second",
                                  {"operation": "compress"}),
    "time:decompress_bytes_per_s": ("pressio_metric_bytes_per_second",
                                    {"operation": "decompress"}),
}


def ingest_metrics_results(results: "PressioOptions", plugin: str,
                           registry: MetricsRegistry | None = None) -> int:
    """Refresh ``pressio_metric_*`` gauges from plugin results.

    ``plugin`` labels every series (which compressor produced these
    numbers).  Unknown keys are ignored; returns how many were mapped.
    """
    reg = _target(registry)
    if reg is None:
        return 0
    mapped = 0
    for key, (metric, extra) in _RESULT_KEYS.items():
        value = results.get(key)
        if value is None:
            continue
        labelnames = ("plugin",) + tuple(extra)
        gauge = reg.gauge(metric,
                          f"bridged from metrics-plugin key {key.split(':')[0]}:*",
                          labelnames)
        gauge.labels(plugin=plugin, **extra).set(float(value))
        mapped += 1
    return mapped
