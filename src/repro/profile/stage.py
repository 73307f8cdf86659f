"""The deterministic stage profiler: span boundaries -> attribution rows.

The paper's Fig. 3 argues the generic facade costs ~0.47 % median
overhead; defending (or spending) that budget requires knowing *which
stage* of a pipeline owns each microsecond.  The tracer already records
the span tree for every compress/decompress — this module turns that
tree into a **profile artifact**: one row per stage *path* (the root-to-
span label chain, e.g. ``compress[sz]/sz:quantize``) carrying

* ``calls`` and inclusive wall time (the span's own duration);
* **exclusive** wall time (inclusive minus direct children — the number
  that localizes a regression);
* bytes in/out and the derived per-stage bandwidth;
* allocation attribution (net growth and high-water growth) when
  :mod:`tracemalloc` tracking is on.

:class:`StageProfiler` is the one-stop context manager: it installs a
:class:`ProfilingTraceContext` as the active tracer (so every existing
instrumentation site feeds it), optionally starts the wall-clock
sampler (:mod:`repro.profile.sampler`) and allocation tracking
(:mod:`repro.profile.memory`), and renders everything into a plain-dict
artifact (schema ``pressio-profile/1``) that the exporters, the diff
engine, and ``pressio bench --profile`` all consume.

Everything here is *off* by default: with no profiler installed the hot
path still performs its single ``repro._hot.ANY`` read and nothing
else — ``tests/profile/test_overhead.py`` pins that.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any

from ..trace.context import Span, TraceContext
from ..trace.runtime import tracing

__all__ = ["SCHEMA", "ProfilingTraceContext", "StageProfiler",
           "build_stage_rows", "span_path"]

SCHEMA = "pressio-profile/1"

#: synthetic stage collecting wall time no span accounts for
UNTRACKED = "(untracked)"


class ProfilingTraceContext(TraceContext):
    """A :class:`TraceContext` that stamps allocation state on spans.

    At every span boundary the current/peak traced memory is recorded
    into the span's attrs (``_mem0``/``_mem1``), attributing allocation
    churn to the same stage tree the timing rows use.  When
    ``track_alloc`` is False the subclass adds nothing over the base
    collector, so plain profiling runs pay no tracemalloc cost.
    """

    def __init__(self, name: str = "profile", track_alloc: bool = True):
        super().__init__(name)
        self.track_alloc = track_alloc

    def start_span(self, name: str, **attrs: Any) -> Span:
        sp = super().start_span(name, **attrs)
        if self.track_alloc and tracemalloc.is_tracing():
            sp.attrs["_mem0"] = tracemalloc.get_traced_memory()
        return sp

    def finish_span(self, sp: Span, status: str = "ok") -> None:
        if (self.track_alloc and sp.end_ns is None
                and tracemalloc.is_tracing()):
            sp.attrs["_mem1"] = tracemalloc.get_traced_memory()
        super().finish_span(sp, status)


def span_path(sp: Span, by_id: dict[int, Span]) -> str:
    """Root-to-span label chain, ``/``-joined.

    A span labelled by its ``plugin`` attr renders as ``name[plugin]``
    so two compressors sharing the generic ``compress`` span name stay
    distinguishable in one flamegraph.
    """
    labels: list[str] = []
    cur: Span | None = sp
    seen: set[int] = set()
    while cur is not None and cur.span_id not in seen:
        seen.add(cur.span_id)
        plugin = cur.attrs.get("plugin")
        label = (f"{cur.name}[{plugin}]"
                 if plugin and str(plugin) != cur.name else cur.name)
        labels.append(label)
        cur = (by_id.get(cur.parent_id)
               if cur.parent_id is not None else None)
    return "/".join(reversed(labels))


def build_stage_rows(ctx: TraceContext,
                     wall_ns: int | None = None) -> list[dict[str, Any]]:
    """Aggregate the span tree into per-stage-path attribution rows.

    Exclusive time is inclusive minus *same-thread* direct children
    (a parallel fan-out's concurrent children must not drive the parent
    negative).  When ``wall_ns`` is given, an ``(untracked)`` row
    absorbs the remainder so the exclusive column sums exactly to the
    measured wall time — the property the acceptance check audits.
    """
    spans = [sp for sp in ctx.spans() if sp.end_ns is not None]
    by_id = {sp.span_id: sp for sp in spans}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent_id is not None and sp.parent_id in by_id:
            children.setdefault(sp.parent_id, []).append(sp)

    rows: dict[str, dict[str, Any]] = {}
    root_incl_ns = 0
    for sp in spans:
        path = span_path(sp, by_id)
        row = rows.setdefault(path, {
            "path": path, "calls": 0, "inclusive_ns": 0, "exclusive_ns": 0,
            "bytes_in": 0, "bytes_out": 0, "errors": 0,
            "alloc_net_bytes": 0, "alloc_peak_growth_bytes": 0,
        })
        row["calls"] += 1
        row["inclusive_ns"] += sp.duration_ns
        same_thread_child_ns = sum(
            c.duration_ns for c in children.get(sp.span_id, [])
            if c.thread_id == sp.thread_id)
        row["exclusive_ns"] += max(0, sp.duration_ns - same_thread_child_ns)
        row["bytes_in"] += int(sp.attrs.get("input_bytes") or 0)
        row["bytes_out"] += int(sp.attrs.get("output_bytes") or 0)
        if sp.status.startswith("error"):
            row["errors"] += 1
        mem0, mem1 = sp.attrs.get("_mem0"), sp.attrs.get("_mem1")
        if mem0 is not None and mem1 is not None:
            row["alloc_net_bytes"] += int(mem1[0]) - int(mem0[0])
            row["alloc_peak_growth_bytes"] += max(
                0, int(mem1[1]) - int(mem0[1]))
        if sp.parent_id is None or sp.parent_id not in by_id:
            root_incl_ns += sp.duration_ns

    out = sorted(rows.values(), key=lambda r: -r["exclusive_ns"])
    if wall_ns is not None:
        untracked = max(0, wall_ns - root_incl_ns)
        out.append({
            "path": UNTRACKED, "calls": 0,
            "inclusive_ns": untracked, "exclusive_ns": untracked,
            "bytes_in": 0, "bytes_out": 0, "errors": 0,
            "alloc_net_bytes": 0, "alloc_peak_growth_bytes": 0,
        })
    for row in out:
        secs = row["exclusive_ns"] / 1e9
        row["bytes_per_s"] = row["bytes_in"] / secs if secs > 0 else 0.0
    return out


class StageProfiler:
    """Profile a block of work: stage times + samples + allocations.

    ::

        with StageProfiler() as prof:
            compressor.compress(data)
        profile = prof.result(meta={"compressor": "sz"})

    The profiler *replaces* the process-wide tracer for the duration of
    the block (restoring the previous one on exit), so nesting inside an
    already-traced region hands the spans to the profiler.  Sampling
    and allocation tracking are both optional; disable them for the
    lowest-perturbation deterministic-only runs.
    """

    def __init__(self, name: str = "profile", *,
                 track_alloc: bool = True,
                 sample_interval: float | None = 0.002):
        self.name = name
        self.track_alloc = track_alloc
        self.sample_interval = sample_interval
        self.ctx = ProfilingTraceContext(name, track_alloc=track_alloc)
        self.sampler = None
        self.wall_ns: int | None = None
        self._t0: int | None = None
        self._started_tracemalloc = False

    # -- lifecycle --------------------------------------------------------
    def __enter__(self) -> "StageProfiler":
        if self.track_alloc:
            from .memory import start_tracking

            self._started_tracemalloc = start_tracking()
        self._tracing = tracing(self.ctx)
        self._tracing.__enter__()
        if self.sample_interval is not None:
            from .sampler import SamplingProfiler

            self.sampler = SamplingProfiler(self.sample_interval)
            self.sampler.start()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_ns = time.perf_counter_ns() - (self._t0 or 0)
        if self.sampler is not None:
            self.sampler.stop()
        self._tracing.__exit__(None, None, None)
        if self._started_tracemalloc:
            from .memory import stop_tracking

            self._alloc_summary = stop_tracking()
        elif self.track_alloc and tracemalloc.is_tracing():
            from .memory import summarize_tracking

            self._alloc_summary = summarize_tracking()

    # -- results ----------------------------------------------------------
    def result(self, meta: dict[str, Any] | None = None,
               strict: bool = False) -> dict[str, Any]:
        """Render the profile artifact (plain JSON-serializable dict).

        With ``strict=True`` a broken span tree (children inclusive
        exceeding the parent — a double count) raises instead of
        silently clamping; the CLI always runs strict so a profiler bug
        cannot masquerade as attribution.
        """
        from datetime import datetime, timezone

        violations = self.ctx.exclusive_invariant_violations()
        if strict and violations:
            raise AssertionError(
                "span tree violates the exclusive-time invariant:\n  "
                + "\n  ".join(violations))
        stages = build_stage_rows(self.ctx, self.wall_ns)
        profile: dict[str, Any] = {
            "schema": SCHEMA,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "label": self.name,
            "wall_ns": self.wall_ns,
            "meta": dict(meta or {}),
            "stages": stages,
            "invariant_violations": violations,
        }
        from .export import git_revision

        profile["git_sha"] = git_revision()
        if self.track_alloc:
            profile["allocation"] = getattr(
                self, "_alloc_summary", {"tracked": False})
        if self.sampler is not None:
            from .sampler import merge_samples

            profile["samples"] = merge_samples(self.sampler, self.ctx)
        self._publish_gauges(profile)
        return profile

    @staticmethod
    def _publish_gauges(profile: dict[str, Any]) -> None:
        """Refresh profile-summary gauges when a registry is watching."""
        from ..obs import runtime as _obs

        if _obs.ACTIVE is None:
            return
        from ..obs.bridge import ingest_profile

        ingest_profile(profile)
