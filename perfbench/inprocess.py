"""The in-process workloads: ``paper_fields`` and ``small_blocks``.

One caller runs a closed loop of round trips (compress, then decompress
the result) through the plugin API.  Only the ``compress()`` and
``decompress()`` calls are timed; wrapping, checks and bookkeeping sit
outside the timed region.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from . import stats
from .calibrate import Calibrator, HostSample
from .checks import Tally, Verifier
from .inputs import make_compressor

__all__ = ["Prepared", "prepare", "warm_up", "Pass", "Samples", "round_trip",
           "run_loop", "e2e_metrics", "trace_overhead_pct"]


class Prepared:
    """A case with its configured compressor and wrapped buffers."""

    def __init__(self, case, comp) -> None:
        from repro import PressioData

        self.case = case
        self.comp = comp
        self.data = PressioData.from_numpy(case.array, copy=False)
        self.template = PressioData.empty(self.data.dtype, self.data.dims)


def prepare(library, cases) -> list[Prepared]:
    return [Prepared(c, make_compressor(library, c.config, c.abs_bound))
            for c in cases]


def warm_up(prepared, tally: Tally, verifier: Verifier) -> None:
    """One untimed round trip per configuration, shape and dtype."""
    seen = set()
    for p in prepared:
        c = p.case
        group = (c.config.label, c.rel, c.array.shape, c.array.dtype.str)
        if group not in seen:
            seen.add(group)
            round_trip(p, tally, verifier, None)


class Pass:
    """Totals over one pass: every case once, in seeded order."""

    def __init__(self) -> None:
        self.in_bytes = 0
        self.calls = 0
        self.tc = 0.0  # seconds inside compress()
        self.td = 0.0  # seconds inside decompress()
        self.lat_ms: list[float] = []  # per call
        self.host = HostSample()  # steal and reference slices


class Samples:
    """Per-pass totals and latencies, and stream sizes."""

    def __init__(self) -> None:
        self.passes: list[Pass] = [Pass()]
        self.sizes: dict[str, tuple[int, int]] = {}

    def add(self, case, t0: float, t1: float, t2: float, t3: float,
            stream_bytes: int) -> None:
        p = self.passes[-1]
        p.in_bytes += case.nbytes
        p.calls += 2
        p.tc += t1 - t0
        p.td += t3 - t2
        p.lat_ms += [(t1 - t0) * 1e3, (t3 - t2) * 1e3]
        self.sizes.setdefault(case.key, (case.nbytes, stream_bytes))


def round_trip(p: Prepared, tally: Tally, verifier: Verifier,
               samples: Samples | None, ctx=None, request_id: int = 0
               ) -> float | None:
    """Compress then decompress one case; two attempted operations.

    Returns the time inside both calls, or None if either failed.
    """
    case = p.case
    tally.attempt()
    try:
        if ctx is None:
            t0 = time.perf_counter()
            blob = p.comp.compress(p.data)
            t1 = time.perf_counter()
        else:
            with ctx.span("bench:compress", layer="core",
                          request_id=request_id, case=case.key):
                t0 = time.perf_counter()
                blob = p.comp.compress(p.data)
                t1 = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        tally.fail("exception", f"{case.key} compress: {exc!r}")
        return None
    tally.attempt()
    try:
        if ctx is None:
            t2 = time.perf_counter()
            out = p.comp.decompress(blob, p.template)
            t3 = time.perf_counter()
        else:
            with ctx.span("bench:decompress", layer="core",
                          request_id=request_id, case=case.key):
                t2 = time.perf_counter()
                out = p.comp.decompress(blob, p.template)
                t3 = time.perf_counter()
        arr = np.asarray(out.to_numpy())
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        tally.fail("exception", f"{case.key} decompress: {exc!r}")
        return None
    if not verifier.check(tally, case.key, case.array, arr, case.abs_bound):
        return None
    if samples is not None:
        samples.add(case, t0, t1, t2, t3, blob.size_in_bytes)
    return (t1 - t0) + (t3 - t2)


def run_loop(prepared, seconds: float, rng, tally: Tally,
             verifier: Verifier, samples: Samples, ctx=None) -> int:
    """Whole passes in seeded order until ``seconds`` have passed, with
    host samples (:mod:`calibrate`) between round trips."""
    cal = Calibrator()
    deadline = time.monotonic() + seconds
    passes = 0
    request_id = 0
    while passes == 0 or time.monotonic() < deadline:
        if samples.passes[-1].calls:
            samples.passes.append(Pass())
        for i in rng.permutation(len(prepared)):
            cal.maybe(samples.passes[-1].host)
            request_id += 1
            round_trip(prepared[i], tally, verifier, samples, ctx,
                       request_id)
        samples.passes[-1].host.close()
        passes += 1
    return passes


def e2e_metrics(samples: Samples) -> dict:
    """Whole-run totals: bytes or calls over time inside the calls.

    Every pass's times are first corrected for host noise
    (:meth:`calibrate.HostSample.factor`).  The raw figures go to
    ``_raw``.
    """
    passes = [p for p in samples.passes if p.calls]
    scale = [p.host.factor() for p in passes]
    in_bytes = sum(p.in_bytes for p in passes)
    calls = sum(p.calls for p in passes)

    def rates(f):
        tc = sum(p.tc * k for p, k in zip(passes, f))
        td = sum(p.td * k for p, k in zip(passes, f))
        return {"compress_MBps": in_bytes / tc / 1e6,
                "decompress_MBps": in_bytes / td / 1e6,
                "served_rps": calls / (tc + td)}

    out = rates(scale)
    raw = rates([1.0] * len(passes))
    lat = stats.latency_summary([ms * k for p, k in zip(passes, scale)
                                 for ms in p.lat_ms])
    one = sum(n for n, _ in samples.sizes.values())
    out.update(
        compression_ratio=one / sum(m for _, m in samples.sizes.values()),
        served_ms_p50=lat["p50"], served_ms_p90=lat["p90"],
        _latency=lat, _raw=raw,
        _host_speed=raw["served_rps"] / out["served_rps"])
    return out


def trace_overhead_pct(prepared, seconds: float, rng, tally: Tally,
                       verifier: Verifier, ctx) -> float:
    """Paired passes, untraced vs traced, alternating which runs first.

    Returns the median over cases and pass pairs of traced/untraced
    round-trip time, as a percent above 1.
    """
    from repro.trace import tracing

    deadline = time.monotonic() + seconds
    ratios = []
    pair = 0
    while pair == 0 or time.monotonic() < deadline:
        arms = {}
        order = rng.permutation(len(prepared))
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                with tracing(ctx):
                    arms[traced] = [round_trip(prepared[i], tally, verifier,
                                               None, ctx, int(i))
                                    for i in order]
            else:
                arms[traced] = [round_trip(prepared[i], tally, verifier,
                                           None) for i in order]
        ratios.extend(t / p for p, t in zip(arms[False], arms[True])
                      if p and t)
        pair += 1
    return (median(ratios) - 1.0) * 100.0
