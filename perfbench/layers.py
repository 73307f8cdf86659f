"""Per-layer probes for the traced run.

Each probe times calls into one layer's public functions from outside,
on the workload's own inputs:

* ``native`` — the C-style APIs (``SZ_compress``, ``zfp_compress``,
  ``mgard_compress`` and their decompress twins), plus the stage spans
  the cores emit under them;
* ``core`` — the plugin against the native API on the same input,
  paired and interleaved (Fig. 3's protocol), and configuration time;
* ``meta`` — ``sz_omp`` and ``chunking`` against their serial leaf;
* ``serve`` — the public ``wire`` functions, and served against
  in-process round trips through a daemon (:mod:`perfbench.served`).

Paired arms alternate which runs first, so drift cancels.  Stage bytes
are *computed* from array sizes, not measured.
"""

from __future__ import annotations

import time
from collections import defaultdict
from statistics import fmean, median

import numpy as np

from . import spans, stats
from .inputs import CONFIGS, make_compressor, options_for

__all__ = ["CODECS", "STAGE_WIDTH", "native_and_core", "configure_ms",
           "meta_probe", "wire_probe", "serve_probe", "serve_metrics"]

CODECS = ("sz", "zfp", "mgard")
#: ``get_compressor`` + ``set_options`` repeats per configuration
CONFIGURE_REPS = 20
#: encode/decode repeats per frame
WIRE_REPS = 50
#: bytes per element the cores' working arrays hold between stages
#: (float64 / int64 scratch) — the model behind the computed stage bytes
STAGE_WIDTH = 8


def _native_ops(codec: str, arr: np.ndarray, eb: float):
    """(prepare, compress, decompress) through the C-style API."""
    f32 = arr.dtype == np.float32
    shape = arr.shape
    if codec == "sz":
        from repro.native import sz as n

        sz_type = n.SZ_FLOAT if f32 else n.SZ_DOUBLE
        rargs = (0,) * (5 - len(shape)) + tuple(shape)
        params = n.sz_params(errorBoundMode=n.ABS, absErrBound=eb)
        return (lambda: n.SZ_Init(params),
                lambda: n.SZ_compress(sz_type, arr, *rargs),
                lambda s: n.SZ_decompress(sz_type, s, *rargs))
    if codec == "zfp":
        from repro.native import zfp as z

        ztype = z.zfp_type_float if f32 else z.zfp_type_double
        fortran = tuple(reversed(shape))
        make_field = {1: z.zfp_field_1d, 2: z.zfp_field_2d,
                      3: z.zfp_field_3d}[len(shape)]
        stream = z.zfp_stream_open()
        z.zfp_stream_set_accuracy(stream, eb)
        field = make_field(arr, ztype, *fortran)
        return (lambda: None,
                lambda: z.zfp_compress(stream, field),
                lambda s: z.zfp_decompress(
                    stream, make_field(None, ztype, *fortran), s))
    if codec == "mgard":
        from repro.native import mgard as m

        itype = 0 if f32 else 1
        dims3 = tuple(shape) + (1,) * (3 - len(shape))
        return (lambda: None,
                lambda: m.mgard_compress(itype, arr, *dims3, eb),
                lambda s: m.mgard_decompress(itype, s, *dims3))
    raise ValueError(codec)


def _plugin_ops(library, codec: str, arr: np.ndarray, eb: float):
    from repro import PressioData

    comp = make_compressor(library, CONFIGS[codec], eb)
    data = PressioData.from_numpy(arr, copy=False)
    template = PressioData.empty(data.dtype, data.dims)
    return (lambda: comp.compress(data),
            lambda s: np.asarray(comp.decompress(s, template).to_numpy()))


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def native_and_core(library, items, reps: int, ctx, tally, verifier
                    ) -> dict:
    """Native API timings, stage self times, and wrapper overhead.

    ``items`` are ``(key, array, abs_bound)``.  For each codec and item,
    ``reps`` interleaved pairs time native and plugin round trips
    untraced; then one traced native round trip records stage spans
    under the benchmark's ``bench:native.*`` spans.
    """
    from repro.native import pool
    from repro.trace import tracing

    pool_before = pool.stats()
    out: dict = {}
    calls = 0
    for codec in CODECS:
        n_c, n_d, nat_all, plug_all = [], [], [], []
        stage_ns: dict = defaultdict(int)
        stage_bytes: dict = defaultdict(float)
        traced_calls = 0
        for key, arr, eb in items:
            prep, nat_c, nat_d = _native_ops(codec, arr, eb)
            plug_c, plug_d = _plugin_ops(library, codec, arr, eb)
            prep()
            tc, td, nat_rt, plug_rt = [], [], [], []
            for rep in range(reps):
                arms = ("native", "plugin") if rep % 2 == 0 \
                    else ("plugin", "native")
                for arm in arms:
                    c, d = (nat_c, nat_d) if arm == "native" \
                        else (plug_c, plug_d)
                    tally.attempt()
                    t_c, blob = _timed(c)
                    tally.attempt()
                    t_d, dec = _timed(d, blob)
                    verifier.check(tally, f"{key}/{codec}/{arm}", arr,
                                   np.asarray(dec), eb)
                    if arm == "native":
                        calls += 2
                        tc.append(t_c)
                        td.append(t_d)
                        nat_rt.append(t_c + t_d)
                    else:
                        plug_rt.append(t_c + t_d)
            n_c.append(median(tc))
            n_d.append(median(td))
            nat_all.extend(nat_rt)
            plug_all.extend(plug_rt)
            # one traced round trip: stage spans under the native call
            traced_calls += 1
            tally.attempt()
            tally.attempt()
            with tracing(ctx):
                with ctx.span(f"bench:native.{codec}.compress",
                              layer="native", case=key,
                              request_id=traced_calls) as sp_c:
                    blob = nat_c()
                with ctx.span(f"bench:native.{codec}.decompress",
                              layer="native", case=key,
                              request_id=traced_calls) as sp_d:
                    dec = nat_d(blob)
            calls += 2
            verifier.check(tally, f"{key}/{codec}/native", arr,
                           np.asarray(dec), eb)
            by_parent = spans.children_of(
                s for s in ctx.spans() if s.start_ns >= sp_c.start_ns)
            n_in = arr.nbytes
            work = arr.size * STAGE_WIDTH
            for op, sp in (("compress", sp_c), ("decompress", sp_d)):
                self_ns = spans.stage_self_times(sp, by_parent)
                order = spans.first_seen(sp, by_parent)
                for i, name in enumerate(order):
                    stage = name.split(":", 1)[-1]
                    stage_ns[(op, stage)] += self_ns[name]
                    first, last = i == 0, i == len(order) - 1
                    if op == "compress":
                        b_in = n_in if first else work
                        b_out = len(blob) if last else work
                    else:
                        b_in = len(blob) if first else work
                        b_out = n_in if last else work
                    stage_bytes[(op, stage, "in")] += b_in
                    stage_bytes[(op, stage, "out")] += b_out
        out[f"native.{codec}.compress_ms"] = fmean(n_c) * 1e3
        out[f"native.{codec}.decompress_ms"] = fmean(n_d) * 1e3
        out[f"core.{codec}.wrapper_overhead_pct"] = \
            (stats.paired_median_ratio(nat_all, plug_all) - 1.0) * 100.0
        for (op, stage), ns in stage_ns.items():
            base = f"native.{codec}.{op}.{stage}"
            out[f"{base}_ms"] = ns / traced_calls / 1e6
            out[f"{base}.computed_MB_in"] = \
                stage_bytes[(op, stage, "in")] / traced_calls / 1e6
            out[f"{base}.computed_MB_out"] = \
                stage_bytes[(op, stage, "out")] / traced_calls / 1e6
    pool_after = pool.stats()
    hits = pool_after["hits"] - pool_before["hits"]
    misses = pool_after["misses"] - pool_before["misses"]
    out["native.calls"] = float(calls)
    out["native.pool.hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    return out


def configure_ms(library, labels, abs_bound: float) -> float:
    """Mean over configurations of the median get_compressor+set_options."""
    per = []
    for label in labels:
        times = []
        for _ in range(CONFIGURE_REPS):
            t0 = time.perf_counter()
            make_compressor(library, CONFIGS[label], abs_bound)
            times.append(time.perf_counter() - t0)
        per.append(median(times))
    return fmean(per) * 1e3


def meta_probe(library, items, reps: int, ctx, tally, verifier) -> dict:
    """Executors against their serial leaf, paired on the same input.

    Every compression is judged outside its timed call: a stream equal
    to the first one, whose output passed the oracle, has passed too;
    any other stream is decompressed and checked.
    """
    from repro import PressioData
    from repro.trace import tracing

    execs = ("sz_omp", "chunking")
    times = defaultdict(list)
    first = defaultdict(list)
    wait = defaultdict(list)
    for key, arr, eb in items:
        data = PressioData.from_numpy(arr, copy=False)
        template = PressioData.empty(data.dtype, data.dims)
        comps, ref = {}, {}

        def check(label, blob) -> None:
            stream = blob.to_bytes()
            if stream == ref.get(label):
                return
            tally.attempt()
            dec = np.asarray(comps[label][0].decompress(
                PressioData.from_bytes(stream), template).to_numpy())
            if verifier.check(tally, f"{key}/{label}", arr, dec, eb):
                ref.setdefault(label, stream)

        for label in ("sz_threadsafe",) + execs:
            comp = make_compressor(library, CONFIGS[label], eb)
            tally.attempt()
            t_first, blob = _timed(comp.compress, data)
            comps[label] = (comp, t_first)
            check(label, blob)
        order = ["sz_threadsafe", *execs]
        steady = defaultdict(list)
        for rep in range(reps):
            for label in (order if rep % 2 == 0 else order[::-1]):
                tally.attempt()
                t, blob = _timed(comps[label][0].compress, data)
                steady[label].append(t)
                check(label, blob)
        for label in order:
            times[label].extend(steady[label])
        for label in execs:
            first[label].append(comps[label][1] - median(steady[label]))
            waits = []
            for rid in range(3):
                tally.attempt()
                with tracing(ctx):
                    with ctx.span(f"bench:meta.{label}.compress",
                                  layer="meta", case=key,
                                  request_id=rid) as sp:
                        blob = comps[label][0].compress(data)
                check(label, blob)
                window = [s for s in ctx.spans()
                          if s.start_ns >= sp.start_ns]
                # the plugin's own operation span is the executor; its
                # parts run under it (or, without span hand-off, as
                # parentless spans on worker threads)
                kids = [s for s in window if s.parent_id == sp.span_id]
                waits.append(spans.wait_ns(kids[0] if kids else sp, window))
            wait[label].append(median(waits))
    out = {}
    for label in execs:
        out[f"meta.{label}.speedup"] = stats.paired_median_ratio(
            times[label], times["sz_threadsafe"])
        out[f"meta.{label}.wait_ms"] = fmean(wait[label]) / 1e6
        out[f"meta.{label}.first_call_ms"] = fmean(first[label]) * 1e3
    return out


def wire_probe(library, items) -> dict:
    """``encode_request`` and ``decode_response`` on the workload's frames."""
    from repro import PressioData
    from repro.serve import Request, Response, decode_response, \
        encode_request, encode_response

    enc, dec = [], []
    for _key, arr, eb in items:
        req = Request(op="compress", tenant="inline", compressor="sz",
                      options={"pressio:abs": eb}, dtype=str(arr.dtype),
                      dims=tuple(arr.shape),
                      payload=memoryview(np.ascontiguousarray(arr)).cast("B"))
        comp = make_compressor(library, CONFIGS["sz"], eb)
        blob = comp.compress(PressioData.from_numpy(arr, copy=False))
        frame = encode_response(Response(
            ok=True, op="compress", payload=blob.to_bytes(),
            stats={"input_bytes": arr.nbytes,
                   "compressed_bytes": blob.size_in_bytes}))
        enc.append(median(
            [_timed(encode_request, req)[0] for _ in range(WIRE_REPS)]))
        dec.append(median(
            [_timed(decode_response, frame)[0] for _ in range(WIRE_REPS)]))
    return {"serve.wire.encode_request_us": fmean(enc) * 1e6,
            "serve.wire.decode_response_us": fmean(dec) * 1e6}


def serve_probe(daemon, library, cases, reps: int, tally, verifier
                ) -> tuple[dict, dict]:
    """Served (shm, inline) against in-process round trips, paired.

    Returns the overhead metrics and the raw traffic sums that
    :func:`serve_metrics` turns into worker, transport and cache numbers.
    """
    from repro import PressioData
    from repro.serve import QuotaExceededError, SaturatedError

    from .served import TENANTS, daemon_totals

    clients = {path: daemon.client(path, path) for path in TENANTS}
    admin = daemon.client("inline", "admin")
    caller = {path: [0.0, 0] for path in TENANTS}
    pairs = {path: ([], []) for path in TENANTS}
    refused = attempted = 0
    try:
        before = admin.metrics_text()
        for case in cases:
            comp = make_compressor(library, case.config, case.abs_bound)
            data = PressioData.from_numpy(case.array, copy=False)
            template = PressioData.empty(data.dtype, data.dims)
            opts = options_for(case.config, case.abs_bound)
            plugin = case.config.plugin

            def inproc():
                blob = comp.compress(data)
                return blob.to_bytes(), np.asarray(
                    comp.decompress(blob, template).to_numpy())

            def served(path):
                client = clients[path]
                blob, _ = client.compress(case.array, plugin, opts)
                arr, _ = client.decompress(blob, plugin,
                                           str(case.array.dtype),
                                           case.array.shape, options=opts)
                return blob, arr

            arms = ("inproc",) + TENANTS
            ref_blob = None
            for rep in range(reps):
                times = {}
                for arm in arms[rep % 3:] + arms[:rep % 3]:
                    tally.attempt()
                    attempted += arm != "inproc"
                    try:
                        if arm == "inproc":
                            t, (blob, arr) = _timed(inproc)
                        else:
                            t, (blob, arr) = _timed(served, arm)
                    except (QuotaExceededError, SaturatedError) as exc:
                        refused += 1
                        tally.fail("refused", f"{case.key} {arm}: {exc!r}")
                        continue
                    if arm == "inproc":
                        ref_blob = blob
                    else:
                        caller[arm][0] += t
                        caller[arm][1] += 2
                        if blob != ref_blob:
                            tally.fail("mismatch", f"{case.key} {arm}")
                            continue
                    verifier.check(tally, f"{case.key}/{arm}",
                                   case.array, arr, case.abs_bound)
                    times[arm] = t
                for path in TENANTS:
                    if path in times and "inproc" in times:
                        pairs[path][0].append(times["inproc"])
                        pairs[path][1].append(times[path])
            # repeat the input with cache=use: the first stores, then hits
            for _ in range(2):
                tally.attempt()
                attempted += 1
                blob, _ = clients["shm"].compress(case.array, plugin, opts,
                                                  cache="use")
                if blob != ref_blob:
                    tally.fail("mismatch", f"{case.key} cached")
        totals = daemon_totals(before, admin.metrics_text())
    finally:
        for client in (*clients.values(), admin):
            client.close()
    out = {f"serve.overhead_pct.{path}":
           (stats.paired_median_ratio(*pairs[path]) - 1.0) * 100.0
           for path in TENANTS}
    return out, {"caller": caller, "totals": totals, "refused": refused,
                 "attempted": attempted}


def serve_metrics(traffic: dict) -> dict:
    """Worker, transport, cache and refusal numbers from traffic sums.

    Caller time is per request (compress or decompress); daemon-side time
    is ``pressio_serve_request_seconds`` from ``/metrics``.
    """
    from .served import TENANTS

    totals = traffic["totals"]
    out = {}
    d_sum = sum(totals.get((t, "sum"), 0.0) for t in TENANTS)
    d_cnt = sum(totals.get((t, "count"), 0.0) for t in TENANTS)
    out["serve.worker_ms"] = d_sum / d_cnt * 1e3
    for path in TENANTS:
        c_sum, c_cnt = traffic["caller"][path]
        daemon_ms = totals[(path, "sum")] / totals[(path, "count")] * 1e3
        out[f"serve.transport_ms.{path}"] = c_sum / c_cnt * 1e3 - daemon_ms
    hit = totals.get(("cache", "hit"), 0.0)
    miss = totals.get(("cache", "miss"), 0.0)
    out["serve.cache.hit_ratio"] = hit / (hit + miss) if hit + miss else 0.0
    out["serve.rejected_frac"] = traffic["refused"] / traffic["attempted"] \
        if traffic["attempted"] else 0.0
    return out
