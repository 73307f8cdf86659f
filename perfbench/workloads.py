"""The three workloads, each with an untimed set-up, a measured run and
a traced per-layer run.

Lifecycle (driven by ``perfbench/run.py``): ``make_inputs()`` (the
benchmark's own work, excluded from set-up time), ``setup()`` (plugins
configured, one warm-up round trip per configuration, daemon up), then
``measure(seconds)`` for end-to-end metrics or ``layers(seconds)`` for
per-layer metrics, then ``close()``.
"""

from __future__ import annotations

import resource
from statistics import median

import numpy as np

from . import inputs, layers
from .checks import Tally, Verifier
from .inprocess import Samples, e2e_metrics, prepare, run_loop, \
    trace_overhead_pct, warm_up

__all__ = ["WORKLOADS", "PaperFields", "SmallBlocks", "ServedMix"]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class _Workload:
    def __init__(self, seed: int, root, rundir) -> None:
        self.seed = seed
        self.root = root
        self.rundir = rundir
        self.tally = Tally()
        self.verifier = Verifier()
        self.rng = np.random.default_rng(seed)
        self._ctx = None
        self.probe_notes: dict[str, str] = {}

    @property
    def ctx(self):
        """The workload's one trace context, written out when it ends."""
        if self._ctx is None:
            from repro.trace import TraceContext

            self._ctx = TraceContext(name=f"perfbench.{self.name}")
        return self._ctx

    def probe(self, name: str, fn, *args) -> dict:
        """Run one layer probe; a probe that raises counts as a failure."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.tally.attempt()
            self.tally.fail("exception", f"{name} probe: {exc!r}")
            self.probe_notes[name] = repr(exc)
            return {}

    def probe_layers(self, items, configs, native_reps: int,
                     meta_reps: int) -> dict:
        """The native, core, meta and wire probes on ``items``."""
        out = self.probe("native", layers.native_and_core, self.library,
                         items, native_reps, self.ctx, self.tally,
                         self.verifier)
        out["core.configure_ms"] = layers.configure_ms(
            self.library, configs, items[0][2])
        out.update(self.probe("meta", layers.meta_probe, self.library,
                              items, meta_reps, self.ctx,
                              self.tally, self.verifier))
        out.update(self.probe("wire", layers.wire_probe, self.library,
                              items))
        return out

    def close(self) -> None:
        pass


class _InProcess(_Workload):
    #: paired repetitions per probe item, sized to the workload's call time
    native_reps = 4
    meta_reps = 4
    serve_reps = 4

    def setup(self) -> None:
        from repro import Pressio

        self.library = Pressio()
        self.prepared = prepare(self.library, self.cases)
        warm_up(self.prepared, self.tally, self.verifier)

    def measure(self, seconds: float) -> dict:
        samples = Samples()
        passes = run_loop(self.prepared, seconds, self.rng, self.tally,
                          self.verifier, samples)
        out = e2e_metrics(samples)
        out["_passes"] = passes
        out["peak_rss_MB"] = own_peak_rss_mb()
        return out

    def probe_items(self):
        """``(key, array, abs_bound)`` the layer probes run on."""
        raise NotImplementedError

    def serve_cases(self):
        raise NotImplementedError

    def layers(self, seconds: float) -> dict:
        from .served import Daemon

        out = {"trace.overhead_pct": trace_overhead_pct(
            self.prepared, seconds / 2, self.rng, self.tally, self.verifier,
            self.ctx)}
        out.update(self.probe_layers(
            self.probe_items(), sorted({c.config.label for c in self.cases}),
            self.native_reps, self.meta_reps))

        def serve() -> dict:
            daemon = Daemon(self.root, self.rundir)
            try:
                daemon.start()
                overhead, traffic = layers.serve_probe(
                    daemon, self.library, self.serve_cases(),
                    self.serve_reps, self.tally, self.verifier)
            finally:
                daemon.stop()
            return {**overhead, **layers.serve_metrics(traffic)}

        out.update(self.probe("serve", serve))
        return out


class PaperFields(_InProcess):
    """128^3 float32 fields: the throughput regime."""

    name = "paper_fields"

    def make_inputs(self) -> None:
        self.fields = inputs.paper_fields(self.seed)
        self.cases = inputs.paper_cases(self.fields)

    def probe_items(self):
        (n1, a1), (n2, a2) = self.fields
        return [(f"{n1}@1e-4", a1, 1e-4 * float(np.ptp(a1))),
                (f"{n2}@1e-2", a2, 1e-2 * float(np.ptp(a2)))]

    def serve_cases(self):
        # one leaf per field keeps 128^3 round trips few
        keep = ("nyx/sz@0.0001", "hurricane_cloud/zfp@0.0001")
        return [c for c in self.cases if c.key in keep]


class SmallBlocks(_InProcess):
    """24^3 blocks and 1-D particles: the fixed per-call cost regime."""

    name = "small_blocks"
    native_reps = 15
    meta_reps = 15
    serve_reps = 10

    def make_inputs(self) -> None:
        self.blocks = inputs.small_blocks(self.seed)
        self.cases = inputs.small_cases(self.blocks)

    def probe_items(self):
        picks = {}
        for name, arr in self.blocks:
            picks.setdefault((arr.ndim, arr.dtype.str), (name, arr))
        return [(f"{name}@1e-3", arr, 1e-3 * float(np.ptp(arr)))
                for name, arr in picks.values()]

    def serve_cases(self):
        seen, out = set(), []
        for c in self.cases:
            kind = (c.array.ndim, c.array.dtype.str, c.config.label)
            if c.config.label in ("sz", "zfp") and kind not in seen:
                seen.add(kind)
                out.append(c)
        return out


class ServedMix(_Workload):
    """A served daemon; one closed-loop thread drives two clients
    (shm over UDS, inline over TCP), one request in flight."""

    name = "served_mix"
    #: traced-run seconds per pair of passes (one untraced, one traced)
    pair_s = 4.0

    def make_inputs(self) -> None:
        self.cases = [inputs.served_cases(inputs.served_arrays(self.seed, c))
                      for c in range(2)]

    def setup(self) -> None:
        from repro import Pressio

        from .served import TENANTS, Daemon

        self.library = Pressio()
        self.daemon = Daemon(self.root, self.rundir)
        self.daemon.start()
        self.clients = [self.daemon.client(path, path) for path in TENANTS]
        # one warm-up round trip per configuration, size and path
        for client, cases in zip(self.clients, self.cases):
            seen = set()
            for case in cases:
                group = (case.config.label, case.rel, case.array.shape)
                if group in seen:
                    continue
                seen.add(group)
                opts = inputs.options_for(case.config, case.abs_bound)
                self.tally.attempt()
                blob, _ = client.compress(case.array, case.config.plugin,
                                          opts)
                self.tally.attempt()
                out, _ = client.decompress(blob, case.config.plugin,
                                           "float32", case.array.shape,
                                           options=opts)
                self.verifier.check(self.tally, case.key, case.array, out,
                                    case.abs_bound)

    def _callers(self):
        from .served import TENANTS, Caller, Reference

        if not hasattr(self, "callers"):
            self.ref = Reference()
            for cases in self.cases:
                for case in cases:
                    self.ref.add(self.library, case, self.tally,
                                 self.verifier)
            self.callers = [
                Caller(client, path, cases, self.ref,
                       np.random.default_rng([self.seed, i]))
                for i, (client, path, cases) in enumerate(
                    zip(self.clients, TENANTS, self.cases))]
            for c in self.callers:
                c.prime()
        return self.callers

    def compression_ratio(self) -> float:
        keys = [c.key for cases in self.cases for c in cases]
        nbytes = {c.key: c.nbytes for cases in self.cases for c in cases}
        return sum(nbytes[k] for k in keys) / sum(
            len(self.ref.blob[k]) for k in keys)

    def measure(self, seconds: float) -> dict:
        from .served import run_traffic, traffic_metrics

        callers = self._callers()
        passes = run_traffic(callers, seconds, self.rng, self.daemon)
        for c in callers:
            self.tally.merge(c.tally)
        out = traffic_metrics(passes)
        out["_passes"] = len(passes)
        out["compression_ratio"] = self.compression_ratio()
        out["peak_rss_MB"] = own_peak_rss_mb() + self.daemon.vm_hwm_mb()
        return out

    def layers(self, seconds: float) -> dict:
        from repro.trace import tracing

        from .served import TENANTS, daemon_totals, run_traffic

        callers = self._callers()
        admin = self.daemon.client("inline", "admin")
        ctx = self.ctx
        ratios = []
        caller_sums = {path: [0.0, 0] for path in TENANTS}
        totals: dict = {}
        try:
            # paired single passes, untraced and traced, alternating order
            for pair in range(max(2, int(seconds / self.pair_s))):
                medians = {}
                for traced in ((False, True) if pair % 2 == 0
                               else (True, False)):
                    before = admin.metrics_text()
                    if traced:
                        with tracing(ctx):
                            done = run_traffic(callers, 0.0, self.rng,
                                               self.daemon, ctx)[0].done
                    else:
                        done = run_traffic(callers, 0.0, self.rng,
                                           self.daemon)[0].done
                        after = admin.metrics_text()
                        for key, v in daemon_totals(before, after).items():
                            totals[key] = totals.get(key, 0.0) + v
                        for path, _, secs, _ in done:
                            caller_sums[path][0] += secs
                            caller_sums[path][1] += 1
                    medians[traced] = median(d[2] for d in done)
                ratios.append(medians[True] / medians[False])
        finally:
            admin.close()
        refused = sum(c.tally.kinds["refused"] for c in callers)
        attempted = sum(c.tally.attempted for c in callers)
        for c in callers:
            self.tally.merge(c.tally)
        out = {"trace.overhead_pct": (median(ratios) - 1.0) * 100.0}
        out.update(layers.serve_metrics({
            "caller": caller_sums, "totals": totals, "refused": refused,
            "attempted": attempted}))
        flat = [c for cases in self.cases for c in cases]
        small = next(c for c in flat if c.array.shape[0] < 64)
        large = next(c for c in flat if c.array.shape[0] >= 64)
        items = [(c.key, c.array, c.abs_bound) for c in (small, large)]
        out.update(self.probe_layers(items, inputs.SERVED_CONFIGS, 10, 10))
        out.update(self.probe(
            "serve", lambda: layers.serve_probe(
                self.daemon, self.library, [small, large], 10, self.tally,
                self.verifier)[0]))
        return out

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        if hasattr(self, "daemon"):
            self.daemon.stop()


WORKLOADS = {w.name: w for w in (PaperFields, SmallBlocks, ServedMix)}
