"""The served layer: a ``pressio serve`` daemon, its callers, its metrics.

The daemon runs in its own process (``python -m repro.tools.cli serve``)
with its working directory and ``TMPDIR`` inside the checkout's run
directory, so its AF_UNIX socket lands there too.  Callers are
:class:`repro.serve.ServeClient` instances: one over UDS plus shared
memory, one sending inline over TCP.  One load-generator thread drives
both in a closed loop: it waits for each reply before it sends the next
request, as an application rank does.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from . import die_with_parent, stats
from .calibrate import Calibrator, HostSample
from .checks import Tally

__all__ = ["Daemon", "daemon_totals", "Reference", "Caller", "TrafficPass",
           "run_traffic", "traffic_metrics", "TENANTS", "WORKERS",
           "CACHE_USE_SHARE"]

#: one tenant per payload path, so daemon-side time splits by path
TENANTS = ("shm", "inline")
#: the daemon's ``--workers``, part of the ``served_mix`` definition
WORKERS = 2
#: share of each caller's cases repeated with ``cache=use`` every pass
CACHE_USE_SHARE = 0.25
#: longest wait for the daemon's banner
START_TIMEOUT_S = 60.0

_BANNER = re.compile(r"pressio serve on http://[^:]+:(\d+)")


class Daemon:
    """A ``pressio serve --workers 2`` process, stopped by :meth:`stop`."""

    def __init__(self, root, rundir) -> None:
        self.root = root
        self.rundir = rundir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.uds: str | None = None
        self._log = None

    def start(self) -> None:
        from repro.serve import ServeClient

        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   PYTHONUNBUFFERED="1", TMPDIR=".")
        log_path = self.rundir / f"daemon-{os.getpid()}.log"
        self._log = open(log_path, "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve", "--port", "0",
             "--workers", str(WORKERS)],
            cwd=self.rundir, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, preexec_fn=die_with_parent)
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon did not start; see {log_path}")
            time.sleep(0.01)
            match = _BANNER.search(log_path.read_text(encoding="utf-8"))
            if match:
                self.port = int(match.group(1))
        with ServeClient(port=self.port) as probe:
            if not probe.ping():
                raise RuntimeError("daemon refused its first ping")
            uds = probe.health().get("uds")
        if uds:
            # the daemon reports it relative to its own cwd
            self.uds = os.path.relpath(self.rundir / os.path.basename(uds))

    def client(self, path: str, tenant: str):
        from repro.serve import ServeClient

        if path == "shm" and self.uds is not None:
            return ServeClient(uds=self.uds, use_shm=True, tenant=tenant)
        return ServeClient(port=self.port, use_shm=(path == "shm"),
                           tenant=tenant)

    def cpu_s(self) -> float:
        """The daemon's CPU seconds so far, all its threads together."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``) in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self._log is not None:
            self._log.close()
            if self.proc is not None and self.proc.returncode == 0:
                os.unlink(self._log.name)
            self._log = None


def daemon_totals(before: str, after: str) -> dict:
    """Per-tenant request seconds/count and cache events between two
    ``/metrics`` scrapes."""
    from repro.obs.prometheus import parse

    def key(sample):
        return sample.name, tuple(sorted(sample.labels.items()))

    base = {key(s): s.value for s in parse(before).samples}
    totals = defaultdict(float)
    for sample in parse(after).samples:
        delta = sample.value - base.get(key(sample), 0.0)
        lab = sample.labels
        if sample.name in ("pressio_serve_request_seconds_sum",
                           "pressio_serve_request_seconds_count") \
                and lab.get("op") in ("compress", "decompress"):
            kind = sample.name.rsplit("_", 1)[1]
            totals[(lab.get("tenant"), kind)] += delta
        elif sample.name == "pressio_serve_cache_events_total":
            totals[("cache", lab.get("event"))] += delta
    return dict(totals)


class Reference:
    """In-process results every served result must equal byte for byte."""

    def __init__(self) -> None:
        self.blob: dict[str, bytes] = {}
        self.out: dict[str, bytes] = {}

    def add(self, library, case, tally: Tally, verifier) -> None:
        from repro import PressioData

        from .inputs import make_compressor

        comp = make_compressor(library, case.config, case.abs_bound)
        data = PressioData.from_numpy(case.array, copy=False)
        tally.attempt()
        try:
            blob = comp.compress(data).to_bytes()
            out = np.asarray(comp.decompress(
                PressioData.from_bytes(blob),
                PressioData.empty(data.dtype, data.dims)).to_numpy())
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            tally.fail("exception", f"{case.key} in-process: {exc!r}")
            return
        if verifier.check(tally, case.key, case.array, out, case.abs_bound):
            self.blob[case.key] = blob
            self.out[case.key] = np.ascontiguousarray(out).tobytes()


class Caller:
    """One client, i.e. one payload path, with its cases.

    Every pass sends each case once as a compression with
    ``cache=bypass``, then later once as a decompression of its stream;
    a fixed, seeded quarter of the cases (a quarter of each array size)
    is compressed once more with ``cache=use``, also after the first
    compression.  So every pass does the same work, whatever the seed;
    only the order changes.
    """

    def __init__(self, client, path: str, cases, ref: Reference,
                 rng: np.random.Generator) -> None:
        self.client = client
        self.path = path
        self.cases = cases
        self.ref = ref
        self.tally = Tally()
        self.cached = []
        for large in (False, True):
            group = [c for c in cases if (c.array.shape[0] >= 64) == large]
            keep = round(len(group) * CACHE_USE_SHARE)
            self.cached += [group[i] for i in
                            sorted(rng.permutation(len(group))[:keep])]

    def plan(self, rng: np.random.Generator) -> list:
        """This caller's requests for one pass, each behind a sort key."""
        out, first = [], {}
        for case in self.cases:
            k = first[case.key] = rng.random()
            out.append((k, self, "compress", case, "bypass"))
            out.append((k + (1.0 - k) * rng.random(), self, "decompress",
                        case, "bypass"))
        for case in self.cached:
            k = first[case.key]
            out.append((k + (1.0 - k) * rng.random(), self, "compress",
                        case, "use"))
        return out

    def request(self, op: str, case, cache: str, ctx=None,
                request_id: int = 0) -> float | None:
        """One request; its caller-observed seconds, None if it failed."""
        from repro.serve import QuotaExceededError, SaturatedError

        plugin = case.config.plugin
        opts = {"pressio:abs": case.abs_bound}
        self.tally.attempt()
        span = None
        if ctx is not None:
            span = ctx.span(f"bench:client.{op}", layer="client",
                            path=self.path, request_id=request_id,
                            case=case.key)
            span.__enter__()
        try:
            t0 = time.perf_counter()
            if op == "compress":
                result, _stats = self.client.compress(case.array, plugin,
                                                      opts, cache=cache)
            else:
                result, _stats = self.client.decompress(
                    self.ref.blob[case.key], plugin, "float32",
                    case.array.shape, options=opts)
            elapsed = time.perf_counter() - t0
        except (QuotaExceededError, SaturatedError) as exc:
            self.tally.fail("refused", f"{case.key} {op}: {exc!r}")
            return None
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.tally.fail("exception", f"{case.key} {op}: {exc!r}")
            return None
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        return elapsed if self._matches(op, case, result) else None

    def prime(self) -> None:
        """Fill the daemon's cache with this caller's ``cache=use`` cases
        (untimed, checked), so every timed ``cache=use`` request hits."""
        for case in self.cached:
            self.request("compress", case, "use")

    def _matches(self, op: str, case, result) -> bool:
        """Served result equals the in-process one (checked every time)."""
        if op == "compress":
            if result != self.ref.blob[case.key]:
                self.tally.fail("mismatch", f"{case.key} served stream")
                return False
            return True
        if result.dtype != case.array.dtype:
            self.tally.fail("dtype", f"{case.key} {result.dtype}")
            return False
        if result.shape != case.array.shape:
            self.tally.fail("shape", f"{case.key} {result.shape}")
            return False
        if np.ascontiguousarray(result).tobytes() != self.ref.out[case.key]:
            self.tally.fail("mismatch", f"{case.key} served output")
            return False
        return True


class TrafficPass:
    """One pass of every caller's plan."""

    def __init__(self, cpu_s) -> None:
        #: (path, op, caller-observed seconds, uncompressed bytes) per
        #: completed request
        self.done: list[tuple[str, str, float, int]] = []
        self.host = HostSample(cpu_s)  # steal and reference slices


def run_traffic(callers, seconds: float, rng: np.random.Generator,
                daemon: Daemon, ctx=None) -> list[TrafficPass]:
    """Whole passes until ``seconds`` have passed (at least one).

    One thread sends every request and waits for its reply, so one
    request is in flight at a time; the callers' plans are merged in a
    seeded order, so the two paths interleave.
    """
    cal = Calibrator()
    deadline = time.monotonic() + seconds
    passes: list[TrafficPass] = []
    request_id = 0
    while not passes or time.monotonic() < deadline:
        tp = TrafficPass(lambda: time.process_time() + daemon.cpu_s())
        passes.append(tp)
        plan = sorted((item for c in callers for item in c.plan(rng)),
                      key=lambda item: item[0])
        for _, caller, op, case, cache in plan:
            cal.maybe(tp.host)
            request_id += 1
            elapsed = caller.request(op, case, cache, ctx, request_id)
            if elapsed is not None:
                tp.done.append((caller.path, op, elapsed, case.nbytes))
        tp.host.close()
    return passes


def traffic_metrics(passes: list[TrafficPass]) -> dict:
    """Whole-run totals over caller-observed request times.

    Every pass's times are first corrected for host noise
    (:meth:`calibrate.HostSample.factor`).  The raw figures go to
    ``_raw``.
    """
    scale = [p.host.factor() for p in passes]

    def rates(f):
        secs = {"compress": 0.0, "decompress": 0.0}
        nbytes = {"compress": 0, "decompress": 0}
        for p, k in zip(passes, f):
            for _, op, s, n in p.done:
                secs[op] += s * k
                nbytes[op] += n
        requests = sum(len(p.done) for p in passes)
        return {"compress_MBps": nbytes["compress"] / secs["compress"] / 1e6,
                "decompress_MBps":
                    nbytes["decompress"] / secs["decompress"] / 1e6,
                "served_rps": requests / (secs["compress"]
                                          + secs["decompress"])}

    out = rates(scale)
    raw = rates([1.0] * len(passes))
    lat = stats.latency_summary([s * k * 1e3 for p, k in zip(passes, scale)
                                 for _, _, s, _ in p.done])
    out.update(served_ms_p50=lat["p50"], served_ms_p90=lat["p90"],
               _latency=lat, _raw=raw,
               _host_speed=raw["served_rps"] / out["served_rps"])
    return out
