#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_fields --seed 1 \\
        --seconds 15 --trace 0

``--workload all`` runs the three workloads in turn.  With ``--trace 0``
the last line of standard output is one JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric
from a separate traced run.  The exit code is nonzero when any output
was wrong (an exception, a broken bound/shape/dtype, or a served result
differing from the in-process one), or when the program under test
cannot be found next to this directory.

Set-up time is measured in fresh processes: this script starts
``SETUP_SAMPLES`` copies of itself, each timed from spawn to its first
timed operation less its input generation and less the time the host
stole meanwhile (:mod:`perfbench.calibrate`); the first copy goes on to
measure, and the reported ``setup_s`` is the median.

Untraced processes, and the daemon they start, run on one CPU.  On a
shared machine with few CPUs, a second busy thread measures the host's
scheduler and its steal, not the program: the executors' parts then
wake across CPUs, each wait as long as the host takes to run the other
virtual CPU.  The traced run keeps every CPU, so the executors' speedup
(``meta.*.speedup``) is measured there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import die_with_parent  # noqa: E402 - needs ROOT on the path
from perfbench.calibrate import steal_s  # noqa: E402

RUNDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper_fields", "small_blocks", "served_mix")

#: never used while building or tuning the benchmark; confirm claims on it
HELD_OUT_SEED = 7919
#: fresh processes timed for ``setup_s`` (the median is reported)
SETUP_SAMPLES = 3

E2E = {
    "setup_s": "s", "compress_MBps": "MB/s", "decompress_MBps": "MB/s",
    "served_rps": "1/s", "served_ms_p50": "ms", "served_ms_p90": "ms",
    "compression_ratio": "ratio", "ok_frac": "fraction",
    "peak_rss_MB": "MB",
}
E2E_BETTER = {"compress_MBps": "higher", "decompress_MBps": "higher",
              "served_rps": "higher", "compression_ratio": "higher",
              "ok_frac": "higher"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "measure"),
                   default="main", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, default=0.0,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- child: one fresh process ------------------------------------------------

def _child(args) -> int:
    if args.trace == 0:
        # one CPU for the program, its threads and its daemon
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    stolen0 = steal_s()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - part of set-up time
    from repro import _hot

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"error: imported repro from {repro.__file__}, not this "
              "checkout", file=sys.stderr)
        return 2
    hot_at_start = bool(_hot.ANY)
    if hot_at_start and args.trace == 0:
        print("error: an observer is active at start (repro._hot.ANY); an "
              "untraced run would measure a different program",
              file=sys.stderr)
        return 3
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, ROOT, RUNDIR)
    t_gen, stolen_gen = time.monotonic(), steal_s()
    wl.make_inputs()
    gen_s = time.monotonic() - t_gen
    stolen_gen = steal_s() - stolen_gen
    try:
        wl.setup()
        ready = time.monotonic()
        raw_setup_s = ready - args.spawned_at - gen_s
        # one chain of work at a time: stolen time is time it stood still
        stolen = steal_s() - stolen0 - stolen_gen
        result = {"setup_s": raw_setup_s - stolen,
                  "raw_setup_s": raw_setup_s, "hot_at_start": hot_at_start}
        if args.role == "measure":
            if args.trace == 0:
                if _hot.ANY:
                    print("error: an observer became active during set-up "
                          "(repro._hot.ANY)", file=sys.stderr)
                    return 3
                result["metrics"] = wl.measure(args.seconds)
            else:
                result["metrics"] = wl.layers(args.seconds)
    finally:
        wl.close()
    result.update(attempted=wl.tally.attempted, failed=wl.tally.failed,
                  kinds=dict(wl.tally.kinds), examples=wl.tally.examples,
                  correct=wl.tally.correct, probe_notes=wl.probe_notes)
    if args.trace == 1 and args.role == "measure":
        from repro.trace.export import write_jsonl

        path = RUNDIR / f"spans-{args.workload}-{args.seed}.jsonl"
        write_jsonl(wl.ctx, str(path))
        result["spans_file"] = str(path.relative_to(ROOT))
        result["n_spans"] = len(wl.ctx.spans())
    print(json.dumps(result, default=float))
    return 0


def _spawn(args, role: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--spawned-at", repr(time.monotonic())]
    res = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                         stdout=subprocess.PIPE, text=True, timeout=900,
                         preexec_fn=die_with_parent)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited {res.returncode}")
    return json.loads(lines[-1])


# -- main: orchestrate and report -------------------------------------------

def _record(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "source_digest": _source_digest(),
        "nproc": os.cpu_count(), "numpy": numpy.__version__,
        "python": platform.python_version(),
        "held_out_seed": HELD_OUT_SEED,
    }


def _run_one(args) -> tuple[dict, int]:
    """Run one workload; returns (result JSON object, exit code)."""
    record = _record(args)
    steal0, t0 = steal_s(), time.monotonic()
    measured = _spawn(args, "measure")
    record["host_steal_pct"] = 100.0 * (steal_s() - steal0) / (
        (time.monotonic() - t0) * os.cpu_count())
    record["hot_sentinel_at_start"] = measured["hot_at_start"]
    procs = [measured]
    if args.trace == 0:
        procs += [_spawn(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    # warm-up outputs of the set-up processes are checked too
    outcome = {"attempted": sum(p["attempted"] for p in procs),
               "failed": sum(p["failed"] for p in procs),
               "correct": all(p["correct"] for p in procs),
               "kinds": dict(sum((Counter(p["kinds"]) for p in procs),
                                 Counter())),
               "examples": [e for p in procs for e in p["examples"]][:5]}
    raw = measured["metrics"]
    if args.trace == 0:
        setup_samples = [p["setup_s"] for p in procs]
        raw["setup_s"] = statistics.median(setup_samples)
        raw["ok_frac"] = 1.0 - outcome["failed"] / outcome["attempted"]
        metrics = {k: {"value": float(raw[k]), "unit": u}
                   for k, u in E2E.items()}
        record["setup_samples_s"] = setup_samples
        record["raw_setup_samples_s"] = [p["raw_setup_s"] for p in procs]
        record["latency"] = raw["_latency"]
        record["passes"] = raw["_passes"]
        record["host_speed"] = raw["_host_speed"]
        record["unscaled"] = raw["_raw"]
    else:
        metrics = {k: {"value": float(v), "unit": _unit(k)}
                   for k, v in sorted(raw.items())}
        record["spans_file"] = measured.get("spans_file")
        record["n_spans"] = measured.get("n_spans")
        record["probe_notes"] = measured.get("probe_notes")
    record["failures"] = {"kinds": outcome["kinds"],
                          "examples": outcome["examples"]}
    RUNDIR.mkdir(exist_ok=True)
    (RUNDIR / f"run-{args.workload}-{args.seed}-{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=float))
    _report(args, record, metrics, outcome)
    result = {"correct": outcome["correct"],
              "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    return result, 0 if outcome["correct"] else 1


def _unit(name: str) -> str:
    for part, unit in (("_ms", "ms"), ("_us", "us"), ("_pct", "%"),
                       ("MB_", "MB"), ("_ratio", "ratio"),
                       ("_frac", "fraction"), ("speedup", "x"),
                       ("calls", "count")):
        if part in name:
            return unit
    return "value"


def _report(args, record, metrics, outcome) -> None:
    """Human-readable lines before the final JSON line."""
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} nproc={record['nproc']} "
          f"numpy={record['numpy']} sha={record['git_sha']} "
          f"src={record['source_digest']} held_out_seed={HELD_OUT_SEED} "
          f"host_steal_pct={record.get('host_steal_pct', float('nan')):.2f}")
    lat = record.get("latency")
    if lat:
        print(f"#   {record['passes']} passes; latency samples "
              f"n={lat['n']} with {lat['beyond']} beyond p90 (p90 "
              f"supported: {lat['supported']}; highest supported: "
              f"p{lat['top_pct']})")
        print(f"#   host speed {record['host_speed']:.3f} of reference; "
              "unscaled: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in record["unscaled"].items()))
    failed_frac = outcome["failed"] / outcome["attempted"]
    print(f"#   failed_frac = {failed_frac:.6g} "
          f"({outcome['failed']} of {outcome['attempted']}) "
          f"{outcome['kinds'] or ''}")
    for name, m in metrics.items():
        better = E2E_BETTER.get(name, "lower") if args.trace == 0 else ""
        print(f"#   {name:<44} {m['value']:>14.6g} {m['unit']:<9} {better}")
    for example in outcome["examples"]:
        print(f"#   failure: {example}")


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    if not _program_present():
        print(f"error: the program under test (src/repro) is not in "
              f"{ROOT}", file=sys.stderr)
        return 2
    if args.role != "main":
        return _child(args)
    RUNDIR.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results, code = [], 0
    for name in names:
        args.workload = name
        try:
            result, rc = _run_one(args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        code = code or rc
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
    if len(names) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()}}))
    return code


if __name__ == "__main__":
    sys.exit(main())
