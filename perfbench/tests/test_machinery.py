"""Tests for the benchmark's own machinery (no timing assertions)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import calibrate, inputs, spans, stats
from perfbench.checks import Tally, Verifier
from perfbench.inprocess import Pass, Prepared, Samples, e2e_metrics, \
    round_trip, run_loop
from perfbench.served import Caller, daemon_totals


# -- percentiles ---------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert stats.supported_percentile(1000) == 99.0
    assert stats.supported_percentile(100) == 90.0
    assert stats.supported_percentile(99) == 75.0
    assert stats.supported_percentile(20) == 50.0
    assert stats.supported_percentile(19) is None


def test_latency_summary_reports_count_and_support():
    ok = stats.latency_summary([float(i) for i in range(1, 101)])
    assert ok["n"] == 100
    assert ok["supported"] and ok["beyond"] == 10
    assert ok["p50"] == pytest.approx(50.5)
    assert ok["p90"] == pytest.approx(90.1)
    assert ok["top_pct"] == 90.0
    short = stats.latency_summary([float(i) for i in range(1, 51)])
    assert short["n"] == 50
    assert not short["supported"] and short["beyond"] == 5


def test_paired_median_ratio():
    assert stats.paired_median_ratio([1, 2, 4], [2, 4, 4]) == 2.0


# -- failure counting ----------------------------------------------------

class _Raises:
    def compress(self, data):
        raise RuntimeError("planted")


class _Loosens:
    """Decompresses to the input shifted past its error bound."""

    def __init__(self, shift):
        self.shift = shift

    def compress(self, data):
        return data

    def decompress(self, blob, template):
        from repro import PressioData

        return PressioData.from_numpy(blob.to_numpy() + self.shift)


def _case(arr, bound, label="sz"):
    return inputs.Case("planted", arr, inputs.CONFIGS[label], bound, bound)


def test_failed_frac_counts_planted_exception_and_bound_violation():
    from repro import Pressio

    arr = np.linspace(0.0, 1.0, 512).reshape(8, 8, 8)
    good = inputs.make_compressor(Pressio(), inputs.CONFIGS["sz"], 1e-3)
    tally, verifier = Tally(), Verifier()
    samples = Samples()
    round_trip(Prepared(_case(arr, 1e-3), good), tally, verifier, samples)
    assert (tally.attempted, tally.failed) == (2, 0)
    round_trip(Prepared(_case(arr, 1e-3), _Raises()), tally, verifier,
               samples)
    assert (tally.attempted, tally.failed) == (3, 1)
    round_trip(Prepared(_case(arr.copy(), 1e-3), _Loosens(1e-2)), tally,
               Verifier(), samples)
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.kinds == {"exception": 1, "bound": 1}
    assert tally.failed_frac == pytest.approx(2 / 5)
    assert not tally.correct
    # only the good round trip was timed
    assert sum(len(p.lat_ms) for p in samples.passes) == 2


def test_refusals_count_as_failed_but_not_incorrect():
    tally = Tally()
    tally.attempt()
    tally.attempt()
    tally.fail("refused", "429")
    assert tally.failed_frac == 0.5
    assert tally.correct


def test_verifier_rechecks_a_changed_output():
    arr = np.zeros((4, 4))
    tally, verifier = Tally(), Verifier()
    assert verifier.check(tally, "k", arr, arr + 1e-4, 1e-3)
    assert verifier.check(tally, "k", arr, arr + 1e-4, 1e-3)
    assert not verifier.check(tally, "k", arr, arr + 1.0, 1e-3)
    assert not verifier.check(tally, "k", arr, arr[:2], 1e-3)
    assert not verifier.check(tally, "k", arr,
                              (arr + 1e-4).astype(np.float32), 1e-3)
    assert tally.kinds == {"bound": 1, "shape": 1, "dtype": 1}


# -- seed determinism ----------------------------------------------------

def test_same_seed_same_inputs():
    a = inputs.small_blocks(5, per_kind=1)
    b = inputs.small_blocks(5, per_kind=1)
    c = inputs.small_blocks(6, per_kind=1)
    assert [n for n, _ in a] == [n for n, _ in b]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))
    assert not all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, c))
    f1 = inputs.paper_fields(3, side=16)
    f2 = inputs.paper_fields(3, side=16)
    f3 = inputs.paper_fields(4, side=16)
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(f1, f2))
    assert not all(np.array_equal(x, y) for (_, x), (_, y) in zip(f1, f3))
    assert inputs.served_arrays(2, 0, 2, 1)[2][1].shape == (64, 64, 64)


def test_periodic_variant_keeps_values():
    base = np.arange(4 * 5 * 6, dtype=np.float32).reshape(4, 5, 6)
    v = inputs.periodic_variant(base, 1, (1, 2))
    assert v.shape == base.shape
    assert np.array_equal(np.sort(v, axis=None), np.sort(base, axis=None))
    # axis 0 is never moved
    assert np.array_equal(np.sort(v[0], axis=None),
                          np.sort(base[0], axis=None))


def _ratio(seed):
    from repro import Pressio
    from perfbench.inprocess import prepare

    blocks = inputs.small_blocks(seed, per_kind=1)
    cases = inputs.small_cases(blocks)
    samples = Samples()
    run_loop(prepare(Pressio(), cases), 0.0, np.random.default_rng(seed),
             Tally(), Verifier(), samples)
    return e2e_metrics(samples)["compression_ratio"]


def test_same_seed_same_compression_ratio():
    assert _ratio(9) == _ratio(9)


# -- throughput over passes ----------------------------------------------

def _passes(slow_every: int) -> Samples:
    """Ten passes of four 1 MB cases; every ``slow_every``-th call is 10x."""
    samples = Samples()
    case = SimpleNamespace(key="k", nbytes=1_000_000)
    t, n = 0.0, 0
    for p in range(10):
        if p:
            samples.passes.append(Pass())
        for _ in range(4):
            n += 1
            dt = 0.01 if slow_every and n % slow_every == 0 else 0.001
            samples.add(case, t, t + dt, t + dt, t + dt + 0.001, 1000)
            t += dt + 0.001
    return samples


def test_intermittent_slowdown_moves_throughput():
    steady = e2e_metrics(_passes(0))
    assert steady["compress_MBps"] == pytest.approx(1000.0)
    # one call in two is slow: every pass's total moves
    assert e2e_metrics(_passes(2))["compress_MBps"] == pytest.approx(
        4e6 / (2 * 0.001 + 2 * 0.01) / 1e6)
    # even one call in four moves every pass
    assert e2e_metrics(_passes(4))["compress_MBps"] < \
        0.5 * steady["compress_MBps"]


def _host(slices=(), cpu=0.0, steal=0.0):
    host = calibrate.HostSample()
    host.slices, host.cpu, host.steal = list(slices), cpu, steal
    return host


def test_host_factor_takes_out_steal_and_slowness():
    ref = calibrate.REF_SLICE_S
    assert _host().factor() == 1.0
    # a quarter of the CPU time the work wanted was stolen
    assert _host(cpu=1.5, steal=0.5).factor() == pytest.approx(0.75)
    # two threads wanted twice the CPU and lost twice the steal
    assert _host(cpu=3.0, steal=1.0).factor() == pytest.approx(0.75)
    # slices at half speed; the one stolen slice does not count twice
    assert _host([2 * ref, 2 * ref, 9 * ref]).factor() == pytest.approx(0.5)
    assert _host([2 * ref], cpu=0.5, steal=0.5).factor() == \
        pytest.approx(0.25)


def test_host_factor_scales_each_pass():
    slow = _passes(0)
    # the host ran every reference slice at half speed in every pass
    for p in slow.passes:
        p.host = _host([2 * calibrate.REF_SLICE_S] * 3)
    got = e2e_metrics(slow)
    assert got["_raw"]["compress_MBps"] == pytest.approx(1000.0)
    assert got["compress_MBps"] == pytest.approx(2000.0)
    assert got["served_ms_p50"] == pytest.approx(0.5)
    assert got["_host_speed"] == pytest.approx(0.5)


# -- served request plan -------------------------------------------------

def _plan(seed):
    cases = [SimpleNamespace(key=f"{side}.{i}", array=np.empty((side, 1, 1)))
             for side, n in ((24, 8), (64, 4)) for i in range(n)]
    caller = Caller(None, "shm", cases, None, np.random.default_rng(seed))
    return caller.plan(np.random.default_rng(seed + 100))


def test_every_pass_does_the_same_work():
    plans = [_plan(seed) for seed in (1, 2)]
    for plan in plans:
        ops = sorted((op, cache, case.array.shape[0])
                     for _, _, op, case, cache in plan)
        # each case compressed and decompressed once; a quarter of each
        # size once more with cache=use
        assert ops == sorted(
            [("compress", "bypass", 24)] * 8 + [("compress", "bypass", 64)] * 4
            + [("decompress", "bypass", 24)] * 8
            + [("decompress", "bypass", 64)] * 4
            + [("compress", "use", 24)] * 2 + [("compress", "use", 64)])
        first = {case.key: k for k, _, op, case, cache in plan
                 if op == "compress" and cache == "bypass"}
        assert all(k > first[case.key] for k, _, op, case, cache in plan
                   if op == "decompress" or cache == "use")
    # only the order and the cached quarter depend on the seed
    assert [c.key for _, _, _, c, _ in plans[0]] != \
        [c.key for _, _, _, c, _ in plans[1]]


# -- span arithmetic -----------------------------------------------------

def _sp(span_id, parent_id, start, end, name="s", thread=1):
    return SimpleNamespace(name=name, span_id=span_id, parent_id=parent_id,
                           thread_id=thread, start_ns=start, end_ns=end)


def test_union_merges_overlaps_and_clips():
    assert spans.union_ns([(0, 10), (5, 15), (20, 25)], 0, 100) == 20
    assert spans.union_ns([(0, 10), (5, 15)], lo=3, hi=12) == 9
    assert spans.union_ns([], 0, 100) == 0


def test_self_time_on_hand_built_tree():
    root = _sp(1, None, 0, 100, "bench:native.sz.compress")
    a = _sp(2, 1, 10, 40, "sz:quantize")
    b = _sp(3, 1, 40, 90, "sz:entropy")
    a1 = _sp(4, 2, 15, 25, "sz:inner")
    # a parallel child overlapping b must not be subtracted twice
    b2 = _sp(5, 1, 50, 80, "sz:entropy", thread=2)
    tree = spans.children_of([root, a, b, a1, b2])
    assert spans.self_time_ns(root, tree[1]) == 100 - 80
    assert spans.self_time_ns(a, tree[2]) == 30 - 10
    got = spans.stage_self_times(root, tree)
    assert got == {"sz:quantize": 20, "sz:inner": 10, "sz:entropy": 80}
    assert spans.first_seen(root, tree) == ["sz:quantize", "sz:inner",
                                            "sz:entropy"]


def test_wait_covers_parallel_parts_and_orphans():
    execs = _sp(1, None, 0, 100, "compress", thread=1)
    part1 = _sp(2, 1, 10, 60, "compress", thread=2)     # handed the span
    part2 = _sp(3, None, 20, 90, "sz:quantize", thread=3)  # orphan
    nested = _sp(4, 3, 30, 40, "sz:predict", thread=3)
    outside = _sp(5, None, 150, 160, "sz:quantize", thread=4)
    everything = [execs, part1, part2, nested, outside]
    assert sorted(spans.part_windows(execs, everything)) == [(10, 60),
                                                             (20, 90)]
    assert spans.wait_ns(execs, everything) == 80


# -- served metrics parsing ---------------------------------------------

def test_daemon_totals_from_two_scrapes():
    before = (
        'pressio_serve_request_seconds_sum{tenant="shm",op="compress"} 1\n'
        'pressio_serve_request_seconds_count{tenant="shm",op="compress"} 2\n')
    after = (
        '# HELP x y\n'
        'pressio_serve_request_seconds_sum{tenant="shm",op="compress"} 4\n'
        'pressio_serve_request_seconds_count{tenant="shm",op="compress"} 5\n'
        'pressio_serve_request_seconds_sum{tenant="shm",op="ping"} 9\n'
        'pressio_serve_cache_events_total{event="hit",tenant="shm"} 3\n')
    totals = daemon_totals(before, after)
    assert totals[("shm", "sum")] == 3.0
    assert totals[("shm", "count")] == 3.0
    assert totals[("cache", "hit")] == 3.0
    assert ("shm", "ping") not in totals
