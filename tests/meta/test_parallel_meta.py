"""Tests for chunking, many_independent, many_dependent, switch, opt,
and the injectors."""

import os

import numpy as np
import pytest

from repro.core import DType, PressioData, PressioError
from tests.conftest import roundtrip


class TestChunking:
    def test_roundtrip(self, library, smooth3d):
        c = library.get_compressor("chunking")
        c.set_options({
            "chunking:compressor": "zfp",
            "chunking:chunk_size": 2048,
            "zfp:accuracy": 1e-4,
        })
        out = roundtrip(c, smooth3d)
        assert np.abs(out.reshape(-1)
                      - smooth3d.reshape(-1)).max() <= 1e-4 * (1 + 1e-9)

    def test_uneven_final_chunk(self, library):
        arr = np.random.default_rng(0).standard_normal(1000).cumsum()
        c = library.get_compressor("chunking")
        c.set_options({"chunking:compressor": "zfp",
                       "chunking:chunk_size": 300,
                       "zfp:accuracy": 1e-5})
        out = roundtrip(c, arr)
        assert np.abs(out.reshape(-1) - arr).max() <= 1e-5 * (1 + 1e-9)

    def test_parallel_matches_serial(self, library, smooth3d):
        streams = []
        for nthreads in (1, 4):
            c = library.get_compressor("chunking")
            c.set_options({"chunking:compressor": "zfp",
                           "chunking:chunk_size": 1024,
                           "chunking:nthreads": nthreads,
                           "zfp:accuracy": 1e-4})
            streams.append(c.compress(
                PressioData.from_numpy(smooth3d)).to_bytes())
        assert streams[0] == streams[1]

    def test_serializes_for_unsafe_inner(self, library, smooth3d):
        """sz advertises single-thread safety: chunking must not clone it."""
        c = library.get_compressor("chunking")
        c.set_options({"chunking:compressor": "sz",
                       "chunking:chunk_size": 2048,
                       "chunking:nthreads": 8,
                       "pressio:abs": 1e-4})
        out = roundtrip(c, smooth3d)
        assert np.abs(out.reshape(-1)
                      - smooth3d.reshape(-1)).max() <= 1e-4 * (1 + 1e-9)

    def test_bad_chunk_size_rejected(self, library):
        c = library.get_compressor("chunking")
        assert c.set_options({"chunking:chunk_size": 0}) != 0


class TestSerialDegradation:
    """An inner plugin advertising single-thread safety must degrade the
    parallel metas to serial execution — no pool, no clones — while
    producing exactly the bytes the parallel path would."""

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        """Make any submission to the shared worker pool an error."""
        from repro.meta import executor

        def forbidden(*args, **kwargs):
            raise AssertionError(
                "worker pool reached for a single-thread-safe inner")

        monkeypatch.setattr(executor, "submit", forbidden)

    def _chunking(self, library, nthreads):
        c = library.get_compressor("chunking")
        c.set_options({"chunking:compressor": "sz",
                       "chunking:chunk_size": 2048,
                       "chunking:nthreads": nthreads,
                       "pressio:abs": 1e-4})
        return c

    def test_unsafe_inner_spawns_no_pool(self, library, smooth3d, no_pool):
        out = roundtrip(self._chunking(library, 8), smooth3d)
        assert np.abs(out.reshape(-1)
                      - smooth3d.reshape(-1)).max() <= 1e-4 * (1 + 1e-9)

    def test_unsafe_inner_never_cloned(self, library, smooth3d, monkeypatch):
        from repro.compressors.sz import SZCompressor

        def no_clone(self):
            raise AssertionError("single-thread-safe inner was cloned")

        monkeypatch.setattr(SZCompressor, "clone", no_clone)
        roundtrip(self._chunking(library, 8), smooth3d)

    def test_degraded_output_matches_parallel_path(self, library, smooth3d):
        data = PressioData.from_numpy(smooth3d)
        degraded = self._chunking(library, 8).compress(data).to_bytes()
        serial = self._chunking(library, 1).compress(data).to_bytes()
        assert degraded == serial

    def test_many_independent_degrades_serially(self, library, no_pool):
        m = library.get_compressor("many_independent")
        m.set_options({"many_independent:compressor": "sz",
                       "many_independent:nthreads": 8,
                       "pressio:abs": 1e-4})
        rng = np.random.default_rng(7)
        bufs = [PressioData.from_numpy(rng.standard_normal(512).cumsum())
                for _ in range(4)]
        streams = m.compress_many(bufs)
        outs = m.decompress_many(
            streams, [PressioData.empty(b.dtype, b.dims) for b in bufs])
        for buf, out in zip(bufs, outs):
            assert np.abs(np.asarray(out.to_numpy())
                          - np.asarray(buf.to_numpy())
                          ).max() <= 1e-4 * (1 + 1e-9)

    def test_reentrant_inner_still_parallelizes(self, library, smooth3d,
                                                monkeypatch):
        """Control: the degradation path must not swallow re-entrant
        inners — zfp with several chunks must reach the pool."""
        from repro.meta import executor

        spawned = []
        real = executor.submit

        def recording(*args, **kwargs):
            spawned.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor, "submit", recording)
        c = library.get_compressor("chunking")
        c.set_options({"chunking:compressor": "zfp",
                       "chunking:chunk_size": 1024,
                       "chunking:nthreads": 4,
                       "zfp:accuracy": 1e-4})
        roundtrip(c, smooth3d)
        assert spawned, "re-entrant inner never reached the worker pool"


class TestManyIndependent:
    def test_compress_many_roundtrip(self, library, smooth3d):
        m = library.get_compressor("many_independent")
        m.set_options({"many_independent:compressor": "zfp",
                       "many_independent:nthreads": 4,
                       "zfp:accuracy": 1e-4})
        inputs = [PressioData.from_numpy(smooth3d + k) for k in range(6)]
        streams = m.compress_many(inputs)
        outputs = [PressioData.empty(DType.DOUBLE, smooth3d.shape)
                   for _ in inputs]
        results = m.decompress_many(streams, outputs)
        for k, res in enumerate(results):
            assert np.abs(np.asarray(res.to_numpy())
                          - (smooth3d + k)).max() <= 1e-4 * (1 + 1e-9)

    def test_single_compress_passthrough(self, library, smooth3d):
        m = library.get_compressor("many_independent")
        m.set_options({"many_independent:compressor": "zfp",
                       "zfp:accuracy": 1e-3})
        out = roundtrip(m, smooth3d)
        assert np.abs(out - smooth3d).max() <= 1e-3 * (1 + 1e-9)


class TestManyDependent:
    def test_forwards_metric_to_option(self, library):
        """Value-range measured on step k seeds the bound of step k+1."""
        rng = np.random.default_rng(3)
        steps = [rng.standard_normal((16, 16)).cumsum(axis=0) * (1 + 0.05 * k)
                 for k in range(4)]
        m = library.get_compressor("many_dependent")
        m.set_options({
            "many_dependent:compressor": "sz",
            "many_dependent:from_metric": "error_stat:value_range",
            "many_dependent:to_option": "sz:abs_err_bound",
            "many_dependent:scale": 1e-4,
            "pressio:abs": 1e-3,  # bound for the first buffer
        })
        streams = m.compress_many([PressioData.from_numpy(s) for s in steps])
        assert len(streams) == 4
        # later buffers were compressed with the forwarded (range * 1e-4)
        # bound: verify the final inner configuration reflects it
        final_bound = m.get_options().get("sz:abs_err_bound")
        expected = (steps[2].max() - steps[2].min()) * 1e-4
        assert final_bound == pytest.approx(expected, rel=1e-6)


class TestSwitch:
    def test_dispatches_to_active(self, library, smooth3d):
        s = library.get_compressor("switch")
        s.set_options({
            "switch:compressor_ids": ["sz", "zfp"],
            "switch:active_id": "zfp",
            "zfp:accuracy": 1e-4,
            "pressio:abs": 1e-4,
        })
        out = roundtrip(s, smooth3d)
        assert np.abs(out - smooth3d).max() <= 1e-4 * (1 + 1e-9)

    def test_stream_remembers_producer(self, library, smooth3d):
        """Streams stay decompressible after the active id changes."""
        s = library.get_compressor("switch")
        s.set_options({"switch:active_id": "sz", "pressio:abs": 1e-4})
        data = PressioData.from_numpy(smooth3d)
        stream = s.compress(data)
        s.set_options({"switch:active_id": "noop"})
        out = s.decompress(stream,
                           PressioData.empty(DType.DOUBLE, smooth3d.shape))
        assert np.abs(np.asarray(out.to_numpy())
                      - smooth3d).max() <= 1e-4 * (1 + 1e-9)

    def test_candidates_listed_in_configuration(self, library):
        s = library.get_compressor("switch")
        s.set_options({"switch:compressor_ids": ["sz", "zfp", "noop"]})
        cands = s.get_configuration().get("switch:candidates")
        assert set(cands) >= {"sz", "zfp", "noop"}


class TestOpt:
    def test_hits_target_ratio(self, library, nyx_small):
        opt = library.get_compressor("opt")
        opt.set_options({
            "opt:compressor": "sz",
            "opt:objective": "target_ratio",
            "opt:target_ratio": 10.0,
            "opt:ratio_tolerance_pct": 10.0,
            "opt:bound_low": 1e-10,
            "opt:bound_high": 10.0,
        })
        data = PressioData.from_numpy(nyx_small)
        compressed = opt.compress(data)
        achieved = data.size_in_bytes / compressed.size_in_bytes
        assert achieved == pytest.approx(10.0, rel=0.10)
        results = opt.get_options()
        assert results.get("opt:chosen_bound") > 0
        assert results.get("opt:iterations") >= 1

    def test_quality_floor_objective(self, library, nyx_small):
        opt = library.get_compressor("opt")
        opt.set_options({
            "opt:compressor": "sz",
            "opt:objective": "max_ratio_with_quality",
            "opt:quality_metric": "error_stat:psnr",
            "opt:quality_min": 60.0,
            "opt:bound_low": 1e-10,
            "opt:bound_high": 10.0,
        })
        data = PressioData.from_numpy(nyx_small)
        compressed = opt.compress(data)
        # verify the chosen configuration actually satisfies the floor
        out = opt.decompress(compressed,
                             PressioData.empty(DType.DOUBLE, nyx_small.shape))
        err = np.asarray(out.to_numpy()) - nyx_small
        mse = float(np.mean(err ** 2))
        vr = nyx_small.max() - nyx_small.min()
        psnr = 20 * np.log10(vr) - 10 * np.log10(mse)
        assert psnr >= 60.0 - 0.5

    def test_decompress_uses_inner(self, library, nyx_small):
        opt = library.get_compressor("opt")
        opt.set_options({"opt:compressor": "sz", "opt:target_ratio": 5.0,
                         "opt:bound_high": 1.0})
        out = roundtrip(opt, nyx_small)
        assert out.shape == nyx_small.shape

    def test_bad_interval_rejected(self, library):
        opt = library.get_compressor("opt")
        assert opt.set_options({"opt:bound_low": 1.0,
                                "opt:bound_high": 0.5}) != 0

    def test_bad_objective_rejected(self, library):
        opt = library.get_compressor("opt")
        assert opt.set_options({"opt:objective": "nonsense"}) != 0


class TestInjectors:
    def test_fault_injector_corrupts_or_detects(self, library, smooth3d):
        f = library.get_compressor("fault_injector")
        f.set_options({
            "fault_injector:compressor": "sz",
            "fault_injector:num_faults": 4,
            "fault_injector:seed": 123,
            "pressio:abs": 1e-4,
        })
        data = PressioData.from_numpy(smooth3d)
        stream = f.compress(data)
        template = PressioData.empty(DType.DOUBLE, smooth3d.shape)
        try:
            out = f.decompress(stream, template)
            # survived: values may differ but shape contract holds
            assert out.dims == smooth3d.shape
        except PressioError:
            pass  # detection is equally acceptable

    def test_zero_faults_is_clean(self, library, smooth3d):
        f = library.get_compressor("fault_injector")
        f.set_options({"fault_injector:compressor": "sz",
                       "fault_injector:num_faults": 0,
                       "pressio:abs": 1e-4})
        out = roundtrip(f, smooth3d)
        assert np.abs(out - smooth3d).max() <= 1e-4 * (1 + 1e-9)

    def test_error_injector_adds_noise(self, library, smooth3d):
        e = library.get_compressor("error_injector")
        e.set_options({
            "error_injector:compressor": "noop",
            "error_injector:distribution": "normal",
            "error_injector:scale": 0.1,
            "error_injector:seed": 7,
        })
        out = roundtrip(e, smooth3d)
        noise = out - smooth3d
        assert 0.05 < noise.std() < 0.2
        assert abs(noise.mean()) < 0.01

    def test_error_injector_uniform_bounded(self, library, smooth3d):
        e = library.get_compressor("error_injector")
        e.set_options({
            "error_injector:compressor": "noop",
            "error_injector:distribution": "uniform",
            "error_injector:scale": 0.05,
        })
        out = roundtrip(e, smooth3d)
        assert np.abs(out - smooth3d).max() <= 0.05

    def test_error_injector_seed_reproducible(self, library, smooth3d):
        outs = []
        for _ in range(2):
            e = library.get_compressor("error_injector")
            e.set_options({"error_injector:compressor": "noop",
                           "error_injector:scale": 0.1,
                           "error_injector:seed": 99})
            outs.append(roundtrip(e, smooth3d))
        assert np.array_equal(outs[0], outs[1])

    def test_bad_distribution_rejected(self, library):
        e = library.get_compressor("error_injector")
        assert e.set_options({"error_injector:distribution": "cauchy"}) != 0


class TestManyIndependentProcessMode:
    def test_process_mode_roundtrip(self, library, smooth3d):
        m = library.get_compressor("many_independent")
        assert m.set_options({
            "many_independent:compressor": "zfp",
            "many_independent:mode": "process",
            "many_independent:nthreads": 2,
            "zfp:accuracy": 1e-4,
        }) == 0
        inputs = [PressioData.from_numpy(smooth3d * (k + 1))
                  for k in range(3)]
        streams = m.compress_many(inputs)
        outs = m.decompress_many(
            streams, [PressioData.empty(DType.DOUBLE, smooth3d.shape)
                      for _ in streams])
        for k, out in enumerate(outs):
            err = np.abs(np.asarray(out.to_numpy())
                         - smooth3d * (k + 1)).max()
            assert err <= 1e-4 * (1 + 1e-9)

    def test_process_streams_match_thread_streams(self, library, smooth3d):
        results = {}
        for mode in ("thread", "process"):
            m = library.get_compressor("many_independent")
            m.set_options({
                "many_independent:compressor": "zfp",
                "many_independent:mode": mode,
                "zfp:accuracy": 1e-3,
            })
            streams = m.compress_many(
                [PressioData.from_numpy(smooth3d) for _ in range(2)])
            results[mode] = [s.to_bytes() for s in streams]
        assert results["thread"] == results["process"]

    def test_single_input_stays_in_process(self, library, smooth3d):
        m = library.get_compressor("many_independent")
        m.set_options({"many_independent:compressor": "zfp",
                       "many_independent:mode": "process",
                       "zfp:accuracy": 1e-3})
        streams = m.compress_many([PressioData.from_numpy(smooth3d)])
        assert len(streams) == 1

    def test_bad_mode_rejected(self, library):
        m = library.get_compressor("many_independent")
        assert m.set_options({"many_independent:mode": "gpu"}) != 0


def _within(seconds, fn):
    """fn() on a daemon thread; fails instead of hanging on a deadlock."""
    import threading

    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as e:  # noqa: BLE001 - re-raised below
            box["error"] = e

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"did not finish within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestSharedExecutor:
    """Nested parallel metas and forked children on the one shared pool."""

    OVERSUBSCRIBED = 2 * (os.cpu_count() or 1) + 1

    def _chunking_over_sz_omp(self, library, outer, data):
        c = library.get_compressor("chunking")
        assert c.set_options({"chunking:compressor": "sz_omp",
                              "chunking:chunk_size": 4096,
                              "chunking:nthreads": outer,
                              "sz_omp:nthreads": self.OVERSUBSCRIBED,
                              "pressio:abs": 1e-4}) == 0
        return c.compress(data).to_bytes()

    def test_chunking_over_sz_omp_nested(self, library, smooth3d):
        data = PressioData.from_numpy(smooth3d)
        serial = self._chunking_over_sz_omp(library, 1, data)
        nested = _within(60, lambda: self._chunking_over_sz_omp(
            library, self.OVERSUBSCRIBED, data))
        assert nested == serial

    def _many_over_chunking(self, library, outer, inputs):
        m = library.get_compressor("many_independent")
        assert m.set_options({"many_independent:compressor": "chunking",
                              "many_independent:nthreads": outer,
                              "chunking:compressor": "zfp",
                              "chunking:chunk_size": 2048,
                              "chunking:nthreads": self.OVERSUBSCRIBED,
                              "zfp:accuracy": 1e-4}) == 0
        return [s.to_bytes() for s in m.compress_many(inputs)]

    def test_many_independent_over_chunking_nested(self, library, smooth3d):
        inputs = [PressioData.from_numpy(smooth3d * (k + 1))
                  for k in range(5)]
        serial = self._many_over_chunking(library, 1, inputs)
        nested = _within(60, lambda: self._many_over_chunking(
            library, self.OVERSUBSCRIBED, inputs))
        assert nested == serial

    def test_forked_child_rebuilds_the_pool(self, library, smooth3d):
        import select
        import signal

        c = library.get_compressor("chunking")
        assert c.set_options({"chunking:compressor": "zfp",
                              "chunking:chunk_size": 1024,
                              "chunking:nthreads": 4,
                              "zfp:accuracy": 1e-4}) == 0
        data = PressioData.from_numpy(smooth3d)
        parent = c.compress(data).to_bytes()  # warms the shared pool
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report the stream, never return to pytest
            code = 1
            try:
                os.close(read_fd)
                blob = c.compress(data).to_bytes()
                with os.fdopen(write_fd, "wb") as out:
                    out.write(blob)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        chunks = []
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                while True:
                    ready, _, _ = select.select([pipe], [], [], 60)
                    assert ready, "forked child hung on the shared pool"
                    chunk = os.read(pipe.fileno(), 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
        assert status == 0
        assert b"".join(chunks) == parent
