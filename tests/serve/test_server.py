"""End-to-end daemon tests: endpoints, payload paths, transports.

One module-scoped daemon serves every test; correctness is always
checked against the in-process plugin result, because the daemon's
contract is to be an invisible transport (see also the byte-identity
battery in ``test_conformance_serve.py``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.data import PressioData
from repro.core.library import Pressio
from repro.serve.client import ServeClient
from repro.serve.errors import (
    OptionRejectedError,
    UnknownCompressorError,
)


def _local_roundtrip(arr: np.ndarray, compressor: str,
                     options: dict | None = None) -> np.ndarray:
    lib = Pressio()
    plugin = lib.get_compressor(compressor)
    assert plugin is not None, lib.error_msg()
    if options:
        assert plugin.set_options(options) == 0, plugin.status.msg
    data = PressioData.from_numpy(np.ascontiguousarray(arr), copy=False)
    blob = plugin.compress(data)
    out = plugin.decompress(blob, PressioData.empty(data.dtype, data.dims))
    return out.to_numpy().reshape(arr.shape)


@pytest.fixture(scope="module")
def block():
    rng = np.random.default_rng(7)
    return np.cumsum(rng.standard_normal(512)).reshape(
        8, 8, 8).astype(np.float32)


class TestRoundtripCorrectness:
    @pytest.mark.parametrize("compressor", ("noop", "sz", "zfp"))
    def test_inline_matches_local(self, client, block, compressor):
        served, _stats = client.roundtrip(block, compressor)
        expected = _local_roundtrip(block, compressor)
        np.testing.assert_array_equal(served, expected)

    @pytest.mark.parametrize("compressor", ("noop", "sz", "zfp"))
    def test_shm_matches_local(self, shm_client, block, compressor):
        served, _stats = shm_client.roundtrip(block, compressor)
        expected = _local_roundtrip(block, compressor)
        np.testing.assert_array_equal(served, expected)

    def test_lean_and_full_replies_agree(self, server, block):
        lean = ServeClient(port=server.port, use_shm=True, lean=True)
        full = ServeClient(port=server.port, use_shm=True, lean=False)
        try:
            a, _ = lean.roundtrip(block, "sz")
            b, stats = full.roundtrip(block, "sz")
            np.testing.assert_array_equal(a, b)
            # the lean trade-off is documented: stats only on the full path
            assert stats.get("compressed_bytes", 0) > 0
        finally:
            lean.close()
            full.close()

    def test_http_and_raw_framing_agree(self, server, block):
        raw = ServeClient(port=server.port, use_shm=True, raw=True)
        http = ServeClient(port=server.port, use_shm=True, raw=False)
        try:
            a, _ = raw.roundtrip(block, "zfp")
            b, _ = http.roundtrip(block, "zfp")
            np.testing.assert_array_equal(a, b)
        finally:
            raw.close()
            http.close()

    def test_uds_transport_agrees_with_tcp(self, server, block):
        if server.uds_path is None:
            pytest.skip("platform refused the AF_UNIX listener")
        uds = ServeClient(use_shm=True, uds=server.uds_path)
        tcp = ServeClient(port=server.port, use_shm=True)
        try:
            a, _ = uds.roundtrip(block, "sz")
            b, _ = tcp.roundtrip(block, "sz")
            np.testing.assert_array_equal(a, b)
        finally:
            uds.close()
            tcp.close()

    def test_input_array_zero_copy_path(self, server, block):
        c = ServeClient(port=server.port, use_shm=True)
        try:
            staged = c.input_array(block.shape, block.dtype)
            staged[:] = block
            served, _ = c.roundtrip(staged, "sz")
            np.testing.assert_array_equal(
                served, _local_roundtrip(block, "sz"))
            # mutate in place: the next request must see the new bytes
            staged[:] = block * 2.0
            served2, _ = c.roundtrip(staged, "sz")
            np.testing.assert_array_equal(
                served2, _local_roundtrip(block * 2.0, "sz"))
        finally:
            c.close()


class TestOperations:
    def test_compress_then_decompress(self, client, block):
        blob, stats = client.compress(block, "zlib")
        assert stats["compressed_bytes"] == len(blob)
        out, _ = client.decompress(blob, "zlib", str(block.dtype),
                                   block.shape)
        np.testing.assert_array_equal(out, block)

    def test_options_are_honored(self, client, block):
        loose, _ = client.roundtrip(block, "sz",
                                    {"pressio:abs": 1e-1})
        tight, _ = client.roundtrip(block, "sz",
                                    {"pressio:abs": 1e-6})
        # float32 storage adds ~eps*|value| on top of the abs bound
        assert np.abs(tight - block).max() <= 1e-5
        assert np.abs(loose - block).max() <= 1e-1 + 1e-6
        np.testing.assert_array_equal(
            tight, _local_roundtrip(block, "sz", {"pressio:abs": 1e-6}))

    def test_scalar_roundtrip(self, client):
        out, _ = client.roundtrip(np.float64(3.25), "noop")
        assert out.shape == ()
        assert float(out) == 3.25

    def test_empty_array_roundtrip(self, client):
        empty = np.empty((0, 3), dtype=np.float32)
        out, _ = client.roundtrip(empty, "noop")
        assert out.size == 0

    def test_expanding_compressor_falls_back_inline(self, shm_client,
                                                    block):
        # delta_encoding expands past the out segment's 2x headroom on
        # incompressible data; the daemon must deliver inline, not fail
        served, _ = shm_client.roundtrip(block, "delta_encoding")
        np.testing.assert_array_equal(
            served, _local_roundtrip(block, "delta_encoding"))

    def test_copy_false_views_alias_the_out_segment(self, shm_client,
                                                    block):
        view, _ = shm_client.roundtrip(block, "noop", copy=False)
        copied, _ = shm_client.roundtrip(block, "noop", copy=True)
        np.testing.assert_array_equal(view, copied)

    def test_ping(self, client):
        assert client.ping() is True


class TestErrors:
    def test_unknown_compressor_is_typed_404(self, client, block):
        with pytest.raises(UnknownCompressorError):
            client.roundtrip(block, "definitely-not-a-compressor")

    def test_rejected_option_is_typed_400(self, client, block):
        with pytest.raises(OptionRejectedError):
            client.roundtrip(block, "sz", {"pressio:abs": "not-a-number"})

    def test_shm_path_raises_same_taxonomy(self, shm_client, block):
        with pytest.raises(UnknownCompressorError):
            shm_client.roundtrip(block, "definitely-not-a-compressor")

    def test_http_404_and_405(self, client):
        status, _, _ = client._http("GET", "/v1/no-such-endpoint")
        assert status == 404
        status, _, _ = client._http("GET", "/v1/compress")
        assert status == 405


class TestManagement:
    def test_health_reports_daemon_state(self, server, client, block):
        client.roundtrip(block, "noop")
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == "pressio-serve/1"
        assert health["workers"] == 4
        assert health["completed"] >= 1
        assert "uds" in health and health["uds"] == server.uds_path
        assert health["segments"]["attached"] >= 0

    def test_compressors_listing(self, client):
        ids = client.compressors()
        assert "sz" in ids and "zfp" in ids and "noop" in ids

    def test_metrics_endpoint(self, server, block):
        from repro import obs

        obs.enable_metrics()
        try:
            c = ServeClient(port=server.port, tenant="metrics-t")
            try:
                c.roundtrip(block, "noop")
                text = c.metrics_text()
            finally:
                c.close()
            assert "pressio_serve_requests_total" in text
            assert 'tenant="metrics-t"' in text
            assert "pressio_serve_request_seconds" in text
        finally:
            obs.disable_metrics()

    def test_metrics_endpoint_is_the_shared_exposition(self, server, block):
        from urllib.request import urlopen

        from repro import obs
        from repro.obs import prometheus

        obs.enable_metrics()
        try:
            c = ServeClient(port=server.port)
            try:
                c.compress(block, "sz")
            finally:
                c.close()
            with urlopen(f"{server.url}/metrics", timeout=10) as resp:
                ctype = resp.headers["Content-Type"]
                text = resp.read().decode("utf-8")
            with urlopen(f"{server.url}/healthz", timeout=10) as resp:
                health_ctype = resp.headers["Content-Type"]
        finally:
            obs.disable_metrics()
        assert ctype == prometheus.CONTENT_TYPE
        assert health_ctype == "application/json"
        assert "pressio_pool_hits_total" in text
        assert "pressio_serve_requests_total" in text

    def test_release_endpoint_forgets_segments(self, server, block):
        c = ServeClient(port=server.port, use_shm=True)
        try:
            c.roundtrip(block, "noop")
            name = c._in_seg.seg.name
            status, _, body = c._http(
                "POST", "/v1/release", json.dumps({"name": name}).encode())
            assert status == 200 and json.loads(body)["released"] is True
            status, _, _ = c._http("POST", "/v1/release", b"not json")
            assert status == 400
        finally:
            c.close()
