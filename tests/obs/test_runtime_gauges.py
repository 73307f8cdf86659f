"""Buffer-pool gauges on the /metrics endpoint.

``ingest_runtime`` bridges the :mod:`repro.native.pool` counters into
the registry; the server refreshes them on every scrape, so a dashboard
can watch scratch-buffer recycling without any code changes in the app.
"""

import urllib.request

import numpy as np
import pytest

from repro import PressioData, obs
from repro.native import pool
from repro.obs import bridge


def get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read().decode("utf-8")


def value(body: str, metric: str) -> float:
    for line in body.splitlines():
        if line.startswith(metric + " "):
            return float(line.split()[1])
    raise AssertionError(f"{metric} not found in:\n{body}")


@pytest.fixture()
def server():
    srv = obs.start_server()
    yield srv
    srv.stop()


def test_ingest_runtime_refreshes_pool_gauges(library):
    reg = obs.MetricsRegistry()
    pool.reset_stats()
    comp = library.get_compressor("sz")
    assert comp.set_options({"pressio:abs": 1e-4}) == 0
    comp.compress(PressioData.from_numpy(
        np.random.default_rng(5).random((16, 16, 16))))

    assert bridge.ingest_runtime(reg) == 4
    stats = pool.stats()
    assert stats["hits"] + stats["misses"] > 0
    assert reg.get("pressio_pool_hits_total").value == stats["hits"]
    assert reg.get("pressio_pool_misses_total").value == stats["misses"]
    assert reg.get("pressio_pool_returns_total").value == stats["returned"]


def test_ingest_runtime_without_registry_is_noop():
    obs.disable_metrics()
    assert bridge.ingest_runtime() == 0


def test_metrics_endpoint_serves_runtime_gauges(server, library):
    pool.reset_stats()
    pool.clear()  # cold pool: the first acquires must register as misses
    # zfp recycles its lift temps within one compress on the calling
    # thread, so pool hits accrue from a single operation
    comp = library.get_compressor("zfp")
    assert comp.set_options({"pressio:abs": 1e-4}) == 0
    comp.compress(PressioData.from_numpy(
        np.random.default_rng(7).random((16, 16, 16))))

    body = get(f"{server.url}/metrics")
    assert value(body, "pressio_pool_hits_total") > 0
    assert value(body, "pressio_pool_misses_total") > 0
