"""``pressio top``: frame computation, rendering, and the CLI loop."""

import numpy as np
import pytest

from repro import PressioData, obs
from repro.obs import prometheus as prom
from repro.obs import runtime as obs_runtime
from repro.tools.cli import run as cli_run
from repro.tools.top import (CompressorRow, TopFrame, _series_sum,
                             compute_frame, render_frame, run_top,
                             sample_local)


@pytest.fixture(autouse=True)
def _clean_metrics():
    obs_runtime.disable_metrics()
    yield
    obs_runtime.disable_metrics()


def doc_from(text: str) -> prom.ParsedExposition:
    return prom.parse(text)


SCRAPE_T0 = """\
pressio_operations_total{operation="compress",plugin="sz"} 10
pressio_operations_total{operation="decompress",plugin="sz"} 10
pressio_operations_total{operation="compress",plugin="zfp"} 4
pressio_processed_bytes_total{direction="in",plugin="sz"} 1000
pressio_processed_bytes_total{direction="out",plugin="sz"} 90000
pressio_last_compression_ratio{plugin="sz"} 3.7
pressio_errors_total{operation="decompress",plugin="zfp",etype="E"} 1
pressio_pool_bytes 2048
pressio_quality_ratio_count{compressor="sz"} 7
"""

SCRAPE_T1 = """\
pressio_operations_total{operation="compress",plugin="sz"} 25
pressio_operations_total{operation="decompress",plugin="sz"} 25
pressio_operations_total{operation="compress",plugin="zfp"} 4
pressio_processed_bytes_total{direction="in",plugin="sz"} 3000
pressio_processed_bytes_total{direction="out",plugin="sz"} 95000
pressio_last_compression_ratio{plugin="sz"} 3.8
pressio_errors_total{operation="decompress",plugin="zfp",etype="E"} 3
"""


class TestSeriesSum:
    def test_groups_by_plugin_aggregating_other_labels(self):
        doc = doc_from(SCRAPE_T0)
        assert _series_sum(doc, "pressio_operations_total") == \
            {"sz": 20.0, "zfp": 4.0}

    def test_match_filters_exactly(self):
        doc = doc_from(SCRAPE_T0)
        assert _series_sum(doc, "pressio_processed_bytes_total",
                           direction="in") == {"sz": 1000.0}

    def test_compressor_label_is_a_plugin_fallback(self):
        doc = doc_from('pressio_quality_ratio_count{compressor="sz"} 2\n')
        assert _series_sum(doc, "pressio_quality_ratio_count") == \
            {"sz": 2.0}


class TestComputeFrame:
    def test_first_frame_has_totals_but_zero_rates(self):
        frame = compute_frame(doc_from(SCRAPE_T0), None, 0.0, "test")
        assert frame.total_ops == 24 and frame.total_errors == 1
        assert all(r.ops_per_s == 0.0 for r in frame.rows)
        assert frame.pool == {"bytes": 2048.0}
        assert frame.quality_count == 7.0

    def test_rates_are_deltas_over_elapsed(self):
        frame = compute_frame(doc_from(SCRAPE_T1), doc_from(SCRAPE_T0),
                              2.0, "test")
        by_plugin = {r.plugin: r for r in frame.rows}
        sz = by_plugin["sz"]
        assert sz.ops_per_s == pytest.approx((50 - 20) / 2.0)
        assert sz.bytes_per_s == pytest.approx((3000 - 1000) / 2.0)
        assert sz.last_ratio == 3.8
        assert by_plugin["zfp"].errors_per_s == pytest.approx(1.0)
        # busiest compressor sorts first
        assert frame.rows[0].plugin == "sz"

    def test_counter_decrease_clamps_to_zero_rate(self):
        # the scraped process restarted between polls: counters reset
        frame = compute_frame(doc_from(SCRAPE_T0), doc_from(SCRAPE_T1),
                              2.0, "test")
        by_plugin = {r.plugin: r for r in frame.rows}
        assert by_plugin["sz"].ops_per_s == 0.0
        assert by_plugin["sz"].bytes_per_s == 0.0
        assert by_plugin["zfp"].errors_per_s == 0.0

    def test_zero_elapsed_never_divides(self):
        frame = compute_frame(doc_from(SCRAPE_T1), doc_from(SCRAPE_T0),
                              0.0, "test")
        assert all(r.ops_per_s == 0.0 for r in frame.rows)


class TestRenderFrame:
    def _frame(self):
        return TopFrame(source="test", at=0.0, rows=[
            CompressorRow(plugin="sz", ops_total=20, ops_per_s=7.5,
                          bytes_per_s=700 * 1024.0, last_ratio=3.7),
            CompressorRow(plugin="zfp", ops_total=4, errors_total=2,
                          errors_per_s=0.5),
        ], pool={"bytes": 2048.0, "hits": 5, "misses": 1},
           active_spans=2, flight="on (3/1024 events, 0 dumps)")

    def test_plain_mode_has_no_escape_codes(self):
        body = render_frame(self._frame(), ansi=False)
        assert "\x1b[" not in body
        assert "COMPRESSOR" in body and "sz" in body
        assert "700.0KiB/s" in body
        assert "spans active: 2" in body
        assert "flight: on (3/1024 events, 0 dumps)" in body
        assert "pool: 2.0KiB held, 5 hits/1 misses" in body

    def test_ansi_mode_styles_header_and_errors(self):
        body = render_frame(self._frame(), ansi=True)
        assert "\x1b[36m" in body  # cyan column header
        assert "\x1b[31m" in body  # red nonzero error count

    def test_empty_frame_renders_placeholder(self):
        body = render_frame(TopFrame(source="test", at=0.0), ansi=False)
        assert "(no operations recorded yet)" in body


class TestSampleLocal:
    def test_none_when_collection_disabled(self):
        assert obs_runtime.ACTIVE is None
        assert sample_local() is None

    def test_matches_http_scrape_shape(self, library):
        comp = library.get_compressor("sz")
        assert comp.set_options({"pressio:abs": 1e-4}) == 0
        data = PressioData.from_numpy(
            np.random.default_rng(2).random(256))
        template = PressioData.empty(data.dtype, data.dims)
        with obs.metrics_enabled():
            comp.decompress(comp.compress(data), template)
            doc = sample_local()
        assert doc.value("pressio_operations_total",
                         operation="compress", plugin="sz",
                         dtype="DOUBLE") == 1


class TestRunTop:
    def test_demo_renders_frames_and_exits(self, capsys):
        rc = run_top(["--demo", "--iterations", "3",
                      "--interval", "0.5", "--no-ansi"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("pressio top -") == 3
        assert "source: in-process" in out
        # by the last frame the demo workload has produced sz traffic
        last = out.rsplit("pressio top -", 1)[1]
        assert "\nsz " in last

    def test_demo_with_url_is_a_usage_error(self, capsys):
        rc = run_top(["--demo", "--url", "http://127.0.0.1:1/metrics"])
        assert rc == 2
        assert "drop --url" in capsys.readouterr().err

    def test_disabled_collection_fails_with_hint(self, capsys):
        rc = run_top(["--iterations", "1"])
        assert rc == 1
        assert "enable_metrics" in capsys.readouterr().err

    def test_unreachable_url_fails_cleanly(self, capsys):
        rc = run_top(["--url", "http://127.0.0.1:9/metrics",
                      "--iterations", "1", "--no-ansi"])
        assert rc == 1
        assert "error: scraping" in capsys.readouterr().err

    def test_remote_scrape_against_live_server(self, library, capsys):
        comp = library.get_compressor("sz")
        assert comp.set_options({"pressio:abs": 1e-4}) == 0
        data = PressioData.from_numpy(
            np.random.default_rng(4).random(256))
        template = PressioData.empty(data.dtype, data.dims)
        with obs.start_server() as server:
            url = server.url + "/metrics"
            comp.decompress(comp.compress(data), template)
            rc = run_top(["--url", url, "--iterations", "1", "--no-ansi"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"source: {url}" in out
        assert "sz" in out

    def test_cli_dispatches_top_subcommand(self, capsys):
        rc = cli_run(["top", "--demo", "--iterations", "1",
                      "--interval", "0.1", "--no-ansi"])
        assert rc == 0
        assert "pressio top -" in capsys.readouterr().out
