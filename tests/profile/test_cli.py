"""The ``pressio profile`` CLI: capture mode, diff mode, error paths."""

import json

import pytest

from repro.profile.cli import run_profile
from repro.trace import disable_tracing

from .test_diff import BASE, make_profile


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    disable_tracing()
    yield
    disable_tracing()


def capture_args(tmp_path, *extra):
    return ["--compressor", "sz", "--synthetic", "nyx",
            "--dims", "12,12,12", "--option", "pressio:abs=1e-3",
            "--reps", "2", "--no-sample", *extra]


class TestCaptureMode:
    def test_prints_stage_table_and_memory_report(self, tmp_path, capsys):
        assert run_profile(capture_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "sum(exclusive)" in out
        assert "100.0%" in out
        assert "sz:quantize" in out
        assert "allocation: peak" in out

    def test_writes_artifacts(self, tmp_path, capsys):
        json_path = tmp_path / "p.json"
        folded = tmp_path / "p.folded"
        chrome = tmp_path / "p.chrome.json"
        rc = run_profile(capture_args(
            tmp_path, "--json", str(json_path),
            "--flamegraph", str(folded), "--chrome-trace", str(chrome)))
        assert rc == 0
        profile = json.loads(json_path.read_text())
        assert profile["schema"] == "pressio-profile/1"
        assert profile["meta"]["compressor"] == "sz"
        assert sum(r["exclusive_ns"] for r in profile["stages"]) == (
            profile["wall_ns"])
        assert folded.read_text().strip()
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_requires_compressor(self, capsys):
        assert run_profile(["--synthetic", "nyx"]) == 2
        assert "compressor is required" in capsys.readouterr().err

    def test_unknown_compressor_errors(self, capsys):
        assert run_profile(["--compressor", "nope",
                            "--synthetic", "nyx"]) == 2

    def test_bad_option_syntax_errors(self, capsys):
        rc = run_profile(["--compressor", "sz", "--synthetic", "nyx",
                          "--option", "no-equals-sign"])
        assert rc == 2
        assert "KEY=VALUE" in capsys.readouterr().err


class TestDiffMode:
    def test_diff_names_perturbed_stage(self, tmp_path, capsys):
        slow = dict(BASE, **{"compress/sz:entropy": 15.0})
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(make_profile(BASE)))
        b.write_text(json.dumps(make_profile(slow)))
        assert run_profile(["--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "primary attribution: compress/sz:entropy" in out

    def test_diff_needs_exactly_two_paths(self, tmp_path, capsys):
        assert run_profile(["--diff", str(tmp_path / "only.json")]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_diff_rejects_missing_file(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(make_profile(BASE)))
        rc = run_profile(["--diff", str(a), str(tmp_path / "missing.json")])
        assert rc == 2


class TestDispatch:
    def test_top_level_cli_routes_profile(self, tmp_path, capsys):
        from repro.tools.cli import run

        slow = dict(BASE, **{"compress/sz:entropy": 15.0})
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(make_profile(BASE)))
        b.write_text(json.dumps(make_profile(slow)))
        assert run(["profile", "--diff", str(a), str(b)]) == 0
        assert "primary attribution" in capsys.readouterr().out


class TestLeafStageBytes:
    """Every leaf codec stage stamps its bytes, so the profile prints MB/s."""

    @pytest.mark.parametrize("compressor,stages", [
        ("sz", {"compress": ("sz:quantize", "sz:predict", "sz:entropy"),
                "decompress": ("sz:entropy", "sz:predict",
                               "sz:dequantize")}),
        ("zfp", {"compress": ("zfp:quantize", "zfp:transform",
                              "zfp:bitplane", "zfp:entropy"),
                 "decompress": ("zfp:entropy", "zfp:transform",
                                "zfp:dequantize")}),
        ("mgard", {"compress": ("mgard:decompose", "mgard:quantize",
                                "mgard:entropy"),
                   "decompress": ("mgard:entropy", "mgard:dequantize",
                                  "mgard:reconstruct")}),
    ])
    def test_stage_rows_carry_bytes(self, tmp_path, capsys, compressor,
                                    stages):
        json_path = tmp_path / "p.json"
        rc = run_profile(["--compressor", compressor, "--synthetic", "nyx",
                          "--dims", "32,32,32", "--option",
                          "pressio:abs=1e-4", "--reps", "1", "--no-sample",
                          "--no-alloc", "--json", str(json_path)])
        assert rc == 0
        rows = {r["path"]: r for r in
                json.loads(json_path.read_text())["stages"]}
        for op, names in stages.items():
            for stage in names:
                assert f"{op}[{compressor}]/{stage}" in rows
        leaf = [r for path, r in rows.items()
                if path.split("/")[-1].startswith(f"{compressor}:")]
        assert len(leaf) == sum(len(n) for n in stages.values())
        for row in leaf:
            assert row["bytes_in"] > 0 and row["bytes_out"] > 0, row["path"]
            assert row["bytes_per_s"] > 0, row["path"]
