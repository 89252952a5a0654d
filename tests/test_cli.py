"""The ``python -m repro`` command-line interface."""

import csv
import json
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.harness.figdata import FIGURES, export_all_figures, write_series


class TestMain:
    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "dgefmm: ok" in out
        assert "isda_eigh: ok" in out

    def test_memory(self, capsys):
        assert main(["memory", "--order", "512"]) == 0
        out = capsys.readouterr().out
        assert "DGEFMM" in out and "0.65" in out  # ~2/3 at order 512

    def test_report_single(self, capsys):
        assert main(["report", "--only", "section2"]) == 0
        out = capsys.readouterr().out
        assert "theoretical square cutoff: 12" in out

    def test_figures(self, tmp_path, capsys):
        assert main(["figures", "--outdir", str(tmp_path)]) == 0
        written = list(tmp_path.glob("*.csv"))
        assert len(written) == len(FIGURES)

    def test_subprocess_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "selftest"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_parallel(self, capsys):
        assert main(["parallel", "--order", "96", "--workers", "7",
                     "--depth", "2", "--repeat", "2", "--cutoff", "32"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out and "speedup" in out
        # warm pool: fresh allocation per call reported as zero
        assert "0 fresh B/call after warm-up" in out

    def test_parallel_no_pool(self, capsys):
        assert main(["parallel", "--order", "64", "--repeat", "1",
                     "--cutoff", "32", "--no-pool"]) == 0
        out = capsys.readouterr().out
        assert "untracked (no pool)" in out


class TestJsonUniformity:
    """Every subcommand accepts --json and emits the benchmark schema."""

    ALL_COMMANDS = ("report", "figures", "memory", "parallel", "plan",
                    "fuzz", "serve", "calibrate", "selftest")

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_every_command_advertises_json(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--json" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["memory", "--order", "256", "--json"],
        ["report", "--only", "section2", "--json"],
        ["plan", "--order", "48", "--json"],
        ["fuzz", "--cases", "10", "--max-dim", "12", "--json"],
        ["calibrate", "--json"],
        ["selftest", "--json"],
    ])
    def test_json_documents_share_the_bench_schema(self, argv, capsys):
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["bench"].startswith(argv[0])  # plan -> "plan_compile"
        assert isinstance(doc["params"], dict)
        assert isinstance(doc["rows"], list)

    def test_figures_json(self, tmp_path, capsys):
        assert main(["figures", "--outdir", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "figures"
        assert all("path" in row for row in doc["rows"])

    def test_internal_error_exits_70(self, monkeypatch, capsys):
        import repro.harness.report as report_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic internal failure")

        monkeypatch.setattr(report_mod, "render", boom)
        assert main(["report"]) == 70
        err = capsys.readouterr().err
        assert "RuntimeError" in err and "synthetic" in err

    def test_check_failure_exits_1_not_70(self, monkeypatch, capsys):
        # a *failed check* (serve divergence) is exit 1, not 70: the two
        # must stay distinguishable for CI lanes
        import repro.serve

        fake = {"attempts": 5, "completed": 5, "rejected": 0, "shed": 0,
                "timeouts": 0, "errors": 0, "divergent": 1,
                "achieved_rate": 5.0, "duration_s": 1.0,
                "offered_rate": 5.0, "verified": True,
                "failures": ["divergence on 4x4x4 dtype=float64"],
                "mix": [], "service": {}}
        monkeypatch.setattr(repro.serve, "run_load", lambda **kw: fake)
        assert main(["serve", "--duration", "1", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False


class TestCalibrateCli:
    def test_preset_human_output(self, capsys):
        assert main(["calibrate", "--preset", "C90"]) == 0
        out = capsys.readouterr().out
        assert "machine: C90" in out and "square crossover" in out

    def test_model_export_round_trips(self, tmp_path, capsys):
        import json as _json

        from repro.machines.calibrate import machine_from_json
        from repro.machines.presets import MACHINES

        out = tmp_path / "model.json"
        assert main(["calibrate", "--preset", "RS6000",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        with out.open() as fh:
            mach = machine_from_json(_json.load(fh))
        assert mach == MACHINES["RS6000"]


class TestTuneCli:
    """The tune subcommands honour the JSON contract and exit taxonomy."""

    @pytest.mark.parametrize(
        "subcommand", ("measure", "search", "show", "apply")
    )
    def test_every_subcommand_advertises_json(self, subcommand, capsys):
        with pytest.raises(SystemExit):
            main(["tune", subcommand, "--help"])
        assert "--json" in capsys.readouterr().out

    def test_measure_reports_one_row_per_leaf_kernel(self, capsys):
        """The CI crossover probe in miniature: a substrate row and a
        vendor row, each with predictions and a measurement or a
        reason."""
        assert main(["tune", "measure", "--lo", "32", "--hi", "64",
                     "--step", "32", "--repeats", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "tune_measure"
        assert [row["backend"] for row in doc["rows"]] == [
            "substrate", "vendor"]
        for row in doc["rows"]:
            assert row["predicted"]
            assert row["measured"] is not None or row["reason"]

    def test_show_empty_directory_json(self, tmp_path, capsys):
        assert main(["tune", "show", "--dir", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "tune_show" and doc["schema"] == 1
        assert doc["rows"] == []
        assert doc["load"]["loaded"] == 0

    def test_search_show_apply_loop(self, tmp_path, capsys):
        """The CI tune-smoke lane in miniature: short-budget search
        writes a profile, show reads it back, apply hot-swaps it."""
        prof_dir = str(tmp_path / "profiles")
        assert main(["tune", "search", "--order", "64", "--budget", "5",
                     "--out", prof_dir, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "tune_search"
        assert len(doc["rows"]) == 1 and len(doc["saved"]) == 1
        assert doc["rows"][0]["measured"]["speedup"] is not None

        assert main(["tune", "show", "--dir", prof_dir, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["stale"] is False

        assert main(["tune", "apply", "--dir", prof_dir, "--order", "64",
                     "--requests", "2", "--workers", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert all(ph["exact"] == ph["requests"] for ph in doc["rows"])


class TestFigData:
    def test_write_series_roundtrip(self, tmp_path):
        p = write_series(tmp_path / "x.csv", ["a", "b"],
                         [(1, 2.5), (3, 4.5)])
        with p.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1", "2.5"]

    def test_export_all(self, tmp_path):
        paths = export_all_figures(tmp_path, fast=True)
        assert len(paths) == 5
        for p in paths:
            with p.open() as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 5          # header + data
            assert len(rows[0]) == 2      # x, y

    def test_fig2_series_content(self, tmp_path):
        paths = export_all_figures(tmp_path, fast=True)
        fig2 = next(p for p in paths if "fig2" in p.name)
        with fig2.open() as fh:
            rows = list(csv.reader(fh))[1:]
        ms = [int(r[0]) for r in rows]
        ratios = [float(r[1]) for r in rows]
        assert ms == sorted(ms)
        assert any(r > 1 for r in ratios) and any(r < 1 for r in ratios)
