"""End-to-end tests of file I/O and the command-line workflow."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankdist as rd
from rankdist import fileio
from rankdist.cli import main


GROUPED_CSV = """lo_pct,hi_pct,share
0,0.01,0.111
0.01,0.1,0.108
0.1,0.5,0.124
0.5,1,0.072
1,10,0.357
10,100,0.228
"""


@pytest.fixture
def config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 10000,
        "sigma_variant": "low",
        "out_dir": str(tmp_path / "out"),
    }))
    return cfg


class TestReaders:
    def test_grouped_shares(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(GROUPED_CSV)
        g = fileio.read_grouped_shares(path)
        assert g.shares[0] == 0.111
        assert g.brackets[0] == (0.0, 0.01)

    def test_overlapping_brackets_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("lo_pct,hi_pct,share\n0,10,0.5\n5,100,0.5\n")
        with pytest.raises(rd.BracketGapError):
            fileio.read_grouped_shares(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("lo_pct,hi_pct,share\n0,50,0.5\n50,100,oops\n")
        with pytest.raises(rd.ParseError) as info:
            fileio.read_grouped_shares(path)
        assert info.value.line == 3

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b,c\n0,100,1\n")
        with pytest.raises(rd.ParseError):
            fileio.read_grouped_shares(path)

    def test_volatility_trend_tax(self, tmp_path):
        vol = tmp_path / "v.csv"
        vol.write_text("lo_pct,hi_pct,sigma_low,sigma_high\n"
                       "0,50,0.28,0.3\n50,100,0.28,1.6\n")
        table = fileio.read_volatility_table(vol)
        assert table.sigma_high[1] == 1.6
        trend = tmp_path / "t.csv"
        trend.write_text("lo_pct,hi_pct,growth_per_year\n0,0.01,0.01\n"
                         "10,100,-0.005\n")
        spec = fileio.read_trend(trend)
        np.testing.assert_array_equal(spec.growth, [0.01, -0.005])
        tax = tmp_path / "x.csv"
        tax.write_text("lo_pct,hi_pct,tax_rate_per_year\n0,0.5,0.02\n"
                       "0.5,1,0.01\n")
        schedule = fileio.read_tax(tax)
        np.testing.assert_array_equal(schedule.rate, [0.02, 0.01])


class TestWriterRoundTrips:
    def test_grouped_csv_fixpoint(self, tmp_path):
        grouped = rd.GroupedShares(
            brackets=((0, 1 / 3 * 30), (10, 100)),
            shares=np.array([1 / 3, 2 / 3]))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        fileio.write_grouped_csv(first, grouped)
        fileio.write_grouped_csv(second,
                                 fileio.read_grouped_shares(first))
        assert first.read_bytes() == second.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        grouped = rd.GroupedShares(brackets=((0, 100),),
                                   shares=np.array([1.0]))
        path = tmp_path / "g.csv"
        fileio.write_grouped_csv(path, grouped)
        assert b"\r" not in path.read_bytes()


class TestCommands:
    def test_calibrate_outputs(self, tmp_path, config):
        assert main(["calibrate", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "alpha.csv").exists()
        assert (out / "fit.csv").exists()
        report = json.loads((out / "fit_report.json").read_text())
        assert report["fit_error"] < 0.02
        alpha = np.array([float(line.split(",")[1]) for line in
                          (out / "alpha.csv").read_text().splitlines()[1:]])
        assert abs(alpha.sum()) < 1e-9 * np.abs(alpha).max()

    def test_project_scenario1(self, tmp_path, config):
        assert main(["project", "--config", str(config),
                     "--scenario", "1"]) == 0
        grouped = fileio.read_grouped_shares(tmp_path / "out" /
                                             "projection.csv")
        assert grouped.shares[0] == pytest.approx(0.111, abs=0.003)
        assert (tmp_path / "out" / "loglog.csv").exists()
        assert not (tmp_path / "out" / "divergence.json").exists()

    def test_project_divergent_writes_report(self, tmp_path, config):
        assert main(["project", "--config", str(config),
                     "--scenario", "4"]) == 0
        payload = json.loads((tmp_path / "out" /
                              "divergence.json").read_text())
        assert payload["m"] >= 1
        grouped = fileio.read_grouped_shares(tmp_path / "out" /
                                             "projection.csv")
        assert grouped.shares.sum() == pytest.approx(1.0, abs=1e-6)

    def test_tax_command(self, tmp_path, config):
        assert main(["tax", "--config", str(config), "--scenario", "1"]) == 0
        grouped = fileio.read_grouped_shares(tmp_path / "out" /
                                             "projection.csv")
        # Taxing the top must lower its projected share below baseline.
        assert grouped.shares[0] < 0.111

    def test_simulate_requires_seed(self, config, capsys):
        assert main(["simulate", "--config", str(config)]) == 1

    COARSE_CSV = ("lo_pct,hi_pct,share\n0,1,0.3\n1,10,0.35\n10,100,0.35\n")

    def test_simulate_writes_path(self, tmp_path):
        (tmp_path / "target.csv").write_text(self.COARSE_CSV)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 1000,
            "sigma_variant": "low",
            "breakpoints": [1, 10],
            "grouped_shares": "target.csv",
            "out_dir": str(tmp_path / "out"),
            "reporting_brackets": [[0, 10], [10, 100]],
            "simulation": {"dt": 0.1, "horizon": 2.0, "record_every": 1.0,
                           "drift_clip": 2.0},
        }))
        assert main(["simulate", "--config", str(cfg), "--seed", "5"]) == 0
        lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
        assert lines[0] == "year,top_0_10,top_10_100"
        assert len(lines) == 3  # header + years 1, 2

    def test_simulate_byte_identical_across_thread_env(self, tmp_path,
                                                       cli_env):
        (tmp_path / "target.csv").write_text(self.COARSE_CSV)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 500,
            "sigma_variant": "low",
            "breakpoints": [1, 10],
            "grouped_shares": "target.csv",
            "reporting_brackets": [[0, 10], [10, 100]],
            "simulation": {"dt": 0.1, "horizon": 2.0, "record_every": 1.0,
                           "drift_clip": 2.0},
        }))
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"out{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "rankdist.cli", "simulate",
                 "--config", str(cfg), "--seed", "7", "--out", str(out)],
                env=cli_env(threads), capture_output=True)
            assert result.returncode == 0, result.stderr
            outputs.append((out / "path.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_report_summary(self, tmp_path, config, capsys):
        assert main(["report", "--config", str(config)]) == 0
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "scenario 4" in text
        assert "capital tax" in text

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lo_pct,hi_pct,share\n0,50,0.9\n50,100,0.4\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000,
                                   "grouped_shares": "bad.csv"}))
        assert main(["project", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("overrides, argv", [
        ({"n": "abc"}, ["project"]),
        ({"n": 0}, ["project"]),
        ({}, ["simulate", "--seed", "-1"]),
    ], ids=["n_not_a_number", "n_zero", "negative_seed"])
    def test_bad_input_exits_1_with_error(self, tmp_path, capsys, overrides,
                                          argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10000, **overrides}))
        assert main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_config_file(self):
        assert main(["project", "--config", "/nonexistent/cfg.json"]) == 1

    def test_scenario_flag_accepts_trend_file(self, tmp_path, config):
        trend = tmp_path / "trend.csv"
        trend.write_text("lo_pct,hi_pct,growth_per_year\n0,0.01,0.01\n"
                         "10,100,-0.005\n")
        assert main(["project", "--config", str(config),
                     "--scenario", str(trend)]) == 0
