"""End-to-end tests of file I/O and the command-line workflow."""

import json
import subprocess
import sys

import numpy as np
import pytest

import rankdist as rd
from rankdist import fileio, scenarios
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

    def test_over_long_cell_exits_1(self, tmp_path, capsys):
        # Python's csv module refuses a field over 131,072 characters.
        (tmp_path / "g.csv").write_text("lo_pct,hi_pct,share\n0,10,0.5\n"
                                        "10,100," + "5" * 200_000 + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10000, "grouped_shares": "g.csv"}))
        assert main(["calibrate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"error: {tmp_path / 'g.csv'}:3: bad CSV: field larger" in \
            capsys.readouterr().err

    def test_table_with_bom(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" starts with a byte-order mark.
        path = tmp_path / "g.csv"
        path.write_bytes(b"\xef\xbb\xbf" + GROUPED_CSV.encode("ascii"))
        g = fileio.read_grouped_shares(path)
        assert g.brackets[0] == (0.0, 0.01)
        assert g.shares[0] == 0.111

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b,c\n0,100,1\n")
        with pytest.raises(rd.ParseError):
            fileio.read_grouped_shares(path)

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "empty file"),
        ("lo_pct,hi_pct,share\n0,100\n", 2, "expected 3 fields, got 2"),
        ("lo_pct,hi_pct,share\n\n", 2, "no data rows"),
        # float() reads "1_0" as 10, and a fullwidth "\uff11" as 1.
        ("lo_pct,hi_pct,share\n0,100,1_0\n", 2, "bad number"),
        ("lo_pct,hi_pct,share\n0,100,\uff11\n", 2, "bad number"),
    ], ids=["empty", "short_row", "no_rows", "digit_separator",
            "fullwidth_digit"])
    def test_malformed_table_reports_line(self, tmp_path, text, line,
                                          message):
        path = tmp_path / "g.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(rd.ParseError, match=message) as info:
            fileio.read_grouped_shares(path)
        assert info.value.line == line

    @pytest.mark.parametrize("read, text, error", [
        (fileio.read_grouped_shares,
         "lo_pct,hi_pct,share\n0,10,0.5\n5,100,0.5\n", rd.BracketGapError),
        (fileio.read_volatility_table,
         "lo_pct,hi_pct,sigma_low,sigma_high\n0,100,0.3,0\n",
         rd.NonPositiveSigmaError),
        (fileio.read_trend, "lo_pct,hi_pct,growth_per_year\n10,5,0.01\n",
         rd.BracketGapError),
        (fileio.read_tax, "lo_pct,hi_pct,tax_rate_per_year\n0,1,-0.01\n",
         rd.NegativeInputError),
        (fileio.read_grouped_shares,
         "lo_pct,hi_pct,share\n0,10,1.2\n10,100,-0.2\n",
         rd.NegativeInputError),
    ], ids=["grouped", "volatility", "trend", "tax", "grouped_negative"])
    def test_table_error_names_its_file(self, tmp_path, read, text, error):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(error) as info:
            read(path)
        assert type(info.value) is error
        assert str(info.value).startswith(f"{path}: ")

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

    def test_stable_run_removes_an_earlier_divergence_report(self, tmp_path,
                                                             config):
        assert main(["project", "--config", str(config),
                     "--scenario", "4"]) == 0
        assert (tmp_path / "out" / "divergence.json").exists()
        assert main(["project", "--config", str(config),
                     "--scenario", "1"]) == 0
        assert not (tmp_path / "out" / "divergence.json").exists()

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

    def test_simulate_builds_its_settings_once(self, tmp_path, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(kwargs)
            return rd.SimConfig(*args, **kwargs)

        monkeypatch.setattr("rankdist.cli.SimConfig", counted)
        self.test_simulate_writes_path(tmp_path)
        assert len(built) == 1

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

    def test_commands_read_the_preset_table(self, tmp_path, config, capsys,
                                            monkeypatch):
        monkeypatch.setitem(scenarios.PRESETS, 5, scenarios.PRESETS[4])
        assert main(["report", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("scenario 5: ") for line in lines)
        assert any(line.startswith("scenario 5 + capital tax: ")
                   for line in lines)
        assert main(["project", "--config", str(config),
                     "--scenario", "5"]) == 0

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lo_pct,hi_pct,share\n0,50,0.9\n50,100,0.4\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000,
                                   "grouped_shares": "bad.csv"}))
        assert main(["project", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("overrides, argv, message", [
        ({"n": "abc"}, ["project"], "n must be an integer >= 2"),
        ({"n": 0}, ["project"], "n must be an integer >= 2"),
        ({}, ["simulate", "--seed", "-1"], "seed must be an integer in"),
        ({"simulation": {"dt": "abc"}}, ["simulate", "--seed", "1"],
         "dt must be a finite number"),
        ({"simulation": {"record_every": True}}, ["simulate", "--seed", "1"],
         "record_every must be a finite number"),
        ({"simulation": {"horizon": float("inf")}},
         ["simulate", "--seed", "1"], "horizon must be a finite number"),
        ({"simulation": {"drift_clip": float("nan")}},
         ["simulate", "--seed", "1"], "drift_clip must be a finite number"),
        ({"simulation": {"dt": None}}, ["simulate", "--seed", "1"],
         "dt must be a finite number, got None"),
        ({"simulation": {"seed": 1.7}}, ["simulate"],
         "seed must be an integer"),
        ({"sigma_varient": "high"}, ["project"], "'sigma_varient'"),
        ({"simulation": {"steps": 10}}, ["simulate", "--seed", "1"],
         "'steps'"),
        ({"simulation": [1]}, ["simulate", "--seed", "1"],
         "simulation block must be a JSON object"),
        ({"breakpoints": 5}, ["project"], "breakpoints must be a pair"),
        ({"breakpoints": ["a", "b"]}, ["project"],
         "breakpoints[0] must be a finite number"),
        ({"breakpoints": [0.01, 40]}, ["calibrate"],
         "fitted shares are not strictly descending (every fitted slope is "
         "negative, but the shares underflow to zero from rank 4031 on)"),
        ({"reporting_brackets": [[0, "x"]]}, ["project"],
         "reporting_brackets[0][1] must be a finite number"),
        ({"scenario": 2.5}, ["project"], "scenario must be an integer"),
        ({"scenario": "\u00b2"}, ["project"], "cannot read file"),
        # Only an optional '-' and ASCII digits name a preset.
        ({"scenario": "\u0663"}, ["project"], "cannot read file"),
        ({}, ["project", "--scenario", "\u0663"], "cannot read file"),
        ({}, ["project", "--scenario", "-1"],
         "scenario must be an integer in 1..4"),
        ({"sigma_variant": "mid"}, ["calibrate"],
         "unknown sigma variant 'mid'"),
        ({"reporting_brackets": [[0, 1], [1, 50]]},
         ["simulate", "--seed", "1"],
         "reporting_brackets must cover [0, 100) exactly"),
        ({"reporting_brackets": []}, ["project"],
         "reporting_brackets must cover [0, 100) exactly"),
        ({"tax": 5}, ["tax"], "tax must be a path string, got 5"),
        ({"volatility": 3}, ["project"],
         "volatility must be a path string, got 3"),
        ({"grouped_shares": ["a"]}, ["project"],
         "grouped_shares must be a path string, got ['a']"),
        ({"out_dir": 5}, ["project"], "out_dir must be a path string, got 5"),
        # Every command checks the simulation block, not only simulate.
        ({"simulation": {"seed": 1.7}}, ["calibrate"],
         "seed must be an integer"),
        ({"simulation": {"drift_clip": -1}}, ["tax", "--scenario", "1"],
         "drift_clip must be positive"),
        ({"simulation": {"horizon": 0.01, "dt": 0.1}}, ["report"],
         "need horizon >= record_every > 0"),
        ({"simulation": {"horizon": 0.01, "dt": 0.1, "record_every": 0.01}},
         ["project"], "horizon / dt must round to a finite number of steps"),
        # Too large an n: one numpy cannot shape, and one it cannot
        # allocate.  Each fails before any n-long array exists.
        ({"n": 1e300}, ["report"], "n = 1e+300 is too large for an array"),
        ({"n": 10 ** 15}, ["calibrate"], "Unable to allocate"),
        # Both ends of the middle bracket round to rank 5,000.
        ({"reporting_brackets": [[0, 50], [50, 50.00001], [50.00001, 100]]},
         ["project"], "bracket (50.0, 50.00001) holds no rank at n=10000"),
        # Knees that leave a fit segment with no gap.
        ({"breakpoints": [0.1, 99.9999999999999]}, ["calibrate"],
         "breakpoints (0.1, 99.9999999999999) put the knees at ranks 10 and "
         "10000 at n=10000; every fit segment needs a gap"),
        ({"breakpoints": [1e-300, 10]}, ["calibrate"],
         "breakpoints (1e-300, 10.0) put the knees at ranks 0 and 1000"),
        ({"breakpoints": [0.1, 99.99]}, ["calibrate"],
         "breakpoints (0.1, 99.99) put the knees at ranks 10 and 9999"),
    ], ids=["n_not_a_number", "n_zero", "negative_seed", "dt_not_a_number",
            "record_every_bool", "horizon_inf", "drift_clip_nan", "dt_null",
            "seed_not_integral", "unknown_key", "unknown_simulation_key",
            "simulation_not_object", "breakpoints_not_a_pair",
            "breakpoints_not_numbers", "breakpoints_fit_fails",
            "reporting_bracket_not_a_number",
            "scenario_not_integral", "scenario_unicode_digit",
            "scenario_arabic_indic_digit", "scenario_flag_arabic_indic_digit",
            "scenario_flag_negative",
            "sigma_variant_unknown", "reporting_brackets_not_a_partition",
            "reporting_brackets_empty", "tax_not_a_path",
            "volatility_not_a_path", "grouped_shares_not_a_path",
            "out_dir_not_a_path", "calibrate_checks_seed",
            "tax_checks_drift_clip", "report_checks_horizon",
            "project_checks_steps", "n_beyond_numpy", "n_beyond_memory",
            "reporting_bracket_holds_no_rank", "knee_at_rank_n",
            "knee_at_rank_0", "knee_at_rank_n_minus_1"])
    def test_bad_input_exits_1_with_error(self, tmp_path, capsys, overrides,
                                          argv, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10000, **overrides}))
        assert main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_project_defaults_to_target_brackets(self, tmp_path, capsys):
        # The 3-bracket target has no 0.01% bracket, which at n = 1000
        # would not land on an integer rank.
        (tmp_path / "target.csv").write_text(self.COARSE_CSV)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000, "breakpoints": [1, 10],
                                   "grouped_shares": "target.csv"}))
        assert main(["project", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        labels = [line.split(":")[0].strip()
                  for line in capsys.readouterr().out.splitlines()[:-1]]
        assert labels == ["0-1%", "1-10%", "10-100%"]
        grouped = fileio.read_grouped_shares(tmp_path / "out" /
                                             "projection.csv")
        assert grouped.brackets == ((0.0, 1.0), (1.0, 10.0), (10.0, 100.0))

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        assert main(["project", "--config", str(cfg)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["report", "--bogus"], "unrecognized arguments: --bogus"),
        (["report", "--sigma", "mid"], "invalid choice: 'mid'"),
        (["simulate", "--seed", "x"], "invalid int value: 'x'"),
        (["simulate", "--seed", "1_0"], "invalid int value: '1_0'"),
        (["simulate", "--seed", "\u0663"], "invalid int value: '\u0663'"),
        (["simulate", "--seed", " 3 "], "invalid int value: ' 3 '"),
        (["simulate", "--seed", "3.0"], "invalid int value: '3.0'"),
        ([], "required: command"),
        (["calibrate", "--scenario", "2"],
         "unrecognized arguments: --scenario 2"),
        (["report", "--scenario", "3"],
         "unrecognized arguments: --scenario 3"),
    ], ids=["unknown_flag", "bad_sigma", "bad_seed", "seed_digit_separator",
            "seed_arabic_indic_digit", "seed_spaces", "seed_float",
            "no_command", "calibrate_scenario", "report_scenario"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rankdist")
        assert message in err

    def test_table_error_names_its_file_at_exit(self, tmp_path, capsys):
        (tmp_path / "g.csv").write_text("lo_pct,hi_pct,share\n0,10,0.5\n"
                                        "5,100,0.5\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10000, "grouped_shares": "g.csv"}))
        assert main(["project", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'g.csv'}: brackets overlap near 5.0%\n")

    def test_sigma_variant_checked_before_the_fit(self, tmp_path, capsys,
                                                  monkeypatch):
        def fit(*args):
            raise rd.RankModelError("the fit ran")

        monkeypatch.setattr("rankdist.cli.fit_piecewise_pareto", fit)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10000, "sigma_variant": "mid"}))
        assert main(["calibrate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert "unknown sigma variant 'mid'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["calibrate"], ["project"], ["tax", "--scenario", "1"], ["report"],
        ["simulate", "--seed", "1"]], ids=lambda argv: argv[0])
    def test_off_rank_bracket_rejected_before_the_fit(self, tmp_path, capsys,
                                                      monkeypatch, argv):
        def fit(*args):
            raise AssertionError("the fit ran")

        monkeypatch.setattr("rankdist.cli.fit_piecewise_pareto", fit)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 10000, "reporting_brackets": [[0, 0.005], [0.005, 100]]}))
        assert main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "out")]) == 1
        assert ("bracket boundary 0.005% maps to non-integer rank 0.5"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, detail", [
        ("{\"n\": 10000,", ""),
        # Past Python's limit on integer strings json.loads raises a plain
        # ValueError, and past its recursion limit a RecursionError.
        ("{\"n\": " + "1" * 4301 + "}", ""),
        ("[" * 1000, ""),
        # json.loads alone would keep the last value of a repeated key.
        ("{\"n\": 10000, \"n\": 10}", "repeated key 'n'"),
        ("{\"n\": 10000, \"simulation\": {\"dt\": 0.1, \"dt\": 0.2}}",
         "repeated key 'dt'"),
    ], ids=["truncated", "long_integer", "deep_nesting", "repeated_key",
            "repeated_simulation_key"])
    def test_config_not_json(self, tmp_path, capsys, text, detail):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["project", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "is not valid JSON" in err
        assert detail in err

    def test_config_with_bom(self, tmp_path, config):
        config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        assert main(["calibrate", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "fit_report.json").exists()

    def test_missing_config_file(self):
        assert main(["project", "--config", "/nonexistent/cfg.json"]) == 1

    def test_scenario_flag_accepts_trend_file(self, tmp_path, config):
        trend = tmp_path / "trend.csv"
        trend.write_text("lo_pct,hi_pct,growth_per_year\n0,0.01,0.01\n"
                         "10,100,-0.005\n")
        assert main(["project", "--config", str(config),
                     "--scenario", str(trend)]) == 0


class TestFileErrors:
    """A file that cannot be read or written ends in exit 1 and an
    ``error:`` line naming it, never a traceback."""

    @staticmethod
    def fails(argv, capsys, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"n": 10000, "sigma_variant": "l\xe9w"}')
        self.fails(["project", "--config", str(cfg)], capsys,
                   f"cannot read config {cfg}")

    def test_table_not_utf8(self, tmp_path, capsys):
        table = tmp_path / "g.csv"
        table.write_bytes(GROUPED_CSV.encode("ascii") + b"10,10,0.0\xe9\n")
        with pytest.raises(rd.ParseError, match="cannot read file"):
            fileio.read_grouped_shares(table)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10000, "grouped_shares": "g.csv"}))
        self.fails(["project", "--config", str(cfg)], capsys,
                   f"{table}:0: cannot read file")

    def test_out_names_a_file(self, tmp_path, config, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        self.fails(["calibrate", "--config", str(config), "--out", str(out)],
                   capsys, f"cannot write {out / 'alpha.csv'}")

    def test_divergence_report_that_cannot_be_removed(self, tmp_path, config,
                                                      capsys):
        stale = tmp_path / "out" / "divergence.json"
        stale.mkdir(parents=True)
        self.fails(["project", "--config", str(config), "--scenario", "1"],
                   capsys, f"cannot remove {stale}")

    def test_out_under_a_file(self, tmp_path, config, capsys):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "out"
        self.fails(["report", "--config", str(config), "--out", str(out)],
                   capsys, f"cannot write {out / 'summary.txt'}")

    @staticmethod
    def listing(out):
        """Each entry of ``out`` by name: its bytes, or None for a
        directory."""
        return {path.name: None if path.is_dir() else path.read_bytes()
                for path in out.iterdir()}

    # A command's outputs change together or not at all: a rename or a
    # removal that would fail is found before any output is replaced.
    def test_failed_rename_keeps_the_earlier_run(self, tmp_path, config,
                                                 capsys):
        out = tmp_path / "out"
        assert main(["project", "--config", str(config),
                     "--scenario", "4"]) == 0
        assert sorted(self.listing(out)) == [
            "divergence.json", "loglog.csv", "projection.csv"]
        (out / "loglog.csv").unlink()
        (out / "loglog.csv").mkdir()
        before = self.listing(out)
        self.fails(["project", "--config", str(config), "--scenario", "1"],
                   capsys, f"cannot write {out / 'loglog.csv'}")
        assert self.listing(out) == before  # and no .part file

    def test_failed_removal_keeps_the_earlier_run(self, tmp_path, config,
                                                  capsys):
        out = tmp_path / "out"
        assert main(["project", "--config", str(config),
                     "--scenario", "1"]) == 0
        (out / "divergence.json").mkdir()
        before = self.listing(out)
        self.fails(["tax", "--config", str(config), "--scenario", "4"],
                   capsys, f"cannot remove {out / 'divergence.json'}")
        assert self.listing(out) == before

    def test_failed_calibrate_keeps_the_earlier_run(self, tmp_path, config,
                                                    capsys):
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(config)]) == 0
        (out / "fit.csv").unlink()
        (out / "fit.csv").mkdir()
        before = self.listing(out)
        self.fails(["calibrate", "--config", str(config), "--sigma", "high"],
                   capsys, f"cannot write {out / 'fit.csv'}")
        assert self.listing(out) == before


class TestPathRule:
    """Paths in the config resolve against the config file's directory;
    paths given as flags, against the working directory."""

    TREND_CSV = "lo_pct,hi_pct,growth_per_year\n0,0.01,0.01\n10,100,-0.005\n"

    @pytest.fixture
    def dirs(self, tmp_path, monkeypatch):
        """(config directory, working directory), the second one current."""
        conf, work = tmp_path / "conf", tmp_path / "work"
        conf.mkdir()
        work.mkdir()
        monkeypatch.chdir(work)
        return conf, work

    @staticmethod
    def config(conf, **keys):
        cfg = conf / "cfg.json"
        cfg.write_text(json.dumps({"n": 10000, **keys}))
        return str(cfg)

    def test_scenario_flag_reads_from_working_directory(self, dirs):
        conf, work = dirs
        (work / "t.csv").write_text(self.TREND_CSV)
        assert main(["project", "--config", self.config(conf),
                     "--scenario", "t.csv", "--out", "out"]) == 0
        assert (work / "out" / "projection.csv").exists()

    def test_config_scenario_reads_from_config_directory(self, dirs):
        conf, work = dirs
        (conf / "t.csv").write_text(self.TREND_CSV)
        assert main(["project", "--config",
                     self.config(conf, scenario="t.csv"),
                     "--out", "out"]) == 0
        assert (work / "out" / "projection.csv").exists()

    def test_config_out_dir_is_in_config_directory(self, dirs):
        conf, work = dirs
        assert main(["project", "--config",
                     self.config(conf, out_dir="res")]) == 0
        assert (conf / "res" / "projection.csv").exists()
        assert not (work / "res").exists()

    def test_out_flag_is_in_working_directory(self, dirs):
        conf, work = dirs
        assert main(["project", "--config",
                     self.config(conf, out_dir="res"), "--out", "res"]) == 0
        assert (work / "res" / "projection.csv").exists()
        assert not (conf / "res").exists()
