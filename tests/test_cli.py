"""End-to-end tests of the command-line surface.

Every command is a pure function of (config, inputs, seed): exit code 0
on success, 2 on validation problems, 3 on fit failures; every run
emits a report listing each output file with its content hash.
"""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermoq
from thermoq import cli, io, spectral
from thermoq.constants import TWO_PI
from thermoq.tlssim import TimeSeries

from test_config import base_config


@pytest.fixture(autouse=True)
def fixed_environment(monkeypatch):
    monkeypatch.delenv("THERMOQ_SEED", raising=False)
    monkeypatch.setenv("THERMOQ_TIMESTAMP", "2026-01-01T00:00:00+00:00")


def write_config(tmp_path, **overrides):
    data = base_config()
    for path, value in overrides.items():
        section, _, key = path.partition(".")
        if key:
            data[section][key] = value
        else:
            data[section] = value
    data["output_dir"] = str(tmp_path / "out")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data))
    return cfg


def read_json(path):
    return json.loads(path.read_text())


def read_csv_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestRates:
    def test_budget_json(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["rates", "--config", str(cfg)]) == 0
        budget = read_json(tmp_path / "out" / "rates.json")
        assert budget["gamma_phi_0_hz"] == pytest.approx(150e3, rel=1e-12)
        assert budget["gamma1_purcell_hz"] == pytest.approx(52.8e3, rel=0.01)
        assert budget["gamma_mix_hz"] == pytest.approx(14.27e3, rel=0.01)
        assert budget["gamma1_0_hz"] == pytest.approx(3.9e6, rel=1e-12)
        assert budget["gamma_phi_2nd_antenna_hz"] > 0
        assert budget["warnings"] == []

    def test_report_lists_outputs_with_hashes(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["rates", "--config", str(cfg)])
        report = read_json(tmp_path / "out" / "report.json")
        assert report["command"] == "rates"
        assert report["version"] == thermoq.__version__
        assert report["timestamp"] == "2026-01-01T00:00:00+00:00"
        assert str(cfg) in report["inputs"]
        (entry,) = [o for o in report["outputs"] if o["path"] == "rates.json"]
        digest = hashlib.sha256(
            (tmp_path / "out" / "rates.json").read_bytes()).hexdigest()
        assert entry["sha256"] == digest

    def test_output_dir_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert cli.main(["rates", "--config", str(cfg),
                         "--output-dir", str(other)]) == 0
        assert (other / "rates.json").exists()
        assert not (tmp_path / "out").exists()


class TestStarkSweepAndCalibrate:
    def test_sweep_then_readout_calibration_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["stark-sweep", "--config", str(cfg)]) == 0
        sweep_csv = tmp_path / "out" / "stark_sweep.csv"
        header, rows = read_csv_columns(sweep_csv)
        assert header == ["temp_k", "shift_hz"]
        assert rows.shape == (15, 2)
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert np.all(rows[1:, 1] < 0)  # negative-chi Stark shifts

        assert cli.main(["calibrate", "--config", str(cfg),
                         "--input", str(sweep_csv),
                         "--port", "readout"]) == 0
        result = read_json(tmp_path / "out" / "calibration.json")
        assert result["port"] == "readout"
        assert result["alpha"] == pytest.approx(0.389, rel=1e-6)

    def test_antenna_calibration_needs_alpha(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["stark-sweep", "--config", str(cfg)])
        sweep_csv = tmp_path / "out" / "stark_sweep.csv"
        assert cli.main(["calibrate", "--config", str(cfg),
                         "--input", str(sweep_csv),
                         "--port", "antenna"]) == 2

    def test_degenerate_sweep_is_a_fit_error(self, tmp_path):
        cfg = write_config(tmp_path)
        sweep_csv = tmp_path / "flat.csv"
        lines = ["temp_k,shift_hz"]
        for i, T in enumerate([1.498, 1.5, 1.502, 1.504]):
            lines.append(f"{T},{-1e5 - i}")
        sweep_csv.write_text("\n".join(lines) + "\n")
        assert cli.main(["calibrate", "--config", str(cfg),
                         "--input", str(sweep_csv),
                         "--port", "readout"]) == 3


class TestDeterministicSweeps:
    def test_gamma1_sweep_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["gamma1-sweep", "--config", str(cfg),
                         "--n-max", "2.0", "--points", "21"]) == 0
        header, rows = read_csv_columns(tmp_path / "out" / "gamma1_sweep.csv")
        assert header == ["photon_number", "gamma1_antenna_hz",
                          "gamma1_dispersive_hz", "delta_gamma1_res_hz"]
        assert rows.shape == (21, 4)
        assert rows[0, 1] == pytest.approx(3.9e6, rel=1e-12)
        # stimulated emission + absorption: 2 gamma1_a per antenna photon
        at_one = rows[np.isclose(rows[:, 0], 1.0), 1][0]
        assert at_one - rows[0, 1] == pytest.approx(2 * 820e3, rel=1e-9)

    def test_sweep_files_read_back_through_their_tables(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["gamma1-sweep", "--config", str(cfg),
                         "--n-max", "2.0", "--points", "5"]) == 0
        assert cli.main(["dephasing-sweep", "--config", str(cfg),
                         "--points", "4"]) == 0
        photons, antenna, _, _ = io.GAMMA1_SWEEP.read(out / "gamma1_sweep.csv")
        assert np.array_equal(photons, np.linspace(0.0, 2.0, 5))
        assert antenna[0] == TWO_PI * 3.9e6
        temps, rates = io.DEPHASING_SWEEP.read(out / "dephasing_sweep.csv")
        assert np.array_equal(temps, np.linspace(0.05, 1.5, 4))
        assert np.all(np.diff(rates) > 0)

    def test_dephasing_sweep_values(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["dephasing-sweep", "--config", str(cfg),
                         "--t-min", "0.05", "--t-max", "1.5",
                         "--points", "30"]) == 0
        header, rows = read_csv_columns(tmp_path / "out" / "dephasing_sweep.csv")
        assert header == ["temp_k", "gamma_phi_hz"]
        assert rows.shape == (30, 2)
        assert rows[-1, 0] == pytest.approx(1.5)
        assert rows[-1, 1] == pytest.approx(44129.261 / TWO_PI, rel=1e-4)
        # cubic growth: doubling T multiplies the rate by 8
        assert rows[-1, 1] / np.interp(0.75, rows[:, 0], rows[:, 1]) == \
            pytest.approx(8.0, rel=1e-3)


class TestTlsSim:
    def test_phenomenological_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert cli.main(["tls-sim", "--config", str(cfg),
                             "--mode", "phenomenological", "--seed", "7",
                             "--output-dir", str(out)]) == 0
        name = "gamma1_series.csv"
        assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / "report.json").read_bytes() == \
            (second / "report.json").read_bytes()

    def test_microscopic_mode_runs(self, tmp_path):
        cfg = write_config(tmp_path, **{"tls.n_tls": 20,
                                        "campaign.duration_s": 640.0})
        assert cli.main(["tls-sim", "--config", str(cfg),
                         "--mode", "microscopic", "--seed", "3"]) == 0
        series = io.read_time_series(tmp_path / "out" / "gamma1_series.csv")
        assert series.values.size == 64
        assert series.dt == 10.0
        assert np.all(series.values > 0)

    def test_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        cli.main(["tls-sim", "--config", str(cfg), "--mode", "phenomenological",
                  "--seed", "7", "--output-dir", str(a)])
        cli.main(["tls-sim", "--config", str(cfg), "--mode", "phenomenological",
                  "--seed", "8", "--output-dir", str(b)])
        assert (a / "gamma1_series.csv").read_bytes() != \
            (b / "gamma1_series.csv").read_bytes()

    def test_env_seed_overrides_config_and_flag_wins(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        by_flag = tmp_path / "flag"
        by_env = tmp_path / "env"
        cli.main(["tls-sim", "--config", str(cfg), "--mode", "phenomenological",
                  "--seed", "7", "--output-dir", str(by_flag)])
        monkeypatch.setenv("THERMOQ_SEED", "7")
        cli.main(["tls-sim", "--config", str(cfg), "--mode", "phenomenological",
                  "--output-dir", str(by_env)])
        assert (by_flag / "gamma1_series.csv").read_bytes() == \
            (by_env / "gamma1_series.csv").read_bytes()
        monkeypatch.setenv("THERMOQ_SEED", "9")
        flag_beats_env = tmp_path / "both"
        cli.main(["tls-sim", "--config", str(cfg), "--mode", "phenomenological",
                  "--seed", "7", "--output-dir", str(flag_beats_env)])
        assert (flag_beats_env / "gamma1_series.csv").read_bytes() == \
            (by_flag / "gamma1_series.csv").read_bytes()

    def test_phenomenological_mode_requires_block(self, tmp_path):
        data = base_config()
        del data["phenomenological"]
        data["output_dir"] = str(tmp_path / "out")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        assert cli.main(["tls-sim", "--config", str(cfg),
                         "--mode", "phenomenological", "--seed", "7"]) == 2


class TestPsdFit:
    def test_constant_series_degenerate_flag(self, tmp_path):
        const_csv = tmp_path / "const.csv"
        io.write_time_series(
            const_csv, TimeSeries(0.0, 10.0, np.full(256, TWO_PI * 3.9e6)))
        assert cli.main(["psd-fit", "--input", str(const_csv),
                         "--output-dir", str(tmp_path / "out")]) == 0
        fit = read_json(tmp_path / "out" / "psd_fit.json")
        assert fit["degenerate"] is True
        assert fit["beta"] is None
        assert fit["lr_statistic"] == 0.0
        assert (tmp_path / "out" / "spectrum.csv").exists()

    def test_recovers_injected_slope(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["tls-sim", "--config", str(cfg),
                  "--mode", "phenomenological", "--seed", "7"])
        series_csv = tmp_path / "out" / "gamma1_series.csv"
        assert cli.main(["psd-fit", "--input", str(series_csv),
                         "--output-dir", str(tmp_path / "out")]) == 0
        fit = read_json(tmp_path / "out" / "psd_fit.json")
        assert fit["degenerate"] is False
        # pins of the seed-7 record; the injected values are beta = 1 and
        # a 1 mHz knee, which its error bars must cover at 2 sigma
        assert fit["beta"] == pytest.approx(0.771, abs=0.01)
        assert fit["omega_c_hz"] == pytest.approx(1.88e-3, rel=0.05)
        assert abs(fit["beta"] - 1.0) <= 2 * fit["beta_err"]
        assert abs(fit["omega_c_hz"] - 1e-3) <= 2 * fit["omega_c_err_hz"]
        assert fit["lr_statistic"] > spectral.LR_THRESHOLD
        header, rows = read_csv_columns(tmp_path / "out" / "spectrum.csv")
        assert header == ["freq_hz", "psd_w_per_hz"]
        assert rows[0, 0] < rows[-1, 0]

    def test_missing_input_is_validation_error(self, tmp_path):
        assert cli.main(["psd-fit", "--input", str(tmp_path / "nope.csv"),
                         "--output-dir", str(tmp_path)]) == 2


class TestFloorFit:
    def test_quadratic_floor_recovery(self, tmp_path):
        temps = np.array([0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.5])
        mu = 8e-25 + 1.1e-25 * temps**2
        floor_csv = tmp_path / "floor.csv"
        io.write_floor_points(floor_csv, list(zip(temps, mu)))
        assert cli.main(["floor-fit", "--input", str(floor_csv),
                         "--output-dir", str(tmp_path / "out")]) == 0
        fit = read_json(tmp_path / "out" / "floor_fit.json")
        assert fit["x"] == pytest.approx(0.0, abs=1e-6)
        assert fit["mu0_w_per_hz"] == pytest.approx(8e-25, rel=1e-6)
        assert fit["x_unidentifiable"] is False

    def test_too_few_points_is_validation_error(self, tmp_path):
        floor_csv = tmp_path / "floor.csv"
        io.write_floor_points(floor_csv, [(0.05, 1e-24), (0.5, 1.1e-24)])
        assert cli.main(["floor-fit", "--input", str(floor_csv),
                         "--output-dir", str(tmp_path)]) == 2


class TestCampaign:
    def test_small_campaign_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, **{"tls.n_tls": 20,
                                        "campaign.duration_s": 2560.0})
        assert cli.main(["campaign", "--config", str(cfg),
                         "--seed", "5"]) == 0
        out = tmp_path / "out"
        series = io.read_time_series(out / "campaign_series.csv")
        assert series.values.size == 256
        summary = read_json(out / "campaign_summary.json")
        assert summary["n_points"] == 256
        assert summary["gamma1_mean_hz"] == pytest.approx(3.9e6, rel=0.3)
        assert summary["n_gaps"] >= 0
        assert (out / "campaign_psd.csv").exists()
        assert (out / "campaign_fit.json").exists()
        report = read_json(out / "report.json")
        assert {o["path"] for o in report["outputs"]} == {
            "campaign_series.csv", "campaign_psd.csv",
            "campaign_fit.json", "campaign_summary.json"}

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, **{"tls.n_tls": 20,
                                        "campaign.duration_s": 2560.0})
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert cli.main(["campaign", "--config", str(cfg), "--seed", "5",
                             "--output-dir", str(out)]) == 0
        for name in ("campaign_series.csv", "campaign_psd.csv",
                     "campaign_fit.json", "campaign_summary.json",
                     "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["rates", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_config_key(self, tmp_path):
        data = base_config()
        data["surprise"] = 1
        data["output_dir"] = str(tmp_path / "out")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        assert cli.main(["rates", "--config", str(cfg)]) == 2

    def test_bad_csv_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,v\n0,1\n")
        assert cli.main(["psd-fit", "--input", str(bad),
                         "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["psd-fit", "floor-fit"])
    def test_non_utf8_csv_names_the_row(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"time_s,gamma1_hz\n0,1\xff\n10,2\n")
        assert cli.main([command, "--input", str(bad),
                         "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: row 2: invalid UTF-8 byte 0xff\n"

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b'"label": "readout"', b'"label": "\xe9"'))
        assert cli.main(["rates", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: config file is not UTF-8: ")
        assert not (tmp_path / "out").exists()

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("THERMOQ_SEED", "not-a-number")
        assert cli.main(["tls-sim", "--config", str(cfg),
                         "--mode", "phenomenological"]) == 2

    def test_non_finite_config_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"temperature_k": 0.1',
                                               '"temperature_k": NaN'))
        assert cli.main(["rates", "--config", str(cfg)]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err
        assert not (tmp_path / "out" / "rates.json").exists()

    def test_overflowing_config_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"temperature_k": 0.1',
                                               '"temperature_k": 1e999'))
        assert cli.main(["rates", "--config", str(cfg)]) == 2
        assert "temperature_k: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out" / "rates.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("campaign.duration_s", 1e15, "campaign.duration_s: "),
        ("tls.n_tls", 10**12, "tls.n_tls: must be <= "),
        ("campaign.n_averages", 10**30, "campaign.n_averages: must be <= "),
    ])
    def test_oversized_run_rejected_before_allocation(self, tmp_path, capsys,
                                                      key, value, message):
        cfg = write_config(tmp_path, **{key: value})
        assert cli.main(["campaign", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_switch_count_cap_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"tls.rate_decades": [1e-5, 1e3],
                                        "campaign.temperature_k": 300.0})
        assert cli.main(["tls-sim", "--config", str(cfg),
                         "--mode", "microscopic"]) == 2
        assert capsys.readouterr().err.startswith("error: tls.rate_decades: ")
        assert not (tmp_path / "out").exists()

    def test_bad_timestamp_writes_nothing(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("THERMOQ_TIMESTAMP", "x")
        assert cli.main(["rates", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: THERMOQ_TIMESTAMP: expected an ISO 8601 date and time, "
            "got 'x'\n")
        assert not (tmp_path / "out").exists()

    def test_negative_env_seed(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("THERMOQ_SEED", "-1")
        assert cli.main(["tls-sim", "--config", str(cfg),
                         "--mode", "phenomenological"]) == 2
        assert capsys.readouterr().err == "error: THERMOQ_SEED: must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv, message", [
        (["dephasing-sweep", "--t-max", "1e300"],
         "second-order dephasing rate is not finite at temperature "),
        (["dephasing-sweep", "--t-min", "1e100", "--t-max", "1e100"],
         "second-order dephasing rate is not finite at temperature 1e+100 K"),
        (["gamma1-sweep", "--n-max", "1e308"],
         "row 3: non-finite value in column 'gamma1_antenna_hz'"),
        (["stark-sweep", "--t-min", "1e-310"],  # k_B*T underflows to 0
         "sweep temperature 1e-310 K outside the instrument range"),
    ])
    def test_out_of_range_sweep_writes_no_csv(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path)
        assert cli.main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("temperature", [1e100, 1e300])
    def test_overflowing_antenna_temperature(self, tmp_path, capsys, temperature):
        data = base_config()
        data["ports"][2]["temperature_k"] = temperature
        data["output_dir"] = str(tmp_path / "out")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        assert cli.main(["rates", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: second-order dephasing rate is not finite at temperature "
            f"{temperature} K\n")
        assert not (tmp_path / "out" / "rates.json").exists()


class TestArgumentTypes:
    @pytest.mark.parametrize("argv", [
        ["gamma1-sweep", "--points", "-3"],
        ["gamma1-sweep", "--points", "0"],
        ["stark-sweep", "--points", "0"],
        ["dephasing-sweep", "--points", "0"],
        ["dephasing-sweep", "--points", "2.5"],
        ["tls-sim", "--seed", "-1"],
        ["campaign", "--seed", "-1"],
    ])
    def test_bad_count_or_seed_exits_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--config", str(cfg)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"thermoq {argv[0]}: error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["dephasing-sweep", "--t-min", "nan"],
        ["dephasing-sweep", "--t-max", "inf"],
        ["stark-sweep", "--t-max=-inf"],
        ["stark-sweep", "--alpha", "nan"],
        ["gamma1-sweep", "--n-max", "nan"],
        ["gamma1-sweep", "--n-max", "inf"],
        ["calibrate", "--port", "antenna", "--input", "sweep.csv", "--alpha", "inf"],
    ])
    def test_non_finite_float_option_exits_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--config", str(cfg)])
        assert excinfo.value.code == 2
        assert ": must be finite, got " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bins_per_decade_must_be_positive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["psd-fit", "--input", str(tmp_path / "series.csv"),
                      "--bins-per-decade", "0"])
        assert excinfo.value.code == 2
        assert "--bins-per-decade: must be >= 1, got 0" in capsys.readouterr().err


def parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of a call that parses ``argv`` and exits."""
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    out = capsys.readouterr()
    return excinfo.value.code, out.out, out.err


def subcommand_options(name):
    """The optional actions of a subcommand in the full parser, -h aside."""
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return [a for a in sub.choices[name]._actions
            if a.option_strings and a.dest != "help"]


def failing_argvs(name):
    """Argument lists that make a subcommand's parser print and exit."""
    # with the required options given, the top-level parser reports the
    # unknown option and the extra positional, naming every subcommand
    argvs = [[name, "--help"], [name, "-h"], [name], [name, "--conf"], [name, "--out"],
             [name, "--bogus", "1"], [*valid_argv(name), "--bogus", "1"],
             [name, "extra"], [*valid_argv(name), "extra"]]
    for action in subcommand_options(name):
        flag = action.option_strings[0]
        if action.type is not None:
            argvs.append([name, flag, "x"])
        if action.choices is not None:
            argvs.append([name, flag, "bogus"])
        if flag in ("--points", "--bins-per-decade"):
            argvs.append([name, flag, "-3"])
        if flag == "--seed":
            argvs.append([name, flag, "-1"])
    return argvs


def valid_argv(name):
    """The required options of a subcommand, with --config abbreviated."""
    argv = [name]
    for action in subcommand_options(name):
        if action.required:
            flag = action.option_strings[0]
            argv += ["--conf" if flag == "--config" else flag,
                     action.choices[0] if action.choices else "x"]
    return argv


class TestParserEquivalence:
    """``main`` parses with the named subcommand's parser alone; every
    help text, usage line and error must be the full parser's."""

    @pytest.mark.parametrize("argv", [
        argv for name in cli._COMMANDS for argv in failing_argvs(name)
    ] + [[], ["bogus"], ["--help"], ["--version"], ["--vers"], ["-h", "rates"]],
        ids=" ".join)
    def test_same_exit_and_output_as_the_full_parser(self, capsys, argv):
        full = parse_outcome(capsys, cli.build_parser().parse_args, argv)
        assert parse_outcome(capsys, cli.main, argv) == full
        assert full[0] in (0, 2)

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_same_namespace_as_the_full_parser(self, name):
        argv = valid_argv(name)
        lean = cli.build_parser(name).parse_args(argv)
        assert vars(lean) == vars(cli.build_parser().parse_args(argv))
        assert lean.command == name

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_one_command_parser_defers_errors(self, name):
        with pytest.raises(cli._Reparse):
            cli.build_parser(name).parse_args([name, "--bogus"])
        parser = cli.build_parser(name)
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        assert list(sub.choices) == [name]

    def test_main_builds_one_command_parser_unless_it_fails(self, tmp_path,
                                                            monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def recording(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", recording)
        assert cli.main(["rates", "--config", str(tmp_path / "nope.json")]) == 2
        assert built == ["rates"]
        with pytest.raises(SystemExit):
            cli.main(["rates", "--bogus"])
        assert built == ["rates", "rates", None]
        capsys.readouterr()


BOUNDARY_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                   1e-300, 1e100, 1e300)
FUZZ_FLOAT = st.one_of(st.sampled_from(BOUNDARY_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))
# the float options of each fuzzed subcommand; size options stay at their
# defaults, so no example allocates much
FLOAT_OPTIONS = {
    "stark-sweep": ("--t-min", "--t-max", "--alpha"),
    "gamma1-sweep": ("--n-max",),
    "dephasing-sweep": ("--t-min", "--t-max"),
    "calibrate": ("--alpha",),
    "rates": (),
}
CSV_TABLES = {"stark_sweep.csv": io.STARK_SWEEP,
              "gamma1_sweep.csv": io.GAMMA1_SWEEP,
              "dephasing_sweep.csv": io.DEPHASING_SWEEP}


@st.composite
def float_boundary_runs(draw):
    """(argv without --config, port temperatures or None for the base ones)."""
    command = draw(st.sampled_from(sorted(FLOAT_OPTIONS)))
    argv = [command]
    for flag in FLOAT_OPTIONS[command]:
        value = draw(st.one_of(st.none(), FUZZ_FLOAT))
        if value is not None:  # "=" keeps "-inf" from reading as a flag
            argv.append(f"{flag}={value!r}")
    if command == "calibrate":
        argv += ["--port", draw(st.sampled_from(["readout", "antenna"]))]
    temperatures = None
    if command == "rates":
        temperatures = draw(st.lists(st.one_of(st.none(), FUZZ_FLOAT),
                                     min_size=3, max_size=3))
    return argv, temperatures


def holds_null(value):
    if isinstance(value, dict):
        return any(holds_null(v) for v in value.values())
    if isinstance(value, list):
        return any(holds_null(v) for v in value)
    return value is None


@pytest.fixture(scope="module")
def stark_sweep_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("stark")
    cfg = out / "run.json"
    cfg.write_text(json.dumps(base_config()))
    assert cli.main(["stark-sweep", "--config", str(cfg),
                     "--output-dir", str(out)]) == 0
    return out / "stark_sweep.csv"


class TestFloatBoundaryFuzz:
    """Non-finite, signed-zero, tiny and huge floats at every float option
    and port temperature either run cleanly or exit 2 or 3; a clean run
    writes only files that read back, with no null in its JSON."""

    @settings(max_examples=60, deadline=None)
    @given(run=float_boundary_runs())
    # ranges np.linspace cannot span: once an overflow warning, then exit 2
    @example(run=(["dephasing-sweep", "--t-max=1.7976931348623157e+308"], None))
    @example(run=(["stark-sweep", "--t-min=-1e308", "--t-max=1e308"], None))
    def test_exit_code_and_outputs(self, stark_sweep_csv, run):
        argv, temperatures = run
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            data = base_config()
            for port, temperature in zip(data["ports"], temperatures or ()):
                if temperature is not None:
                    port["temperature_k"] = temperature
            cfg = work / "run.json"
            cfg.write_text(json.dumps(data))
            if argv[0] == "calibrate":
                argv = [*argv, "--input", str(stark_sweep_csv)]
            out = work / "out"
            try:
                code = cli.main([*argv, "--config", str(cfg), "--output-dir", str(out)])
            except SystemExit as exc:
                code = exc.code
            assert code in (0, 2, 3)
            if code != 0:
                return
            for entry in read_json(out / "report.json")["outputs"]:
                path = out / entry["path"]
                if path.suffix == ".csv":
                    CSV_TABLES[path.name].read(path)
                else:
                    assert not holds_null(read_json(path)), path.name
