"""Command-line surface binding the library into reproducible runs.

Every subcommand is a pure function of (config, input files, seed):
rerunning with the same inputs produces byte-identical output files.
Exit codes: 0 success, 2 validation problem (config, CSV, domain),
3 fit failure.  Seed precedence is ``--seed`` over ``THERMOQ_SEED``
over the config seed.  Each run writes ``report.json`` listing every
emitted file with its SHA-256 content hash; set ``THERMOQ_TIMESTAMP``
to an ISO 8601 date and time to pin the report timestamp.

All emitted frequencies and rates are in Hz (omega/2pi); column names
carry the units.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, decoherence, io, spectra
from .cavity import StarkSweepPoint, ac_stark_shift, calibrate_attenuation
from .config import RunConfig, load_config
from .constants import TWO_PI
from .errors import ConfigError, FitError, ValidationError
from .experiments import simulate_campaign
from .spectral import (fit_knee_spectrum, fit_white_floor_vs_temp,
                       psd_estimate)
from .tlssim import (sample_ensemble, simulate_microscopic,
                     simulate_phenomenological)


def _hz(omega: float) -> float:
    return float(omega) / TWO_PI


def _jsonable(value):
    """Make a value JSON-safe; non-finite floats become null."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _integer_at_least(minimum: int):
    """An argparse type accepting integers >= ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _finite_float(text: str) -> float:
    """An argparse type accepting finite floats only."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


_positive_int = _integer_at_least(1)
_seed = _integer_at_least(0)


def _effective_seed(args, fallback: int) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("THERMOQ_SEED")
    if env is not None:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"THERMOQ_SEED: {exc}") from None
    return fallback


def _spawn_seeds(seed: int, n: int) -> list:
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(1)[0]) for child in children]


def _fit_payload(fit) -> dict:
    return {
        "beta": fit.beta,
        "beta_err": fit.beta_err,
        "omega_c_hz": _hz(fit.omega_c) if math.isfinite(fit.omega_c) else None,
        "omega_c_err_hz": (_hz(fit.omega_c_err)
                           if math.isfinite(fit.omega_c_err) else None),
        "mu_w_per_hz": fit.mu,
        "mu_err_w_per_hz": fit.mu_err,
        "amplitude": fit.amplitude,
        "amplitude_err": fit.amplitude_err,
        "fit_window_hz": [_hz(fit.fit_window[0]), _hz(fit.fit_window[1])],
        "lr_statistic": fit.lr_statistic,
        "degenerate": fit.degenerate,
    }


def cmd_rates(args, run, out):
    budget = decoherence.rate_budget(
        run.circuit, run.geometry, S_delta=run.s_delta,
        T_a=run.port("antenna").temperature,
        gamma_phi_photon_shot=run.gamma_phi_photon_shot)
    payload = {f"{name}_hz": _hz(getattr(budget, name)) for name in (
        "gamma1_total", "gamma1_0", "gamma1_antenna", "gamma1_purcell",
        "gamma1_sideband", "gamma_mix", "gamma1_residual", "gamma_phi_0",
        "gamma_phi_2nd_antenna", "gamma_phi_photon_shot")}
    payload["notes"] = budget.notes
    payload["warnings"] = list(budget.warnings)
    _write_json(out / "rates.json", payload)
    return ["rates.json"]


def _temperatures(args) -> np.ndarray:
    """--points temperatures from --t-min to --t-max, whose ends must lie
    within a quarter of the largest float: np.linspace overflows beyond."""
    if not max(abs(args.t_min), abs(args.t_max)) <= sys.float_info.max / 4:
        raise ValidationError(f"temperature range {args.t_min!r} to {args.t_max!r} K too wide")
    return np.linspace(args.t_min, args.t_max, args.points)


def cmd_stark_sweep(args, run, out):
    alpha = args.alpha if args.alpha is not None else \
        run.port("readout").attenuation
    circuit = run.circuit
    kappas = (circuit.kappa_x, circuit.kappa_a, circuit.kappa_tot)
    points = []
    for temp in _temperatures(args):
        n_x = spectra.bose_occupation(circuit.omega_r, float(temp))
        shift = ac_stark_shift(n_x, 0.0, circuit.chi, kappas, alpha)
        points.append(StarkSweepPoint(float(temp), float(shift)))
    io.write_stark_sweep(out / "stark_sweep.csv", points)
    return ["stark_sweep.csv"]


def cmd_calibrate(args, run, out):
    sweep = io.read_stark_sweep(args.input)
    result = calibrate_attenuation(sweep, args.port, run.circuit,
                                   alpha=args.alpha)
    payload = {"port": args.port,
               "intercept_hz": _hz(result.parameters["intercept"]),
               "intercept_err_hz": _hz(result.stderr("intercept"))}
    if args.port == "readout":
        payload["alpha"] = result.parameters["alpha"]
        payload["alpha_err"] = result.stderr("alpha")
    else:
        payload["kappa_a_hz"] = _hz(result.parameters["kappa_a"])
        payload["kappa_a_err_hz"] = _hz(result.stderr("kappa_a"))
    _write_json(out / "calibration.json", payload)
    return ["calibration.json"]


def cmd_gamma1_sweep(args, run, out):
    circuit = run.circuit
    rates = decoherence.component_rates(circuit, run.s_delta)
    photons = np.linspace(0.0, args.n_max, args.points).tolist()
    antenna = [decoherence.gamma1_antenna_model(
        n, circuit.gamma1_0, circuit.gamma1_antenna) for n in photons]
    dispersive = [decoherence.gamma1_dispersive_model(
        n, n, rates, circuit.gamma1_0) for n in photons]
    resonant = [decoherence.delta_gamma1_res(n, rates) for n in photons]
    io.GAMMA1_SWEEP.write(out / "gamma1_sweep.csv",
                          (photons, antenna, dispersive, resonant))
    return ["gamma1_sweep.csv"]


def cmd_dephasing_sweep(args, run, out):
    temps = _temperatures(args).tolist()
    rates = [decoherence.dephasing_second_order(t, run.geometry) for t in temps]
    io.DEPHASING_SWEEP.write(out / "dephasing_sweep.csv", (temps, rates))
    return ["dephasing_sweep.csv"]


def _tls_series(run: RunConfig, mode: str, seed: int):
    duration = run.campaign.duration
    dt = 1.0 / run.campaign.point_rate
    if mode == "phenomenological":
        if run.phenomenological is None:
            raise ConfigError(
                "phenomenological block required for --mode phenomenological")
        p = run.phenomenological
        return simulate_phenomenological(
            p.mean, p.beta, p.knee, p.white_sigma, duration, dt, seed)
    ensemble_seed, dynamics_seed = _spawn_seeds(seed, 2)
    ensemble = sample_ensemble(
        dataclasses.replace(run.tls, seed=ensemble_seed))
    return simulate_microscopic(
        ensemble, run.circuit.omega_q0, run.campaign.temperature,
        duration, dt, dynamics_seed, base_gamma1=run.tls.base_gamma1)


def cmd_tls_sim(args, run, out):
    seed = _effective_seed(args, run.seed)
    series = _tls_series(run, args.mode, seed)
    io.write_time_series(out / "gamma1_series.csv", series)
    return ["gamma1_series.csv"]


def cmd_psd_fit(args, run, out):
    series = io.read_time_series(args.input)
    spectrum = psd_estimate(series, bins_per_decade=args.bins_per_decade)
    io.write_spectrum(out / "spectrum.csv", spectrum)
    fit = fit_knee_spectrum(spectrum)
    _write_json(out / "psd_fit.json", _fit_payload(fit))
    return ["spectrum.csv", "psd_fit.json"]


def cmd_floor_fit(args, run, out):
    points = io.read_floor_points(args.input)
    fit = fit_white_floor_vs_temp(points)
    _write_json(out / "floor_fit.json", {
        "mu0_w_per_hz": fit.mu0, "mu0_err_w_per_hz": fit.mu0_err,
        "a_w_per_hz_per_k": fit.a, "a_err_w_per_hz_per_k": fit.a_err,
        "x": fit.x, "x_err": fit.x_err,
        "x_unidentifiable": fit.x_unidentifiable,
    })
    return ["floor_fit.json"]


def cmd_campaign(args, run, out):
    seed = _effective_seed(args, run.seed)
    source_seed, measure_seed = _spawn_seeds(seed, 2)
    source = _tls_series(run, args.mode, source_seed)
    campaign_config = dataclasses.replace(run.campaign, seed=measure_seed)
    result = simulate_campaign(campaign_config, source)
    io.write_time_series(out / "campaign_series.csv", result.series)
    spectrum = psd_estimate(result.series)
    io.write_spectrum(out / "campaign_psd.csv", spectrum)
    fit = fit_knee_spectrum(spectrum)
    _write_json(out / "campaign_fit.json", _fit_payload(fit))
    values = result.series.values
    _write_json(out / "campaign_summary.json", {
        "n_points": int(values.size),
        "n_gaps": len(result.gap_indices),
        "gamma1_mean_hz": _hz(float(np.mean(values))),
        "gamma1_std_hz": _hz(float(np.std(values))),
    })
    return ["campaign_series.csv", "campaign_psd.csv",
                                "campaign_fit.json", "campaign_summary.json"]


def _report_timestamp() -> str:
    """``THERMOQ_TIMESTAMP`` verbatim when set, else the current UTC time."""
    timestamp = os.environ.get("THERMOQ_TIMESTAMP",
                               datetime.now(timezone.utc).isoformat())
    try:
        datetime.fromisoformat(timestamp)
    except ValueError:
        raise ConfigError("THERMOQ_TIMESTAMP: expected an ISO 8601 date and "
                          f"time, got {timestamp!r}") from None
    return timestamp


def _write_report(out: Path, command: str, inputs: list, outputs: list,
                  timestamp: str) -> None:
    report = {
        "command": command,
        "inputs": {str(path): _sha256(path) for path in inputs},
        "outputs": [{"path": name, "sha256": _sha256(out / name)}
                    for name in sorted(outputs)],
        "version": __version__,
        "timestamp": timestamp,
    }
    _write_json(out / "report.json", report)


_MODE = ("--mode", dict(choices=("microscopic", "phenomenological"), default="microscopic"))
_T_RANGE = (("--t-min", dict(type=_finite_float, default=0.05)),
            ("--t-max", dict(type=_finite_float, default=1.5)))


class _Command(NamedTuple):
    """A subcommand: it takes --output-dir, --config unless ``config`` is
    False, --seed if ``seeded``, then each (flag, options) of ``arguments``.
    ``handler`` names a function of this module, looked up at each call
    (so that a wrapper installed on the module sees it); ``handler(args,
    run, out)`` writes into ``out`` and returns the names of the files it
    wrote, and ``run`` is the loaded config, if any."""

    handler: str
    help: str
    config: bool = True
    seeded: bool = False
    arguments: tuple = ()


_COMMANDS = {
    "rates": _Command("cmd_rates", "decoherence rate budget as JSON"),
    "stark-sweep": _Command(
        "cmd_stark_sweep", "model ac-Stark shift vs readout temperature", arguments=(
            *_T_RANGE, ("--points", dict(type=_positive_int, default=15)),
            ("--alpha", dict(type=_finite_float, default=None,
                             help="line attenuation (default: readout port value)")))),
    "calibrate": _Command(
        "cmd_calibrate", "fit attenuation or antenna coupling from a Stark sweep",
        arguments=(("--input", dict(required=True, help="Stark sweep CSV")),
                   ("--port", dict(choices=("readout", "antenna"), required=True)),
                   ("--alpha", dict(type=_finite_float, default=None,
                                    help="known attenuation (antenna calibration)")))),
    "gamma1-sweep": _Command(
        "cmd_gamma1_sweep", "relaxation-rate models vs photon number",
        arguments=(("--n-max", dict(type=_finite_float, default=2.0)),
                   ("--points", dict(type=_positive_int, default=41)))),
    "dephasing-sweep": _Command(
        "cmd_dephasing_sweep", "second-order antenna dephasing vs temperature",
        arguments=(*_T_RANGE, ("--points", dict(type=_positive_int, default=30)))),
    "tls-sim": _Command("cmd_tls_sim", "simulate a fluctuating gamma1(t) record",
                        seeded=True, arguments=(_MODE,)),
    "psd-fit": _Command(
        "cmd_psd_fit", "bin a gamma1 series into a PSD and fit the knee model", config=False,
        arguments=(("--input", dict(required=True, help="gamma1 series CSV")),
                   ("--bins-per-decade", dict(type=_positive_int, default=16)))),
    "floor-fit": _Command(
        "cmd_floor_fit", "fit the white-floor temperature scaling", config=False,
        arguments=(("--input", dict(required=True,
                                    help="CSV of temp_k,psd_w_per_hz points")),)),
    "campaign": _Command(
        "cmd_campaign", "full pipeline: gamma1 source, repeated relaxation "
        "experiments, PSD, knee fit", seeded=True, arguments=(_MODE,)),
}


class _Reparse(Exception):
    """A parse error of a one-command parser; the full parser reports it."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Reparse(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.  A
    one-command parser parses and prints help as the full one does but
    raises ``_Reparse`` on an error, whose message the full one words."""
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="thermoq",
        description="Transmon decoherence under thermal fields: rate "
                    "budgets, sweeps, TLS simulation, and spectral fits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        if command not in (None, name):
            continue
        cmd = sub.add_parser(name, help=spec.help)
        cmd.add_argument("--output-dir", default=None,
                         help="directory for output files")
        if spec.config:
            cmd.add_argument("--config", required=True,
                             help="JSON run configuration")
        if spec.seeded:
            cmd.add_argument("--seed", type=_seed, default=None,
                             help="override THERMOQ_SEED and the config seed")
        for flag, options in spec.arguments:
            cmd.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except _Reparse:
        args = build_parser().parse_args(argv)
    spec = _COMMANDS[args.command]
    try:
        timestamp = _report_timestamp()
        run = load_config(args.config) if spec.config else None
        out = Path(args.output_dir if args.output_dir is not None
                   else run.output_dir if run is not None else ".")
        out.mkdir(parents=True, exist_ok=True)
        outputs = globals()[spec.handler](args, run, out)
        inputs = [vars(args)[key] for key in ("config", "input") if key in vars(args)]
        _write_report(out, args.command, inputs, outputs, timestamp)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
