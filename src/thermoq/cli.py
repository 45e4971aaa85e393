"""Command-line surface binding the library into reproducible runs.

Every subcommand is a pure function of (config, input files, seed):
rerunning with the same inputs produces byte-identical output files.
Exit codes: 0 success, 2 validation problem (config, CSV, domain),
3 fit failure.  Seed precedence is ``--seed`` over ``THERMOQ_SEED``
over the config seed; ``main`` resolves it once into ``args.seed``, and
the seeded handlers pass each random stage its own spawned seed.  Each
run writes ``report.json`` listing every emitted file with its SHA-256
content hash; set ``THERMOQ_TIMESTAMP`` to an ISO 8601 date and time to
pin the report timestamp.  A handler
computes every output before ``main`` writes any, so a run that exits
2 or 3 writes no output file and no ``report.json``, though the output
directory may already exist.  ``main``
builds its parser once per process and reuses it, so a caller that runs
many commands in one interpreter pays for argparse's set-up once.

All emitted frequencies and rates are in Hz (omega/2pi); column names
carry the units.
"""

from __future__ import annotations

import argparse
import functools
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
from .errors import ConfigError, DomainError, FitError, ValidationError
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
    with open(path, "rb") as stream:
        return hashlib.file_digest(stream, "sha256").hexdigest()


def _integer_at_least(minimum: int, maximum: int | None = None):
    """An argparse type accepting integers >= ``minimum`` (and <= ``maximum``)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be <= {maximum}, got {value}")
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
# every sweep point is one Python-level model evaluation: 2**20 of them
# take seconds and about 0.2 GB, and each tenfold more ten times that
_MAX_POINTS = 2**20
_points = _integer_at_least(1, _MAX_POINTS)
_seed = _integer_at_least(0)


def _effective_seed(args, fallback: int) -> int:
    if args.seed is not None:
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


def _knee_outputs(series, spectrum_name: str, fit_name: str,
                  **psd_options) -> dict:
    """The outputs of the log-binned spectrum of ``series`` and of its knee
    fit, under the given names."""
    spectrum = psd_estimate(series, **psd_options)
    fit = fit_knee_spectrum(spectrum)
    return {spectrum_name: (io.write_spectrum, spectrum), fit_name: (_write_json, {
        "beta": fit.beta,
        "beta_err": fit.beta_err,
        "omega_c_hz": _hz(fit.omega_c),
        "omega_c_err_hz": _hz(fit.omega_c_err),
        "mu_w_per_hz": fit.mu,
        "mu_err_w_per_hz": fit.mu_err,
        "amplitude": fit.amplitude,
        "amplitude_err": fit.amplitude_err,
        "fit_window_hz": [_hz(fit.fit_window[0]), _hz(fit.fit_window[1])],
        "lr_statistic": fit.lr_statistic,
        "degenerate": fit.degenerate,
    })}


def cmd_rates(args, run):
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
    return {"rates.json": (_write_json, payload)}


def _sweep(args, point) -> tuple:
    """(temperatures, ``point(T)`` at each): --points temperatures from
    --t-min to --t-max, whose ends must lie within a quarter of the largest
    float (np.linspace overflows beyond).  The temperatures a point accepts
    form an interval, so a DomainError at the first is --t-min's and one
    further on is --t-max's: it names that option."""
    if not max(abs(args.t_min), abs(args.t_max)) <= sys.float_info.max / 4:
        raise ValidationError(f"temperature range {args.t_min!r} to {args.t_max!r} K too wide")
    temps = np.linspace(args.t_min, args.t_max, args.points).tolist()
    values = []
    for i, temp in enumerate(temps):
        try:
            values.append(point(temp))
        except DomainError as exc:
            flag, end = ("--t-min", args.t_min) if i == 0 else ("--t-max", args.t_max)
            raise DomainError(f"{flag} {end!r} out of range: {exc}") from None
    return temps, values


def cmd_stark_sweep(args, run):
    alpha = args.alpha if args.alpha is not None else \
        run.port("readout").attenuation
    # only --alpha can be out of range (the config checks the attenuation);
    # checked here, or the sweep would blame its first temperature
    if not 0 < alpha <= 1:
        raise DomainError(f"--alpha {alpha!r} must be a power factor in (0, 1]")
    circuit = run.circuit
    kappas = (circuit.kappa_x, circuit.kappa_a, circuit.kappa_tot)

    def point(temp):
        n_x = spectra.bose_occupation(circuit.omega_r, temp)
        shift = ac_stark_shift(n_x, 0.0, circuit.chi, kappas, alpha)
        return StarkSweepPoint(temp, float(shift))

    _, points = _sweep(args, point)
    return {"stark_sweep.csv": (io.write_stark_sweep, points)}


def cmd_calibrate(args, run):
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
    return {"calibration.json": (_write_json, payload)}


def cmd_gamma1_sweep(args, run):
    # checked here, or the models would name their own photon number
    if not args.n_max >= 0:
        raise DomainError(f"--n-max {args.n_max!r} must be >= 0")
    circuit = run.circuit
    rates = decoherence.component_rates(circuit, run.s_delta)
    photons = np.linspace(0.0, args.n_max, args.points).tolist()
    antenna = [decoherence.gamma1_antenna_model(
        n, circuit.gamma1_0, circuit.gamma1_antenna) for n in photons]
    dispersive = [decoherence.gamma1_dispersive_model(
        n, n, rates, circuit.gamma1_0) for n in photons]
    resonant = [decoherence.delta_gamma1_res(n, rates) for n in photons]
    if not np.isfinite([antenna, dispersive, resonant]).all():
        raise DomainError(f"--n-max {args.n_max!r} too large: the relaxation rates overflow")
    return {"gamma1_sweep.csv": (io.GAMMA1_SWEEP.write,
                                 (photons, antenna, dispersive, resonant))}


def cmd_dephasing_sweep(args, run):
    temps, rates = _sweep(
        args, lambda t: decoherence.dephasing_second_order(t, run.geometry))
    return {"dephasing_sweep.csv": (io.DEPHASING_SWEEP.write, (temps, rates))}


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
    ensemble = sample_ensemble(run.tls, ensemble_seed)
    return simulate_microscopic(
        ensemble, run.circuit.omega_q0, run.campaign.temperature,
        duration, dt, dynamics_seed, base_gamma1=run.tls.base_gamma1)


def cmd_tls_sim(args, run):
    series = _tls_series(run, args.mode, args.seed)
    return {"gamma1_series.csv": (io.write_time_series, series)}


def cmd_psd_fit(args, run):
    return _knee_outputs(io.read_time_series(args.input), "spectrum.csv",
                         "psd_fit.json", bins_per_decade=args.bins_per_decade)


def cmd_floor_fit(args, run):
    fit = fit_white_floor_vs_temp(io.read_floor_points(args.input))
    return {"floor_fit.json": (_write_json, {
        "mu0_w_per_hz": fit.mu0, "mu0_err_w_per_hz": fit.mu0_err,
        "a_w_per_hz_per_k": fit.a, "a_err_w_per_hz_per_k": fit.a_err,
        "x": fit.x, "x_err": fit.x_err,
        "x_unidentifiable": fit.x_unidentifiable,
    })}


def cmd_campaign(args, run):
    source_seed, measure_seed = _spawn_seeds(args.seed, 2)
    source = _tls_series(run, args.mode, source_seed)
    result = simulate_campaign(run.campaign, source, measure_seed)
    values = result.series.values
    return {"campaign_series.csv": (io.write_time_series, result.series),
            **_knee_outputs(result.series, "campaign_psd.csv", "campaign_fit.json"),
            "campaign_summary.json": (_write_json, {
                "n_points": int(values.size),
                "n_gaps": len(result.gap_indices),
                "gamma1_mean_hz": _hz(float(np.mean(values))),
                "gamma1_std_hz": _hz(float(np.std(values))),
            })}


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


def _write_report(out: Path, command: str, inputs: list, outputs: dict,
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
    (so that a wrapper installed on the module sees it).  ``handler(args,
    run)``, where ``run`` is the loaded config if any, writes nothing: it
    returns an insertion-ordered ``{file name: (write, content)}``, and
    ``main`` then calls ``write(out / name, content)`` for each entry and
    lists the names in ``report.json``.  A handler that raises therefore
    leaves no output file and no report."""

    handler: str
    help: str
    config: bool = True
    seeded: bool = False
    arguments: tuple = ()


_COMMANDS = {
    "rates": _Command("cmd_rates", "decoherence rate budget as JSON"),
    "stark-sweep": _Command(
        "cmd_stark_sweep", "model ac-Stark shift vs readout temperature", arguments=(
            *_T_RANGE, ("--points", dict(type=_points, default=15)),
            ("--alpha", dict(type=_finite_float, default=None,
                             help="line attenuation (default: readout port value)")))),
    "calibrate": _Command(
        "cmd_calibrate", "fit attenuation or antenna coupling from a Stark sweep",
        arguments=(("--input", dict(required=True, help="Stark sweep CSV")),
                   ("--port", dict(choices=("readout", "antenna"), required=True)),
                   ("--alpha", dict(type=_finite_float, default=None,
                                    help="known attenuation, antenna port only "
                                         "(the readout port fits it)")))),
    "gamma1-sweep": _Command(
        "cmd_gamma1_sweep", "relaxation-rate models vs photon number",
        arguments=(("--n-max", dict(type=_finite_float, default=2.0)),
                   ("--points", dict(type=_points, default=41)))),
    "dephasing-sweep": _Command(
        "cmd_dephasing_sweep", "second-order antenna dephasing vs temperature",
        arguments=(*_T_RANGE, ("--points", dict(type=_points, default=30)))),
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


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="thermoq",
        description="Transmon decoherence under thermal fields: rate "
                    "budgets, sweeps, TLS simulation, and spectral fits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing never changes a
    parser, and ``build_parser`` stays a fresh one per call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    spec = _COMMANDS[args.command]
    try:
        timestamp = _report_timestamp()
        run = load_config(args.config) if spec.config else None
        if spec.seeded:
            args.seed = _effective_seed(args, run.seed)
        out = Path(args.output_dir if args.output_dir is not None
                   else run.output_dir if run is not None else ".")
        out.mkdir(parents=True, exist_ok=True)
        outputs = globals()[spec.handler](args, run)
        for name, (write, content) in outputs.items():
            write(out / name, content)
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
