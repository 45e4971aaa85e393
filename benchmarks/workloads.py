"""Seeded inputs, CLI invocations and output checks of the benchmark workloads.

Every input is derived from the benchmark seed with the standard library's
``random`` module, so a seed names the same inputs on every machine and
every NumPy version.  The configs start from ``base_config.json``, a frozen
copy of the repository's ``sample.json`` (the paper's operating point), so
later edits to ``sample.json`` do not change what the benchmark measures.

A workload is the list of CLI invocations that make up one pass.  Every
pass repeats identical work, so its outputs must be byte-identical from pass
to pass.  Each invocation also carries a check that its outputs are well
formed and physically sane; a check raises ``CheckFailed`` with the reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BASE_CONFIG = Path(__file__).with_name("base_config.json")

WORKLOADS = ("campaign_paper", "long_record", "budget_scan")

SIZES = {
    "full": {"campaign_ticks": 1200, "record_samples": 2 ** 17,
             "budget_configs": 40},
    # The smallest sizes every command accepts: the knee fit needs a
    # spectrum spanning two decades, hence 256 campaign ticks.
    "tiny": {"campaign_ticks": 256, "record_samples": 2 ** 10,
             "budget_configs": 2},
}

# Port temperatures of budget_scan span the range the rate budget is
# evaluated over in the paper (30-300 mK).
PORT_T_RANGE = (0.03, 0.3)
STARK_POINTS = 15
GAMMA1_POINTS = 41
DEPHASING_POINTS = 30
FLOOR_POINTS = 8
# Relative error allowed on the attenuation recovered by `calibrate` from a
# noiseless model sweep; only the 17-digit CSV rendering perturbs it.
CALIBRATION_RTOL = 1e-6
# Absolute error allowed on the exponent x recovered by `floor-fit` from
# 8 points with 1% multiplicative noise.
FLOOR_X_TOL = 0.25


class CheckFailed(Exception):
    """An output is missing, malformed or physically implausible."""


@dataclass
class Invocation:
    argv: list
    out_dir: Path
    outputs: tuple
    check: Callable[[Path], None]

    def files(self) -> list:
        return [self.out_dir / name for name in (*self.outputs, "report.json")]

    def digest(self) -> str | None:
        """SHA-256 over every output and the report; None if one is missing."""
        h = hashlib.sha256()
        for path in self.files():
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                return None
            h.update(path.name.encode() + b"\0" + data)
        return h.hexdigest()

    def clean(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for path in self.files():
            path.unlink(missing_ok=True)


@dataclass
class Workload:
    name: str
    invocations: list
    items: int                   # ticks, samples or invocations per pass
    item_unit: str
    setup_config: Path           # config loaded by the cold-start measurement
    summary: Path | None = None  # campaign_summary.json, for the gap ratio


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` under ``work``."""
    rng = random.Random(f"{name}/{seed}")
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    sizes = SIZES[size]
    if name == "campaign_paper":
        return _campaign_paper(rng, work, inputs, sizes["campaign_ticks"])
    if name == "long_record":
        return _long_record(rng, work, inputs, sizes["record_samples"])
    if name == "budget_scan":
        return _budget_scan(rng, work, inputs, sizes["budget_configs"])
    raise ValueError(f"unknown workload {name!r}")


def _config(rng, path: Path, out_dir: Path, *, samples=None,
            port_temperatures=None) -> Path:
    config = json.loads(BASE_CONFIG.read_text(encoding="utf-8"))
    config["seed"] = rng.randrange(2 ** 31)
    config["output_dir"] = str(out_dir)
    if samples is not None:
        config["campaign"]["duration_s"] = \
            samples / config["campaign"]["point_rate_hz"]
    for port in config["ports"]:
        if port_temperatures and port["label"] in port_temperatures:
            port["temperature_k"] = port_temperatures[port["label"]]
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def _campaign_paper(rng, work, inputs, ticks) -> Workload:
    out = work / "out" / "campaign"
    config = _config(rng, inputs / "campaign.json", out, samples=ticks)

    def check(d: Path) -> None:
        _check_report(d, "campaign")
        summary = _json(d / "campaign_summary.json")
        if summary["n_points"] != ticks:
            raise CheckFailed(f"n_points {summary['n_points']} != {ticks}")
        if not 0 <= summary["n_gaps"] < ticks:
            raise CheckFailed(f"n_gaps {summary['n_gaps']} out of range")
        _positive(summary, "gamma1_mean_hz", "gamma1_std_hz")
        _csv(d / "campaign_series.csv", "time_s,gamma1_hz", rows=ticks,
             positive_column=1)
        _csv(d / "campaign_psd.csv", "freq_hz,psd_w_per_hz", min_rows=6)
        _check_knee_fit(_json(d / "campaign_fit.json"))

    invocation = Invocation(
        ["campaign", "--config", str(config), "--output-dir", str(out)], out,
        ("campaign_series.csv", "campaign_psd.csv", "campaign_fit.json",
         "campaign_summary.json"), check)
    return Workload("campaign_paper", [invocation], ticks, "ticks", config,
                    summary=out / "campaign_summary.json")


def _long_record(rng, work, inputs, samples) -> Workload:
    tls_out = work / "out" / "tls"
    psd_out = work / "out" / "psd"
    config = _config(rng, inputs / "long_record.json", tls_out,
                     samples=samples)
    series = tls_out / "gamma1_series.csv"

    def check_series(d: Path) -> None:
        _check_report(d, "tls-sim")
        _csv(series, "time_s,gamma1_hz", rows=samples, positive_column=1)
        _check_round_trip(series, work / "roundtrip.csv")

    def check_fit(d: Path) -> None:
        _check_report(d, "psd-fit")
        _csv(d / "spectrum.csv", "freq_hz,psd_w_per_hz", min_rows=6)
        _check_knee_fit(_json(d / "psd_fit.json"))

    invocations = [
        Invocation(["tls-sim", "--config", str(config), "--mode",
                    "microscopic", "--output-dir", str(tls_out)],
                   tls_out, ("gamma1_series.csv",), check_series),
        Invocation(["psd-fit", "--input", str(series), "--output-dir",
                    str(psd_out)],
                   psd_out, ("spectrum.csv", "psd_fit.json"), check_fit),
    ]
    return Workload("long_record", invocations, samples, "samples", config)


def _budget_scan(rng, work, inputs, n_configs) -> Workload:
    attenuation = next(port["attenuation"] for port in
                       _json(BASE_CONFIG)["ports"] if port["label"] == "readout")
    invocations = []
    for i in range(n_configs):
        out = work / "out" / f"cfg{i:02d}"
        temps = {label: rng.uniform(*PORT_T_RANGE)
                 for label in ("readout", "antenna")}
        config = _config(rng, inputs / f"cfg{i:02d}.json", out,
                         port_temperatures=temps)
        floor, x_true = _floor_points(rng, inputs / f"floor{i:02d}.csv")
        stark_csv = out / "stark" / "stark_sweep.csv"
        base = ["--config", str(config)]
        invocations += [
            Invocation(["rates", *base, "--output-dir", str(out / "rates")],
                       out / "rates", ("rates.json",), _check_rates),
            Invocation(["stark-sweep", *base, "--output-dir",
                        str(out / "stark")],
                       out / "stark", ("stark_sweep.csv",),
                       _csv_check("stark-sweep", "stark_sweep.csv",
                                  "temp_k,shift_hz", STARK_POINTS)),
            Invocation(["calibrate", *base, "--input", str(stark_csv),
                        "--port", "readout", "--output-dir", str(out / "cal")],
                       out / "cal", ("calibration.json",),
                       _calibration_check(attenuation)),
            Invocation(["gamma1-sweep", *base, "--output-dir",
                        str(out / "gamma1")],
                       out / "gamma1", ("gamma1_sweep.csv",),
                       _csv_check("gamma1-sweep", "gamma1_sweep.csv",
                                  "photon_number,gamma1_antenna_hz,"
                                  "gamma1_dispersive_hz,delta_gamma1_res_hz",
                                  GAMMA1_POINTS)),
            Invocation(["dephasing-sweep", *base, "--output-dir",
                        str(out / "dephasing")],
                       out / "dephasing", ("dephasing_sweep.csv",),
                       _csv_check("dephasing-sweep", "dephasing_sweep.csv",
                                  "temp_k,gamma_phi_hz", DEPHASING_POINTS)),
            Invocation(["floor-fit", "--input", str(floor), "--output-dir",
                        str(out / "floor")],
                       out / "floor", ("floor_fit.json",),
                       _floor_check(x_true)),
        ]
    return Workload("budget_scan", invocations, len(invocations),
                    "invocations", inputs / "cfg00.json")


def _floor_points(rng, path: Path):
    """Write mu(T) = mu0 + a*T^(2+x) at 8 jittered temperatures, 1% noise."""
    lo, hi = PORT_T_RANGE
    x = rng.uniform(-0.3, 0.3)
    mu0 = rng.uniform(1.0, 5.0) * 1e-29
    a = rng.uniform(20.0, 50.0) * mu0 / hi ** (2 + x)
    lines = ["temp_k,psd_w_per_hz"]
    for k in range(FLOOR_POINTS):
        t = lo * (hi / lo) ** (k / (FLOOR_POINTS - 1))
        t *= 1.0 + rng.uniform(-0.02, 0.02)
        mu = (mu0 + a * t ** (2 + x)) * (1.0 + 0.01 * rng.gauss(0.0, 1.0))
        lines.append(f"{t!r},{mu!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, x


# --- output checks ---------------------------------------------------------

def _json(path: Path):
    def reject(token):
        raise CheckFailed(f"{path.name}: non-finite number {token}")
    try:
        return json.loads(path.read_text(encoding="utf-8"),
                          parse_constant=reject)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: not JSON: {exc}") from None


def _number(payload: dict, key: str) -> float:
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise CheckFailed(f"{key} is {value!r}, expected a finite number")
    return float(value)


def _positive(payload: dict, *keys) -> None:
    for key in keys:
        if not _number(payload, key) > 0:
            raise CheckFailed(f"{key} = {payload[key]!r} is not positive")


def _csv(path: Path, header: str, rows=None, min_rows=None,
         positive_column=None) -> None:
    """Check header, row count and that every field is a finite number."""
    with path.open(encoding="utf-8") as handle:
        if handle.readline().rstrip("\n") != header:
            raise CheckFailed(f"{path.name}: header is not {header!r}")
        width = header.count(",") + 1
        count = 0
        for count, line in enumerate(handle, start=1):
            fields = line.rstrip("\n").split(",")
            if len(fields) != width:
                raise CheckFailed(f"{path.name}: row {count} has "
                                  f"{len(fields)} fields")
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise CheckFailed(f"{path.name}: row {count} is not numeric") \
                    from None
            if not all(math.isfinite(v) for v in values):
                raise CheckFailed(f"{path.name}: row {count} is not finite")
            if positive_column is not None and not values[positive_column] > 0:
                raise CheckFailed(f"{path.name}: row {count} is not positive")
    if rows is not None and count != rows:
        raise CheckFailed(f"{path.name}: {count} rows, expected {rows}")
    if min_rows is not None and count < min_rows:
        raise CheckFailed(f"{path.name}: {count} rows, expected >= {min_rows}")


def _check_report(d: Path, command: str) -> None:
    """report.json names the command and hashes every output correctly."""
    report = _json(d / "report.json")
    if report.get("command") != command:
        raise CheckFailed(f"report.json command is {report.get('command')!r}")
    for entry in report["outputs"]:
        actual = hashlib.sha256((d / entry["path"]).read_bytes()).hexdigest()
        if actual != entry["sha256"]:
            raise CheckFailed(f"report.json hash of {entry['path']} is stale")


def _check_knee_fit(fit: dict) -> None:
    """A knee fit reports beta unless it concluded the spectrum is white."""
    if not isinstance(fit.get("degenerate"), bool):
        raise CheckFailed("knee fit has no boolean 'degenerate'")
    lo, hi = fit["fit_window_hz"]
    if not 0 < lo < hi:
        raise CheckFailed(f"knee fit window {lo!r}..{hi!r} is not ordered")
    _number(fit, "mu_w_per_hz")
    if not fit["degenerate"]:
        beta = _number(fit, "beta")
        if not 0 < beta <= 4:
            raise CheckFailed(f"beta = {beta} outside (0, 4]")
        _number(fit, "beta_err")


def _check_round_trip(series: Path, scratch: Path) -> None:
    """Reading the series and writing it again reproduces it byte for byte."""
    from thermoq import io
    io.write_time_series(scratch, io.read_time_series(series))
    same = scratch.read_bytes() == series.read_bytes()
    scratch.unlink()
    if not same:
        raise CheckFailed(f"{series.name}: Hz write->read->write changed bytes")


def _check_rates(d: Path) -> None:
    _check_report(d, "rates")
    rates = _json(d / "rates.json")
    for key in rates:
        if key.endswith("_hz"):
            _number(rates, key)
    _positive(rates, "gamma1_total_hz")


def _csv_check(command: str, name: str, header: str, rows: int):
    def check(d: Path) -> None:
        _check_report(d, command)
        _csv(d / name, header, rows=rows)
    return check


def _calibration_check(attenuation: float):
    def check(d: Path) -> None:
        _check_report(d, "calibrate")
        alpha = _number(_json(d / "calibration.json"), "alpha")
        if abs(alpha - attenuation) > CALIBRATION_RTOL * attenuation:
            raise CheckFailed(f"calibrated alpha {alpha} != {attenuation}")
    return check


def _floor_check(x_true: float):
    def check(d: Path) -> None:
        _check_report(d, "floor-fit")
        fit = _json(d / "floor_fit.json")
        _positive(fit, "a_w_per_hz_per_k")
        x = _number(fit, "x")
        if fit["x_unidentifiable"] or abs(x - x_true) > FLOOR_X_TOL:
            raise CheckFailed(f"floor exponent x = {x}, generated {x_true}")
    return check
