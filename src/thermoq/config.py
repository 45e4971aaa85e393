"""JSON run configuration: strict schema, one unit conversion at load.

On disk, frequency-like quantities carry a ``_hz`` suffix and are in
Hz; temperatures are K (``_k``), inductances H (``_h``), impedances
Ohm (``_ohm``).  Loading multiplies Hz values by 2*pi exactly once, so
everything downstream works in rad/s.  Two deliberate exceptions:
TLS energy scales (``epsilon_max_hz``, ``delta_range_hz``) become
Joules via hbar * 2*pi * f, and the campaign cadence
(``point_rate_hz``) is a samples-per-second count, not an oscillation,
so it passes through unscaled.

Unknown keys are rejected, and every diagnostic names the offending
field path (e.g. ``circuit.g_hz``).  Numbers must be finite, and the
run sizes are capped before anything is allocated: a campaign holds all
its relaxation traces at once (about 2.2 kB per tick at peak), a TLS
about 140 B at peak (48 B kept in the ensemble record) plus one pass
over the tick grid, and an expected telegraph switch of the microscopic
model one uniform draw and a few words of sorting.  Averaging counts
stop at the largest count the binomial shot-noise sampler takes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .cavity import PORT_LABELS, CircuitParams, ThermalPort
from .constants import TWO_PI, hbar
from .decoherence import CouplingGeometry
from .errors import ConfigError, ValidationError
from .experiments import CampaignConfig
from .tlssim import T_REF, EnsembleConfig

MAX_CAMPAIGN_TICKS = 2**18  # about 0.6 GB at peak for a whole campaign
MAX_TLS = 100_000
# Expected telegraph switches of a whole microscopic record.  About 16 B
# per switch at peak when one TLS holds them all (tracemalloc, 2^20
# switches in one TLS over 2^15 samples), so about 0.27 GB here.
MAX_SWITCHES = 2**24
MAX_AVERAGES = 2**63 - 1  # the largest count Generator.binomial takes (a C long)


@dataclass(frozen=True)
class PhenomenologicalConfig:
    """Parameters of the phenomenological gamma1(t) generator (rad/s)."""

    mean: float
    beta: float
    knee: float
    white_sigma: float


@dataclass(frozen=True)
class RunConfig:
    """Fully validated, unit-converted run configuration."""

    circuit: CircuitParams
    geometry: CouplingGeometry
    ports: tuple
    tls: EnsembleConfig
    campaign: CampaignConfig
    phenomenological: PhenomenologicalConfig | None
    s_delta: float
    gamma_phi_photon_shot: float
    seed: int
    output_dir: str

    def port(self, label: str) -> ThermalPort:
        for port in self.ports:
            if port.label == label:
                return port
        raise KeyError(label)


class _Node:
    """A dict being consumed key by key; leftovers are unknown keys."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        self._data = dict(data)
        self._path = path

    def _at(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def _pop(self, key: str, required: bool, default):
        if key in self._data:
            return self._data.pop(key)
        if required:
            raise ConfigError(f"{self._at(key)}: missing required key")
        return default

    def _finite(self, key: str, raw) -> float:
        """``raw`` as a float; an overflowing literal such as 1e999 is refused."""
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{self._at(key)}: expected a finite number")
        return value

    def number(self, key: str, *, required: bool = True, default=None) -> float:
        raw = self._pop(key, required, default)
        if raw is default and not required:
            return default
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{self._at(key)}: expected a number")
        return self._finite(key, raw)

    def integer(self, key: str, *, minimum: int | None = None,
                maximum: int | None = None) -> int:
        raw = self._pop(key, True, None)
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{self._at(key)}: expected an integer")
        if minimum is not None and raw < minimum:
            raise ConfigError(f"{self._at(key)}: must be >= {minimum}")
        if maximum is not None and raw > maximum:
            raise ConfigError(f"{self._at(key)}: must be <= {maximum}")
        return raw

    def string(self, key: str) -> str:
        raw = self._pop(key, True, None)
        if not isinstance(raw, str):
            raise ConfigError(f"{self._at(key)}: expected a string")
        return raw

    def pair(self, key: str) -> tuple:
        raw = self._pop(key, True, None)
        ok = (isinstance(raw, list) and len(raw) == 2
              and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in raw))
        if not ok:
            raise ConfigError(f"{self._at(key)}: expected a pair of numbers")
        return (self._finite(key, raw[0]), self._finite(key, raw[1]))

    def child(self, key: str, *, required: bool = True):
        raw = self._pop(key, required, None)
        if raw is None and not required:
            return None
        return _Node(raw, self._at(key))

    def child_list(self, key: str) -> list:
        raw = self._pop(key, True, None)
        if not isinstance(raw, list):
            raise ConfigError(f"{self._at(key)}: expected a list")
        return [_Node(item, f"{self._at(key)}[{i}]")
                for i, item in enumerate(raw)]

    def close(self) -> None:
        if self._data:
            unknown = ", ".join(sorted(repr(k) for k in self._data))
            raise ConfigError(f"{self._path or 'config'}: unknown key(s) {unknown}")


def _build(path: str, factory, /, **kwargs):
    """Construct a domain type, prefixing invariant failures with the path."""
    try:
        return factory(**kwargs)
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_circuit(node: _Node) -> CircuitParams:
    hz_fields = ("omega_q0", "E_c", "omega_r", "g", "kappa_i", "kappa_x",
                 "kappa_a", "gamma1_0", "gamma2_ramsey", "gamma2_echo",
                 "gamma1_antenna")
    kwargs = {name: TWO_PI * node.number(f"{name}_hz") for name in hz_fields}
    kwargs["Z0"] = node.number("Z0_ohm")
    e_j0 = node.number("E_J0_hz", required=False)
    kwargs["E_J0"] = None if e_j0 is None else TWO_PI * e_j0
    node.close()
    return _build("circuit", CircuitParams, **kwargs)


def _parse_geometry(node: _Node) -> CouplingGeometry:
    kwargs = {
        "M_a": node.number("M_a_h"),
        "L_loop": node.number("L_loop_h"),
        "L_a": node.number("L_a_h"),
        "Z0": node.number("Z0_ohm"),
    }
    node.close()
    return _build("geometry", CouplingGeometry, **kwargs)


def _parse_ports(nodes: list) -> tuple:
    by_label = {}
    for node in nodes:
        kwargs = {
            "label": node.string("label"),
            "temperature": node.number("temperature_k"),
            "kappa": TWO_PI * node.number("kappa_hz"),
            "attenuation": node.number("attenuation"),
        }
        node.close()
        port = _build(node._path, ThermalPort, **kwargs)
        if port.label in by_label:
            raise ConfigError(f"ports: duplicate label '{port.label}'")
        by_label[port.label] = port
    missing = [label for label in PORT_LABELS if label not in by_label]
    if missing:
        raise ConfigError(f"ports: missing label(s) {', '.join(missing)}")
    return tuple(by_label[label] for label in PORT_LABELS)


def _parse_tls(node: _Node) -> EnsembleConfig:
    energy = hbar * TWO_PI
    delta_lo, delta_hi = node.pair("delta_range_hz")
    lw_lo, lw_hi = node.pair("linewidth_range_hz")
    kwargs = {
        "n_tls": node.integer("n_tls", minimum=1, maximum=MAX_TLS),
        "x_exponent": node.number("x_exponent"),
        "epsilon_max": energy * node.number("epsilon_max_hz"),
        "delta_range": (energy * delta_lo, energy * delta_hi),
        "rate_decades": node.pair("rate_decades"),
        "coupling_scale": TWO_PI * node.number("coupling_scale_hz"),
        "base_gamma1": TWO_PI * node.number("base_gamma1_hz"),
        "linewidth_range": (TWO_PI * lw_lo, TWO_PI * lw_hi),
        "jump_fraction": node.number("jump_fraction"),
    }
    node.close()
    return _build("tls", EnsembleConfig, **kwargs)


def _parse_campaign(node: _Node) -> CampaignConfig:
    kwargs = {
        "point_rate": node.number("point_rate_hz"),
        "duration": node.number("duration_s"),
        "n_averages": node.integer("n_averages", minimum=1, maximum=MAX_AVERAGES),
        "temperature": node.number("temperature_k"),
    }
    node.close()
    ticks = kwargs["duration"] * kwargs["point_rate"]
    if ticks > MAX_CAMPAIGN_TICKS + 0.5:  # more than the cap after rounding
        raise ConfigError(
            f"campaign.duration_s: duration_s * point_rate_hz = {ticks:.6g} "
            f"ticks, above the cap of {MAX_CAMPAIGN_TICKS}")
    return _build("campaign", CampaignConfig, **kwargs)


def _parse_phenomenological(node: _Node | None):
    if node is None:
        return None
    kwargs = {
        "mean": TWO_PI * node.number("mean_hz"),
        "beta": node.number("beta"),
        "knee": TWO_PI * node.number("knee_hz"),
        "white_sigma": TWO_PI * node.number("white_sigma_hz"),
    }
    node.close()
    return PhenomenologicalConfig(**kwargs)


def parse_config(data) -> RunConfig:
    """Validate a decoded JSON object and convert units to internal form.

    The single top-level seed is the configuration's only seed: the
    command line resolves it against its overrides (flag or environment)
    and hands each random stage its own seed spawned from the result.
    """
    root = _Node(data, "")
    seed = root.integer("seed", minimum=0)
    run = RunConfig(
        circuit=_parse_circuit(root.child("circuit")),
        geometry=_parse_geometry(root.child("geometry")),
        ports=_parse_ports(root.child_list("ports")),
        tls=_parse_tls(root.child("tls")),
        campaign=_parse_campaign(root.child("campaign")),
        phenomenological=_parse_phenomenological(
            root.child("phenomenological", required=False)),
        s_delta=root.number("s_delta_w_per_hz"),
        gamma_phi_photon_shot=TWO_PI * root.number(
            "gamma_phi_photon_shot_hz", required=False, default=0.0),
        seed=seed,
        output_dir=root.string("output_dir"),
    )
    root.close()
    if not run.s_delta > 0:
        raise ConfigError("s_delta_w_per_hz: must be > 0")
    _check_switch_count(run.tls, run.campaign)
    return run


def _check_switch_count(tls: EnsembleConfig, campaign: CampaignConfig) -> None:
    """Refuse an ensemble whose fastest rate would switch too often."""
    switches = (tls.n_tls * tls.rate_decades[1] * (campaign.temperature / T_REF)
                * campaign.duration)
    if switches > MAX_SWITCHES:
        raise ConfigError(
            f"tls.rate_decades: n_tls * rate_decades[1] * temperature_k / "
            f"{T_REF:g} K * duration_s = {switches:.6g} switches, above the "
            f"cap of {MAX_SWITCHES}")


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


def load_config(path) -> RunConfig:
    """Read and parse a JSON run configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: invalid byte "
                          f"{exc.object[exc.start]:#04x} at offset {exc.start}") from None
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past Python's int-string digit limit
        raise ConfigError(f"malformed JSON: {exc}") from None
    return parse_config(data)
