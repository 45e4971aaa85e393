"""Relaxation and dephasing rate budget of the irradiated transmon.

Covers relaxation under direct (antenna) and dispersive thermal
irradiation, the flux transfer functions, and first/second-order
flux-mediated dephasing.  All rates are angular (rad/s) and rendered as
omega/2pi only at serialization boundaries.

Flux operating points ``lambda_star`` are dimensionless flux
Phi/Phi0 in [-1/2, 1/2]; transfer-function evaluation requires the
strict interior where cos(pi lambda) > 0.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .cavity import CircuitParams
from .constants import TWO_PI, Phi0, hbar, k_B
from .errors import DomainError, InconsistencyError, SingularityError, UnphysicalSlopeError


@dataclass(frozen=True)
class CouplingGeometry:
    """Antenna-SQUID coupling geometry: mutual inductance M_a, SQUID loop
    inductance L_loop, antenna short-circuit inductance L_a (all H), and
    line impedance Z0 (Ohm).

    L_a appears in the antenna's LR low-pass conversion, which cancels
    out of both final dephasing rates; it is retained for documentation
    and the physical mutual-inductance bound only.
    """

    M_a: float
    L_loop: float
    L_a: float
    Z0: float

    def __post_init__(self):
        for name in ("M_a", "L_loop", "L_a", "Z0"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be strictly positive")
        if self.M_a**2 > self.L_loop * self.L_a:
            raise InconsistencyError("M_a^2 exceeds L_loop * L_a (unphysical mutual inductance)")


class ComponentRates(NamedTuple):
    """Dispersive-regime relaxation components (rad/s each)."""

    gamma1_purcell: float
    gamma_mix: float
    gamma1_sideband: float


@dataclass(frozen=True)
class RateBudget:
    """Full decomposition of gamma1 and gamma_phi (rad/s), with a
    provenance note per entry and non-fatal consistency warnings."""

    gamma1_total: float
    gamma1_0: float
    gamma1_antenna: float
    gamma1_purcell: float
    gamma1_sideband: float
    gamma_mix: float
    gamma1_residual: float
    gamma_phi_0: float
    gamma_phi_2nd_antenna: float
    gamma_phi_photon_shot: float
    notes: dict = field(default_factory=dict)
    warnings: tuple = ()


def qubit_frequency(lambda_star: float, omega_q0: float) -> float:
    """Flux-tunable qubit frequency omega_q0 * sqrt(|cos(pi lambda)|)."""
    return omega_q0 * math.sqrt(abs(math.cos(math.pi * lambda_star)))


def transfer_functions(lambda_star: float, omega_q0: float) -> tuple[float, float]:
    """First and second flux derivatives (D1, D2) of the qubit frequency.

    D1 = -(pi w0/2) sin(pi l)/sqrt(cos(pi l));
    D2 = -(pi^2 w0/2) sqrt(cos(pi l)) - (pi^2 w0/4) sin^2(pi l)/cos^{3/2}(pi l).
    D1 vanishes at the sweet spot; D2 there is -pi^2 w0/2 (negative --
    downstream dephasing formulas use the square, so only the magnitude
    matters there).
    """
    c = math.cos(math.pi * lambda_star)
    # 1e-12 absorbs the float residue of cos(pi/2) at lambda = +/- 1/2
    if c <= 1e-12:
        raise SingularityError(
            f"transfer functions diverge at lambda* = {lambda_star}: cos(pi lambda) <= 0"
        )
    s = math.sin(math.pi * lambda_star)
    d1 = -(math.pi * omega_q0 / 2) * s / math.sqrt(c)
    d2 = -(math.pi**2 * omega_q0 / 2) * math.sqrt(c) - (math.pi**2 * omega_q0 / 4) * s**2 / c**1.5
    return d1, d2


def component_rates(params: CircuitParams, S_delta: float) -> ComponentRates:
    """Purcell, state-mixing and sideband relaxation components.

    gamma1_P = kappa_x g^2/delta^2; gamma_mix = |gamma1_0 chi/delta|;
    gamma1_delta = |4 chi S(delta)/delta| / hbar.
    """
    delta = params.delta
    chi = params.chi
    gamma1_purcell = params.kappa_x * params.g**2 / delta**2
    gamma_mix = abs(params.gamma1_0 * chi / delta)
    gamma1_sideband = abs(4 * chi * S_delta / delta) / hbar
    return ComponentRates(gamma1_purcell, gamma_mix, gamma1_sideband)


def gamma1_antenna_model(n_a: float, gamma1_0: float, gamma1_a: float) -> float:
    """Relaxation under direct antenna irradiation.

    Equal to (gamma1_0 - gamma1_a) + gamma1_a (2 n_a + 1); evaluated as
    gamma1_0 + 2 n_a gamma1_a so the vacuum baseline is exact.
    """
    if not n_a >= 0:
        raise DomainError(f"n_a must be >= 0, got {n_a}")
    if gamma1_a > gamma1_0:
        raise InconsistencyError("gamma1_a exceeds gamma1_0: vacuum contribution inconsistent")
    return gamma1_0 + 2 * n_a * gamma1_a


def gamma1_dispersive_model(n_r: float, n_q: float, rates: ComponentRates,
                            gamma1_0: float) -> float:
    """Total dispersive-regime relaxation rate.

    gamma1_0 + gamma1_P (2 n_q + 1) + (gamma1_delta - gamma_mix)(2 n_r + 1).
    """
    if not n_r >= 0:
        raise DomainError(f"n_r must be >= 0, got {n_r}")
    if not n_q >= 0:
        raise DomainError(f"n_q must be >= 0, got {n_q}")
    return (
        gamma1_0
        + rates.gamma1_purcell * (2 * n_q + 1)
        + (rates.gamma1_sideband - rates.gamma_mix) * (2 * n_r + 1)
    )


def delta_gamma1_res(n_r: float, rates: ComponentRates) -> float:
    """Resonator-photon-dependent part 2 n_r (gamma1_delta - gamma_mix)."""
    if not n_r >= 0:
        raise DomainError(f"n_r must be >= 0, got {n_r}")
    return 2 * n_r * (rates.gamma1_sideband - rates.gamma_mix)


def invert_sideband_psd(measured_slope: float, gamma_mix: float, chi: float,
                        delta: float) -> tuple[float, float]:
    """Invert a measured per-photon slope into (gamma1_sideband, S(delta)).

    gamma1_delta = gamma_mix + slope/2 (non-negative), then
    S(delta) = hbar gamma1_delta |delta| / (4 |chi|).
    """
    gamma1_sideband = gamma_mix + measured_slope / 2
    if gamma1_sideband < 0:
        raise UnphysicalSlopeError(
            "slope/2 below -gamma_mix implies a negative sideband rate"
        )
    s_delta = hbar * gamma1_sideband * abs(delta) / (4 * abs(chi))
    return gamma1_sideband, s_delta


def first_order_dissipation_param(lambda_star: float, geometry: CouplingGeometry,
                                  omega_q0: float) -> float:
    """Dimensionless first-order dissipation parameter
    (hbar / 2 pi Z0) [D1 M_a / Phi0]^2."""
    d1, _ = transfer_functions(lambda_star, omega_q0)
    return (hbar / (TWO_PI * geometry.Z0)) * (d1 * geometry.M_a / Phi0) ** 2


def dephasing_first_order(T_a: float, lambda_star: float, geometry: CouplingGeometry,
                          omega_q0: float) -> float:
    """First-order flux dephasing rate [D1 M_a/Phi0]^2 k_B T_a / Z0 (dc limit)."""
    if not T_a >= 0:
        raise DomainError(f"T_a must be >= 0: no rate at temperature {T_a} K")
    d1, _ = transfer_functions(lambda_star, omega_q0)
    return (d1 * geometry.M_a / Phi0) ** 2 * k_B * T_a / geometry.Z0


def dephasing_second_order(T_a: float, geometry: CouplingGeometry) -> float:
    """Sweet-spot second-order dephasing rate, direct closed form.

    2 pi [(pi^2 / 4 sqrt(3)) M_a^2 / (L_loop Z0)]^2 (k_B T_a / hbar)^3.
    Independent of omega_q0 (the transfer-function route, in which
    omega_q0 cancels, is ``dephasing_second_order_transfer``).
    """
    if not T_a >= 0:
        raise DomainError(f"T_a must be >= 0: no rate at temperature {T_a} K")
    prefactor = (math.pi**2 / (4 * math.sqrt(3))) * geometry.M_a**2 / (geometry.L_loop * geometry.Z0)
    try:
        rate = TWO_PI * prefactor**2 * (k_B * T_a / hbar) ** 3
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise DomainError(f"second-order dephasing rate is not finite at "
                          f"temperature {T_a} K")
    return rate


def second_order_dissipation_param(geometry: CouplingGeometry, omega_q0: float) -> float:
    """Dimensionless second-order dissipation parameter
    [|D2(0)| M_a^2 / (2 sqrt(3) L_loop Z0)]^2."""
    _, d2 = transfer_functions(0.0, omega_q0)
    return (abs(d2) * geometry.M_a**2 / (2 * math.sqrt(3) * geometry.L_loop * geometry.Z0)) ** 2


def suppression_factor(T_a: float, omega_q0: float) -> float:
    """Thermal suppression factor r = [k_B T_a / (hbar omega_q0)]^2."""
    return (k_B * T_a / (hbar * omega_q0)) ** 2


def dephasing_second_order_transfer(T_a: float, geometry: CouplingGeometry,
                                    omega_q0: float) -> float:
    """Second-order dephasing via the transfer-function composition
    alpha^(2) * r * 2 pi k_B T_a / hbar; agrees with the direct closed
    form to better than 1e-12 relative, and raises its DomainError
    wherever it does."""
    dephasing_second_order(T_a, geometry)  # one domain for both routes
    alpha2 = second_order_dissipation_param(geometry, omega_q0)
    r = suppression_factor(T_a, omega_q0)
    return alpha2 * r * TWO_PI * k_B * T_a / hbar


def rate_budget(params: CircuitParams, geometry: CouplingGeometry, S_delta: float,
                T_a: float, gamma_phi_photon_shot: float = 0.0) -> RateBudget:
    """Assemble the full decoherence budget from circuit parameters.

    gamma_phi_0 = gamma2_ramsey - gamma1_0/2; the residual is
    gamma1_0 - gamma1_antenna - gamma1_P - gamma1_delta + gamma_mix.
    The photon-shot-noise dephasing entry is copied verbatim from the
    caller (tabulated per-photon constant), never computed here.  A
    negative residual attaches a warning instead of failing.
    """
    rates = component_rates(params, S_delta)
    residual = (
        params.gamma1_0 - params.gamma1_antenna - rates.gamma1_purcell
        - rates.gamma1_sideband + rates.gamma_mix
    )
    gamma_phi_0 = params.gamma2_ramsey - params.gamma1_0 / 2
    warnings_: list[str] = []
    if residual < 0:
        warnings_.append(
            "negative gamma1 residual: component rates exceed the measured baseline"
        )
    notes = {
        "gamma1_total": "measured baseline relaxation rate (vacuum operating point)",
        "gamma1_0": "measured baseline relaxation rate",
        "gamma1_antenna": "measured antenna vacuum coupling (linear-sweep slope / 2)",
        "gamma1_purcell": "computed: kappa_x g^2 / delta^2",
        "gamma1_sideband": "computed from S(delta): |4 chi S(delta)/delta| / hbar",
        "gamma_mix": "computed: |gamma1_0 chi / delta|",
        "gamma1_residual": "baseline minus identified channels (residual noise sources)",
        "gamma_phi_0": "identity: gamma2_ramsey - gamma1_0 / 2",
        "gamma_phi_2nd_antenna": f"computed second-order antenna dephasing at T_a = {T_a} K",
        "gamma_phi_photon_shot": "tabulated per-photon constant, passed through from configuration",
    }
    return RateBudget(
        gamma1_total=params.gamma1_0,
        gamma1_0=params.gamma1_0,
        gamma1_antenna=params.gamma1_antenna,
        gamma1_purcell=rates.gamma1_purcell,
        gamma1_sideband=rates.gamma1_sideband,
        gamma_mix=rates.gamma_mix,
        gamma1_residual=residual,
        gamma_phi_0=gamma_phi_0,
        gamma_phi_2nd_antenna=dephasing_second_order(T_a, geometry),
        gamma_phi_photon_shot=gamma_phi_photon_shot,
        notes=notes,
        warnings=tuple(warnings_),
    )
