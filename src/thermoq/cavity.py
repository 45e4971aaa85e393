"""Dispersive qubit-resonator circuit model.

Dispersive shift, Lorentzian filtering, three-bath steady-state photon
number, and ac-Stark attenuation calibration.  All frequencies and
rates are angular (rad/s).

Photon-number convention: the exact steady-state result
n_r = sum_j alpha_j kappa_j n_j / kappa_tot is authoritative for all
photon-number computations.  The approximate Lorentzian product form
(filter times summed inputs, which differs from the steady state by a
factor 2 on resonance) is exposed only through ``lorentzian_filter``
for off-resonance spectral shaping.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import fitting, spectra
from .errors import (DomainError, IllConditionedError, InconsistencyError, ModelDomainError,
                     SingularityError)

PORT_LABELS = ("internal", "readout", "antenna")


@dataclass(frozen=True)
class CircuitParams:
    """Electrical parameters of the qubit-resonator circuit (rad/s, Ohm)."""

    omega_q0: float
    E_c: float
    omega_r: float
    g: float
    kappa_i: float
    kappa_x: float
    kappa_a: float
    gamma1_0: float
    gamma2_ramsey: float
    gamma2_echo: float
    gamma1_antenna: float
    Z0: float
    E_J0: float | None = None  # informational

    def __post_init__(self):
        for name in ("omega_q0", "E_c", "omega_r", "g", "kappa_i", "kappa_x",
                     "kappa_a", "gamma1_0", "gamma2_ramsey", "gamma2_echo",
                     "gamma1_antenna", "Z0"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be strictly positive")
        delta = self.omega_q0 - self.omega_r
        if abs(self.g / delta) >= 0.2:
            raise InconsistencyError(
                f"dispersive-regime guard violated: |g/delta| = {abs(self.g / delta):.3f} >= 0.2"
            )
        if not self.E_c < abs(delta):
            raise InconsistencyError("charging energy must be below the detuning |delta|")
        if self.gamma2_ramsey < self.gamma1_0 / 2:
            warnings.warn(
                "gamma2_ramsey below gamma1_0/2: measured values violate the "
                "two-level bound; keeping them as given",
                stacklevel=2,
            )

    @property
    def delta(self) -> float:
        """Qubit-resonator detuning omega_q0 - omega_r."""
        return self.omega_q0 - self.omega_r

    @property
    def kappa_tot(self) -> float:
        return self.kappa_i + self.kappa_x + self.kappa_a

    @property
    def chi(self) -> float:
        return dispersive_shift(self.g, self.E_c, self.delta)


@dataclass(frozen=True)
class ThermalPort:
    """One bosonic bath: label, temperature (K), coupling rate (rad/s),
    attenuation (dimensionless power factor in (0, 1])."""

    label: str
    temperature: float
    kappa: float
    attenuation: float

    def __post_init__(self):
        if self.label not in PORT_LABELS:
            raise DomainError(f"port label must be one of {PORT_LABELS}, got {self.label!r}")
        if not self.temperature >= 0:
            raise DomainError(f"port temperature must be >= 0, got {self.temperature}")
        if not self.kappa > 0:
            raise DomainError("port kappa must be > 0")
        if not 0 < self.attenuation <= 1:
            raise DomainError("attenuation must be a power factor in (0, 1]")


@dataclass(frozen=True)
class StarkSweepPoint:
    """One point of a temperature sweep of the measured qubit shift (rad/s)."""

    temperature: float
    delta_omega_q: float

    def __post_init__(self):
        if not 0.04 <= self.temperature <= 2.0:
            raise DomainError(
                f"sweep temperature {self.temperature} K outside the instrument range [0.04, 2.0] K"
            )


def dispersive_shift(g: float, E_c: float, delta: float) -> float:
    """Dispersive shift chi = -g^2 E_c / [delta (delta - E_c)], rad/s.

    Negative when delta > E_c > 0.
    """
    if delta == 0.0:
        raise SingularityError("delta = 0: no dispersive regime")
    if delta == E_c:
        raise SingularityError("delta = E_c: straddling point")
    return -g**2 * E_c / (delta * (delta - E_c))


def lorentzian_filter(omega, omega_r: float, kappa_tot: float):
    """Lorentzian filter (kappa/2) / [(kappa/2)^2 + (omega - omega_r)^2], s.

    Peaks at omega = omega_r with value 2/kappa_tot.  Accepts scalar or
    array omega.
    """
    if not kappa_tot > 0:
        raise DomainError("kappa_tot must be > 0")
    half = kappa_tot / 2.0
    return half / (half**2 + (omega - omega_r) ** 2)


def steady_state_photons(ports, omega: float) -> float:
    """Steady-state resonator occupation sum_j alpha_j kappa_j n_j / sum_j kappa_j."""
    ports = list(ports)
    if not ports:
        raise DomainError("at least one thermal port is required")
    kappa_sum = sum(p.kappa for p in ports)
    # normalized weights keep the single-port case exactly alpha * n_th
    return sum(
        p.attenuation * (p.kappa / kappa_sum) * spectra.bose_occupation(omega, p.temperature)
        for p in ports
    )


def critical_photon_number(delta: float, g: float) -> float:
    """Critical photon number delta^2 / (4 g^2)."""
    if not g > 0:
        raise DomainError("g must be > 0")
    return delta**2 / (4 * g**2)


def ac_stark_shift(n_x: float, n_a: float, chi: float, kappas, alpha: float) -> float:
    """Temperature-dependent ac-Stark shift 2 chi alpha (kx n_x + ka n_a)/ktot, rad/s.

    ``kappas`` is the triple (kappa_x, kappa_a, kappa_tot).  Constant
    reference offsets are the caller's business (fitted as a free
    intercept in the calibration).
    """
    kappa_x, kappa_a, kappa_tot = kappas
    if not 0 < alpha <= 1:
        raise DomainError("alpha must be a power factor in (0, 1]")
    if kappa_tot < kappa_x + kappa_a:
        raise InconsistencyError("kappa_tot must be at least kappa_x + kappa_a")
    return 2 * chi * alpha * (kappa_x * n_x + kappa_a * n_a) / kappa_tot


def calibrate_attenuation(sweep, port: str, params: CircuitParams,
                          alpha: float | None = None) -> fitting.FitResult:
    """Fit the line attenuation (readout port) or kappa_a (antenna port)
    by linear least squares in closed form (``fitting.linear_fit``).

    The readout shift is alpha * 2 chi kappa_x n_th / kappa_tot plus a free
    intercept, the reference offset.  The antenna shift is s n_th plus the
    intercept, with the calibrated ``alpha`` supplied: the share u =
    s / (2 chi alpha) gives kappa_a = (kappa_i + kappa_x) u / (1 - u) and
    its errors by the delta method, and u >= 1 within rounding raises
    ModelDomainError.  The readout fit takes no ``alpha``: it fits it.
    """
    if port == "readout" and alpha is not None:
        raise DomainError("readout calibration fits alpha: a known alpha is "
                          "for the antenna port only")
    points = list(sweep)
    if len(points) < 4:
        raise DomainError(f"need at least 4 sweep points, got {len(points)}")
    n_th = np.array([spectra.bose_occupation(params.omega_r, p.temperature) for p in points])
    shifts = np.array([p.delta_omega_q for p in points])
    n_lo, n_hi = n_th.min(), n_th.max()
    if n_hi <= n_lo * 1.01:
        raise IllConditionedError("degenerate sweep: all n_th equal within 1%")
    if n_hi < 3 * n_lo:
        raise DomainError("sweep must span at least a 3x range in n_th")

    chi = params.chi
    if port == "readout":
        fit = fitting.linear_fit(2 * chi * params.kappa_x * n_th / params.kappa_tot, shifts)
        values, cov, names = list(fit.parameters.values()), fit.covariance, ("alpha", "intercept")
    elif port == "antenna":
        if alpha is None or not 0 < alpha <= 1:
            raise DomainError("antenna calibration requires the calibrated alpha in (0, 1]")
        fit = fitting.linear_fit(n_th, shifts)
        slope, intercept = fit.parameters.values()
        # the fitted slope carries a few ulps of rounding (u within 2 eps of
        # 1 on exact u = 1 sweeps), so a share within 8 eps of 1 counts as 1
        if not (share := slope / (2 * chi * alpha)) < 1 - 8 * np.finfo(float).eps:
            raise ModelDomainError(f"antenna slope gives kappa_a/kappa_tot = {share:.6g}, "
                                   ">= 1 within rounding: no finite kappa_a")
        kappa_ix = params.kappa_i + params.kappa_x
        # d kappa_a / d slope, divided in turn so that no square overflows
        grad = np.diag([kappa_ix / (1 - share) / (1 - share) / (2 * chi * alpha), 1.0])
        values = [kappa_ix * share / (1 - share), intercept]
        cov, names = grad @ fit.covariance @ grad, ("kappa_a", "intercept")
    else:
        raise DomainError(f"unknown calibration port {port!r}")
    return replace(fit, parameters=dict(zip(names, values)), covariance=cov, param_names=names)
