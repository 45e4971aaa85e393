"""Thermal and second-order noise spectral densities and photon occupations.

All functions take angular frequency in rad/s and temperature in K and
return SI values (W/Hz for first-order densities, W^2/Hz for the
second-order density).  Angular frequencies are used internally
everywhere in this package; user-facing I/O converts to ordinary
frequency (Hz = omega/2pi) exactly once, at the serialization boundary.

Numerical notes: the occupation is evaluated through expm1 so that the
high-temperature regime (hbar*omega << k_B*T) does not suffer
catastrophic cancellation, and coth is reduced to the occupation via
coth(hbar*omega/2k_BT) = 1 + 2*n_th(omega, T).  Zero temperature is an
explicit analytic branch.
"""

import math

from .constants import hbar, k_B
from .errors import DomainError

# beyond this value of hbar*omega/(k_B*T), expm1 would overflow; the
# occupation is then exp(-x) to double precision
_EXP_SWITCH = 700.0


def _check_omega_temp(omega: float, T: float) -> None:
    if not omega > 0:
        raise DomainError(f"omega must be > 0, got {omega}")
    if not T >= 0:
        raise DomainError(f"temperature must be >= 0, got {T}")


def bose_occupation(omega: float, T: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar*omega/k_B*T) - 1).

    Returns exactly 0.0 at T = 0.  Monotone increasing in T.
    """
    _check_omega_temp(omega, T)
    thermal = k_B * T
    if thermal == 0.0:  # T = 0, or so small that k_B*T underflows
        return 0.0
    x = hbar * omega / thermal
    if x > _EXP_SWITCH:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def thermal_psd(omega: float, T: float) -> float:
    """One-sided thermal power spectral density hbar*omega*(n_th + 1/2), W/Hz.

    This is the density propagating into the transmission line: one
    quarter of the short-circuit density 2*hbar*omega*coth(hbar*omega/2k_BT).
    """
    return hbar * omega * (bose_occupation(omega, T) + 0.5)


def second_order_psd(omega: float, T: float) -> float:
    """Second-order (intensity-fluctuation) spectral density, W^2/Hz.

    omega * (hbar^2 omega^2 + 4 pi^2 k_B^2 T^2)/(12 pi) * coth(hbar*omega/2k_BT),
    with coth -> 1 at T = 0.
    """
    _check_omega_temp(omega, T)
    if T == 0.0:
        coth = 1.0
    else:
        coth = 1.0 + 2.0 * bose_occupation(omega, T)
    bracket = (hbar**2 * omega**2 + 4 * math.pi**2 * k_B**2 * T**2) / (12 * math.pi)
    return omega * bracket * coth


def dc_limits(T: float) -> tuple[float, float]:
    """Low-frequency limits (k_B*T, 2 pi k_B^3 T^3 / 3 hbar) of the two densities."""
    if not T >= 0:
        raise DomainError(f"temperature must be >= 0, got {T}")
    return k_B * T, 2 * math.pi * k_B**3 * T**3 / (3 * hbar)
