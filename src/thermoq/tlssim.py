"""Monte Carlo generation of fluctuating relaxation-rate time series.

Two generators: a microscopic two-level-system (TLS) ensemble whose
members telegraph-switch their frequencies and imprint Lorentzian
contributions on gamma1(t), and a phenomenological generator with
exactly controllable spectral content (an omega^-beta branch crossing
over into a white floor at a prescribed knee).

Temperature enters the microscopic model only as a linear scale factor
T/T_ref (T_ref = 1 K) on the switching rates -- the simplest monotone
thermal-activation proxy; no quantitative microscopic rate law is
asserted.  Telegraph switching is event-driven: a TLS's switch count is
Poisson and its switch times are uniform (the order-statistics property
of the Poisson process), exact at any rate relative to the sampling
rate.  Each switch steps the record by its TLS's signed level
difference, so the ensemble's M switches over n samples take one sort,
one weighted bincount and one running sum, O(M log M + n).

Every realization draws from one random stream seeded by the integer
seed, so results are reproducible regardless of execution parallelism.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import TWO_PI, hbar
from .errors import DomainError, NonNormalizableError

T_REF = 1.0  # K, reference temperature of the switching-rate scale


@dataclass(frozen=True, eq=False)
class TlsEnsemble:
    """Two-level systems, one entry each in six equally long float arrays.

    epsilon and delta_t are the asymmetry and tunnel-splitting energies
    (J); coupling is the maximum contribution to gamma1 when resonant
    (rad/s); linewidth (rad/s) sets its Lorentzian footprint;
    switch_rate (1/s) and jump (rad/s) parametrize the telegraph motion
    of its center frequency between omega_tls +/- jump/2.
    """

    epsilon: np.ndarray
    delta_t: np.ndarray
    coupling: np.ndarray
    linewidth: np.ndarray
    switch_rate: np.ndarray
    jump: np.ndarray

    def __post_init__(self):
        for f in fields(self):  # epsilon first: its shape is the one the others match
            a = np.asarray(getattr(self, f.name), dtype=float)
            if a.ndim != 1 or a.shape != np.shape(self.epsilon) or not np.all(a > 0):
                raise DomainError(f"TlsEnsemble.{f.name} must hold one entry > 0 per TLS")
            object.__setattr__(self, f.name, a)

    @property
    def omega_tls(self) -> np.ndarray:
        """Excitation frequencies math.hypot(epsilon, delta_t)/hbar, rad/s."""
        hypot = map(math.hypot, self.epsilon.tolist(), self.delta_t.tolist())
        return np.fromiter(hypot, float, self.epsilon.size) / hbar


@dataclass(frozen=True)
class EnsembleConfig:
    """Sampling parameters of the TLS ensemble.

    epsilon follows the density ~ epsilon^x_exponent on (0, epsilon_max];
    delta_t and switch_rate are log-uniform on their ranges (each must
    span at least one decade).  linewidth_range and jump_fraction fix
    the Lorentzian footprints (free modeling choices, made explicit and
    serializable here); coupling_scale is the per-TLS resonant
    amplitude.
    """

    n_tls: int
    x_exponent: float = 0.0
    epsilon_max: float = hbar * TWO_PI * 10e9
    delta_range: tuple = (hbar * TWO_PI * 1e9, hbar * TWO_PI * 10e9)
    rate_decades: tuple = (1e-5, 1e-1)
    coupling_scale: float = TWO_PI * 10e3
    base_gamma1: float = TWO_PI * 3.9e6
    linewidth_range: tuple = (TWO_PI * 1e9, TWO_PI * 10e9)
    jump_fraction: float = 0.5

    def __post_init__(self):
        if not self.n_tls >= 0:
            raise DomainError(f"n_tls must be >= 0, got {self.n_tls}")
        if self.n_tls > 0:
            for name in ("delta_range", "rate_decades"):
                lo, hi = getattr(self, name)
                # log-space comparison so an exact one-decade span passes
                # regardless of rounding in hi / (10 * lo)
                if not (0 < lo and math.log10(hi / lo) >= 1 - 1e-9):
                    raise DomainError(f"{name} must span at least one decade")
            lo, hi = self.linewidth_range
            if not 0 < lo <= hi:
                raise DomainError("linewidth_range must be positive and ordered")
            if not self.epsilon_max > 0:
                raise DomainError("epsilon_max must be > 0")
            if not self.jump_fraction > 0:
                raise DomainError("jump_fraction must be > 0")
        for name in ("coupling_scale", "base_gamma1"):
            if not getattr(self, name) >= 0:
                raise DomainError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_tls > 0 and not self.coupling_scale > 0:
            raise DomainError(f"coupling_scale must be > 0 for n_tls > 0, "
                              f"got {self.coupling_scale}")


@dataclass(eq=False)
class TimeSeries:
    """Uniformly sampled record of a fluctuating quantity.

    values are rad/s for gamma1 series.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not self.dt > 0:
            raise DomainError("dt must be > 0")
        if self.values.size < 2:
            raise DomainError("a time series needs at least 2 samples")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("time series values must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def sample_ensemble(config: EnsembleConfig, seed: int) -> TlsEnsemble:
    """Draw a TLS ensemble from the configured distributions.

    Same seed, same ensemble.  Raises NonNormalizableError for
    x_exponent <= -1 (epsilon^x is not normalizable on (0, epsilon_max])
    and DomainError where x_exponent lies so close to -1 that a sampled
    epsilon underflows to 0.
    """
    if config.x_exponent <= -1:
        raise NonNormalizableError(
            f"epsilon^x density with x = {config.x_exponent} is not normalizable")
    rng = np.random.default_rng(seed)
    n = config.n_tls
    # inverse-CDF sampling of p(eps) ~ eps^x on (0, eps_max]
    u = 1.0 - rng.random(n)  # in (0, 1]
    eps = config.epsilon_max * u ** (1.0 / (1.0 + config.x_exponent))
    if not np.all(eps > 0):
        raise DomainError(f"x_exponent = {config.x_exponent} is too close to -1: "
                          "a sampled epsilon underflows to 0")
    delta = _log_uniform(rng, *config.delta_range, n)
    rate = _log_uniform(rng, *config.rate_decades, n)
    linewidth = _log_uniform(rng, *config.linewidth_range, n)
    coupling = np.full(n, float(config.coupling_scale))
    return TlsEnsemble(epsilon=eps, delta_t=delta, coupling=coupling, linewidth=linewidth,
                       switch_rate=rate, jump=config.jump_fraction * linewidth)


def _telegraph_sum(n: int, counts, positions: np.ndarray, start, other) -> np.ndarray:
    """Telegraph steps summed over TLS at samples 0..n-1, start levels left out.

    TLS i goes from start[i] to other[i] and back at the next counts[i]
    entries of ``positions`` (in sample intervals, any order; overwritten).
    A switch counts from the first sample at or after it; past the last
    sample it is dropped.
    """
    np.ceil(positions, out=positions)
    np.minimum(positions, n, out=positions)
    # sort by TLS, then by sample, in place: two per-switch arrays at most
    key = np.repeat(np.arange(len(counts), dtype=np.int64) * (n + 1), counts)
    np.add(key, positions, out=key, casting="unsafe")  # integers below 2**53: exact
    del positions
    key.sort()
    key %= n + 1
    # switch j of TLS i steps by (-1)^j (other_i - start_i); after the sort
    # it sits at offset_i + j, so one sign per TLS and one strided flip do it
    offsets = np.cumsum(counts) - counts
    step = np.repeat(np.subtract(other, start) * (-1.0) ** offsets, counts)
    step[1::2] *= -1
    return np.cumsum(np.bincount(key, weights=step, minlength=n + 1)[:n], dtype=float)


def simulate_microscopic(ensemble: TlsEnsemble, omega_q: float, T: float, duration: float,
                         dt: float, seed: int, *, base_gamma1: float = 0.0) -> TimeSeries:
    """Simulate gamma1(t) = base_gamma1 + sum of telegraphing Lorentzians.

    Each TLS switches its center frequency between omega_tls +/- jump/2
    at the temperature-scaled rate r = switch_rate * (T/T_ref); its
    contribution at time t is
    coupling * (linewidth/2)^2 / [(linewidth/2)^2 + (omega_q - omega(t))^2].
    One stream draws the start levels (up or down, 1/2 each), the switch
    counts ~ Poisson(r * duration) and all switch times, uniform on
    [0, duration).  A switch steps its TLS's contribution by the signed
    level difference from the first sample at or after it, so the record
    is the start levels plus a running sum of steps.  Same seed, same output.
    """
    if not dt > 0:
        raise DomainError("dt must be > 0")
    if not duration >= 10 * dt:
        raise DomainError("duration must be at least 10 * dt")
    if not T >= 0:
        raise DomainError("temperature must be >= 0")
    n = int(round(duration / dt))
    half = ensemble.linewidth / 2
    centers = ensemble.omega_tls + np.multiply.outer([1, -1], ensemble.jump / 2)  # up, down
    v_up, v_dn = ensemble.coupling * half**2 / (half**2 + (omega_q - centers) ** 2)
    rng = np.random.default_rng(seed)
    up_first = rng.random(ensemble.epsilon.size) < 0.5
    counts = rng.poisson(ensemble.switch_rate * (T / T_REF) * duration)
    start, other = np.where(up_first, v_up, v_dn), np.where(up_first, v_dn, v_up)
    values = _telegraph_sum(n, counts, rng.uniform(0.0, duration / dt, counts.sum()),
                            start, other)
    values += float(base_gamma1) + start.sum()
    return TimeSeries(t0=0.0, dt=dt, values=values)


def _shaped_psd(beta: float, knee: float, white_sigma: float, n: int,
                dt: float) -> np.ndarray:
    """One-sided PSD of the omega^-beta branch at the n-sample record's
    Fourier frequencies k/(n dt), k = 1 .. n//2, in (rad/s)^2/Hz: the floor
    2 white_sigma^2 dt scaled by (omega_k/knee)^-beta."""
    g_white = 2 * white_sigma**2 * dt
    omega_k = TWO_PI * np.arange(1, n // 2 + 1) / (n * dt)
    return g_white * (omega_k / knee) ** (-beta)


def simulate_phenomenological(mean: float, beta: float, knee: float, white_sigma: float,
                              duration: float, dt: float, seed: int) -> TimeSeries:
    """Gaussian series with one-sided PSD  mu (omega/knee)^-beta + mu.

    The white floor mu is set by the per-sample deviation white_sigma
    (mu = 2 white_sigma^2 dt in series units); the omega^-beta branch is
    synthesized by spectral shaping of white noise with its amplitude
    tied to the floor through the knee, so the injected knee is exactly
    the crossover frequency.  white_sigma = 0 therefore yields a
    constant series at ``mean``.  The sample mean is adjusted to
    ``mean`` exactly.
    """
    if not 0 <= beta <= 2:
        raise DomainError("beta must lie in [0, 2]")
    if not white_sigma >= 0:
        raise DomainError(f"white_sigma must be >= 0, got {white_sigma}")
    if not knee > 0:
        raise DomainError("knee must be > 0")
    if not dt > 0:
        raise DomainError("dt must be > 0")
    n = int(round(duration / dt))
    if n < 2:
        raise DomainError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    if white_sigma == 0.0:
        return TimeSeries(0.0, dt, np.full(n, float(mean)))

    fluct = white_sigma * rng.standard_normal(n)
    g_col = _shaped_psd(beta, knee, white_sigma, n, dt)
    z = rng.standard_normal((g_col.size, 2))
    coeff = np.zeros(g_col.size + 1, dtype=complex)
    coeff[1:] = np.sqrt(g_col * n / (4 * dt)) * (z[:, 0] + 1j * z[:, 1])
    if n % 2 == 0:
        coeff[-1] = math.sqrt(g_col[-1] * n / (2 * dt)) * z[-1, 0]
    fluct += np.fft.irfft(coeff, n)
    values = mean + fluct - fluct.mean()
    return TimeSeries(0.0, dt, values)


def phenomenological_sigma(beta: float, knee: float, white_sigma: float,
                           duration: float, dt: float) -> float:
    """Expected total standard deviation of ``simulate_phenomenological``."""
    n = int(round(duration / dt))
    if white_sigma == 0.0 or n < 2:
        return 0.0
    g_col = _shaped_psd(beta, knee, white_sigma, n, dt)
    df = 1.0 / (n * dt)
    var_col = float(np.sum(g_col * df))
    if n % 2 == 0:
        var_col -= g_col[-1] * df / 2  # Nyquist carries half a bin
    return math.sqrt(white_sigma**2 + var_col)
