"""Fluctuation-spectrum estimation for relaxation-rate time series.

``periodogram`` turns a uniformly sampled gamma1(t) record into a
one-sided spectral density with an unambiguous absolute normalization
(carried as text inside every Spectrum); ``psd_estimate`` log-bins it
for fitting.  Two model fits operate on such spectra: an
omega^-beta branch crossing into a white floor at a knee frequency, and
the floor-versus-temperature power law mu0 + a*T^(2+x).

A single log-binned periodogram is used rather than segment averaging:
records of ~1200 points barely cover three decades, and segmenting
would destroy the lowest decade where the spectral exponent lives.  The
knee fit runs in log-space with equal bin weights, which equalizes
leverage across decades.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .constants import TWO_PI, hbar
from .errors import DomainError, FitError
from .tlssim import TimeSeries

CONVENTION_NOTE = (
    "One-sided power spectral density on an angular-frequency axis: "
    "S(omega_k) = (hbar/2pi) * (2*dt/N) * |X_k|^2 with X_k the DFT of the "
    "mean-subtracted series (half weight at the Nyquist bin), so that "
    "sum(S * delta_f) = hbar * Var(series) / 2pi."
)

_EULER_GAMMA = 0.5772156649015329


@dataclass
class Spectrum:
    """One-sided spectral density S(omega), W/Hz on a rad/s axis.

    bin_counts, when present, records how many raw periodogram points
    each (log-binned) value averages; it is needed both for exact
    integration and for unbiased log-space fitting.
    """

    omegas: np.ndarray
    values: np.ndarray
    convention_note: str = CONVENTION_NOTE
    bin_counts: np.ndarray | None = None

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.omegas.ndim != 1 or self.omegas.shape != self.values.shape:
            raise DomainError("omegas and values must be 1-d arrays of equal length")
        if self.omegas.size and not self.omegas[0] > 0:
            raise DomainError("frequencies must be strictly positive")
        if np.any(np.diff(self.omegas) <= 0):
            raise DomainError("frequencies must be strictly increasing")
        if np.any(self.values < 0):
            raise DomainError("spectral values must be non-negative")
        if self.bin_counts is not None:
            self.bin_counts = np.asarray(self.bin_counts)


@dataclass(frozen=True)
class SpectrumFit:
    """Result of the knee fit S(omega) = amplitude * omega^-beta + mu.

    omega_c is the crossover amplitude*omega_c^-beta = mu, clamped into
    fit_window.  When ``degenerate`` is set the spectrum is consistent
    with pure white noise: mu holds the floor level and beta / omega_c
    are NaN.  The opposite boundary — a record falling as a power law
    through the whole window with no resolvable floor — reports mu = 0
    with mu_err holding the detection bound (the smallest binned level)
    and omega_c pinned at the top window edge.
    """

    beta: float
    omega_c: float
    mu: float
    amplitude: float
    beta_err: float
    omega_c_err: float
    mu_err: float
    amplitude_err: float
    fit_window: tuple
    degenerate: bool = False


@dataclass(frozen=True)
class FloorScalingFit:
    """Result of fitting mu(T) = mu0 + a * T^(2+x).

    x_unidentifiable is set when a is statistically consistent with
    zero at 2 sigma (then x carries no information).
    """

    mu0: float
    a: float
    x: float
    mu0_err: float
    a_err: float
    x_err: float
    x_unidentifiable: bool = False


def periodogram(series: TimeSeries) -> Spectrum:
    """Raw one-sided periodogram of a uniformly sampled series.

    Exact discrete Parseval identity: sum(values) * delta_f equals
    hbar * Var(series) / 2pi to rounding.
    """
    x = series.values - series.values.mean()
    n = x.size
    coeffs = np.fft.rfft(x)
    k = np.arange(1, coeffs.size)
    omegas = TWO_PI * k / (n * series.dt)
    scale = (hbar / TWO_PI) * 2 * series.dt / n
    values = scale * np.abs(coeffs[1:]) ** 2
    if n % 2 == 0:
        values[-1] /= 2  # Nyquist bin has a single real degree of freedom
    return Spectrum(omegas=omegas, values=values,
                    bin_counts=np.ones(values.size, dtype=int))


def psd_estimate(series: TimeSeries, bins_per_decade: int = 16) -> Spectrum:
    """Log-binned one-sided spectral density of a gamma1(t) record.

    Raw periodogram points are averaged inside >= ``bins_per_decade``
    logarithmic bins (empty bins dropped); each bin reports the
    geometric-mean frequency and its raw-point count.  The default of
    16 bins per decade keeps per-bin averaging mild, so the scatter of
    the log-values stays nearly uniform across the axis -- equal-weight
    fits on coarser grids are dominated by their noisiest low-frequency
    bins, which inflates both the variance and the bias of the fitted
    exponent.
    """
    if series.values.size < 64:
        raise DomainError("need at least 64 samples to estimate a spectrum")
    raw = periodogram(series)
    lo, hi = raw.omegas[0], raw.omegas[-1]
    decades = math.log10(hi / lo)
    n_bins = max(1, math.ceil(bins_per_decade * decades))
    edges = np.geomspace(lo * (1 - 1e-12), hi * (1 + 1e-12), n_bins + 1)
    idx = np.clip(np.searchsorted(edges, raw.omegas, side="right") - 1, 0, n_bins - 1)
    omegas, values, counts = [], [], []
    for b in range(n_bins):
        members = idx == b
        m = int(np.count_nonzero(members))
        if m == 0:
            continue
        omegas.append(np.exp(np.mean(np.log(raw.omegas[members]))))
        values.append(np.mean(raw.values[members]))
        counts.append(m)
    return Spectrum(omegas=np.array(omegas), values=np.array(values),
                    bin_counts=np.array(counts, dtype=int))


def _digamma_int(m: np.ndarray) -> np.ndarray:
    """digamma(m) for integer m >= 1 via the harmonic-number identity."""
    m = np.asarray(m, dtype=int)
    top = int(m.max())
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, top + 1))))
    return harmonic[m - 1] - _EULER_GAMMA


def _trigamma_int(m: np.ndarray) -> np.ndarray:
    """trigamma(m) for integer m >= 1: pi^2/6 - sum_{j<m} 1/j^2."""
    m = np.asarray(m, dtype=int)
    top = int(m.max())
    partial = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, top + 1) ** 2)))
    return math.pi ** 2 / 6.0 - partial[m - 1]


def _degenerate_fit(spectrum: Spectrum, window) -> SpectrumFit:
    values, counts = spectrum.values, spectrum.bin_counts
    if counts is None:
        counts = np.ones(values.size)
    total = float(np.sum(counts))
    mu = float(np.sum(values * counts) / total) if total else 0.0
    mu_err = float(np.std(values) / math.sqrt(max(values.size, 1)))
    nan = float("nan")
    return SpectrumFit(beta=nan, omega_c=nan, mu=mu, amplitude=nan,
                       beta_err=nan, omega_c_err=nan, mu_err=mu_err,
                       amplitude_err=nan, fit_window=window, degenerate=True)


_BETA_BOX = (0.0, 4.0)
_BOOTSTRAP_DRAWS = 64
_BOOTSTRAP_SEED = 12345


def _knee_fits(log_data, log_omega, starts) -> fitting.Fits:
    """Equal-weight log-space fits of the knee model, one per start row.

    Row i starts from ``starts[i]``, an (ln_amplitude, beta, ln_mu)
    triple, and fits ``log_data[i]``.  beta is boxed to [0, 4] so single
    noisy low-frequency bins cannot drive the exponent to arbitrarily
    steep values.
    """
    def residuals(p, rows):
        return np.logaddexp(p[:, 0:1] - p[:, 1:2] * log_omega, p[:, 2:3]) - log_data[rows]

    return fitting.fit_rows(residuals, starts, names=("ln_amplitude", "beta", "ln_mu"),
                            bounds=[None, _BETA_BOX, None])


def _knee_model_fit(log_data, log_omega, mu0):
    """Equal-weight log-space fit, multi-start to avoid local collapses.

    The log(A*omega^-beta + mu) surface has a spurious basin where the
    colored amplitude collapses to zero even when a real omega^-beta
    component is present; deterministic restarts from amplitude-heavy
    and shallow-exponent initializations recover it.  The starts are
    fitted as one batch; the best is the formed one with the smallest
    residual norm, the first on ties.
    """
    a0 = max(math.exp(log_data[0]) - mu0, 0.01 * mu0) * math.exp(log_omega[0])
    starts = [[math.log(a0 * a_factor), beta0, math.log(mu0)]
              for a_factor, beta0 in
              ((1.0, 1.0), (100.0, 1.0), (0.01, 1.0), (1.0, 0.5))]
    fits = _knee_fits(np.broadcast_to(log_data, (len(starts), log_data.size)),
                      log_omega, starts)
    formed = np.flatnonzero(fits.formed)
    if formed.size == 0:
        raise FitError("knee model fit failed from every initialization")
    return fits.result(formed[np.argmin(fits.residual_norm[formed])])


def fit_knee_spectrum(spectrum: Spectrum) -> SpectrumFit:
    """Fit S(omega) = A * omega^-beta + mu in log-space, equal bin weights.

    Periodogram bin averages of Gaussian noise are chi-squared
    distributed, so their logarithm is biased low by
    digamma(m) - log(m) for an m-point bin; when bin counts are
    available this known offset is removed from the data, and the
    remaining nonlinear-estimator bias on beta is measured and
    subtracted via a deterministic parametric bootstrap (synthetic
    chi-squared replicas of the fitted model, fixed internal seed).
    Significance of the omega^-beta component is judged where it is
    largest, at the low-frequency end of the window.  With bin counts
    the test is calibrated exactly under the white-noise null: the
    corrected log-periodogram then scatters about log(mu) with known
    per-bin variance trigamma(m), so the mean elevation of the lowest
    decade above the count-weighted white level is a z-statistic, and
    z <= 2 flags the spectrum as floor-only.  (Testing the fitted
    amplitude against its own standard error would fail in both
    directions: sigma_lnA is inflated by the A-beta degeneracy on
    genuine 1/f records, and on floor-free power laws the unconstrained
    floor inflates any covariance-based contrast.)  Degenerate results
    carry the mean level in mu with beta and omega_c set to NaN.
    """
    if spectrum.omegas.size < 6:
        raise DomainError("knee fit needs at least 6 spectral points")
    window = (float(spectrum.omegas[0]), float(spectrum.omegas[-1]))
    if math.log10(window[1] / window[0]) < 2:
        raise DomainError("knee fit needs a spectrum spanning at least 2 decades")
    if np.all(spectrum.values == 0):
        return _degenerate_fit(spectrum, window)

    keep = spectrum.values > 0
    omegas = spectrum.omegas[keep]
    counts = None if spectrum.bin_counts is None else spectrum.bin_counts[keep]
    log_data = np.log(spectrum.values[keep])
    correction = 0.0
    if counts is not None:
        correction = _digamma_int(counts) - np.log(counts)
        log_data = log_data - correction
    log_omega = np.log(omegas)
    top_sel = omegas >= omegas[-1] / 10.0
    mu0 = float(np.median(np.exp(log_data)[top_sel]))

    if counts is not None:
        low_sel = omegas <= omegas[0] * 10.0
        ln_white = math.log(float(
            np.sum(spectrum.values[keep] * counts) / np.sum(counts)))
        z_sigma = math.sqrt(float(np.sum(_trigamma_int(counts[low_sel])))
                            ) / low_sel.sum()
        z = (float(np.mean(log_data[low_sel])) - ln_white) / z_sigma
        if z <= 2.0:
            return _degenerate_fit(spectrum, window)

    floorless = False
    try:
        result = _knee_model_fit(log_data, log_omega, mu0)
        ln_a = result.parameters["ln_amplitude"]
        beta = result.parameters["beta"]
        ln_mu = result.parameters["ln_mu"]
    except FitError:
        # Records falling as a power law through the whole window have
        # their optimum on the mu = 0 boundary, where ln_mu runs away
        # and every three-parameter start goes rank-deficient.  The
        # boundary model log S = ln_a - beta*log(omega) is linear.
        floorless = True
        result = fitting.linear_fit(log_omega, log_data)
        beta = -result.parameters["slope"]
        ln_a = result.parameters["intercept"]
        ln_mu = None
    if counts is None and not floorless:
        # colored-over-floor excess at the low edge of the window, in logs
        excess = ln_a - beta * log_omega[0] - ln_mu
        grad_excess = np.array([1.0, -log_omega[0], -1.0])
        sigma_excess = math.sqrt(max(
            float(grad_excess @ result.covariance @ grad_excess), 0.0))
        if not np.isfinite(sigma_excess) or excess <= 2 * sigma_excess:
            return _degenerate_fit(spectrum, window)
    if beta <= 0:
        return _degenerate_fit(spectrum, window)

    if counts is not None:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(_BOOTSTRAP_SEED)))
        dof = 2 * counts
        noise = np.log(rng.chisquare(np.broadcast_to(dof, (_BOOTSTRAP_DRAWS, dof.size)))
                       / dof) - correction
        if floorless:
            fitted = np.array([ln_a, beta])
            slope, intercept = fitting.fit_lines(
                log_omega, ln_a - beta * log_omega + noise)
            replicas = np.stack([intercept, -slope], axis=1)
        else:
            fitted = np.array([ln_a, beta, ln_mu])
            warm = [ln_a, min(max(beta, 1e-6), _BETA_BOX[1] - 1e-6), ln_mu]
            fits = _knee_fits(np.logaddexp(ln_a - beta * log_omega, ln_mu) + noise,
                              log_omega, np.broadcast_to(warm, (_BOOTSTRAP_DRAWS, 3)))
            replicas = fits.parameters[fits.formed]
        if len(replicas) >= _BOOTSTRAP_DRAWS // 2:
            corrected = fitted - (np.mean(replicas, axis=0) - fitted)
            if floorless:
                ln_a, beta = corrected
            else:
                ln_a, beta, ln_mu = corrected
            beta = float(np.clip(beta, _BETA_BOX[0], _BETA_BOX[1]))
        if beta <= 0:
            return _degenerate_fit(spectrum, window)

    amplitude = math.exp(ln_a)
    if floorless:
        # No white floor resolved inside the window: mu sits on its
        # zero boundary, its error bar is the smallest binned level
        # (detection bound), and the crossover lies beyond the window.
        mu = 0.0
        mu_err = float(np.exp(log_data.min()))
        omega_c, omega_c_err = window[1], float("nan")
        beta_err = result.stderr("slope")
        amplitude_err = amplitude * result.stderr("intercept")
    else:
        mu = math.exp(ln_mu)
        mu_err = mu * result.stderr("ln_mu")
        ln_omega_c = (ln_a - ln_mu) / beta
        grad = np.array([1.0 / beta, -ln_omega_c / beta, -1.0 / beta])
        var_ln_omega_c = float(grad @ result.covariance @ grad)
        omega_c = math.exp(ln_omega_c)
        omega_c_err = omega_c * math.sqrt(max(var_ln_omega_c, 0.0))
        omega_c = min(max(omega_c, window[0]), window[1])
        beta_err = result.stderr("beta")
        amplitude_err = amplitude * result.stderr("ln_amplitude")
    return SpectrumFit(
        beta=float(beta), omega_c=float(omega_c), mu=float(mu),
        amplitude=float(amplitude),
        beta_err=float(beta_err),
        omega_c_err=float(omega_c_err),
        mu_err=float(mu_err),
        amplitude_err=float(amplitude_err),
        fit_window=window, degenerate=False)


def fit_white_floor_vs_temp(points) -> FloorScalingFit:
    """Fit mu(T) = mu0 + a * T^(2+x) to white-floor levels vs temperature."""
    pts = sorted((float(t), float(mu)) for t, mu in points)
    if len(pts) < 4:
        raise DomainError("floor-scaling fit needs at least 4 temperatures")
    temps = np.array([t for t, _ in pts])
    mus = np.array([mu for _, mu in pts])
    if temps[0] <= 0:
        raise DomainError("temperatures must be > 0")
    if temps[-1] < 5 * temps[0]:
        raise DomainError("temperatures must span at least a factor of 5")

    a0 = (mus[-1] - mus[0]) / (temps[-1] ** 2 - temps[0] ** 2)
    mu00 = max(mus[0] - a0 * temps[0] ** 2, 0.0)

    def residuals(p):
        mu0, a, x = p
        return mu0 + a * temps ** (2 + x) - mus

    nan = float("nan")
    try:
        result = fitting.least_squares(residuals, [mu00, a0, 0.0],
                                       names=("mu0", "a", "x"))
    except FitError:
        return FloorScalingFit(mu0=float(np.mean(mus)), a=0.0, x=nan,
                               mu0_err=float(np.std(mus) / math.sqrt(len(pts))),
                               a_err=nan, x_err=nan, x_unidentifiable=True)

    a = result.parameters["a"]
    a_err = result.stderr("a")
    flag = not np.isfinite(a_err) or abs(a) < 2 * a_err
    return FloorScalingFit(
        mu0=max(result.parameters["mu0"], 0.0), a=float(a),
        x=result.parameters["x"], mu0_err=result.stderr("mu0"),
        a_err=float(a_err), x_err=result.stderr("x"), x_unidentifiable=flag)
