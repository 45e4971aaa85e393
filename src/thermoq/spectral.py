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
knee fit maximizes the Whittle likelihood of the bin means, weighting
each bin by its raw-point count, and one likelihood-ratio test against
a white spectrum decides whether the record is colored at all.
"""

import math
from dataclasses import dataclass

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

@dataclass
class Spectrum:
    """One-sided spectral density S(omega), W/Hz on a rad/s axis.

    bin_counts records how many raw periodogram points each (log-binned)
    value averages; it is needed both for exact integration and for the
    likelihood of the knee fit.  Left out, every value counts as one raw
    periodogram point.
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
        if self.bin_counts is None:
            self.bin_counts = np.ones(self.values.size, dtype=int)
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
    and omega_c pinned at the top window edge.  lr_statistic is the
    likelihood ratio of the knee model against a white spectrum that
    made the call: colored above ``LR_THRESHOLD``.
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
    lr_statistic: float
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
    return Spectrum(omegas=omegas, values=values)


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


def _degenerate_fit(spectrum: Spectrum, window, lr_statistic: float) -> SpectrumFit:
    values, counts = spectrum.values, spectrum.bin_counts
    mu = float(np.sum(values * counts) / np.sum(counts))
    mu_err = float(np.std(values) / math.sqrt(values.size))
    nan = float("nan")
    return SpectrumFit(beta=nan, omega_c=nan, mu=mu, amplitude=nan,
                       beta_err=nan, omega_c_err=nan, mu_err=mu_err,
                       amplitude_err=nan, fit_window=window,
                       lr_statistic=lr_statistic, degenerate=True)


_BETA_BOX = (0.0, 4.0)
# 99 % point of chi-squared with 2 degrees of freedom.  Under the white
# null the amplitude sits on its zero boundary and beta is unidentified,
# which makes the chi-squared(2) threshold conservative (Self & Liang
# 1987, JASA 82, 605).
LR_THRESHOLD = 9.21


def _deviance_residuals(ln_data, counts, ln_model):
    """Signed Gamma-deviance residuals of m-point bin means about a model.

    Their sum of squares is twice the Whittle negative log-likelihood
    sum m*(ln S + P/S) above its saturated value.
    """
    u = ln_data - ln_model
    return np.sign(u) * np.sqrt(2 * counts * (np.expm1(u) - u))


def _ln_knee(p, log_omega):
    """ln(A*omega^-beta + mu) for rows of (ln_amplitude, beta, ln_mu)."""
    return np.logaddexp(p[:, 0:1] - p[:, 1:2] * log_omega, p[:, 2:3])


def _ln_power_law(p, log_omega):
    """ln(A*omega^-beta) for rows of (ln_amplitude, beta)."""
    return p[:, 0:1] - p[:, 1:2] * log_omega


def _likelihood_fit(ln_model, starts, bounds, ln_data, log_omega, counts
                    ) -> fitting.FitResult:
    """Maximum-likelihood fit of ``ln_model`` from several starts at once.

    The starts are fitted as one batch; the best is the formed one with
    the smallest deviance, the first on ties.
    """
    fits = fitting.fit_rows(
        lambda p, rows: _deviance_residuals(ln_data, counts, ln_model(p, log_omega)),
        starts, names=("ln_amplitude", "beta", "ln_mu")[:len(bounds)], bounds=bounds)
    formed = np.flatnonzero(fits.formed)
    if formed.size == 0:
        raise FitError("knee model fit failed from every initialization")
    return fits.result(formed[np.argmin(fits.residual_norm[formed])])


def _fisher_covariance(grad, counts) -> np.ndarray:
    """Inverse of the Fisher information sum_k m_k g_k g_k^T, where row k
    of ``grad`` is g_k, the gradient of ln S at bin k; NaN if singular."""
    info = grad.T @ (counts[:, None] * grad)
    try:
        return np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return np.full(info.shape, np.nan)


def fit_knee_spectrum(spectrum: Spectrum) -> SpectrumFit:
    """Fit S(omega) = A * omega^-beta + mu by maximum likelihood.

    An m-point bin mean of a periodogram is distributed as
    S * Gamma(m, 1/m), so the fit minimizes the Whittle deviance
    (Whittle 1953; Vaughan 2010, MNRAS 402, 307) from four starts, and
    the parameter errors come from the Fisher information at the
    optimum.  The spectrum is called colored only when the likelihood
    ratio against a white spectrum at the count-weighted mean level,
    LR = D_white - D_fit, exceeds ``LR_THRESHOLD`` with beta > 0;
    otherwise the result is degenerate, with the mean level in mu and
    beta and omega_c set to NaN.  When no start of the three-parameter
    model can be formed, the record falls as a power law through the
    whole window and the floorless model A * omega^-beta is fitted
    instead.  Either way ``lr_statistic`` records the decision.
    """
    if spectrum.omegas.size < 6:
        raise DomainError("knee fit needs at least 6 spectral points")
    window = (float(spectrum.omegas[0]), float(spectrum.omegas[-1]))
    if math.log10(window[1] / window[0]) < 2:
        raise DomainError("knee fit needs a spectrum spanning at least 2 decades")
    if np.all(spectrum.values == 0):
        return _degenerate_fit(spectrum, window, 0.0)

    keep = spectrum.values > 0
    omegas, values = spectrum.omegas[keep], spectrum.values[keep]
    counts = spectrum.bin_counts[keep]
    ln_data, log_omega = np.log(values), np.log(omegas)
    ln_white = math.log(float(np.sum(counts * values) / np.sum(counts)))
    d_white = float(np.sum(_deviance_residuals(ln_data, counts, ln_white) ** 2))

    mu0 = float(np.median(values[omegas >= omegas[-1] / 10.0]))
    ln_a0 = math.log(max(values[0] - mu0, 0.01 * mu0) * omegas[0])
    floorless = False
    try:
        # A single start now and then settles where the colored
        # amplitude collapses although a real omega^-beta component is
        # present; amplitude-heavy and shallow-exponent starts recover
        # it.  beta is boxed to [0, 4] so single noisy low-frequency
        # bins cannot drive the exponent to arbitrarily steep values.
        result = _likelihood_fit(
            _ln_knee, [[ln_a0 + math.log(a_factor), beta0, math.log(mu0)]
                       for a_factor, beta0 in
                       ((1.0, 1.0), (100.0, 1.0), (0.01, 1.0), (1.0, 0.5))],
            [None, _BETA_BOX, None], ln_data, log_omega, counts)
    except FitError:
        # Two boundaries leave no three-parameter start formed: records
        # falling as a power law through the whole window have their
        # optimum at mu = 0, where ln_mu runs away, and white records at
        # A = 0.  The power law alone has an interior optimum in both
        # cases, so its beta is left free; a white record fits beta <= 0.
        floorless = True
        result = _likelihood_fit(_ln_power_law, [[ln_a0, 1.0]], [None, None],
                                 ln_data, log_omega, counts)
    # the white level lies in both models, so a fit that stops above its
    # deviance has not reached the maximum likelihood: LR is never < 0
    lr = d_white - min(result.residual_norm ** 2, d_white)
    p = result.parameters
    ln_a, beta, ln_mu = p["ln_amplitude"], p["beta"], p.get("ln_mu", -math.inf)
    if not (lr > LR_THRESHOLD and beta > 0):
        return _degenerate_fit(spectrum, window, lr)

    # gradient of ln S in (ln_amplitude, beta, ln_mu), from the colored
    # share of each bin's level (1 when floorless)
    ln_colored = ln_a - beta * log_omega
    colored = np.exp(ln_colored - np.logaddexp(ln_colored, ln_mu))
    grad = np.stack([colored, -colored * log_omega, 1.0 - colored], axis=1)
    cov = _fisher_covariance(grad[:, :len(p)], counts)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    amplitude = math.exp(ln_a)
    if floorless:
        # No white floor resolved inside the window: mu sits on its
        # zero boundary, its error bar is the smallest binned level
        # (detection bound), and the crossover lies beyond the window.
        mu, mu_err = 0.0, float(values.min())
        omega_c, omega_c_err = window[1], float("nan")
    else:
        mu = math.exp(ln_mu)
        mu_err = mu * err[2]
        ln_omega_c = (ln_a - ln_mu) / beta
        grad_c = np.array([1.0, -ln_omega_c, -1.0]) / beta
        omega_c = math.exp(ln_omega_c)
        omega_c_err = omega_c * math.sqrt(max(float(grad_c @ cov @ grad_c), 0.0))
        omega_c = min(max(omega_c, window[0]), window[1])
    return SpectrumFit(
        beta=float(beta), omega_c=float(omega_c), mu=float(mu),
        amplitude=float(amplitude), beta_err=float(err[1]),
        omega_c_err=float(omega_c_err), mu_err=float(mu_err),
        amplitude_err=float(amplitude * err[0]), fit_window=window,
        lr_statistic=float(lr), degenerate=False)


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
