"""Fluctuation-spectrum estimation for relaxation-rate time series.

``periodogram`` turns a uniformly sampled gamma1(t) record into a
one-sided spectral density with an unambiguous absolute normalization
(stated in its docstring); ``psd_estimate`` log-bins it.
One log-binned periodogram is used rather than segment averaging:
records of ~1200 points barely cover three decades, and segmenting
would destroy the lowest decade where the spectral exponent lives.

Two fits, each linear in every parameter but one exponent, profile that
exponent with one grid minimizer: the Whittle likelihood of an omega^-beta
branch crossing into a white floor at a knee frequency, where one
likelihood-ratio test against a white spectrum decides whether the
record is colored at all, and least squares of the floor-versus-
temperature power law mu0 + a*T^(2+x).
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI, hbar
from .errors import DomainError
from .tlssim import TimeSeries


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
    """Result of the knee fit S(omega) = amplitude * omega^-beta + mu,
    fitted over amplitude >= 0, mu >= 0 and beta in [0, 4].

    omega_c is the crossover amplitude*omega_c^-beta = mu, clamped into
    fit_window.  When ``degenerate`` is set the spectrum is consistent
    with pure white noise: mu holds the floor level and beta / omega_c
    are NaN.  The opposite boundary — a record falling as a power law
    through the whole window with no resolvable floor — reports mu = 0
    with mu_err holding the detection bound (the smallest binned level)
    and omega_c pinned at the top window edge.  lr_statistic, the
    likelihood ratio D_white - D_min >= 0 of the knee model against a
    white spectrum, made the call: colored above ``LR_THRESHOLD``.
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
    """Result of fitting mu(T) = mu0 + a * T^(2+x).  x_unidentifiable is set
    when a is consistent with zero at 2 sigma (then x carries no information)
    or the fit fell back to the mean level."""

    mu0: float
    a: float
    x: float
    mu0_err: float
    a_err: float
    x_err: float
    x_unidentifiable: bool = False


def periodogram(series: TimeSeries) -> Spectrum:
    """Raw one-sided periodogram of a uniformly sampled series.

    One-sided power spectral density on an angular-frequency axis:
    S(omega_k) = (hbar/2pi) * (2*dt/N) * |X_k|^2 with X_k the DFT of the
    mean-subtracted series (half weight at the Nyquist bin), so that the
    exact discrete Parseval identity holds: sum(values) * delta_f equals
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
    # the K raw points k*dw lie at least log10(K/(K-1)) apart, so with
    # `most` bins (each under half that wide) every bin holds one point at
    # most, and more bins give the same spectrum; clamped before multiplying
    most = 2 * math.ceil(decades / math.log10(raw.omegas.size / (raw.omegas.size - 1)))
    n_bins = max(1, min(math.ceil(min(bins_per_decade, most) * decades), most))
    edges = np.geomspace(lo * (1 - 1e-12), hi * (1 + 1e-12), n_bins + 1)
    # the raw axis ascends, so each bin is one run of it; empty bins drop
    cuts = np.searchsorted(raw.omegas, edges[1:-1])
    bins = [b for b in zip(np.split(raw.omegas, cuts), np.split(raw.values, cuts)) if b[0].size]
    return Spectrum(omegas=np.array([np.exp(np.mean(np.log(w))) for w, _ in bins]),
                    values=np.array([np.mean(v) for _, v in bins]),
                    bin_counts=np.array([w.size for w, _ in bins]))


def _degenerate_fit(spectrum: Spectrum, window, lr_statistic: float) -> SpectrumFit:
    values, counts = spectrum.values, spectrum.bin_counts
    mu = float(np.sum(values * counts) / np.sum(counts))
    mu_err = float(np.std(values) / math.sqrt(values.size))
    nan = float("nan")
    return SpectrumFit(beta=nan, omega_c=nan, mu=mu, amplitude=nan,
                       beta_err=nan, omega_c_err=nan, mu_err=mu_err,
                       amplitude_err=nan, fit_window=window,
                       lr_statistic=lr_statistic, degenerate=True)


# profile grid: 41 points, then three zooms onto the two spacings about the
# best point (a beta spacing of 1.25e-5 on [0, 4]); 15 scoring steps from a
# cold start settle the knee fit's D(beta) to about 1e-10
_GRID_POINTS, _ZOOMS, _BETA_BOX, _SCORING_STEPS = 41, 3, (0.0, 4.0), 15
# 99 % point of chi-squared with 2 degrees of freedom.  Under the white
# null the amplitude sits on its zero boundary and beta is unidentified,
# which makes the chi-squared(2) threshold conservative (Self & Liang
# 1987, JASA 82, 605).
LR_THRESHOLD = 9.21


def _grid_minimum(profile, box):
    """[x, objective, *rest] at the minimum over ``box`` of ``profile(xs)``,
    the objective (NaN counts as +inf) and the other fitted arrays on a grid.
    The vertex of a parabola through the last zoom's best three points is
    kept where it lowers the objective, which it need not at an edge or kink."""
    xs = np.linspace(*box, _GRID_POINTS)
    with np.errstate(all="ignore"):
        for zoom in range(_ZOOMS + 1):
            if zoom:
                xs = np.linspace(*xs[np.clip([i - 1, i + 1], 0, xs.size - 1)], _GRID_POINTS)
            fit = profile(xs)
            i = int(np.argmin(np.where(np.isnan(fit[0]), np.inf, fit[0])))
        f, best = fit[0], [float(xs[i]), *(float(v[i]) for v in fit)]
        if 0 < i < xs.size - 1 and (curvature := f[i - 1] - 2 * f[i] + f[i + 1]) > 0:
            vertex = best[0] + (xs[1] - xs[0]) * (f[i - 1] - f[i + 1]) / (2 * curvature)
            fit = [float(v[0]) for v in profile(np.array([vertex]))]
            if fit[0] < best[1]:
                best = [float(vertex), *fit]
    return best


def _deviance(ln_values, counts, ln_model):
    """Whittle deviance sum 2m(P/S - ln(P/S) - 1), last axis, from ln P, ln S."""
    u = ln_values - ln_model
    return 2 * np.sum(counts * (np.expm1(u) - u), axis=-1)


def _profile(betas, values, log_omega, counts, d_white):
    """Deviance, a and mu of the Whittle fit of a*x + mu over a, mu >= 0,
    x = (omega/omega_top)^-beta, at every beta at once.  It is a Gamma GLM
    with identity link: a Fisher-scoring step is a 2x2 least-squares solve
    with weights m/S^2 (McCullagh & Nelder 1989, ch. 8), projected onto the
    box, and the faces a = 0 (the white level, deviance ``d_white``) and
    mu = 0 (a = sum(m*P/x) / sum(m)) compete in closed form."""
    x = np.exp(-betas[:, None] * (log_omega - log_omega[-1]))
    white = counts @ values / counts.sum()
    floorless = (counts * values / x).sum(axis=1) / counts.sum()
    a, mu = floorless / 2, np.full(betas.size, white / 2)
    for _ in range(_SCORING_STEPS):
        w = counts / (a[:, None] * x + mu[:, None]) ** 2
        wx = w * x
        sxx, sx, s1 = np.einsum("ij,ij->i", wx, x), wx.sum(axis=1), w.sum(axis=1)
        txp, tp = wx @ values, w @ values
        det = sxx * s1 - sx**2
        a = np.maximum((s1 * txp - sx * tp) / det, 0.0)
        mu = np.maximum((sxx * tp - sx * txp) / det, 0.0)
    zeros = np.zeros(betas.size)
    a, mu = np.stack([zeros, floorless, a]), np.stack([zeros + white, zeros, mu])
    ln_models = np.log(a[1:, :, None] * x + mu[1:, :, None])
    dev = np.vstack([zeros + d_white, _deviance(np.log(values), counts, ln_models)])
    # the white level is never NaN; a singular scoring row is no candidate
    best, rows = np.nanargmin(dev, axis=0), np.arange(betas.size)
    return dev[best, rows], a[best, rows], mu[best, rows]


def _fisher_covariance(grad, counts) -> np.ndarray:
    """Inverse of sum_k m_k g_k g_k^T over the rows g_k of ``grad`` (the
    Fisher information, or J^T J where every m_k is 1); NaN if singular."""
    info = grad.T @ (counts[:, None] * grad)
    try:
        return np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return np.full(info.shape, np.nan)


def fit_knee_spectrum(spectrum: Spectrum) -> SpectrumFit:
    """Fit S(omega) = A * omega^-beta + mu by maximum likelihood.

    An m-point bin mean of a periodogram is distributed as
    S * Gamma(m, 1/m), so the fit minimizes the Whittle deviance
    (Whittle 1953; Vaughan 2010, MNRAS 402, 307) over A >= 0, mu >= 0
    and beta in [0, 4]; ``_grid_minimum`` minimizes its profile D(beta),
    each grid one array iteration of ``_profile``, and the errors come
    from the Fisher information.  The record is colored
    only when LR = D_white - D_min >= 0 against a white spectrum at the
    count-weighted mean level exceeds ``LR_THRESHOLD`` with beta > 0;
    otherwise the result is degenerate (mean level in mu, NaN beta).
    """
    if spectrum.omegas.size < 6:
        raise DomainError("knee fit needs at least 6 spectral points")
    window = (float(spectrum.omegas[0]), float(spectrum.omegas[-1]))
    if math.log10(window[1] / window[0]) < 2:
        raise DomainError("knee fit needs a spectrum spanning at least 2 decades")
    if np.all(spectrum.values == 0):
        return _degenerate_fit(spectrum, window, 0.0)

    keep = spectrum.values > 0
    values, counts = spectrum.values[keep], spectrum.bin_counts[keep]
    log_omega = np.log(spectrum.omegas[keep])
    d_white = float(_deviance(np.log(values), counts,
                              math.log(counts @ values / counts.sum())))
    beta, d_min, a, mu = _grid_minimum(
        lambda betas: _profile(betas, values, log_omega, counts, d_white), _BETA_BOX)
    lr = d_white - d_min
    if not (lr > LR_THRESHOLD and beta > 0):
        return _degenerate_fit(spectrum, window, lr)

    ln_a = math.log(a) + beta * log_omega[-1]  # a is fitted against omega/omega_top
    # gradient of ln S in (ln_amplitude, beta, ln_mu), from the colored
    # share of each bin's level (1 on the mu = 0 face)
    colored = a / (a + mu * np.exp(beta * (log_omega - log_omega[-1])))
    grad = np.stack([colored, -colored * log_omega, 1.0 - colored], axis=1)
    cov = _fisher_covariance(grad[:, :3 if mu else 2], counts)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    amplitude = math.exp(ln_a)
    if not mu:
        # No white floor resolved inside the window: its error bar is the
        # smallest binned level (detection bound), the crossover lies beyond.
        mu_err = float(values.min())
        omega_c, omega_c_err = window[1], float("nan")
    else:
        mu_err = mu * err[2]
        ln_omega_c = (ln_a - math.log(mu)) / beta
        grad_c = np.array([1.0, -ln_omega_c, -1.0]) / beta
        omega_c = math.exp(ln_omega_c)
        omega_c_err = omega_c * math.sqrt(max(float(grad_c @ cov @ grad_c), 0.0))
        omega_c = min(max(omega_c, window[0]), window[1])
    return SpectrumFit(
        beta=beta, omega_c=float(omega_c), mu=mu,
        amplitude=float(amplitude), beta_err=float(err[1]),
        omega_c_err=float(omega_c_err), mu_err=float(mu_err),
        amplitude_err=float(amplitude * err[0]), fit_window=window,
        lr_statistic=float(lr), degenerate=False)


def fit_white_floor_vs_temp(points) -> FloorScalingFit:
    """Fit mu(T) = mu0 + a * T^(2+x) to white-floor levels vs temperature.

    At a fixed x it is linear in (mu0, a), so a centred 2x2 solve profiles
    the residual sum of squares over x in [-2, 4] (variable projection,
    Golub & Pereyra 1973) with ``_grid_minimum``; x = -2 makes the model
    constant and is skipped.  The covariance is s^2 (J^T J)^-1 at the
    optimum, s^2 = RSS/(n - 3); where J^T J is singular the fit falls back
    to the mean level with x unidentifiable.
    """
    pts = sorted((float(t), float(mu)) for t, mu in points)
    if len(pts) < 4:
        raise DomainError("floor-scaling fit needs at least 4 temperatures")
    temps, mus = np.array(pts).T
    if not (temps[0] > 0 and mus.min() > 0):
        raise DomainError("temperatures and white levels must be > 0")
    if temps[-1] < 5 * temps[0]:
        raise DomainError("temperatures must span at least a factor of 5")

    def profile(xs):
        powers = temps ** (2 + xs[:, None])
        centred = powers - powers.mean(axis=1, keepdims=True)
        a = centred @ (mus - mus.mean()) / np.einsum("ij,ij->i", centred, centred)
        mu0 = mus.mean() - a * powers.mean(axis=1)
        return ((mu0[:, None] + a[:, None] * powers - mus) ** 2).sum(axis=1), mu0, a

    (x, rss, mu0, a), n = _grid_minimum(profile, (-2.0, 4.0)), len(pts)
    with np.errstate(all="ignore"):
        power = temps ** (2 + x)
        jac = np.stack([np.ones(n), power, a * power * np.log(temps)], axis=1)
        cov = rss / max(n - 3, 1) * _fisher_covariance(jac, np.ones(n))
    if not np.isfinite(cov).all():
        return FloorScalingFit(mu0=float(np.mean(mus)), a=0.0, x=math.nan,
                               mu0_err=float(np.std(mus) / math.sqrt(n)),
                               a_err=math.nan, x_err=math.nan, x_unidentifiable=True)
    mu0_err, a_err, x_err = np.sqrt(np.maximum(np.diag(cov), 0.0)).tolist()
    return FloorScalingFit(mu0=max(mu0, 0.0), a=a, x=x, mu0_err=mu0_err, a_err=a_err,
                           x_err=x_err, x_unidentifiable=abs(a) < 2 * a_err)
