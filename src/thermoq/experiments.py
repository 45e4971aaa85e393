"""Relaxation-rate measurement campaigns.

``simulate_campaign`` measures a long tick grid, drawing the
instantaneous true rate from a supplied rate series, to produce the
estimator-noise-broadened rate-vs-time series that spectral analysis
consumes.

The campaign layer is mechanism-agnostic: whatever makes the true rate
move (microscopic defect dynamics, photon-number drift, nothing at all)
is the source's business; this module only measures it the way an
experiment would.  Every tick gets its own shot-noise-limited
relaxation trace; the campaign holds all traces in one (ticks, points)
array, draws their noise in one call and fits them in one batched
Levenberg-Marquardt pass (``fit_decay_traces``).
"""

from dataclasses import dataclass

import numpy as np

from . import fitting
from .errors import DomainError, FitError
from .tlssim import TimeSeries

_CAMPAIGN_TRACE_POINTS = 25
_CAMPAIGN_TRACE_SPAN = 3.0  # decay constants covered by each trace


def _shot_noise(p, n_averages, seed):
    """Fraction of successes in ``n_averages`` Bernoulli trials per point."""
    rng = np.random.default_rng(seed)
    return rng.binomial(n_averages, p) / n_averages


def fit_decay_traces(times, p_e):
    """Fit offset + amplitude*exp(-rate*t) to every row of (n, m) traces.

    One batched Levenberg-Marquardt pass (``fitting.fit_decays``).
    Returns the fits and two row masks: ``no_decay`` where the fit could
    not be formed or the rate is not positive at 2 sigma, and
    ``short_span`` where the trace spans fewer than 1.5 fitted decay
    constants.
    """
    times = np.atleast_2d(times)
    fits = fitting.fit_decays(times, p_e)
    rate = np.where(fits.formed, fits.parameters[:, 0], np.nan)
    no_decay = ~(rate > 2 * fits.stderr("rate"))
    return fits, no_decay, ~no_decay & (times[:, -1] * rate < 1.5)


@dataclass(frozen=True)
class CampaignConfig:
    """Long-run measurement schedule: tick rate, span, averaging, temperature."""

    point_rate: float
    duration: float
    n_averages: int
    temperature: float

    def __post_init__(self):
        if not self.point_rate > 0:
            raise DomainError("point_rate must be positive")
        if not self.duration * self.point_rate >= 64:
            raise DomainError("campaign needs at least 64 points")
        if not self.n_averages >= 1:
            raise DomainError("n_averages must be a positive count")
        if not self.temperature >= 0:
            raise DomainError("temperature must be non-negative")


@dataclass(frozen=True)
class CampaignResult:
    """Fitted-rate series plus the ticks whose fits carried no decay.

    Gap ticks hold the previous successful estimate (the first one, for
    leading gaps) so the series stays finite and uniformly sampled.
    """

    series: TimeSeries
    gap_indices: tuple


def simulate_campaign(config: CampaignConfig, gamma1_source: TimeSeries,
                      seed: int) -> CampaignResult:
    """Measure a drifting relaxation rate the way an experiment would.

    ``gamma1_source`` is a TimeSeries of true rates, sampled at each
    campaign tick by zero-order hold.  Each tick simulates one
    shot-noise-limited relaxation trace, exp(-rate*t) over 3 decay
    constants, at the instantaneous true rate.  The whole (ticks, points)
    grid draws its noise from ``default_rng(seed)`` in C order, so
    a tick's noise does not depend on the ticks after it; all traces are
    then fitted in one batch.  Ticks whose fit shows no significant decay,
    or spans fewer than 1.5 fitted decay constants (a wild fit at low
    averaging), become gaps.
    """
    n_points = int(round(config.duration * config.point_rate))
    dt = 1.0 / config.point_rate
    ticks = dt * np.arange(n_points)
    index = np.clip((ticks - gamma1_source.t0) // gamma1_source.dt,
                    0, gamma1_source.values.size - 1)
    rates = gamma1_source.values[index.astype(np.intp)]
    if not np.all(rates > 0):
        raise DomainError("gamma1 source produced a non-positive rate")

    times = np.ascontiguousarray(np.linspace(
        0.0, _CAMPAIGN_TRACE_SPAN / rates, _CAMPAIGN_TRACE_POINTS, axis=1))
    p_e = _shot_noise(np.exp(-rates[:, None] * times), config.n_averages, seed)

    fits, no_decay, short_span = fit_decay_traces(times, p_e)
    good = ~(no_decay | short_span)
    if not good.any():
        raise FitError("every campaign tick failed to fit a decay")
    # a gap holds the last good estimate before it, or the first one
    first_good = int(np.argmax(good))
    held = np.maximum.accumulate(np.where(good, np.arange(n_points), first_good))
    series = TimeSeries(0.0, dt, fits.parameters[held, 0])
    return CampaignResult(series=series,
                          gap_indices=tuple(np.flatnonzero(~good).tolist()))
