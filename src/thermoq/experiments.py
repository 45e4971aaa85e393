"""Synthetic decay experiments and relaxation-rate measurement campaigns.

``simulate_trace`` produces the three standard excited-state-probability
records (relaxation, Ramsey, echo) with optional binomial shot noise at
a given averaging count; ``fit_trace`` inverts a trace back to a decay
rate by nonlinear least squares; ``simulate_campaign`` measures a long
tick grid, drawing the instantaneous true rate from a supplied source,
to produce the estimator-noise-broadened rate-vs-time series that
spectral analysis consumes.

The campaign layer is mechanism-agnostic: whatever makes the true rate
move (microscopic defect dynamics, photon-number drift, nothing at all)
is the source's business; this module only measures it the way an
experiment would.  Every tick gets its own shot-noise-limited
relaxation trace; the campaign holds all traces in one (ticks, points)
array, draws their noise in one call and fits them in one batched
Levenberg-Marquardt pass (``fit_decay_traces``).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fitting
from .errors import DomainError, FitError, NoDecayError
from .tlssim import TimeSeries

_KINDS = ("relaxation", "ramsey", "echo")
_CAMPAIGN_TRACE_POINTS = 25
_CAMPAIGN_TRACE_SPAN = 3.0  # decay constants covered by each trace


@dataclass
class ExperimentTrace:
    """One decay record: excited-state probability versus delay.

    ``detuning`` is the programmed Ramsey fringe frequency (rad/s) and
    exists only on ramsey traces; ``n_averages`` is the per-point
    averaging count, or None for a noiseless model curve.
    """

    kind: str
    times: np.ndarray
    p_e: np.ndarray
    detuning: float | None = None
    n_averages: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(
                f"kind must be one of {_KINDS}, got {self.kind!r}")
        self.times = np.asarray(self.times, dtype=float)
        self.p_e = np.asarray(self.p_e, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.p_e.shape:
            raise DomainError("times and p_e must be matching 1-d arrays")
        if self.times.size < 1 or self.times[0] != 0.0:
            raise DomainError("times must start at 0")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly ascending")
        if not np.all(np.isfinite(self.p_e)):
            raise DomainError("p_e must be finite")
        if np.any((self.p_e < 0.0) | (self.p_e > 1.0)):
            raise DomainError("p_e must lie in [0, 1]")
        if self.kind == "ramsey":
            if self.detuning is None or not math.isfinite(self.detuning):
                raise DomainError("ramsey traces require a finite detuning")
        elif self.detuning is not None:
            raise DomainError(f"{self.kind} traces carry no detuning")
        if self.n_averages is not None and self.n_averages < 1:
            raise DomainError("n_averages must be a positive count")


def _model_p_e(kind, rate, detuning, times):
    envelope = np.exp(-rate * times)
    if kind == "relaxation":
        return envelope
    if kind == "ramsey":
        return 0.5 + 0.5 * envelope * np.cos(detuning * times)
    return 0.5 + 0.5 * envelope


def simulate_trace(kind, rate, detuning, times, n_averages=None, seed=None):
    """Simulate one decay record, optionally with binomial shot noise.

    Noiseless models: relaxation p = exp(-rate*t); ramsey
    p = 1/2 + exp(-rate*t)*cos(detuning*t)/2; echo
    p = 1/2 + exp(-rate*t)/2.  With ``n_averages`` set, each point is
    replaced by the fraction of successes in that many Bernoulli trials,
    which lands in [0, 1] by construction.
    """
    if kind not in _KINDS:
        raise DomainError(f"kind must be one of {_KINDS}, got {kind!r}")
    if not rate > 0:
        raise DomainError("decay rate must be positive")
    times = np.asarray(times, dtype=float)
    if kind != "ramsey":
        detuning = None
    p = np.clip(_model_p_e(kind, rate, detuning, times), 0.0, 1.0)
    if n_averages is not None:
        if n_averages < 1:
            raise DomainError("n_averages must be a positive count")
        p = _shot_noise(p, n_averages, seed)
    return ExperimentTrace(kind, times, p, detuning, n_averages)


def _shot_noise(p, n_averages, seed):
    """Fraction of successes in ``n_averages`` Bernoulli trials per point."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
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
    return fits, *_failures(fits, times[:, -1])


def _failures(fits, span):
    """The two trace-fit failure masks of ``fit_decay_traces``."""
    rate = np.where(fits.formed, fits.parameters[:, 0], np.nan)
    no_decay = ~(rate > 2 * fits.stderr("rate"))
    return no_decay, ~no_decay & (span * rate < 1.5)


def fit_trace(trace: ExperimentTrace) -> fitting.FitResult:
    """Fit the matching decay model; returns rate with 1-sigma error.

    Relaxation and echo traces go through ``fitting.fit_decays`` and
    Ramsey traces through ``fitting.fit_ramsey``, each as a batch of one.
    Raises NoDecayError when the fitted rate is not positive at 2 sigma
    (or the fit cannot be formed at all, e.g. on a flat trace), and
    DomainError when the record is too short or spans fewer than 1.5
    fitted decay constants.
    """
    times, p = trace.times, trace.p_e
    if times.size < 8:
        raise DomainError("trace fit needs at least 8 points")
    if trace.kind == "ramsey":
        fits = fitting.fit_ramsey(times, p, trace.detuning)
    else:
        fits = fitting.fit_decays(times, p)
    [no_decay], [short_span] = _failures(fits, times[-1])
    if no_decay:
        raise NoDecayError("trace fit failed or its rate is not positive at 2 sigma")
    if short_span:
        raise DomainError("trace spans fewer than 1.5 fitted decay constants")
    return fits.result(0)


@dataclass(frozen=True)
class CampaignConfig:
    """Long-run measurement schedule: tick rate, span, averaging, seed."""

    point_rate: float
    duration: float
    n_averages: int
    temperature: float
    seed: int

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


def simulate_campaign(config: CampaignConfig, gamma1_source) -> CampaignResult:
    """Measure a drifting relaxation rate the way an experiment would.

    ``gamma1_source`` is either a TimeSeries of true rates (sampled by
    zero-order hold) or a callable t -> rate, evaluated once per tick.
    Each campaign tick simulates one shot-noise-limited relaxation trace
    at the instantaneous true rate.  The whole (ticks, points) grid
    draws its noise from ``SeedSequence(config.seed)`` in C order, so a
    tick's noise does not depend on the ticks after it; all traces are
    then fitted in one batch.  Ticks whose fit shows no significant decay,
    or spans fewer than 1.5 fitted decay constants (a wild fit at low
    averaging), become gaps.
    """
    n_points = int(round(config.duration * config.point_rate))
    dt = 1.0 / config.point_rate
    ticks = dt * np.arange(n_points)
    if isinstance(gamma1_source, TimeSeries):
        index = np.clip((ticks - gamma1_source.t0) // gamma1_source.dt,
                        0, gamma1_source.values.size - 1)
        rates = gamma1_source.values[index.astype(np.intp)]
    else:
        rates = np.array([gamma1_source(t) for t in ticks.tolist()], dtype=float)
    if not np.all(rates > 0):
        raise DomainError("gamma1 source produced a non-positive rate")

    times = np.ascontiguousarray(np.linspace(
        0.0, _CAMPAIGN_TRACE_SPAN / rates, _CAMPAIGN_TRACE_POINTS, axis=1))
    p_e = np.clip(_model_p_e("relaxation", rates[:, None], None, times), 0.0, 1.0)
    p_e = _shot_noise(p_e, config.n_averages, config.seed)

    fits, no_decay, short_span = fit_decay_traces(times, p_e)
    good = ~(no_decay | short_span)
    if not good.any():
        raise FitError("every campaign tick failed to fit a decay")
    # a gap holds the last good estimate before it, or the first one
    first_good = int(np.argmax(good))
    held = np.maximum.accumulate(np.where(good, np.arange(n_points), first_good))
    series = TimeSeries(0.0, dt, fits.parameters[held, 0], seed_used=config.seed)
    return CampaignResult(series=series,
                          gap_indices=tuple(np.flatnonzero(~good).tolist()))
