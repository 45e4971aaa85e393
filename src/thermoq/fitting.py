"""Nonlinear least squares: one row-batched Levenberg-Marquardt loop.

Every nonlinear fit runs through ``_levenberg_marquardt`` on one fixed,
reproducible schedule: Marquardt scaling of the damping term, initial
damping 1e-3, damping per row multiplied by 10 on a rejected step and
divided by 10 on an accepted one.  As in MINPACK (More 1978, LNM 630;
More, Garbow & Hillstrom 1980, ANL-80-74), the stopping test sees every
trial, accepted or not: a row converges once a trial's relative step and
relative residual change are both below 1e-10, and a rejected row stops
at the point it holds.  A step too small to move q therefore stops its
row at once.  Where q = 0 no step is small relative to q, and a row
whose damping passes 1e30 counts as converged instead.
A row stops after 200 trial steps either way.
Rows stop independently, a row whose fit cannot be formed is flagged
instead of raised, and no row's arithmetic depends on the others, so a
row fitted in a batch equals the same fit alone, bit for bit.  Every
Jacobian is analytic; the one model is the relaxation decay
offset + amplitude*exp(-rate*t) (``fit_decays``, started in closed form
by ``_decay_start``).  ``linear_fit`` is ordinary least squares in
closed form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ModelDomainError, RankDeficiencyError

_REL_TOL = 1e-10
_MAX_ITER = 200
_DAMPING_0 = 1e-3
DECAY_NAMES = ("rate", "amplitude", "offset")


@dataclass
class FitResult:
    """Fitted parameters of a closed-form fit, with their covariance."""

    parameters: dict[str, float]
    covariance: np.ndarray
    param_names: tuple[str, ...]

    def stderr(self, name: str) -> float:
        """1-sigma standard error of a named parameter."""
        i = self.param_names.index(name)
        return float(np.sqrt(max(self.covariance[i, i], 0.0)))


@dataclass(frozen=True)
class Fits:
    """Row-wise results of one batched fit.

    ``parameters`` is (n, k) in ``param_names`` order and ``covariance``
    is (n, k, k).  ``formed`` is False for a row whose fit could not be
    formed or has no finite covariance (no error bar); its other entries
    are then meaningless.  ``errors`` holds the ``FitError`` of each row
    the loop could not form, else None.
    """

    param_names: tuple[str, ...]
    parameters: np.ndarray
    covariance: np.ndarray
    residual_norm: np.ndarray
    n_iterations: np.ndarray
    converged: np.ndarray
    formed: np.ndarray
    errors: tuple

    def stderr(self, name: str) -> np.ndarray:
        """1-sigma standard error of a named parameter, for every row."""
        i = self.param_names.index(name)
        return np.sqrt(np.maximum(self.covariance[:, i, i], 0.0))


def _stacked(func, matrices, *vectors):
    """Apply a stacked LAPACK call; singular rows come back NaN and flagged."""
    try:
        return func(matrices, *vectors), np.zeros(len(matrices), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.full(vectors[0].shape if vectors else matrices.shape, np.nan)
        singular = np.zeros(len(matrices), dtype=bool)
        for i in range(len(matrices)):
            try:
                out[i] = func(matrices[i], *(v[i] for v in vectors))
            except np.linalg.LinAlgError:
                singular[i] = True
        return out, singular


def _levenberg_marquardt(provider, q, names) -> Fits:
    """Fit every row of the (n, k) start ``q`` through ``provider``.

    For the parameter rows ``q`` of batch rows ``rows`` the provider gives
    ``residuals(q, rows)``, an (r, m) array, and ``normal_equations(q,
    rows)``, J^T J and J^T r.  Raises RankDeficiencyError when m < k.
    """
    n, k = q.shape
    errors = np.full(n, None, dtype=object)
    n_trials = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    covariance = np.full((n, k, k), np.nan)

    def stop(mask, error=None):
        """Retire the working rows in ``mask`` at their current point."""
        nonlocal rows, qw, normw, damping, normal, grad, stale
        stopped = rows[mask]
        q[stopped], norm[stopped], n_trials[stopped] = qw[mask], normw[mask], trial
        errors[stopped] = error
        rows, qw, normw, damping, normal, grad, stale = (
            a[~mask] for a in (rows, qw, normw, damping, normal, grad, stale))

    with np.errstate(all="ignore"):
        rows, qw, trial = np.arange(n), q.copy(), 0
        residual = provider.residuals(q, rows)
        m, norm = residual.shape[1], np.linalg.norm(residual, axis=1)
        del residual  # (n, m): not worth holding through the loop
        if m < k:
            raise RankDeficiencyError(f"{m} residuals cannot constrain {k} parameters")
        normw, damping = norm.copy(), np.full(n, _DAMPING_0)
        normal, grad = np.empty((n, k, k)), np.empty((n, k))
        stale = np.ones(n, dtype=bool)
        stop(~(np.isfinite(q).all(axis=1) & np.isfinite(norm)),
             ModelDomainError("non-finite parameters or residuals at the start"))
        eye = np.eye(k)
        for trial in range(1, _MAX_ITER + 1):
            diag = normal.diagonal(axis1=1, axis2=2)
            if stale.any():
                # normal equations change only where a step was accepted
                s = slice(None) if stale.all() else np.flatnonzero(stale)
                normal[s], grad[s] = provider.normal_equations(qw[s], rows[s])
                stale[:] = False
                finite = np.isfinite(normal).all(axis=(1, 2))
                unusable = ~(finite & (diag > 0).all(axis=1))
                if unusable.any():
                    stop(unusable, [
                        RankDeficiencyError(f"parameter {names[int(np.argmin(d))]!r} "
                                            "has no effect on the residuals")
                        if ok else ModelDomainError("non-finite Jacobian")
                        for d, ok in zip(diag[unusable], finite[unusable])])
                    diag = normal.diagonal(axis1=1, axis2=2)
            if rows.size == 0:
                break
            step, singular = _stacked(
                np.linalg.solve, normal + damping[:, None, None] * (diag[:, :, None] * eye),
                -grad[:, :, None])
            step = step[:, :, 0]
            if singular.any():
                stop(singular, RankDeficiencyError("singular normal equations"))
                step = step[~singular]
            if rows.size == 0:
                break
            q_trial = qw + step
            norm_trial = np.linalg.norm(provider.residuals(q_trial, rows), axis=1)
            # a non-finite trial residual has a NaN or infinite norm
            accept = norm_trial < normw
            damping = np.where(accept, damping / 10.0, damping * 10.0)
            # the stopping test sees every trial, accepted or not; only a
            # rejected step takes damping past 1e30, the exit where q = 0
            rel_dres = np.abs(normw - norm_trial) / np.maximum(normw, 1e-300)
            rel_step = (np.linalg.norm(step, axis=1)
                        / np.maximum(np.linalg.norm(qw, axis=1), 1e-300))
            done = (damping > 1e30) | (norm_trial == 0.0) | (
                (rel_dres < _REL_TOL) & (rel_step < _REL_TOL))
            np.copyto(qw, q_trial, where=accept[:, None])
            np.copyto(normw, norm_trial, where=accept)
            stale = accept
            if done.any():
                converged[rows[done]] = True
                stop(done)
        stop(np.ones(rows.size, dtype=bool))

        # covariance from the Jacobian at the final point
        rows = np.flatnonzero(np.equal(errors, None))
        if rows.size:
            normal = provider.normal_equations(q[rows], rows)[0]
            inverse, singular = _stacked(np.linalg.inv, normal)
            errors[rows[singular]] = RankDeficiencyError(
                "singular normal equations at the solution")
            variance = norm[rows]**2 / max(m - k, 1)
            covariance[rows] = variance[:, None, None] * inverse
    return Fits(param_names=tuple(names), parameters=q, covariance=covariance,
                residual_norm=norm, n_iterations=n_trials, converged=converged,
                formed=np.equal(errors, None) & np.isfinite(covariance).all(axis=(1, 2)),
                errors=tuple(errors))


def _row_dot(a, b):
    """Dot product of matching rows, without an (n, m) temporary."""
    return np.einsum("ij,ij->i", a, b)


def _decay_start(times, data):
    """Integral-equation start (Jacquelin 2009): y = a + b*t - rate*S(t).

    With y each row less its first point (so a flat row is exactly 0)
    and S the trapezoid integral of y, the rate comes from a centred 2x2
    least-squares solve on t and S; it falls back to 2/span where it is
    not positive and finite.  Amplitude and offset then follow by linear
    least squares at that rate.
    """
    m = times.shape[1]
    y = data - data[:, :1]
    x, s = np.empty_like(times), np.empty_like(data)
    # s: the trapezoid integral S, from 0 at the first point
    np.subtract(times[:, 1:], times[:, :-1], out=x[:, 1:])
    np.add(y[:, 1:], y[:, :-1], out=s[:, 1:])
    s[:, 1:] *= x[:, 1:]
    s[:, 0] = 0.0
    np.cumsum(s, axis=1, out=s)
    s *= 0.5
    np.subtract(times, times.sum(axis=1, keepdims=True) / m, out=x)
    s -= s.sum(axis=1, keepdims=True) / m
    sxx, sss, sxs = _row_dot(x, x), _row_dot(s, s), _row_dot(x, s)
    rate = (sxs * _row_dot(x, y) - sxx * _row_dot(s, y)) / (sxx * sss - sxs**2)
    rate = np.where((rate > 0) & (rate < np.inf), rate, 2.0 / times[:, -1])
    # the centred envelope, in s
    np.multiply(times, -rate[:, None], out=s)
    np.exp(s, out=s)
    mean = s.sum(axis=1) / m
    s -= mean[:, None]
    see = _row_dot(s, s)
    amplitude = _row_dot(s, y) / np.where(see > 0, see, 1.0)
    offset = data[:, 0] + y.sum(axis=1) / m - amplitude * mean
    return np.stack([rate, amplitude, offset], axis=1)


class _DecaySums:
    """offset + amplitude*exp(-rate*t) on the rows of (times, data), with
    J^T J and J^T r summed from the analytic Jacobian columns
    (-amplitude*t*e, e, 1), e = exp(-rate*t), without forming J."""

    def __init__(self, times, data):
        self.times, self.data = times, data

    def _rows(self, rows):
        # rows is ascending, so a full set is every row: no copy needed
        if len(rows) == len(self.times):
            return self.times, self.data
        return self.times[rows], self.data[rows]

    def residuals(self, q, rows):
        times, data = self._rows(rows)
        return q[:, 2:3] + q[:, 1:2] * np.exp(-q[:, 0:1] * times) - data

    def normal_equations(self, q, rows):
        times, data = self._rows(rows)
        amplitude = q[:, 1]
        envelope = np.exp(-q[:, 0:1] * times)
        residual = q[:, 2:3] + q[:, 1:2] * envelope - data
        weighted = times * envelope
        normal = np.empty((len(q), 3, 3))
        normal[:, 0, 0] = amplitude**2 * _row_dot(weighted, weighted)
        normal[:, 0, 1] = normal[:, 1, 0] = -amplitude * _row_dot(weighted, envelope)
        normal[:, 0, 2] = normal[:, 2, 0] = -amplitude * weighted.sum(axis=1)
        normal[:, 1, 1] = _row_dot(envelope, envelope)
        normal[:, 1, 2] = normal[:, 2, 1] = envelope.sum(axis=1)
        normal[:, 2, 2] = times.shape[1]
        grad = np.stack([-amplitude * _row_dot(weighted, residual),
                         _row_dot(envelope, residual), residual.sum(axis=1)], axis=1)
        return normal, grad


def fit_decays(times, data) -> Fits:
    """Fit offset + amplitude*exp(-rate*t) to every row of ``data`` at once.

    ``times`` and ``data`` are (n, m); the parameters come in
    ``DECAY_NAMES`` order.
    """
    # matching (n, m) float rows in C order keep every row's sums in one
    # order, whatever the batch
    times = np.ascontiguousarray(np.atleast_2d(times), dtype=float)
    data = np.ascontiguousarray(np.atleast_2d(data), dtype=float)
    if times.shape != data.shape:
        raise ValueError("times and data must have the same shape")
    with np.errstate(all="ignore"):
        start = _decay_start(times, data)
    return _levenberg_marquardt(_DecaySums(times, data), start, DECAY_NAMES)


def linear_fit(x, y) -> FitResult:
    """Ordinary least squares of y = slope*x + intercept with standard errors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise DegenerateDataError("need at least 2 points")
    xbar = float(x.mean())
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise DegenerateDataError("all abscissae are equal")
    ybar = float(y.mean())
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    norm = float(np.linalg.norm(resid))
    n = x.size
    s2 = norm**2 / max(n - 2, 1)
    var_slope = s2 / sxx
    var_intercept = s2 * (1.0 / n + xbar**2 / sxx)
    cov_si = -s2 * xbar / sxx
    cov = np.array([[var_slope, cov_si], [cov_si, var_intercept]])
    return FitResult(
        parameters={"slope": slope, "intercept": intercept},
        covariance=cov,
        param_names=("slope", "intercept"),
    )
