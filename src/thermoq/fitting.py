"""Shared nonlinear least-squares engine (damped Gauss-Newton).

Levenberg-Marquardt with a fixed, reproducible schedule: Marquardt
scaling of the damping term, damping multiplied by 10 on a rejected
step and divided by 10 on an accepted one, initial damping 1e-3
relative to the diagonal of the normal matrix.  Convergence when the
relative step and the relative residual change are both below 1e-10,
or after 200 trial steps.  Jacobians by forward finite differences
with step max(1e-8, 1e-8*|p|).  Box bounds are supported through a
logistic parameter transform.

``fit_decays`` runs the same schedule on many traces of
offset + amplitude*exp(-rate*t) at once: an analytic Jacobian, damping
and convergence kept per row, and stacked solves, so a long campaign of
short relaxation records is one array computation instead of one fit
per record.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ModelDomainError, RankDeficiencyError

_REL_TOL = 1e-10
_MAX_ITER = 200
_DAMPING_0 = 1e-3
DECAY_NAMES = ("rate", "amplitude", "offset")


@dataclass
class FitResult:
    """Fitted parameters with covariance and convergence diagnostics."""

    parameters: dict[str, float]
    covariance: np.ndarray
    param_names: tuple[str, ...]
    residual_norm: float
    n_iterations: int
    converged: bool
    accepted_residual_norms: tuple[float, ...] = ()

    def stderr(self, name: str) -> float:
        """1-sigma standard error of a named parameter."""
        i = self.param_names.index(name)
        return float(np.sqrt(max(self.covariance[i, i], 0.0)))


def _logistic(q: float) -> float:
    """Overflow-safe logistic: evaluates the saturating branch directly."""
    if q >= 0:
        return 1.0 / (1.0 + math.exp(-min(q, 700.0)))
    eq = math.exp(max(q, -700.0))
    return eq / (1.0 + eq)


class _BoundTransform:
    """Map unbounded internal coordinates to box-bounded parameters.

    p = lo + (hi - lo) * logistic(q) for bounded entries, identity
    otherwise.  Covariances are mapped back by the delta method.
    """

    def __init__(self, bounds, n):
        self.bounds = list(bounds) if bounds is not None else [None] * n
        if len(self.bounds) != n:
            raise ValueError("bounds must have one entry per parameter")

    def to_external(self, q):
        p = np.array(q, dtype=float)
        for i, b in enumerate(self.bounds):
            if b is not None:
                lo, hi = b
                p[i] = lo + (hi - lo) * _logistic(q[i])
        return p

    def to_internal(self, p):
        q = np.array(p, dtype=float)
        for i, b in enumerate(self.bounds):
            if b is not None:
                lo, hi = b
                frac = np.clip((p[i] - lo) / (hi - lo), 1e-10, 1 - 1e-10)
                q[i] = np.log(frac / (1.0 - frac))
        return q

    def jacobian_diag(self, q):
        d = np.ones_like(q)
        for i, b in enumerate(self.bounds):
            if b is not None:
                lo, hi = b
                s = _logistic(q[i])
                d[i] = (hi - lo) * s * (1.0 - s)
        return d


def _finite_difference_jacobian(func, p, r0):
    n, k = r0.size, p.size
    jac = np.empty((n, k))
    for i in range(k):
        step = max(1e-8, 1e-8 * abs(p[i]))
        pi = p.copy()
        pi[i] += step
        ri = func(pi)
        jac[:, i] = (ri - r0) / step
    return jac


def least_squares(model, initial, *, names=None, bounds=None) -> FitResult:
    """Minimize the sum of squared residuals of ``model``.

    ``model(p)`` must return the residual vector.  ``initial`` is the
    starting parameter vector; ``names`` optionally labels the
    parameters; ``bounds`` is an optional per-parameter list of (lo, hi)
    or None.

    Raises RankDeficiencyError when the normal equations are singular
    and ModelDomainError when the model returns non-finite residuals at
    the starting point.
    """
    p0 = np.atleast_1d(np.asarray(initial, dtype=float))
    if not np.all(np.isfinite(p0)):
        raise ModelDomainError("initial parameters must be finite")
    k = p0.size
    if names is None:
        names = tuple(f"p{i}" for i in range(k))
    names = tuple(names)

    transform = _BoundTransform(bounds, k)
    func_q = lambda q: np.atleast_1d(
        np.asarray(model(transform.to_external(q)), dtype=float))

    q = transform.to_internal(p0)
    r = func_q(q)
    if not np.all(np.isfinite(r)):
        raise ModelDomainError("model returned non-finite residuals at the initial point")
    if r.size < k:
        raise RankDeficiencyError(
            f"{r.size} residuals cannot constrain {k} parameters"
        )

    norm = float(np.linalg.norm(r))
    accepted = [norm]
    damping = _DAMPING_0
    converged = False
    n_trials = 0
    jac = None

    while n_trials < _MAX_ITER:
        if jac is None:
            jac = _finite_difference_jacobian(func_q, q, r)
            if not np.all(np.isfinite(jac)):
                raise ModelDomainError("non-finite Jacobian")
            normal = jac.T @ jac
            grad = jac.T @ r
            diag = np.diag(normal).copy()
            if np.any(diag <= 0):
                bad = names[int(np.argmin(diag))]
                raise RankDeficiencyError(
                    f"parameter {bad!r} has no effect on the residuals"
                )
        n_trials += 1
        try:
            step = np.linalg.solve(normal + damping * np.diag(diag), -grad)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError("singular normal equations") from exc
        q_trial = q + step
        r_trial = func_q(q_trial)
        norm_trial = float(np.linalg.norm(r_trial))
        if np.all(np.isfinite(r_trial)) and norm_trial < norm:
            rel_step = np.linalg.norm(step) / max(np.linalg.norm(q), 1e-300)
            rel_dres = abs(norm - norm_trial) / max(norm, 1e-300)
            q, r, norm = q_trial, r_trial, norm_trial
            accepted.append(norm)
            damping = max(damping / 10.0, 1e-300)
            jac = None
            if (rel_step < _REL_TOL and rel_dres < _REL_TOL) or norm == 0.0:
                converged = True
                break
        else:
            damping *= 10.0
            if damping > 1e30:
                # step size has collapsed to nothing: treat as converged
                # to the current point
                converged = True
                break

    # covariance from the Jacobian at the final point
    jac = _finite_difference_jacobian(func_q, q, r)
    normal = jac.T @ jac
    dof = max(r.size - k, 1)
    s2 = norm**2 / dof
    try:
        cov_q = s2 * np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("singular normal equations at the solution") from exc

    g = transform.jacobian_diag(q)
    cov = cov_q * np.outer(g, g)
    p = transform.to_external(q)
    return FitResult(
        parameters=dict(zip(names, map(float, p))),
        covariance=cov,
        param_names=names,
        residual_norm=norm,
        n_iterations=n_trials,
        converged=converged,
        accepted_residual_norms=tuple(accepted),
    )


@dataclass(frozen=True)
class DecayFits:
    """Row-wise fits of offset + amplitude*exp(-rate*t).

    ``parameters`` is (n, 3) in ``DECAY_NAMES`` order and ``covariance``
    is (n, 3, 3).  ``formed`` is False for a row whose fit could not be
    formed (non-finite start, Jacobian or covariance, a parameter with
    no effect, singular normal equations); its other entries are then
    meaningless.
    """

    parameters: np.ndarray
    covariance: np.ndarray
    residual_norm: np.ndarray
    n_iterations: np.ndarray
    converged: np.ndarray
    formed: np.ndarray

    @property
    def rate_err(self) -> np.ndarray:
        """1-sigma standard error of every row's rate."""
        return np.sqrt(np.maximum(self.covariance[:, 0, 0], 0.0))

    def result(self, i: int) -> FitResult:
        """Row ``i`` as a single-fit result."""
        return FitResult(
            parameters=dict(zip(DECAY_NAMES, map(float, self.parameters[i]))),
            covariance=self.covariance[i],
            param_names=DECAY_NAMES,
            residual_norm=float(self.residual_norm[i]),
            n_iterations=int(self.n_iterations[i]),
            converged=bool(self.converged[i]),
        )


def _row_dot(a, b):
    """Dot product of matching rows, without an (n, m) temporary."""
    return np.einsum("ij,ij->i", a, b)


def _decay_start(times, data):
    """Log-linear slope of the part above 5 % of each row's maximum.

    Falls back to 2/span where fewer than 3 points qualify or the slope
    is not negative; amplitude and offset start from the first point and
    the minimum.
    """
    offset = data.min(axis=1)
    decaying = data - offset[:, None]
    sel = decaying > np.maximum(decaying.max(axis=1) * 0.05, 1e-12)[:, None]
    count = sel.sum(axis=1)
    n = np.maximum(count, 1)[:, None]
    # centred abscissae and log ordinates of the selected points, 0 elsewhere
    x = np.where(sel, times, 0.0)
    y = np.log(decaying, where=sel, out=np.zeros_like(decaying))
    np.subtract(x, x.sum(axis=1, keepdims=True) / n, out=x, where=sel)
    np.subtract(y, y.sum(axis=1, keepdims=True) / n, out=y, where=sel)
    sxx = _row_dot(x, x)
    slope = _row_dot(x, y) / np.where(sxx > 0, sxx, 1.0)
    use_slope = (count >= 3) & (sxx > 0) & (slope < 0)
    rate = np.where(use_slope, -slope, 2.0 / times[:, -1])
    return np.stack([rate, data[:, 0] - offset, offset], axis=1)


def _decay_norm(q, times, data):
    """Residual norm of every row at parameters ``q``."""
    return np.linalg.norm(
        q[:, 2:3] + q[:, 1:2] * np.exp(-q[:, 0:1] * times) - data, axis=1)


def _decay_normal_equations(q, times, data):
    """J^T J and J^T r of every row, from the analytic Jacobian columns
    (-amplitude*t*e, e, 1) with e = exp(-rate*t), without forming J."""
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


def _keep(mask, *arrays):
    """The rows of each array where ``mask`` holds; no copy when all do."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


def fit_decays(times, data) -> DecayFits:
    """Fit offset + amplitude*exp(-rate*t) to every row of ``data`` at once.

    ``times`` and ``data`` are (n, m).  Each row follows the schedule of
    ``least_squares``, with the analytic Jacobian in place of finite
    differences; rows stop independently, and a stopped row leaves the
    working set.  A row whose fit cannot be formed is flagged in
    ``formed`` instead of raising, so one bad trace does not stop the
    others.
    """
    # C order keeps every row's sums in one order, whatever the batch
    times = np.ascontiguousarray(np.atleast_2d(times), dtype=float)
    data = np.ascontiguousarray(np.atleast_2d(data), dtype=float)
    if times.shape != data.shape:
        raise ValueError("times and data must have the same shape")
    n, m = data.shape
    k = len(DECAY_NAMES)
    if m < k:
        raise RankDeficiencyError(f"{m} residuals cannot constrain {k} parameters")

    with np.errstate(all="ignore"):
        q = _decay_start(times, data)
        norm = _decay_norm(q, times, data)
        formed = np.all(np.isfinite(q), axis=1) & np.isfinite(norm)
        damping = np.full(n, _DAMPING_0)
        converged = np.zeros(n, dtype=bool)
        n_trials = np.zeros(n, dtype=int)
        rows, t, y = _keep(formed, np.arange(n), times, data)
        for _ in range(_MAX_ITER):
            if rows.size == 0:
                break
            n_trials[rows] += 1
            normal, grad = _decay_normal_equations(q[rows], t, y)
            diag = np.diagonal(normal, axis1=1, axis2=2)
            usable = (np.all(np.isfinite(normal), axis=(1, 2))
                      & np.all(diag > 0, axis=1))
            lhs = normal + damping[rows, None, None] * (diag[:, :, None] * np.eye(k))
            lhs[~usable] = np.eye(k)
            step, singular = _stacked(np.linalg.solve, lhs, -grad[:, :, None])
            failed = ~usable | singular
            formed[rows[failed]] = False
            step = step[:, :, 0]
            q_trial = q[rows] + step
            norm_trial = _decay_norm(q_trial, t, y)
            norm_old = norm[rows]
            # a non-finite trial residual has a NaN or infinite norm
            accept = ~failed & (norm_trial < norm_old)
            rel_step = (np.linalg.norm(step, axis=1)
                        / np.maximum(np.linalg.norm(q[rows], axis=1), 1e-300))
            rel_dres = np.abs(norm_old - norm_trial) / np.maximum(norm_old, 1e-300)
            done = accept & (((rel_step < _REL_TOL) & (rel_dres < _REL_TOL))
                             | (norm_trial == 0.0))
            moved = rows[accept]
            q[moved], norm[moved] = q_trial[accept], norm_trial[accept]
            damping[moved] = np.maximum(damping[moved] / 10.0, 1e-300)
            rejected = ~failed & ~accept
            damping[rows[rejected]] *= 10.0
            # a step size collapsed to nothing counts as converged to
            # the current point, as in least_squares
            done |= rejected & (damping[rows] > 1e30)
            converged[rows[done]] = True
            rows, t, y = _keep(~(failed | done), rows, t, y)

        # covariance from the Jacobian at the final point
        rows, t, y = _keep(formed, np.arange(n), times, data)
        inverse, _ = _stacked(np.linalg.inv, _decay_normal_equations(q[rows], t, y)[0])
        covariance = np.full((n, k, k), np.nan)
        covariance[rows] = (norm[rows] ** 2 / max(m - k, 1))[:, None, None] * inverse
        formed &= np.all(np.isfinite(covariance), axis=(1, 2))
    return DecayFits(parameters=q, covariance=covariance, residual_norm=norm,
                     n_iterations=n_trials, converged=converged, formed=formed)


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
        residual_norm=norm,
        n_iterations=0,
        converged=True,
    )
