"""Per-region parameter estimation.

Ordinary least squares for regression; damped-Newton maximum likelihood for
the logistic and probit links.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit, log_ndtr, ndtr

from .model import (
    CLASSIFICATION_TASKS,
    TASK_LOGISTIC,
    TASK_PROBIT,
    TASK_REGRESSION,
    Dataset,
    RegionFit,
    SingularFitError,
)

# Newton solver controls.  Damping halves the step until the objective
# decreases; the ridge penalty enters only when the Hessian conditioning
# degrades past COND_LIMIT.
MAX_NEWTON_ITER = 100
NEWTON_TOL = 1e-10
RIDGE = 1e-6
COND_LIMIT = 1e12
DEGENERATE_CLIP = 1e-6


@dataclass
class FitRequest:
    """Rows, variable mask (index 0 = intercept), and task for one region."""

    rows: np.ndarray
    mask: np.ndarray
    task: str

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.rows.size == 0:
            raise ValueError("rows must be nonempty")


def full_design(data: Dataset, rows: np.ndarray) -> np.ndarray:
    """Design matrix ``(1, x_1, .., x_P)`` for the given rows."""
    D = np.empty((rows.size, data.P + 1))
    D[:, 0] = 1.0
    D[:, 1:] = data.X[rows]
    return D


def _cholesky(A: np.ndarray, scale: float = 0.0) -> tuple[np.ndarray | None, float]:
    """Lower Cholesky factor of ``A`` and a pivot-based condition estimate.

    The estimate is ``(max(largest pivot, scale) / smallest pivot)^2``.
    ``scale`` anchors it to the problem's natural scale, so a uniformly
    collapsing matrix (a flat likelihood under separation) still registers as
    ill conditioned.  Returns ``(None, inf)`` when ``A`` is not numerically
    positive definite.  LAPACK is called directly: only the lower triangle
    of the factor is meaningful, which is all ``dpotrs`` reads.
    """
    L, info = dpotrf(A, lower=1, clean=0)
    if info != 0:
        return None, math.inf
    d = L.diagonal().tolist()
    low = min(d)
    if low <= 0:
        return None, math.inf
    return L, (max(max(d), scale) / low) ** 2


def _solve_spd(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve ``G b = c`` for symmetric positive definite ``G``.

    Raises SingularFitError when ``G`` is not numerically positive definite
    or its Cholesky pivots indicate rank deficiency.
    """
    L, cond = _cholesky(G)
    if L is None or cond > COND_LIMIT:
        raise SingularFitError("rank-deficient design")
    return dpotrs(L, c, lower=1)[0]


def fit_ols(data: Dataset, req: FitRequest) -> RegionFit:
    """Least-squares fit of the masked linear model on one region.

    Returns the coefficient vector minimizing the residual sum of squares;
    ``fit_stat`` is that RSS.  Raises SingularFitError when the masked
    design is rank deficient (callers treat such masks as infeasible).
    """
    if req.task != TASK_REGRESSION:
        raise ValueError(f"fit_ols called with task {req.task!r}")
    y = data.y[req.rows]
    s = int(req.mask.sum())
    if s == 0:
        return RegionFit(req.mask, np.empty(0), float(y @ y))
    if req.rows.size < s:
        raise SingularFitError(
            f"{req.rows.size} rows cannot identify {s} coefficients"
        )
    D = full_design(data, req.rows)[:, req.mask]
    beta = _solve_spd(D.T @ D, D.T @ y)
    resid = y - D @ beta
    return RegionFit(req.mask, beta, float(resid @ resid))


# -- Bernoulli log-likelihoods ------------------------------------------


_HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))


def logistic_nll(t: np.ndarray, y: np.ndarray) -> float:
    """Negative log-likelihood of the logit link at linear predictor ``t``.

    Equals ``sum_i [log(1 + exp(t_i)) - y_i t_i]``; with 0/1 responses this
    is ``sum_i log(1 + exp(-sign_i t_i))`` for ``sign = 2y - 1``.
    """
    return float(np.sum(np.logaddexp(0.0, -(2.0 * y - 1.0) * t)))


def probit_nll(t: np.ndarray, y: np.ndarray) -> float:
    """Negative log-likelihood of the probit link, tail-safe."""
    return -float(np.sum(log_ndtr((2.0 * y - 1.0) * t)))


def logistic_grad_hess(D, y, t):
    p = expit(t)
    g = D.T @ (p - y)
    w = p * (1.0 - p)
    H = (D * w[:, None]).T @ D
    return g, H


def _inverse_mills(t: np.ndarray) -> np.ndarray:
    """phi(t) / Phi(t), computed in log space for tail stability."""
    return np.exp(-0.5 * t * t - _HALF_LOG_2PI - log_ndtr(t))


def probit_grad_hess(D, y, t):
    # With u = sign*t and m = phi(u)/Phi(u): d(nll)/dt = -sign*m and
    # d2(nll)/dt2 = m*(m + u), covering both response values at once.
    sign = 2.0 * y - 1.0
    u = sign * t
    m = _inverse_mills(u)
    g = D.T @ (-sign * m)
    w = m * (m + u)
    H = (D * w[:, None]).T @ D
    return g, H


def classification_nll(task: str, t: np.ndarray, y: np.ndarray) -> float:
    if task == TASK_LOGISTIC:
        return logistic_nll(t, y)
    return probit_nll(t, y)


def link_inverse(task: str, t: np.ndarray) -> np.ndarray:
    """Success probability at linear predictor ``t``."""
    if task == TASK_LOGISTIC:
        return expit(t)
    return ndtr(t)


def link_forward(task: str, p: float) -> float:
    """Linear predictor with success probability ``p``."""
    if task == TASK_LOGISTIC:
        return float(np.log(p / (1.0 - p)))
    from scipy.special import ndtri

    return float(ndtri(p))


def _newton_glm(D, y, task, beta0=None):
    """Damped Newton minimization of the masked-region Bernoulli NLL.

    Returns ``(beta, nll, converged, stabilized)``.  A ridge penalty
    ``RIDGE * ||beta||^2`` is added once the Hessian conditioning exceeds
    COND_LIMIT; the reported nll never includes the penalty.
    """
    s = D.shape[1]
    if s == 0:
        return np.empty(0), classification_nll(task, np.zeros(y.size), y), True, False
    grad_hess = logistic_grad_hess if task == TASK_LOGISTIC else probit_grad_hess
    beta = np.zeros(s) if beta0 is None else np.array(beta0, dtype=np.float64)
    penalized = False

    def objective(b, t):
        val = classification_nll(task, t, y)
        if penalized:
            val += RIDGE * float(b @ b)
        return val

    t = D @ beta
    f = objective(beta, t)
    converged = False
    hessian_scale = 0.0
    for it in range(MAX_NEWTON_ITER):
        g, H = grad_hess(D, y, t)
        if it == 0:
            hessian_scale = float(np.sqrt(np.diag(H).max())) if s else 0.0
        if penalized:
            g = g + 2.0 * RIDGE * beta
            H = H + 2.0 * RIDGE * np.eye(s)
        L, cond = _cholesky(H, hessian_scale)
        if not penalized and cond > COND_LIMIT:
            penalized = True
            f = objective(beta, t)
            g = g + 2.0 * RIDGE * beta
            H = H + 2.0 * RIDGE * np.eye(s)
            L, cond = _cholesky(H, hessian_scale)
        if L is None:
            break
        step = dpotrs(L, g, lower=1)[0]
        scale = 1.0
        accepted = False
        for _ in range(40):
            beta_new = beta - scale * step
            t_new = D @ beta_new
            f_new = objective(beta_new, t_new)
            if f_new < f:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            converged = True
            break
        delta = f - f_new
        beta, t, f = beta_new, t_new, f_new
        if delta < NEWTON_TOL:
            converged = True
            break
    return beta, classification_nll(task, t, y), converged, penalized or not converged


def _fit_binary(data: Dataset, req: FitRequest, beta0=None) -> RegionFit:
    y = data.y[req.rows]
    # Single-class regions have no interior MLE: return an intercept-only
    # fit at a clipped success probability.
    if y.size and (y.min() == y.max()):
        p = float(np.clip(y[0], DEGENERATE_CLIP, 1.0 - DEGENERATE_CLIP))
        b0 = link_forward(req.task, p)
        t = np.full(y.size, b0)
        mask = np.zeros(data.P + 1, dtype=bool)
        mask[0] = True
        return RegionFit(
            mask, np.array([b0]), classification_nll(req.task, t, y), stabilized=True
        )
    D = full_design(data, req.rows)[:, req.mask]
    beta, nll, _converged, stabilized = _newton_glm(D, y, req.task, beta0)
    return RegionFit(req.mask, beta, nll, stabilized=stabilized)


def fit_logistic(data: Dataset, req: FitRequest, beta0=None) -> RegionFit:
    """Maximum-likelihood logistic fit on one region.

    ``fit_stat`` is ``-sum_i [y_i x_i'b - log(1 + exp(x_i'b))]``.  Regions
    with an all-0 or all-1 response degenerate to an intercept-only fit at
    a clipped probability; separated or ill-conditioned fits return the
    ridge-stabilized solution flagged ``stabilized``.
    """
    if req.task != TASK_LOGISTIC:
        raise ValueError(f"fit_logistic called with task {req.task!r}")
    return _fit_binary(data, req, beta0)


def fit_probit(data: Dataset, req: FitRequest, beta0=None) -> RegionFit:
    """As :func:`fit_logistic` with the probit link.

    The normal cdf is evaluated through scipy's erfc-based ``ndtr`` and the
    log-probabilities through the tail-safe ``log_ndtr``.
    """
    if req.task != TASK_PROBIT:
        raise ValueError(f"fit_probit called with task {req.task!r}")
    return _fit_binary(data, req, beta0)


def fit_region(data: Dataset, req: FitRequest, beta0=None) -> RegionFit:
    """Dispatch on ``req.task``."""
    if req.task == TASK_REGRESSION:
        return fit_ols(data, req)
    if req.task in CLASSIFICATION_TASKS:
        return _fit_binary(data, req, beta0)
    raise ValueError(f"unknown task {req.task!r}")


class RegionDesign:
    """Cached per-region design for enumerating variable masks.

    Masks are encoded as integers with bit ``i`` selecting design column
    ``i`` (bit 0 = intercept).  For regression the Gram matrix is formed
    once, so each mask costs one small Cholesky solve.
    """

    def __init__(self, data: Dataset, rows: np.ndarray, task: str):
        self.task = task
        self.rows = rows
        self.n_r = int(rows.size)
        self.D = full_design(data, rows)
        self.y = data.y[rows]
        self._cache: dict[int, tuple[np.ndarray, float, bool]] = {}
        if task == TASK_REGRESSION:
            self.G = self.D.T @ self.D
            self.c = self.D.T @ self.y
            self.yty = float(self.y @ self.y)
        self._constant_response = bool(self.y.size) and self.y.min() == self.y.max()

    def fit_mask(self, mask_int: int, cols: np.ndarray, ix: tuple):
        """``(beta, fit_stat, stabilized)`` for a mask, or None if infeasible.

        ``ix`` is ``np.ix_(cols, cols)``, built once per mask by the caller.
        """
        hit = self._cache.get(mask_int)
        if hit is not None or mask_int in self._cache:
            return hit
        result = self._fit_mask(cols, ix)
        self._cache[mask_int] = result
        return result

    def _fit_mask(self, cols: np.ndarray, ix: tuple):
        if self.task == TASK_REGRESSION:
            if cols.size == 0:
                return np.empty(0), self.yty, False
            if cols.size > self.n_r:
                return None
            try:
                beta = _solve_spd(self.G[ix], self.c[cols])
            except SingularFitError:
                return None
            rss = max(self.yty - float(beta @ self.c[cols]), 0.0)
            return beta, rss, False
        if self._constant_response:
            p = float(np.clip(self.y[0], DEGENERATE_CLIP, 1.0 - DEGENERATE_CLIP))
            b0 = link_forward(self.task, p)
            t = np.full(self.n_r, b0)
            nll = classification_nll(self.task, t, self.y)
            return np.array([b0]), nll, True
        beta, nll, _conv, stab = _newton_glm(self.D[:, cols], self.y, self.task)
        return beta, nll, stab
