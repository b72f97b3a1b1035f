"""Penalized M-estimators: quantile regression, least squares, sieve least
squares, and the population distance / bias evaluators.

Every fit carries a certified optimality residual.  For the nonsmooth
quantile loss the certificate is the Euclidean distance from zero to the
subdifferential of the objective, with the interval freedom at zero
residuals (and at zero coefficients under the l1 penalty) resolved by a
small box-constrained least-squares problem.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, lsq_linear

from . import _admm
from .errors import (DomainError, NonConvergence, ShapeMismatch,
                     SingularDesign, UnsupportedDesign)
from .sieves import SieveBasis, SieveMomentOracle


# ---------------------------------------------------------------------------
# losses and penalties


@dataclass(frozen=True)
class LossSpec:
    """kind in {"quantile", "abs_half", "squared"}.

    abs_half is t -> 0.5|t|, identical to the quantile loss at tau = 0.5.
    """

    kind: str
    tau: float = 0.5

    def __post_init__(self):
        if self.kind not in ("quantile", "abs_half", "squared"):
            raise DomainError(f"unknown loss {self.kind!r}")
        if self.kind == "quantile" and not (0.0 < self.tau < 1.0):
            raise DomainError("tau must lie in (0, 1)")

    @property
    def effective_tau(self) -> float:
        return 0.5 if self.kind == "abs_half" else self.tau

    def values(self, residuals: np.ndarray) -> np.ndarray:
        r = np.asarray(residuals, dtype=float)
        if self.kind == "squared":
            return r ** 2
        t = self.effective_tau
        return r * (t - (r <= 0))


def quantile_loss(tau: float) -> LossSpec:
    return LossSpec("quantile", tau)


SQUARED = LossSpec("squared")
ABS_HALF = LossSpec("abs_half")


@dataclass(frozen=True)
class PenaltySpec:
    """kind in {"none", "l1", "weighted_l2"}; weighted_l2 uses p_j = j^m."""

    kind: str = "none"
    lam: float = 0.0
    m: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l1", "weighted_l2"):
            raise DomainError(f"unknown penalty {self.kind!r}")
        if self.lam < 0:
            raise DomainError("lambda must be >= 0")
        if self.kind == "weighted_l2" and self.m < 0:
            raise DomainError("m must be >= 0")

    def weights(self, d: int) -> np.ndarray:
        if self.kind == "weighted_l2":
            return np.arange(1, d + 1, dtype=float) ** self.m
        return np.ones(d)

    def value(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        if self.kind == "l1":
            return float(np.abs(theta).sum())
        if self.kind == "weighted_l2":
            return float((self.weights(theta.size) * theta ** 2).sum())
        return 0.0


NO_PENALTY = PenaltySpec("none")


def empirical_criterion(loss: LossSpec, pen: PenaltySpec, data, theta) -> float:
    """(1/n) sum_i loss(y_i - x_i' theta) + lambda * Pen(theta)."""
    X, y = data
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[1] != theta.shape[0]:
        raise ShapeMismatch(f"X {X.shape}, y {y.shape}, theta {theta.shape}")
    res = y - X @ theta
    return float(loss.values(res).mean()) + pen.lam * pen.value(theta)


# ---------------------------------------------------------------------------
# optimality certificates


def subgradient_residual(X, y, theta, tau: float, pen: PenaltySpec,
                         active_tol: float = 1e-7,
                         zero_tol: float = 1e-9) -> float:
    """Set-distance from 0 to the subdifferential of the quantile objective.

    Observations with |residual| <= active_tol contribute a free
    subgradient in [tau-1, tau]; under the l1 penalty, coefficients with
    |theta_j| <= zero_tol contribute a free sign in [-1, 1].  The distance
    is a box-constrained linear least-squares problem.  At a vertex (exactly
    d free columns) it is first tried as the square system; when that
    solution lies in the box it is the minimizer, otherwise bvls decides.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n, d = X.shape
    res = y - X @ theta
    scale = active_tol * (1.0 + float(np.abs(y).max(initial=0.0)))
    act = np.abs(res) <= scale
    sgn = tau - (res <= 0).astype(float)
    base = -(X[~act].T @ sgn[~act]) / n

    A = -X[act].T / n                        # free s_i in [tau-1, tau]
    lo = np.full(A.shape[1], tau - 1.0)
    hi = np.full(A.shape[1], tau)
    if pen.kind == "l1" and pen.lam > 0:
        zero = np.abs(theta) <= zero_tol
        base = base + pen.lam * np.sign(theta) * (~zero)
        A = np.hstack([A, pen.lam * np.eye(d)[:, zero]])   # free signs
        lo = np.r_[lo, np.full(zero.sum(), -1.0)]             # in [-1, 1]
        hi = np.r_[hi, np.full(zero.sum(), 1.0)]
    elif pen.kind == "weighted_l2" and pen.lam > 0:
        base = base + pen.lam * 2.0 * pen.weights(d) * theta

    if A.shape[1] == 0:
        return float(np.linalg.norm(base))
    if A.shape[1] == d:
        try:
            s = np.linalg.solve(A, -base)
        except np.linalg.LinAlgError:
            s = None
        if s is not None and np.all(s >= lo - 1e-12) and np.all(s <= hi + 1e-12):
            return float(np.linalg.norm(A @ s + base))
    sol = lsq_linear(A, -base, bounds=(lo, hi),
                     method="bvls" if A.shape[1] <= 200 else "trf")
    return float(np.linalg.norm(A @ sol.x + base))


def gradient_residual_squared(X, y, theta, pen: PenaltySpec) -> float:
    """Gradient norm of the smooth squared-loss objective."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    g = -2.0 * (X.T @ (y - X @ theta)) / n
    if pen.kind == "weighted_l2" and pen.lam > 0:
        g = g + 2.0 * pen.lam * pen.weights(d) * theta
    elif pen.kind == "l1" and pen.lam > 0:
        # distance to -lam * subdifferential of the l1 norm
        zero = np.abs(theta) <= 1e-9
        g = g + pen.lam * np.sign(theta) * (~zero)
        g[zero] = np.maximum(np.abs(g[zero]) - pen.lam, 0.0) * np.sign(g[zero])
    return float(np.linalg.norm(g))


# ---------------------------------------------------------------------------
# fits


@dataclass(frozen=True)
class Fit:
    theta: np.ndarray
    objective: float
    optimality_residual: float
    iterations: int
    method: str = ""


@dataclass(frozen=True)
class SolverOptions:
    """tol bounds every certificate."""

    tol: float = 1e-6


#: ADMM sweeps of the first round (the exact pivot's warm start), doubled
#: each round on the problems without an exact solver (quantile +
#: weighted-l2, squared + l1) up to _MAX_SWEEPS in total.
_FIRST_SWEEP = 300
_MAX_SWEEPS = 50_000


def fit_penalized_qr(data, tau: float, pen: PenaltySpec = NO_PENALTY,
                     opts: SolverOptions = SolverOptions()) -> Fit:
    """Penalized quantile regression with a certified optimality residual.

    Unpenalized and l1 fits run one ADMM sweep and finish with the exact
    simplex pivot (`method == "simplex"`), the l1 penalty on data augmented
    with the rows +-n lam e_j; when the pivot stalls, the HiGHS LP solves
    the same problem (`"lp"`).  Weighted-l2 fits run ADMM (`"admm"`) until
    the subgradient set-distance is <= opts.tol, up to 50 000 sweeps.  An
    uncertified fit raises NonConvergence.
    """
    X = np.asarray(data[0], dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(data[1], dtype=float)
    if not (0.0 < tau < 1.0):
        raise DomainError("tau must lie in (0, 1)")
    theta, iters, residual, method = _solve_single(X, y, "quantile", tau, pen,
                                                   opts)
    obj = empirical_criterion(quantile_loss(tau), pen, (X, y), theta)
    return Fit(theta=theta, objective=obj, optimality_residual=residual,
               iterations=iters, method=method)


def fit_penalized(data, loss: LossSpec, pen: PenaltySpec = NO_PENALTY,
                  opts: SolverOptions = SolverOptions()) -> Fit:
    """General penalized M-fit.

    Quantile losses go to fit_penalized_qr.  Squared loss with no penalty
    or weighted-l2 is solved in closed form (`method == "closed_form"`),
    squared + l1 by ADMM; the certificate is the plain gradient norm.
    """
    if loss.kind in ("quantile", "abs_half"):
        return fit_penalized_qr(data, loss.effective_tau, pen, opts)
    X = np.asarray(data[0], dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(data[1], dtype=float)
    theta, iters, residual, method = _solve_single(X, y, "squared", 0.5, pen,
                                                   opts)
    obj = empirical_criterion(loss, pen, (X, y), theta)
    return Fit(theta=theta, objective=obj, optimality_residual=residual,
               iterations=iters, method=method)


def _solve_single(X, y, loss_kind, tau, pen, opts):
    """(theta, ADMM sweeps, certificate, method) of one certified fit."""
    n, d = X.shape
    kind = pen.kind if pen.lam > 0 else "none"
    pw = pen.weights(d)
    if loss_kind == "squared" and kind != "l1":
        if kind == "none":
            theta = np.linalg.lstsq(X, y, rcond=None)[0]
        else:
            theta = np.linalg.solve(X.T @ X / n + pen.lam * np.diag(pw),
                                    X.T @ y / n)
        return _certified(X, y, theta, loss_kind, tau, pen, opts, 0,
                          "closed_form")
    Xb = X[None, ...]
    yb = y[None, ...]
    if loss_kind == "quantile" and kind != "weighted_l2":
        # the first ADMM sweep is the warm start of the exact pivot
        state = _admm.admm_batch(Xb, yb, tau=tau, pen_kind=kind, lam=pen.lam,
                                 iters=_FIRST_SWEEP)
        return _finish_exact(X, y, tau, pen, kind, state.theta[0], opts,
                             _FIRST_SWEEP)
    state = None
    iters = 0
    sweep = _FIRST_SWEEP
    best = math.inf
    while iters < _MAX_SWEEPS:
        state = _admm.admm_batch(Xb, yb, loss_kind=loss_kind, tau=tau,
                                 pen_kind=kind, lam=pen.lam, pweights=pw,
                                 iters=sweep, state=state)
        iters += sweep
        residual = _certificate(X, y, state.theta[0], loss_kind, tau, pen)
        if residual <= opts.tol:
            return state.theta[0], iters, residual, "admm"
        best = min(best, residual)
        sweep = min(2 * sweep, _MAX_SWEEPS - iters)
    raise NonConvergence(f"admm fit: residual {best:.3e} > tol "
                         f"{opts.tol:.1e} ({iters} ADMM sweeps)")


def _finish_exact(X, y, tau, pen, kind, theta0, opts, iters):
    """Exact quantile fit from a warm start: the simplex pivot, then the LP
    when the pivot stalls or is not certified."""
    Xs, ys = X, y
    if kind == "l1":
        # rho_tau(c) + rho_tau(-c) = |c|: rows +-n lam e_j with response 0
        # add n lam |theta_j| to the summed loss
        rows = X.shape[0] * pen.lam * np.eye(X.shape[1])
        Xs, ys = np.vstack([X, rows, -rows]), np.r_[y, np.zeros(2 * X.shape[1])]
    theta = _admm.simplex_polish(Xs, ys, theta0, tau)
    if theta is not None:
        residual = subgradient_residual(X, y, theta, tau, pen)
        if residual <= opts.tol:
            return theta, iters, residual, "simplex"
    return _certified(X, y, quantile_lp(Xs, ys, tau), "quantile", tau, pen,
                      opts, iters, "lp")


def _certificate(X, y, theta, loss_kind, tau, pen):
    if loss_kind == "squared":
        return gradient_residual_squared(X, y, theta, pen)
    return subgradient_residual(X, y, theta, tau, pen)


def _certified(X, y, theta, loss_kind, tau, pen, opts, iters, method):
    residual = _certificate(X, y, theta, loss_kind, tau, pen)
    if residual > opts.tol:
        raise NonConvergence(f"{method} fit: residual {residual:.3e} > tol "
                             f"{opts.tol:.1e} ({iters} ADMM sweeps)")
    return theta, iters, residual, method


def quantile_lp(X, y, tau=0.5):
    """Exact unpenalized quantile regression as a linear program (HiGHS):
    X theta + u+ - u- = y with u+, u- >= 0."""
    n, d = X.shape
    c = np.r_[np.zeros(d), np.full(n, tau / n), np.full(n, (1.0 - tau) / n)]
    A = sparse.hstack([sparse.csr_matrix(X), sparse.eye(n), -sparse.eye(n)],
                      format="csc")
    res = linprog(c, A_eq=A, b_eq=y,
                  bounds=[(None, None)] * d + [(0, None)] * (2 * n),
                  method="highs")
    if not res.success:
        raise NonConvergence(f"LP fallback failed: {res.message}")
    return res.x[:d]


def fit_ols(data) -> Fit:
    """Exact least squares by QR; residual is the gradient norm."""
    X = np.asarray(data[0], dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(data[1], dtype=float)
    n, d = X.shape
    theta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < d:
        raise SingularDesign(f"design rank {rank} < {d}")
    obj = empirical_criterion(SQUARED, NO_PENALTY, (X, y), theta)
    residual = gradient_residual_squared(X, y, theta, NO_PENALTY)
    return Fit(theta=theta, objective=obj, optimality_residual=residual,
               iterations=1, method="qr")


def fit_sieve_ls(basis: SieveBasis, w, y) -> Fit:
    """Least squares on the first k basis functions: `fit_ols` on the
    basis design."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    if w.shape[0] != y.shape[0]:
        raise ShapeMismatch("w and y lengths differ")
    if basis.k > w.shape[0]:
        raise DomainError("k must not exceed the sample size")
    return fit_ols((basis.design(w), y))


# ---------------------------------------------------------------------------
# population distances and bias


@dataclass(frozen=True)
class PopulationDesign:
    """Gaussian linear design: covariate second moments and noise variance.

    sigma_x is the d x d second-moment matrix of X; noise_var is the
    variance of the additive noise term (already including any scaling).
    """

    sigma_x: np.ndarray
    noise_var: float
    gaussian: bool = True

    @property
    def d(self) -> int:
        return self.sigma_x.shape[0]


def delta_p(design: PopulationDesign, loss: LossSpec, theta_hat,
            theta_star) -> float:
    """Population criterion distance sqrt(Q(theta) - Q(theta*)).

    Squared loss: the Mahalanobis norm of the displacement under sigma_x.
    Half-absolute loss: via E|N(0, s^2)| = s sqrt(2/pi), so
    delta^2 = 0.5 sqrt(2/pi) (s(theta) - s(theta*)) with
    s(theta)^2 = D' sigma_x D + noise_var.

    `theta_hat` may carry leading replication axes, (R, d) for R fits; the
    result is then an array of that leading shape instead of a float.
    """
    D = np.asarray(theta_hat, dtype=float) - np.asarray(theta_star, dtype=float)
    quad = np.maximum(np.einsum("...i,ij,...j->...", D, design.sigma_x, D), 0.0)
    if loss.kind == "squared":
        out = np.sqrt(quad)
    elif loss.kind == "abs_half" or (loss.kind == "quantile" and loss.tau == 0.5):
        if not design.gaussian:
            raise UnsupportedDesign("analytic path requires Gaussian errors")
        s_hat = np.sqrt(quad + design.noise_var)
        s_star = math.sqrt(design.noise_var)
        out = np.sqrt(0.5 * math.sqrt(2.0 / math.pi) * (s_hat - s_star))
    else:
        raise UnsupportedDesign(f"no analytic population formula for {loss.kind}"
                                f" at tau={getattr(loss, 'tau', None)}")
    return float(out) if out.ndim == 0 else out


def delta_p_mc(sampler, loss: LossSpec, theta_hat, theta_star,
               draws: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo oracle for delta_p: fresh draws of (X, y) from `sampler`.

    Returns (estimate of sqrt(Q(theta)-Q(theta*)), std error of the
    criterion difference).
    """
    rng = np.random.default_rng(seed)
    X, y = sampler(draws, rng)
    diff = loss.values(y - X @ np.asarray(theta_hat)) \
        - loss.values(y - X @ np.asarray(theta_star))
    mean = float(diff.mean())
    se = float(diff.std(ddof=1) / math.sqrt(draws))
    return math.sqrt(max(mean, 0.0)), se


def bias_term(*, oracle: SieveMomentOracle | None = None, k: int | None = None,
              pen: PenaltySpec | None = None, theta_star=None) -> float:
    """The bias entering the concentration rate.

    Sieve branch (oracle + k): the L2(P) distance between theta* and its
    population projection on the k-term space, i.e. sqrt(B_k).
    Penalized linear branch (pen + theta_star): the closed bound
    lambda * Pen(theta*) on B_k itself (the rate uses its square root).
    """
    if oracle is not None:
        if k is None:
            raise DomainError("sieve bias needs k")
        return oracle.bias(k)
    if pen is None or theta_star is None:
        raise DomainError("need either (oracle, k) or (pen, theta_star)")
    return pen.lam * pen.value(np.asarray(theta_star, dtype=float))
