"""Penalized M-estimators: quantile regression and least squares, their
certificates, and the population distance.

Every fit carries a certified optimality residual, and every `Fit` is
built by `certified_fit`, which `fit_penalized` and `sieves.family_fits`
(the sieve least-squares fits) both call.  For the squared loss the
certificate is the gradient norm of the objective.  For the nonsmooth
quantile loss it is the Euclidean distance from zero to the
subdifferential of the objective, with the interval freedom at zero
residuals (and at zero coefficients under the l1 penalty) resolved by a
small box-constrained least-squares problem.  Both certificates take a
stack of fits of one shape as well as a single fit, so the tables 1-2
study certifies a chunk's median fits, and its mean fits, in one call
each.  This module does not know the sieve bases: `sieves` imports it,
not the other way round.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, lsq_linear

from . import _admm
from .errors import (DomainError, NonConvergence, NonFinite,
                     ShapeMismatch, SingularDesign, UnsupportedDesign)


# ---------------------------------------------------------------------------
# losses and penalties


@dataclass(frozen=True)
class LossSpec:
    """kind in {"quantile", "squared"}; tau is read by the quantile loss
    only.  The median loss t -> 0.5|t| is the quantile loss at tau = 0.5
    (`ABS_HALF`).
    """

    kind: str
    tau: float = 0.5

    def __post_init__(self):
        if self.kind not in ("quantile", "squared"):
            raise DomainError(f"unknown loss {self.kind!r}")
        if self.kind == "quantile" and not (0.0 < self.tau < 1.0):
            raise DomainError("tau must lie in (0, 1)")

    def values(self, residuals: np.ndarray) -> np.ndarray:
        r = np.asarray(residuals, dtype=float)
        if self.kind == "squared":
            return r ** 2
        return r * (self.tau - (r <= 0))


def quantile_loss(tau: float) -> LossSpec:
    return LossSpec("quantile", tau)


SQUARED = LossSpec("squared")
ABS_HALF = quantile_loss(0.5)


@dataclass(frozen=True)
class PenaltySpec:
    """kind in {"none", "l1", "weighted_l2"}; weighted_l2 uses p_j = j^m."""

    kind: str = "none"
    lam: float = 0.0
    m: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l1", "weighted_l2"):
            raise DomainError(f"unknown penalty {self.kind!r}")
        if not (0 <= self.lam < math.inf and math.isfinite(self.m)):
            raise DomainError("lambda and m must be finite, lambda >= 0")
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
    return _criterion(loss, pen, y - X @ theta, theta)


def _criterion(loss, pen, res, theta) -> float:
    """The objective from the residuals res = y - X theta."""
    # the mean squared residual as one dot product
    total = res.dot(res) if loss.kind == "squared" else loss.values(res).sum()
    return float(total) / res.size + pen.lam * pen.value(theta)


# ---------------------------------------------------------------------------
# optimality certificates

#: An observation with |residual| <= _ACTIVE_TOL * (1 + max|y|) is
#: interpolated; a coefficient with |theta_j| <= _ZERO_TOL is a zero of the
#: l1 penalty.
_ACTIVE_TOL = 1e-7
_ZERO_TOL = 1e-9


def subgradient_residual(X, y, theta, tau: float, pen: PenaltySpec):
    """Set-distance from 0 to the subdifferential of the quantile objective.

    Interpolated observations (see _ACTIVE_TOL) contribute a free
    subgradient in [tau-1, tau]; under the l1 penalty, zero coefficients
    (see _ZERO_TOL) contribute a free sign in [-1, 1].  The distance
    is a box-constrained linear least-squares problem.

    X (R, n, d), y (R, n) and theta (R, d) certify a stack of R fits of
    one shape and return the (R,) distances; a 2-D X (one fit) returns a
    float, the same value as the stack of one.  One pass over the stack
    finds the residuals, the interpolated rows, the zero coefficients and
    the fixed part of the subgradient.  Every rep with exactly d free
    columns (a vertex) solves its square system in one batched solve; when
    that solution lies in the box it is the minimizer.  A rep with no free
    column reads the norm of the fixed part, and every other rep goes to
    bvls on its own.  Only (X, y, theta) are read, never a solver's dual.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    single = X.ndim == 2
    if single:
        X, y, theta = X[None], y[None], theta[None]
    R, n, d = X.shape
    res = y - (X @ theta[..., None])[..., 0]
    scale = _ACTIVE_TOL * (1.0 + np.abs(y).max(axis=1, initial=0.0))
    act = np.abs(res) <= scale[:, None]
    sgn = np.where(res > 0, tau, tau - 1.0)
    sgn[act] = 0.0
    base = (sgn[:, None] @ X)[:, 0] / -n
    free = act.sum(axis=1)
    lo, hi, zero = tau - 1.0, tau, None
    if pen.kind == "l1" and pen.lam > 0:
        zero = np.abs(theta) <= _ZERO_TOL
        base = base + pen.lam * np.sign(theta) * (~zero)
        free += zero.sum(axis=1)
        act = np.hstack([act, zero])     # free column n + j: the sign of j
    elif pen.kind == "weighted_l2" and pen.lam > 0:
        base = base + pen.lam * 2.0 * pen.weights(d) * theta
    # the free columns: -x_i / n of each interpolated row i, in [tau-1, tau],
    # then lam e_j of each zero coefficient j (l1), in [-1, 1]; grad is the
    # subgradient nearest zero
    grad = base.copy()
    square = np.flatnonzero(free == d)
    boxed = np.flatnonzero((free != d) & (free != 0))
    if square.size:
        cols = np.nonzero(act[square])[1].reshape(-1, d)   # ascending
        rows = cols if zero is None else np.minimum(cols, n - 1)
        A = X[square[:, None], rows].transpose(0, 2, 1) / -n
        if zero is not None:
            coef = cols >= n                 # the sign columns
            A.transpose(0, 2, 1)[coef] = pen.lam * np.eye(d)[cols[coef] - n]
            lo, hi = np.where(coef, -1.0, lo), np.where(coef, 1.0, hi)
        b = base[square]
        s = _admm._solve_stack(A, -b)        # nan when singular
        # a rep whose s leaves the box is done again by bvls below
        grad[square] = (A @ s[..., None])[..., 0] + b
        inside = ((s >= lo - 1e-12) & (s <= hi + 1e-12)).all(axis=1)
        if not inside.all():
            boxed = np.r_[boxed, square[~inside]]
    for r in boxed:
        A = X[r, act[r, :n]].T / -n
        signs = free[r] - A.shape[1]
        lo = np.r_[np.full(A.shape[1], tau - 1.0), np.full(signs, -1.0)]
        hi = np.r_[np.full(A.shape[1], tau), np.full(signs, 1.0)]
        if zero is not None:
            A = np.hstack([A, pen.lam * np.eye(d)[:, zero[r]]])
        sol = lsq_linear(A, -base[r], bounds=(lo, hi), method="bvls")
        grad[r] = A @ sol.x + base[r]
    out = np.sqrt((grad[:, None] @ grad[..., None])[:, 0, 0])
    return float(out[0]) if single else out


def _squared_gradient(X, res, theta, pen):
    """Gradient norm of the smooth squared-loss objective at theta, from
    the residuals res = y - X theta.  X (R, n, d), res (R, n) and theta
    (R, d) give the (R,) norms of a stack of R fits, one BLAS dot product
    per rep; a 2-D X gives a float."""
    if X.ndim == 2:
        n, d = X.shape
        g = X.T @ res
    else:
        n, d = X.shape[1:]
        g = (res[:, None] @ X)[:, 0]
    if pen.kind == "none" or not pen.lam > 0:
        if g.ndim == 1:
            return 2.0 * math.sqrt(g.dot(g)) / n      # the norm of -2 g / n
        return 2.0 * np.sqrt((g[:, None] @ g[..., None])[:, 0, 0]) / n
    g = -2.0 * g / n
    if pen.kind == "weighted_l2":
        g = g + 2.0 * pen.lam * pen.weights(d) * theta
    else:
        # distance to -lam * subdifferential of the l1 norm
        zero = np.abs(theta) <= _ZERO_TOL
        g = g + pen.lam * np.sign(theta) * (~zero)
        g[zero] = np.maximum(np.abs(g[zero]) - pen.lam, 0.0) * np.sign(g[zero])
    if g.ndim == 1:
        return math.sqrt(g.dot(g))
    return np.sqrt((g[:, None] @ g[..., None])[:, 0, 0])


# ---------------------------------------------------------------------------
# fits


@dataclass(frozen=True)
class Fit:
    """A certified fit: optimality_residual <= the solver tol, and method
    names the exact path taken: "simplex", "lp", "closed_form" or
    "active_set".  Every Fit is built by `certified_fit`, for
    `fit_penalized` and for the sieve fits of `sieves.family_fits` alike."""

    theta: np.ndarray
    objective: float
    optimality_residual: float
    method: str


@dataclass(frozen=True)
class SolverOptions:
    """tol, in (0, inf), bounds every certificate."""

    tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise DomainError("tol must lie in (0, inf)")


def fit_penalized(data, loss: LossSpec, pen: PenaltySpec = NO_PENALTY,
                  opts: SolverOptions = SolverOptions()) -> Fit:
    """Penalized M-fit with a certified optimality residual; every public
    fit of a given design goes through here (the sieve fits, whose designs
    `sieves` builds, through `sieves.family_fits`).

    - quantile loss, no penalty or l1: 300 unpenalized ADMM sweeps
      (`_admm.admm_batch`, O(n d) each over one projection formed before
      them, a pseudo-inverse when X'X is singular) warm-start the exact
      simplex pivot (`method == "simplex"`), the l1 penalty as data
      augmented with the rows +-n lam e_j, through `_finish_exact` as a
      stack of one (the tables 1-2 study passes it a chunk of reps), which
      certifies the stack with one `subgradient_residual` call; when the
      pivot stalls (a rank-deficient unpenalized design does) or its
      certificate exceeds tol, the HiGHS LP solves the same problem
      (`"lp"`), and an LP that fails leaves the fit uncertified
      (NonConvergence).  The pivot reaches the same vertex from a
      least-squares start; the sweeps stay while the benchmark's trace
      counts them;
    - squared loss, no penalty or weighted-l2: closed form
      (`"closed_form"`); an unpenalized rank-deficient design raises
      SingularDesign;
    - quantile + weighted-l2 and squared + l1: the exact active-set
      solver (`"active_set"`).

    The certificate is the subgradient set-distance (quantile loss) or the
    gradient norm (squared loss); `certified_fit` checks it and builds the
    Fit, raising NonConvergence above opts.tol.
    Before any solver runs, X (a 1-D X is one column) and y must be 2-D
    and 1-D with as many rows as entries, at least one row and one column
    (else ShapeMismatch), and finite (else NonFinite).
    """
    X = np.asarray(data[0], dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(data[1], dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or not X.size:
        raise ShapeMismatch(f"X {X.shape}, y {y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFinite("fit input has a non-finite entry")
    theta, certificate, method = _solve(X, y, loss, pen, opts.tol)
    return certified_fit(X, y, theta, method, loss, pen, opts.tol, certificate)


def fit_penalized_qr(data, tau: float, pen: PenaltySpec = NO_PENALTY,
                     opts: SolverOptions = SolverOptions()) -> Fit:
    """Penalized quantile regression: `fit_penalized` with the quantile
    loss at tau."""
    return fit_penalized(data, quantile_loss(tau), pen, opts)


def fit_ols(data) -> Fit:
    """Least squares: `fit_penalized` with the squared loss and no
    penalty (`lstsq`; a rank-deficient design raises SingularDesign)."""
    return fit_penalized(data, SQUARED)


def _solve(X, y, loss, pen, tol):
    """(theta, certificate, method) of one fit, not yet certified; a
    squared-loss fit leaves its certificate (None) to `certified_fit`."""
    n, d = X.shape
    kind = pen.kind if pen.lam > 0 else "none"
    if loss.kind == "squared" and kind != "l1":
        if kind == "none":
            theta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
            if rank < d:
                raise SingularDesign(f"design rank {rank} < {d}")
        else:
            P = np.diag(pen.weights(d))
            theta = np.linalg.solve(X.T @ X / n + pen.lam * P, X.T @ y / n)
        return theta, None, "closed_form"
    tau = loss.tau
    if loss.kind != "squared" and kind != "weighted_l2":
        # 300 ADMM sweeps are the warm start of the exact pivot
        start = _admm.admm_batch(X[None], y[None], tau, iters=300)
        theta, certificate, method = _finish_exact(X[None], y[None], tau, pen,
                                                   start, tol)
        return theta[0], certificate[0], method[0]
    if loss.kind == "squared":       # lam |theta_j| = 2 lam rho_1/2(-theta_j)
        theta = _admm.active_set(2.0 * X.T @ X / n, 2.0 * X.T @ y / n,
                                 np.eye(d), np.zeros(d), 2.0 * pen.lam, 0.5)
        return theta, None, "active_set"
    root = pen.weights(d) ** -0.5    # solved for P^(1/2) theta: Q = 2 lam I
    theta = root * _admm.active_set(2.0 * pen.lam * np.eye(d), np.zeros(d),
                                    X * root, y, 1.0 / n, tau)
    return theta, subgradient_residual(X, y, theta, tau, pen), "active_set"


def _finish_exact(X, y, tau, pen, theta0, tol):
    """Exact quantile fits of a stack of R problems of one shape, X
    (R, n, d) and y (R, n), from the warm starts theta0 (R, d).

    Every rep gets the l1 penalty's augmented rows.  One simplex pivot
    call steps the whole stack, so the caller bounds its memory: a single
    fit is R = 1, and a tables 1-2 chunk is at most
    max(1, _admm.SLICE_ROWS // n) reps.  One `subgradient_residual` call
    certifies every rep whose pivot did not stall, the whole stack at
    once.  A rep whose pivot stalls or whose certificate exceeds tol goes
    to the LP on its own, and its LP fit is certified on its own.
    Returns the (R, d) thetas, the (R,) certificates and the R methods
    ("simplex" or "lp"); a rep whose LP fails is returned uncertified
    (certificate inf) instead of raising, so one bad rep does not end a
    batch."""
    R, n, d = X.shape
    Xs, ys = X, y
    if pen.kind == "l1" and pen.lam > 0:
        # rho_tau(c) + rho_tau(-c) = |c|: rows +-n lam e_j with response 0
        # add n lam |theta_j| to the summed loss
        rows = np.broadcast_to(n * pen.lam * np.eye(d), (R, d, d))
        Xs = np.concatenate([X, rows, -rows], axis=1)
        ys = np.concatenate([y, np.zeros((R, 2 * d))], axis=1)
    theta, stalled = _admm.simplex_polish(Xs, ys, theta0, tau)
    certificate, method = np.full(R, np.inf), ["simplex"] * R
    live = np.flatnonzero(~stalled)
    if live.size:
        part = slice(None) if live.size == R else live   # a view if all
        certificate[part] = subgradient_residual(X[part], y[part],
                                                 theta[part], tau, pen)
    for r in np.flatnonzero(~(certificate <= tol)):
        method[r] = "lp"
        try:
            theta[r] = quantile_lp(Xs[r], ys[r], tau)
        except NonConvergence:
            certificate[r] = np.inf          # this rep only: uncertified
            continue
        certificate[r] = subgradient_residual(X[r], y[r], theta[r], tau, pen)
    return theta, certificate, method


def certified_fit(X, y, theta, method: str, loss: LossSpec = SQUARED,
                  pen: PenaltySpec = NO_PENALTY, tol: float = SolverOptions().tol,
                  certificate: float | None = None) -> Fit:
    """The one certification and assembly of a fit: NonConvergence unless
    the certificate is <= tol, else the Fit of theta.

    The residuals y - X theta are computed once.  The objective comes from
    them, and so does the certificate when none is given (then the loss is
    the squared loss and the certificate its gradient norm)."""
    res = y - X @ theta
    if certificate is None:
        certificate = _squared_gradient(X, res, theta, pen)
    if not certificate <= tol:
        raise NonConvergence(f"{method} fit: residual {certificate:.3e} > tol "
                             f"{tol:.1e}")
    return Fit(theta=theta, objective=_criterion(loss, pen, res, theta),
               optimality_residual=certificate, method=method)


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


# ---------------------------------------------------------------------------
# population distances


@dataclass(frozen=True)
class PopulationDesign:
    """Gaussian linear design: covariate second moments and noise variance.

    sigma_x is the d x d second-moment matrix of X; noise_var is the
    variance of the additive noise term (already including any scaling).
    """

    sigma_x: np.ndarray
    noise_var: float

    @property
    def d(self) -> int:
        return self.sigma_x.shape[0]


def delta_p(design: PopulationDesign, loss: LossSpec, theta_hat,
            theta_star) -> float:
    """Population criterion distance sqrt(Q(theta) - Q(theta*)).

    Squared loss: the Mahalanobis norm of the displacement under sigma_x.
    Median loss (quantile at tau = 0.5): via E|N(0, s^2)| = s sqrt(2/pi), so
    delta^2 = 0.5 sqrt(2/pi) (s(theta) - s(theta*)) with
    s(theta)^2 = D' sigma_x D + noise_var.

    `theta_hat` may carry leading replication axes, (R, d) for R fits; the
    result is then an array of that leading shape instead of a float.
    """
    D = np.asarray(theta_hat, dtype=float) - np.asarray(theta_star, dtype=float)
    quad = np.maximum(np.einsum("...i,ij,...j->...", D, design.sigma_x, D), 0.0)
    if loss.kind == "squared":
        out = np.sqrt(quad)
    elif loss.kind == "quantile" and loss.tau == 0.5:
        s_hat = np.sqrt(quad + design.noise_var)
        s_star = math.sqrt(design.noise_var)
        out = np.sqrt(0.5 * math.sqrt(2.0 / math.pi) * (s_hat - s_star))
    else:
        raise UnsupportedDesign(f"no analytic population formula for {loss.kind}"
                                f" at tau={loss.tau}")
    return float(out) if out.ndim == 0 else out


def delta_p_mc(sampler, loss: LossSpec, theta_hat, theta_star,
               draws: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo oracle for delta_p: fresh draws of (X, y) from `sampler`.

    Returns (estimate of sqrt(Q(theta)-Q(theta*)), std error of the
    criterion difference).

    Test oracle only, the independent check of `delta_p` in
    tests/test_estimators.py::test_delta_p_median_matches_mc_oracle.
    """
    rng = np.random.default_rng(seed)
    X, y = sampler(draws, rng)
    diff = loss.values(y - X @ np.asarray(theta_hat)) \
        - loss.values(y - X @ np.asarray(theta_star))
    mean = float(diff.mean())
    se = float(diff.std(ddof=1) / math.sqrt(draws))
    return math.sqrt(max(mean, 0.0)), se
