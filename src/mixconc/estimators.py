"""Penalized M-estimators: quantile regression and least squares, their
certificates, and the population distance.

Every fit carries a certified optimality residual, and every `Fit` is
built by `certified_fit`, which `fit_penalized` and `sieves.family_fits`
(the sieve least-squares fits) both call.  For the squared loss the
certificate is the gradient norm of the objective.  For the nonsmooth
quantile loss it is the Euclidean distance from zero to the
subdifferential of the objective, with the interval freedom at zero
residuals (and at zero coefficients under the l1 penalty) resolved by a
small box-constrained least-squares problem.  Fits and certificates
take a stack of fits of one shape as well as a single fit, so the tables
1-2 study fits a chunk's mean and median regressions in one call each.
This module does not know the sieve bases: `sieves` imports it, not the
other way round.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear

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

    def value(self, theta: np.ndarray):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "l1":
            return np.abs(theta).sum(axis=-1)
        if self.kind == "weighted_l2":
            return (self.weights(theta.shape[-1]) * theta ** 2).sum(axis=-1)
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
    return float(_criterion(loss, pen, y - X @ theta, theta))


def _criterion(loss, pen, res, theta):
    """The objective of each fit from its residuals res = y - X theta."""
    total = loss.values(res).sum(axis=-1)
    return total / res.shape[-1] + pen.lam * pen.value(theta)


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
    the residuals res = y - X theta, per fit of a stack X (R, n, d) (one
    BLAS product each) or of one fit X (n, d)."""
    n, d = X.shape[-2:]
    g = (res[..., None, :] @ X)[..., 0, :] * (-2.0 / n)
    if pen.kind == "weighted_l2" and pen.lam > 0:
        g = g + 2.0 * pen.lam * pen.weights(d) * theta
    elif pen.kind == "l1" and pen.lam > 0:
        # distance to -lam * subdifferential of the l1 norm
        zero = np.abs(theta) <= _ZERO_TOL
        g = g + pen.lam * np.sign(theta) * (~zero)
        g[zero] = np.maximum(np.abs(g[zero]) - pen.lam, 0.0) * np.sign(g[zero])
    return np.sqrt((g[..., None, :] @ g[..., None])[..., 0, 0])


def _least_squares_qr(X, y):
    """The one least-squares factorization, of one fit or a stack: the R
    factor of the QR of [X | y] (X (..., n, d), y (..., n)) and the rank
    of X, the count of diagonal entries of R above eps * n * max|R_ii|.
    At full rank, theta solves R[:d, :d] theta = R[:d, d]."""
    n, d = X.shape[-2:]
    Z = np.empty(X.shape[:-2] + (d + 1, n)).swapaxes(-1, -2)  # LAPACK's order
    Z[..., :d], Z[..., d] = X, y
    R = np.linalg.qr(Z, mode="r")
    pivots = np.abs(np.diagonal(R[..., :d, :d], axis1=-2, axis2=-1))
    small = pivots <= np.finfo(float).eps * n * pivots.max(-1, keepdims=True)
    return R, (~small).sum(axis=-1)


# ---------------------------------------------------------------------------
# fits


@dataclass(frozen=True)
class Fit:
    """A certified fit: optimality_residual <= the solver tol, and method
    names the exact path taken: "simplex", "closed_form" or "active_set".
    Every Fit, also a stack's ((R, d) theta, (R,) other fields), is built
    by `certified_fit`, for `fit_penalized` and `sieves.family_fits`."""

    theta: np.ndarray
    objective: float | np.ndarray
    optimality_residual: float | np.ndarray
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
    `sieves` builds, through `sieves.family_fits`).  X (R, n, d) and y
    (R, n) are a stack of R fits of one shape, solved and certified at
    once into one Fit; a single fit is the stack of one.

    - quantile loss, no penalty or l1: the exact simplex pivot
      (`"simplex"`) through `_finish_exact`, which certifies the stack at
      once.  A stack starts from its least-squares fits (0 where the
      design fails `_least_squares_qr`'s rank rule), a single fit from 300
      ADMM sweeps (`_admm.admm_batch`), and the pivot reaches the same
      vertex.  A pivot that stalls even on a maximal set of independent
      columns leaves the fit uncertified.  The HiGHS LP is the tests'
      independent oracle only;
    - squared loss, no penalty or weighted-l2 (the least squares of
      [y; 0] on [X; (n lam P)^1/2]): closed form by `_least_squares_qr`
      (`"closed_form"`); an unpenalized rank-deficient design raises
      SingularDesign;
    - quantile + weighted-l2 and squared + l1: the exact active-set
      solver (`"active_set"`), for a single fit only (ShapeMismatch).

    The certificate is the subgradient set-distance (quantile loss) or the
    gradient norm (squared loss); `certified_fit` checks it and builds the
    Fit, raising NonConvergence above opts.tol.
    Before any solver runs, X (a 1-D X is one column) must be 2-D or 3-D
    and y of its leading shape, with a row and a column (else
    ShapeMismatch), and finite (else NonFinite).
    """
    X = np.asarray(data[0], dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(data[1], dtype=float)
    if X.ndim not in (2, 3) or y.shape != X.shape[:-1] or not X.size:
        raise ShapeMismatch(f"X {X.shape}, y {y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFinite("fit input has a non-finite entry")
    single = X.ndim == 2
    stack = (X[None], y[None]) if single else (X, y)
    theta, cert, method = _solve(*stack, loss, pen, single)
    if single:
        theta, cert = theta[0], None if cert is None else cert[0]
    return certified_fit(X, y, theta, method, loss, pen, opts.tol, cert)


def fit_penalized_qr(data, tau: float, pen: PenaltySpec = NO_PENALTY,
                     opts: SolverOptions = SolverOptions()) -> Fit:
    """Penalized quantile regression: `fit_penalized` with the quantile
    loss at tau."""
    return fit_penalized(data, quantile_loss(tau), pen, opts)


def fit_ols(data) -> Fit:
    """Least squares: `fit_penalized` with the squared loss and no
    penalty (a QR; a rank-deficient design raises SingularDesign)."""
    return fit_penalized(data, SQUARED)


def _solve(X, y, loss, pen, single):
    """(theta, certificate, method) of a stack of fits, not yet certified;
    a squared-loss fit leaves its certificate (None) to `certified_fit`."""
    R, n, d = X.shape
    kind = pen.kind if pen.lam > 0 else "none"
    if kind == ("l1" if loss.kind == "squared" else "weighted_l2"):
        if not single:
            raise ShapeMismatch(f"the active-set solver takes one fit, not a "
                                f"stack of {R}")
        A, b = X[0], y[0]
        if loss.kind == "squared":   # lam |theta_j| = 2 lam rho_1/2(-theta_j)
            theta = _admm.active_set(2.0 * A.T @ A / n, 2.0 * A.T @ b / n,
                                     np.eye(d), np.zeros(d), 2.0 * pen.lam, 0.5)
            return theta[None], None, "active_set"
        root = pen.weights(d) ** -0.5    # solved for P^(1/2) theta: Q = 2 lam I
        theta = root * _admm.active_set(2.0 * pen.lam * np.eye(d), np.zeros(d),
                                        A * root, b, 1.0 / n, loss.tau)[None]
        return theta, subgradient_residual(X, y, theta, loss.tau, pen), \
            "active_set"
    if loss.kind == "squared" or not single:
        if kind == "weighted_l2":    # [y; 0] on [X; (n lam P)^1/2]
            rows = np.diag(np.sqrt(n * pen.lam * pen.weights(d)))
            X = np.concatenate((X, np.broadcast_to(rows, (R, d, d))), axis=1)
            y = np.concatenate((y, np.zeros((R, d))), axis=1)
        F, rank = _least_squares_qr(X, y)
        full = rank == d
        if loss.kind == "squared" and not full.all():
            bad = np.flatnonzero(~full)
            where = "" if single else f" at stack positions {bad[:5].tolist()}"
            raise SingularDesign(f"design rank {rank[bad[0]]} < {d}{where}")
        theta = np.zeros((R, d))         # 0 where the rank rule fails
        if full.any():
            G = F[full]
            theta[full] = np.linalg.solve(G[:, :d, :d], G[:, :d, d:])[..., 0]
        if loss.kind == "squared":
            return theta, None, "closed_form"
    else:
        # a single fit starts from ADMM only because the benchmark's trace
        # test, perfbench/test_perfbench.py, pins admm.sweeps == 300
        theta = _admm.admm_batch(X, y, loss.tau, iters=300)
    theta, certificate = _finish_exact(X, y, loss.tau, pen, theta)
    return theta, certificate, "simplex"


def _finish_exact(X, y, tau, pen, theta0):
    """Exact quantile fits of a stack of R problems of one shape, X
    (R, n, d) and y (R, n), from the starts theta0 (R, d): one simplex
    pivot call on the whole stack (the l1 penalty as the data rows
    +-n lam e_j), and one `subgradient_residual` call that certifies every
    rep that did not stall, on its full X.  An unpenalized rep whose X has
    fewer than d independent columns stalls at once; it is pivoted again
    on its own, on the first maximal independent column set J, with zeros
    off J (the objective depends on X theta only).  Returns the (R, d)
    thetas and the (R,) certificates; a rep that still stalls (the pivot
    cap, a singular basis) gets certificate inf."""
    R, n, d = X.shape
    Xs, ys = X, y
    l1 = pen.kind == "l1" and pen.lam > 0
    if l1:
        # rho_tau(c) + rho_tau(-c) = |c|: rows +-n lam e_j with response 0
        # add n lam |theta_j| to the summed loss
        rows = np.broadcast_to(n * pen.lam * np.eye(d), (R, d, d))
        Xs = np.concatenate([X, rows, -rows], axis=1)
        ys = np.concatenate([y, np.zeros((R, 2 * d))], axis=1)
    theta, stalled = _admm.simplex_polish(Xs, ys, theta0, tau)
    for r in () if l1 else np.flatnonzero(stalled):
        cols, found = _admm._independent_rows(X[r].T[None],
                                              np.arange(d)[None], d)
        if found[0] == d:                    # full rank: left uncertified
            continue
        J = cols[0, :found[0]]
        theta[r], stalled[r] = 0.0, False    # any theta fits an all-zero X
        if J.size:
            sub, stuck = _admm.simplex_polish(X[r:r + 1, :, J], y[r:r + 1],
                                              theta0[r:r + 1, J], tau)
            theta[r, J], stalled[r] = sub[0], stuck[0]
    certificate = np.full(R, np.inf)
    live = np.flatnonzero(~stalled)
    if live.size:
        part = slice(None) if live.size == R else live   # a view if all
        certificate[part] = subgradient_residual(X[part], y[part],
                                                 theta[part], tau, pen)
    return theta, certificate


def certified_fit(X, y, theta, method: str, loss: LossSpec = SQUARED,
                  pen: PenaltySpec = NO_PENALTY, tol: float = SolverOptions().tol,
                  certificate=None) -> Fit:
    """The one certification and assembly of a fit, or of a stack (3-D X):
    NonConvergence unless every certificate is <= tol, naming how many of
    a stack failed and up to five stack positions, else the Fit of theta.

    The residuals y - X theta are computed once.  The objective comes from
    them, and so does the certificate when none is given (then the loss is
    the squared loss and the certificate its gradient norm)."""
    res = y - (X @ theta[..., None])[..., 0]
    if certificate is None:
        certificate = _squared_gradient(X, res, theta, pen)
    ok = np.asarray(certificate <= tol)
    if not ok.all():
        bad = np.flatnonzero(~ok).tolist()
        where = f" in {len(bad)} of {len(res)} fits, stack positions {bad[:5]}"
        raise NonConvergence(f"{method} fit: residual {np.max(certificate):.3e} "
                             f"> tol {tol:.1e}{where if X.ndim == 3 else ''}")
    objective = _criterion(loss, pen, res, theta)
    if X.ndim == 2:
        objective, certificate = float(objective), float(certificate)
    return Fit(theta, objective, certificate, method)


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
