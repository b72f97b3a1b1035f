"""Solvers for penalized M-estimation,

    minimize_theta  (1/n) sum_i loss(y_i - x_i' theta) + lam * Pen(theta).

`simplex_polish` is the exact solver for the quantile loss with no
penalty: the Barrodale-Roberts / Koenker-d'Orey simplex, which pivots
from vertex to vertex (fits interpolating d observations) to the
minimizer.  The l1 penalty reduces to it on data augmented with the rows
+-n lam e_j (response 0), since rho_tau(c) + rho_tau(-c) = |c|.

`admm_batch` serves the problems without an exact solver here (quantile
+ weighted-l2, squared + l1) and the warm start of single fits: ADMM for
a batch of problems r = 1..R on the residual split X theta + r = y (plus
a consensus copy theta = z when a penalty is present), with
over-relaxation and cold start at zero.  Solver state persists across
sweeps so stragglers keep converging instead of restarting.

Optimality of whatever is returned is certified separately (see
estimators.subgradient_residual).
"""

from dataclasses import dataclass

import numpy as np

_PEN_NONE, _PEN_L1 = "none", "l1"


def _prox_loss(v, loss_kind, tau, c):
    """Elementwise prox of loss/(n*rho) at v; c = 1/(n*rho)."""
    if loss_kind == "squared":
        return v / (1.0 + 2.0 * c)
    hi = c * tau
    lo = -c * (1.0 - tau)
    return np.where(v > hi, v - hi, np.where(v < lo, v - lo, 0.0))


def _prox_pen(v, pen_kind, lam_over_rho, pweights):
    if pen_kind == _PEN_NONE or lam_over_rho == 0.0:
        return v
    if pen_kind == _PEN_L1:
        return np.sign(v) * np.maximum(np.abs(v) - lam_over_rho, 0.0)
    return v / (1.0 + 2.0 * lam_over_rho * pweights)


@dataclass
class AdmmState:
    theta: np.ndarray
    r: np.ndarray
    u1: np.ndarray
    z: np.ndarray | None = None
    u2: np.ndarray | None = None


def init_state(R, n, d, penalized) -> AdmmState:
    return AdmmState(theta=np.zeros((R, d)), r=np.zeros((R, n)),
                     u1=np.zeros((R, n)),
                     z=np.zeros((R, d)) if penalized else None,
                     u2=np.zeros((R, d)) if penalized else None)


def admm_batch(X, y, loss_kind="quantile", tau=0.5, pen_kind=_PEN_NONE,
               lam=0.0, pweights=None, rho=1.0, alpha=1.7, iters=300,
               state: AdmmState | None = None) -> AdmmState:
    """Run `iters` ADMM sweeps, continuing from `state` when given."""
    R, n, d = X.shape
    penalized = pen_kind != _PEN_NONE and lam > 0.0
    if state is None:
        state = init_state(R, n, d, penalized)
    G = np.einsum("rij,rik->rjk", X, X)
    if penalized:
        G = G + np.eye(d)
    c = 1.0 / (n * rho)
    lam_over_rho = lam / rho
    pw = np.ones(d) if pweights is None else np.asarray(pweights, dtype=float)
    theta, r, u1, z, u2 = state.theta, state.r, state.u1, state.z, state.u2
    for _ in range(iters):
        rhs = np.einsum("rij,ri->rj", X, y - r - u1)
        if penalized:
            rhs = rhs + (z - u2)
        theta = np.linalg.solve(G, rhs[..., None])[..., 0]
        Xth = np.einsum("rij,rj->ri", X, theta)
        h1 = alpha * Xth + (1.0 - alpha) * (y - r)
        r = _prox_loss(y - h1 - u1, loss_kind, tau, c)
        u1 = u1 + h1 + r - y
        if penalized:
            h2 = alpha * theta + (1.0 - alpha) * z
            z = _prox_pen(h2 + u2, pen_kind, lam_over_rho, pw)
            u2 = u2 + h2 - z
    return AdmmState(theta=theta, r=r, u1=u1, z=z, u2=u2)


def simplex_polish(X, y, theta, tau=0.5):
    """Exact vertex pivoting for unpenalized quantile regression.

    Starts from the basis of the d smallest-|residual| rows at `theta` that
    are linearly independent.  Each pivot solves the dual box condition
    tau - 1 <= s <= tau on the basic rows; on violation it moves along the
    edge that keeps the other basic residuals at zero, with the step chosen
    by the weighted-median rule on the crossing residuals (Barrodale &
    Roberts 1973; Koenker & d'Orey 1987).  Returns the optimal theta, or
    None when pivoting stalls (the caller falls back to the LP).

    Pivoting is capped at n + 10 d pivots: the count grows with the rows
    the path crosses, and a fixed cap (500) stalled l1 fits at n = 10^4,
    d = 50 short of the optimum.
    """
    n, d = X.shape
    ztol = 1e-12 * (1.0 + float(np.abs(y).max(initial=0.0)))
    A = _independent_rows(X, np.argsort(np.abs(y - X @ theta)), d)
    if A is None:
        return None
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[A] = False
    neg = np.zeros(n, dtype=bool)   # side of each nonbasic row on the fit
    for _ in range(n + 10 * d):
        XA = X[A]
        try:
            theta = np.linalg.solve(XA, y[A])
        except np.linalg.LinAlgError:
            return None
        res = y - X @ theta
        # nonbasic rows on the fit (ties, degenerate steps) keep the side
        # they were left on; the others take the side of their residual
        zero = nonbasic & (np.abs(res) <= ztol)
        res[zero] = 0.0
        neg = np.where(zero, neg, res < 0)
        psi = np.where(nonbasic, tau - neg, 0.0)
        try:
            s = np.linalg.solve(XA.T, -(X.T @ psi))
        except np.linalg.LinAlgError:
            return None
        over = s - tau
        under = (tau - 1.0) - s
        viol = np.maximum(over, under)
        jrel = int(np.argmax(viol))
        if viol[jrel] <= 1e-12:
            return theta
        sigma = -1.0 if over[jrel] >= under[jrel] else 1.0
        e = np.zeros(d)
        e[jrel] = 1.0
        g = sigma * (X @ np.linalg.solve(XA, e))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = res / g
        # rows whose residual changes side along the edge; a row on the
        # fit crosses at once when it moves off its side (degenerate step)
        cross = np.flatnonzero(nonbasic & (np.abs(g) > 1e-13)
                               & ((t > 0.0) | (zero & ((g > 0.0) != neg))))
        cross = cross[np.argsort(t[cross], kind="stable")]
        # directional derivative of the objective after each crossing
        deriv0 = (sigma * s[jrel] + (1.0 - tau if sigma > 0 else tau)) / n
        deriv = np.cumsum(np.r_[deriv0, np.abs(g[cross]) / n])[1:]
        stop = np.flatnonzero(deriv >= -1e-15)
        if stop.size == 0:
            return None
        enter = int(cross[stop[0]])
        neg[cross[:stop[0]]] ^= True
        neg[A[jrel]] = sigma > 0
        nonbasic[A[jrel]] = True
        nonbasic[enter] = False
        A[jrel] = enter
    return None


def _independent_rows(X, order, d):
    """The first d rows of X, taken in `order`, that are linearly
    independent (Gram-Schmidt with a relative tolerance); None if fewer."""
    basis = np.empty((d, X.shape[1]))
    rows = []
    for i in order:
        x = X[i]
        v = x - basis[:len(rows)].T @ (basis[:len(rows)] @ x)
        norm = np.linalg.norm(v)
        if norm > 1e-10 * np.linalg.norm(x):
            basis[len(rows)] = v / norm
            rows.append(int(i))
            if len(rows) == d:
                return rows
    return None
