"""Solvers for penalized M-estimation,

    minimize_theta  (1/n) sum_i loss(y_i - x_i' theta) + lam * Pen(theta).

`simplex_polish` is the exact solver for the quantile loss with no
penalty: the Barrodale-Roberts / Koenker-d'Orey simplex, which pivots
from vertex to vertex (fits interpolating d observations) to the
minimizer.  The l1 penalty reduces to it on data augmented with the rows
+-n lam e_j (response 0), since rho_tau(c) + rho_tau(-c) = |c|.  It
pivots a stack of R problems of one shape at once, X (R, n, d), y (R, n)
and starts (R, d), and returns the (R, d) solutions with an (R,) mask of
the reps that stalled; a single fit is R = 1.  Its memory grows with
R n, so callers walk a larger stack in slices of max(1, SLICE_ROWS // n)
reps.

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


#: simplex_polish holds a few R x n arrays per call; callers pass it
#: slices of max(1, SLICE_ROWS // n) reps, about 256 KiB per array.
SLICE_ROWS = 2 ** 15


def simplex_polish(X, y, theta, tau=0.5):
    """Exact vertex pivoting for a stack of unpenalized quantile regressions.

    X is (R, n, d), y (R, n) and theta (R, d): R problems of one shape,
    pivoted together.  Returns (theta, stalled): the optimal (R, d) thetas
    and an (R,) mask of the reps whose pivoting stalled; a stalled rep
    keeps its starting theta (the caller falls back to the LP).  A single
    fit is R = 1.  Every array here is R x n or smaller, so a caller holds
    memory to a bound by passing slices of SLICE_ROWS // n reps.

    Each rep starts from the basis of the d smallest-|residual| rows at its
    theta that are linearly independent.  Each pivot solves the dual box
    condition tau - 1 <= s <= tau on the basic rows; on violation it moves
    along the edge that keeps the other basic residuals at zero, with the
    step chosen by the weighted-median rule on the crossing residuals
    (Barrodale & Roberts 1973; Koenker & d'Orey 1987).  One pivot steps
    every rep still active with stacked solves, an argsort and a cumsum
    along the rows; the arithmetic of each rep is that of pivoting it
    alone.  A rep leaves the active set when it is optimal or stalls, and
    the stack is compacted only then.

    Pivoting is capped at n + 10 d pivots: the count grows with the rows
    the path crosses, and a fixed cap (500) stalled l1 fits at n = 10^4,
    d = 50 short of the optimum.
    """
    n, d = X.shape[1:]
    theta = np.array(theta, dtype=float)
    res = y - (X @ theta[..., None])[..., 0]
    A, stalled = _independent_rows(X, np.argsort(np.abs(res), axis=1), d)
    ids = np.flatnonzero(~stalled)           # the reps still pivoting
    X, y, A = X[ids], y[ids], A[ids]
    ztol = 1e-12 * (1.0 + np.abs(y).max(axis=1, initial=0.0))[:, None]
    rows = np.arange(ids.size)
    col = rows[:, None]
    nonbasic = np.ones((ids.size, n), dtype=bool)
    nonbasic[col, A] = False
    neg = np.zeros((ids.size, n), dtype=bool)   # side of each nonbasic row
    ranks, eye = np.arange(n), np.eye(d)
    for _ in range(n + 10 * d):
        if not ids.size:
            break
        XA = X[col, A]
        th = _solve_stack(XA, y[col, A])
        res = y - (X @ th[..., None])[..., 0]
        # nonbasic rows on the fit (ties, degenerate steps) keep the side
        # they were left on; the others take the side of their residual
        zero = nonbasic & (np.abs(res) <= ztol)
        res[zero] = 0.0
        neg = (res < 0) | (zero & neg)
        psi = tau - neg
        psi[col, A] = 0.0
        s = _solve_stack(XA.transpose(0, 2, 1), -(psi[:, None] @ X)[:, 0])
        over = s - tau
        under = (tau - 1.0) - s
        viol = np.maximum(over, under)
        j = np.argmax(viol, axis=1)
        done = (viol[rows, j] <= 1e-12) & np.isfinite(th).all(axis=1)
        sigma = np.where(over[rows, j] >= under[rows, j], -1.0, 1.0)
        w = _solve_stack(XA, eye[j])         # the edge: XA w = e_j
        g = sigma[:, None] * (X @ w[..., None])[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = res / g
        # rows whose residual changes side along the edge; a row on the
        # fit crosses at once when it moves off its side (degenerate step)
        cross = nonbasic & (np.abs(g) > 1e-13) \
            & ((t > 0.0) | (zero & ((g > 0.0) != neg)))
        # only crossing rows can enter: the first ncross ranks of a rep
        ncross = cross.sum(axis=1)
        order = np.argsort(np.where(cross, t, np.inf), axis=1,
                           kind="stable")[:, :max(1, ncross.max())]
        # directional derivative of the objective after each crossing:
        # deriv0 plus the running sum of |g| / n in crossing order
        deriv = np.abs(g[col, order]) / n
        deriv[:, 0] += (sigma * s[rows, j]
                        + np.where(sigma > 0, 1.0 - tau, tau)) / n
        deriv = np.cumsum(deriv, axis=1)
        past = (deriv >= -1e-15) & (ranks[:order.shape[1]] < ncross[:, None])
        k = np.argmax(past, axis=1)          # the entering row's rank
        stuck = ~done & ~past[rows, k]       # stalled (a singular basis too)
        enter = order[rows, k]
        # the rows crossed before the entering one change side
        te = t[rows, enter][:, None]
        neg ^= cross & ((t < te) | ((t == te) & (ranks < enter[:, None])))
        leave = A[rows, j]
        neg[rows, leave] = sigma > 0
        nonbasic[rows, leave] = True
        nonbasic[rows, enter] = False
        A[rows, j] = enter
        keep = ~(done | stuck)
        if not keep.all():
            theta[ids[done]] = th[done]
            stalled[ids[stuck]] = True
            ids, X, y, A = ids[keep], X[keep], y[keep], A[keep]
            ztol, nonbasic, neg = ztol[keep], nonbasic[keep], neg[keep]
            rows, col = rows[:ids.size], col[:ids.size]
    stalled[ids] = True                      # the pivot cap was reached
    return theta, stalled


def _solve_stack(a, b):
    """Solutions x of the stacked systems a x = b, (R, d, d) and (R, d); the
    x of a singular system is nan, which stalls its rep."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for r in range(len(a)):
            try:
                x[r] = np.linalg.solve(a[r], b[r])
            except np.linalg.LinAlgError:
                pass
        return x


def _independent_rows(X, order, d):
    """For each rep r, the first d rows of X[r], taken in order[r], that are
    linearly independent (Gram-Schmidt with a relative tolerance): an
    (R, d) index array and the mask of the reps that have fewer."""
    R, n, _ = X.shape
    basis = np.zeros((R, d, d))
    rows = np.zeros((R, d), dtype=np.intp)
    found = np.zeros(R, dtype=np.intp)
    live = np.arange(R)                  # the reps still short of d rows
    for p in range(n):
        if not live.size:
            break
        idx = order[live, p]
        x = X[live, idx]
        B = basis[live]
        v = x - (B.transpose(0, 2, 1) @ (B @ x[..., None]))[..., 0]
        vv = np.einsum("ij,ij->i", v, v)
        take = vv > 1e-20 * np.einsum("ij,ij->i", x, x)
        r = live[take]
        basis[r, found[r]] = v[take] / np.sqrt(vv[take])[:, None]
        rows[r, found[r]] = idx[take]
        found[r] += 1
        live = live[found[live] < d]
    return rows, found < d
