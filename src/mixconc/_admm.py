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
R n, so callers pass it stacks of at most max(1, SLICE_ROWS // n) reps:
the tables 1-2 study cuts its replications into chunks of that size, so
it never draws or holds a larger stack.

`active_set` solves quantile + weighted-l2 and squared + l1 exactly.
`admm_batch` (unpenalized ADMM sweeps) only warm-starts a single fit's
pivot: O(n d) in-place sweeps over one projection formed before the
loop, about 6 ms for its 300 sweeps at n = 1000, d = 3 (2 CPUs,
single-threaded BLAS).  The pivot reaches the same vertex from a
least-squares start; the sweeps stay while the benchmark's trace counts
them.

Optimality of whatever is returned is certified separately (see
estimators.subgradient_residual).
"""

import warnings

import numpy as np
from scipy import linalg

from .errors import NonConvergence, SingularDesign


def admm_batch(X, y, tau, iters):
    """The (R, d) thetas after `iters` over-relaxed ADMM sweeps from zero on
    X theta + r = y, for R unpenalized quantile regressions X (R, n, d).

    The sweep (rho = 1, over-relaxation a = 1.7) is theta = P (y - r - u),
    h = a X theta + (1 - a)(y - r), r = prox(y - h - u), u += h + r - y,
    with the least-squares projection P = (X'X)^-1 X' formed once (the
    pseudo-inverse when X'X is singular: the steps of least norm).  With
    s = y - r the scaled dual is always u = -c, c = clip(y - h - u) the
    loss's prox at scale 1 / n, so a sweep collapses to
        theta = P (s + c),  q = a X theta + (1 - a) s - c,
        c = clip(y - q),    s = q + c,
    the same iterates up to rounding, updated in place: two d x n products
    (a X is scaled once) and eight n-vector ufuncs per sweep."""
    R, n, d = X.shape
    try:
        P = np.linalg.solve(np.einsum("rij,rik->rjk", X, X),
                            X.transpose(0, 2, 1))
    except np.linalg.LinAlgError:
        P = np.linalg.pinv(X)
    a, lo, hi = 1.7, -(1.0 - tau) / n, tau / n
    aX, y = a * X, y[..., None]
    s, c = y.copy(), np.zeros((R, n, 1))
    q, w, theta = np.empty((R, n, 1)), np.empty((R, n, 1)), np.zeros((R, d, 1))
    for _ in range(iters):
        np.add(s, c, out=w)
        np.matmul(P, w, out=theta)
        np.matmul(aX, theta, out=q)
        q -= c
        s *= 1.0 - a
        q += s
        np.subtract(y, q, out=c)
        np.minimum(c, hi, out=c)             # np.clip without its wrapper
        np.maximum(c, lo, out=c)
        np.add(q, c, out=s)
    return theta[..., 0]


#: `active_set` takes |a_i' delta| <= _CROSS_TOL |a_i| (|theta| + |theta +
#: delta|) for rounding (a duplicate row entering E on it is singular), and
#: u_i within _MULT_TOL (1 + |b| / w) of its box, as u_E is solved from b / w.
_CROSS_TOL, _MULT_TOL, _STEPS_PER_ROW = 1e-12, 1e-12, 10


def active_set(Q, q, A, c, w, tau):
    """argmin 1/2 theta' Q theta - q' theta + w sum_i rho_tau(c_i - a_i'
    theta), Q positive semidefinite and w > 0, by the primal active-set
    method (Goldfarb & Idnani 1983; Osborne, Presnell & Turlach 2000).

    Rows in E stay on their kink; each other row keeps a side, psi_i = tau
    or tau - 1.  A step solves the KKT system [Q, -w A_E'; A_E, 0] [theta;
    u_E] = [q + w A_N' psi_N; c_E] (or goes downhill along its null
    vector), stops at the exact minimum along it, and a row on whose kink
    it stops enters E.  At a pattern's minimizer the row of E with u_i
    furthest outside [tau - 1, tau] leaves to that side.  From theta = 0,
    E holds the kink rows only if Q is singular (many held rows can make
    the KKT system ill-conditioned).  Raises SingularDesign when a null
    vector meets no kink, NonConvergence at the step cap."""
    m, d = A.shape
    theta, res = np.zeros(d), np.array(c, dtype=float)
    held = (res == 0.0) & (np.linalg.matrix_rank(Q) < d)
    pos = res >= 0.0                         # the side of each row off E
    rtol = _CROSS_TOL * np.sqrt(np.einsum("ij,ij->i", A, A))
    for step in range(_STEPS_PER_ROW * (m + d)):
        E = np.flatnonzero(held)
        b = q + w * (np.where(held, 0.0, np.where(pos, tau, tau - 1.0)) @ A)
        K = np.block([[Q, -w * A[E].T], [A[E], np.zeros((E.size, E.size))]])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", linalg.LinAlgWarning)
                sol = linalg.solve(K, np.r_[b, c[E]])
            new, u, delta = sol[:d], sol[d:], sol[:d] - theta
        except (linalg.LinAlgError, linalg.LinAlgWarning):
            z = np.linalg.svd(K)[2][-1, :d]         # downhill null vector
            new, delta = None, -np.copysign(1.0, (Q @ theta - b) @ z) * z
        curv, slope = delta @ Q @ delta, (Q @ theta - b) @ delta
        g = A @ delta                        # the residuals move by -t g
        tol = rtol * (np.linalg.norm(theta) + np.linalg.norm(theta + delta))
        cross = np.flatnonzero(~held & (np.where(pos, g, -g) > tol))
        t = np.maximum(res[cross] / g[cross], 0.0)
        order = _crossing_order(t[None], t.size)[0]
        cross, t = cross[order], t[order]
        jumps = np.cumsum(np.r_[0.0, w * np.abs(g[cross])])
        # the first crossing with right derivative >= 0 ends the search
        k = int(np.argmax(np.r_[slope + curv * t + jumps[1:], 0.0] >= 0.0))
        if k < cross.size and slope + curv * t[k] + jumps[k] <= 0.0:
            theta = theta + t[k] * delta     # on the kink of cross[k]
            held[cross[k]] = True
        elif new is None:
            raise SingularDesign("active set: no kink on a flat direction")
        elif k:
            theta = theta - (slope + jumps[k]) / curv * delta
        else:                                # the pattern's minimizer
            theta, viol = new, np.maximum(u - tau, (tau - 1.0) - u)
            if viol.max(initial=0.0) <= _MULT_TOL * (1 + abs(b).max() / w):
                return theta
            j = int(np.argmax(viol))
            held[E[j]], pos[E[j]] = False, u[j] > tau
        pos[cross[:k]] ^= True
        res = c - A @ theta
    raise NonConvergence(f"active set: no optimum within {step + 1} steps")


#: simplex_polish holds a few R x n arrays per call; callers pass it
#: stacks of at most max(1, SLICE_ROWS // n) reps, about 256 KiB per
#: array.  The tables 1-2 study cuts its chunks to that size.
SLICE_ROWS = 2 ** 15


def simplex_polish(X, y, theta, tau=0.5):
    """Exact vertex pivoting for a stack of unpenalized quantile regressions.

    X is (R, n, d), y (R, n) and theta (R, d): R problems of one shape,
    pivoted together.  Returns (theta, stalled): the optimal (R, d) thetas
    and an (R,) mask of the reps whose pivoting stalled; a stalled rep
    keeps its starting theta (the caller falls back to the LP).  A single
    fit is R = 1.  Every array here is R x n or smaller, so a caller holds
    memory to a bound by passing at most max(1, SLICE_ROWS // n) reps.

    Each rep starts from the basis of the d smallest-|residual| rows at its
    theta that are linearly independent.  Each pivot solves the dual box
    condition tau - 1 <= s <= tau on the basic rows; on violation it moves
    along the edge that keeps the other basic residuals at zero, with the
    step chosen by the weighted-median rule on the crossing residuals
    (Barrodale & Roberts 1973; Koenker & d'Orey 1987).  One pivot steps
    every rep still active with stacked solves, a sort and a cumsum along
    the rows; the arithmetic of each rep is that of pivoting it alone.
    The crossing rows are ranked by `_crossing_order`: the first
    max(ncross) ranks of their stable (t, row) order, from numpy's
    unstable SIMD sort with ties of equal t put back in row order.  A rep
    leaves the stack as soon as the dual test finds it optimal, before
    the edge, crossing sort and cumsum of that pivot, and a rep that
    stalls leaves it at the end of its pivot.

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
        if done.any():                       # optimal: out before the edge
            theta[ids[done]] = th[done]
            keep = ~done
            ids, X, y, A, XA = ids[keep], X[keep], y[keep], A[keep], XA[keep]
            ztol, nonbasic, neg = ztol[keep], nonbasic[keep], neg[keep]
            res, zero, s, j = res[keep], zero[keep], s[keep], j[keep]
            over, under = over[keep], under[keep]
            rows, col = rows[:ids.size], col[:ids.size]
            if not ids.size:
                break
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
        order = _crossing_order(np.where(cross, t, np.inf),
                                max(1, ncross.max()))
        # directional derivative of the objective after each crossing:
        # deriv0 plus the running sum of |g| / n in crossing order
        deriv = np.abs(g[col, order]) / n
        deriv[:, 0] += (sigma * s[rows, j]
                        + np.where(sigma > 0, 1.0 - tau, tau)) / n
        deriv = np.cumsum(deriv, axis=1)
        past = (deriv >= -1e-15) & (ranks[:order.shape[1]] < ncross[:, None])
        k = np.argmax(past, axis=1)          # the entering row's rank
        stuck = ~past[rows, k]               # stalled (a singular basis too)
        enter = order[rows, k]
        # the rows crossed before the entering one change side
        te = t[rows, enter][:, None]
        neg ^= cross & ((t < te) | ((t == te) & (ranks < enter[:, None])))
        leave = A[rows, j]
        neg[rows, leave] = sigma > 0
        nonbasic[rows, leave] = True
        nonbasic[rows, enter] = False
        A[rows, j] = enter
        if stuck.any():
            stalled[ids[stuck]] = True
            keep = ~stuck
            ids, X, y, A = ids[keep], X[keep], y[keep], A[keep]
            ztol, nonbasic, neg = ztol[keep], nonbasic[keep], neg[keep]
            rows, col = rows[:ids.size], col[:ids.size]
    stalled[ids] = True                      # the pivot cap was reached
    return theta, stalled


def _crossing_order(key, count):
    """The first `count` ranks of the stable argsort of each row of key
    (R, n), for rows with at most `count` finite keys (inf marks the rows
    that do not cross): the finite keys come first in (key, index) order;
    the inf keys after them are in no set order.

    A stack sorts unstably (numpy's SIMD sort) and re-sorts by index only
    the rows where two equal finite keys meet within the prefix.  A single
    row (R = 1: a single fit, `active_set`) sorts stably at once, since an
    l1 fit's rows +-n lam e_j cross together and tie on every pivot."""
    if len(key) == 1:
        return np.argsort(key, axis=1, kind="stable")[:, :count]
    order = np.argsort(key, axis=1)[:, :count]
    ranked = np.take_along_axis(key, order, axis=1)
    tied = ((ranked[:, 1:] == ranked[:, :-1])
            & np.isfinite(ranked[:, 1:])).any(axis=1)
    if tied.any():
        r = np.flatnonzero(tied)
        by_index = np.sort(order[r], axis=1)
        again = np.argsort(np.take_along_axis(key[r], by_index, axis=1),
                           axis=1, kind="stable")
        order[r] = np.take_along_axis(by_index, again, axis=1)
    return order


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
