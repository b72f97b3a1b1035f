"""Sieve bases on [-6, 6] and the population moment oracle.

Two families are provided.  The polynomial family is nested: the k-term
basis consists of the monomials (w/6)^0 .. (w/6)^(k-1) (the 1/6 column
scaling only improves conditioning; least squares is invariant to it).
The spline family is built per k: degree min(3, k-1) B-splines with
k - degree - 1 equally spaced interior knots, so every k spans the whole
interval and each basis is a partition of unity.  Spline spaces for
different k are not nested, which is why their bias in k need not be
monotone.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from .errors import DomainError, OracleVariance

SUPPORT = (-6.0, 6.0)
#: Gauss-Legendre nodes per panel and panels across the +-12 sd x-range
#: of the moment oracle's quadrature.
_GL_ORDER = 24
_PANELS = 64


@dataclass(frozen=True)
class SieveBasis:
    """A concrete k-dimensional basis, evaluable on the support interval."""

    kind: str      # "polynomial" | "pspline"
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be >= 1")
        if self.kind not in ("polynomial", "pspline"):
            raise DomainError(f"unknown basis kind {self.kind!r}")
        if self.kind == "pspline" and self.k < 3:
            raise DomainError("pspline basis needs k >= 3")

    @property
    def degree(self) -> int:
        if self.kind != "pspline":
            raise DomainError("degree applies to splines only")
        return min(3, self.k - 1)

    def interior_knots(self) -> np.ndarray:
        if self.kind != "pspline":
            return np.array([])
        n_interior = self.k - self.degree - 1
        return np.linspace(*SUPPORT, n_interior + 2)[1:-1]

    def design(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if self.kind == "polynomial":
            return np.stack([(w / 6.0) ** j for j in range(self.k)], axis=-1)
        deg = self.degree
        interior = self.interior_knots()
        knots = np.r_[[SUPPORT[0]] * (deg + 1), interior, [SUPPORT[1]] * (deg + 1)]
        wc = np.clip(w, *SUPPORT)
        spl = BSpline(knots, np.eye(self.k), deg, extrapolate=False)
        return np.nan_to_num(spl(wc))


def polynomial_basis(k: int) -> SieveBasis:
    return SieveBasis("polynomial", k)


def pspline_basis(k: int) -> SieveBasis:
    return SieveBasis("pspline", k)


def is_nested(kind: str) -> bool:
    return kind == "polynomial"


def _w_to_x(w: np.ndarray) -> np.ndarray:
    """Inverse of w = 6x / (1 + |x|) on (-6, 6)."""
    return w / (6.0 - np.abs(w))


class SieveMomentOracle:
    """Population second moments of a sieve family against a scalar law.

    Computes M_k = E[q^k(W) q^k(W)'], c_k = E[q^k(W) theta*(W)] and
    E[theta*(W)^2] for W = 6X/(1+|X|), X ~ N(0, x_var).  The default
    backend is panelized Gauss-Legendre quadrature on the x-axis with
    panel edges at the images of the spline knots (deterministic,
    piecewise-smooth integrands, accuracy ~1e-12); a seeded Monte Carlo
    backend is available for cross-validation.
    """

    def __init__(self, kind: str, target, x_var: float = 1.0001,
                 max_k: int = 8, method: str = "quadrature",
                 mc_draws: int = 1_000_000, seed: int = 20240901):
        self.kind = kind
        self.target = target
        self.x_var = x_var
        self.max_k = max_k
        self.method = method
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if method == "mc":
            rng = np.random.default_rng(seed)
            xs = rng.standard_normal(mc_draws) * math.sqrt(x_var)
            self._W = 6.0 * xs / (1.0 + np.abs(xs))
            self.t2 = float(np.mean(self.target(self._W) ** 2))
        elif method == "quadrature":
            x, wd = self._nodes(np.array([]))
            w = 6.0 * x / (1.0 + np.abs(x))
            self.t2 = float(np.sum(wd * self.target(w) ** 2))
        else:
            raise DomainError("method must be 'quadrature' or 'mc'")

    # -- quadrature helpers ----------------------------------------------------

    def _nodes(self, w_breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x-nodes and density-weighted GL weights on panels split at the
        mapped breakpoints."""
        sd = math.sqrt(self.x_var)
        lim = 12.0 * sd
        edges = {-lim, 0.0, lim}
        for wb in np.asarray(w_breaks, dtype=float):
            xb = float(_w_to_x(np.array(wb)))
            if -lim < xb < lim:
                edges.add(xb)
        edges = np.sort(np.fromiter(edges, dtype=float))
        fine = []
        for a, b in zip(edges[:-1], edges[1:]):
            fine.append(np.linspace(a, b, max(2, int(_PANELS * (b - a) / (2 * lim)) + 2)))
        grid = np.unique(np.concatenate(fine))
        gx, gw = np.polynomial.legendre.leggauss(_GL_ORDER)
        a = grid[:-1]
        h = np.diff(grid)
        x = (a[:, None] + 0.5 * h[:, None] * (gx + 1.0)).ravel()
        wts = (0.5 * h[:, None] * gw).ravel()
        dens = np.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        return x, wts * dens

    # -- moments ----------------------------------------------------------------

    def moments(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Gram matrix M_k and cross vector c_k for the k-term basis."""
        if k in self._cache:
            return self._cache[k]
        if is_nested(self.kind):
            full = self._cache.get(self.max_k)
            if full is None and k < self.max_k:
                full = self.moments(self.max_k)
            if full is not None and k <= self.max_k:
                out = (full[0][:k, :k].copy(), full[1][:k].copy())
                self._cache[k] = out
                return out
        basis = SieveBasis(self.kind, k)
        if self.method == "mc":
            Q = basis.design(self._W)
            M = Q.T @ Q / Q.shape[0]
            c = Q.T @ self.target(self._W) / Q.shape[0]
        else:
            breaks = basis.interior_knots()
            x, wd = self._nodes(breaks)
            w = 6.0 * x / (1.0 + np.abs(x))
            Q = basis.design(w)
            M = (Q * wd[:, None]).T @ Q
            c = (Q * wd[:, None]).T @ self.target(w)
        self._cache[k] = (M, c)
        return M, c

    def cross_gram(self, k: int, kp: int) -> np.ndarray:
        """E[q^k(W) q^kp(W)'] between two basis sizes (non-nested pairs)."""
        if is_nested(self.kind):
            M, _ = self.moments(max(k, kp))
            return M[:k, :kp]
        bk, bkp = SieveBasis(self.kind, k), SieveBasis(self.kind, kp)
        if self.method == "mc":
            return bk.design(self._W).T @ bkp.design(self._W) / self._W.size
        breaks = np.union1d(bk.interior_knots(), bkp.interior_knots())
        x, wd = self._nodes(breaks)
        w = 6.0 * x / (1.0 + np.abs(x))
        return (bk.design(w) * wd[:, None]).T @ bkp.design(w)

    def projection(self, k: int) -> np.ndarray:
        """Population least-squares coefficients of theta* on the k-term basis."""
        M, c = self.moments(k)
        return np.linalg.solve(M, c)

    def bias(self, k: int) -> float:
        """L2(P) distance between theta* and its projection on the k-term space."""
        M, c = self.moments(k)
        nu = np.linalg.solve(M, c)
        val = math.sqrt(max(self.t2 - float(c @ nu), 0.0))
        if self.method == "mc" and val > 0:
            basis = SieveBasis(self.kind, k)
            res = (self.target(self._W) - basis.design(self._W) @ nu) ** 2
            se_b = float(np.std(res) / math.sqrt(res.size))
            # delta method: se of sqrt(B) is se(B) / (2 sqrt(B))
            if se_b / (2.0 * val) > 0.01 * val:
                raise OracleVariance(f"bias({k}) oracle std error above 1% of value")
        return val

    def bias_curve(self, ks) -> tuple[np.ndarray, bool]:
        """Raw sqrt-bias values plus a flag: True when already non-increasing.

        Non-nested spline spaces can wiggle; callers that need monotone
        bias may apply a running minimum and should report the flag.
        """
        vals = np.array([self.bias(k) for k in ks])
        monotone = bool(np.all(np.diff(vals) <= 1e-12))
        return vals, monotone

    def l2_error(self, k: int, theta_hat: np.ndarray) -> float:
        """||theta_hat' q^k - theta*||_{L2(P)} via the cached moments."""
        M, c = self.moments(k)
        v = float(theta_hat @ M @ theta_hat) - 2.0 * float(theta_hat @ c) + self.t2
        return math.sqrt(max(v, 0.0))
