"""Sieve bases on [-6, 6], the sieve least-squares fits and the population
moment oracle.

Two families are provided.  The polynomial family is nested: the k-term
basis consists of the monomials (w/6)^0 .. (w/6)^(k-1) (the 1/6 column
scaling only improves conditioning; least squares is invariant to it),
built by cumulative products; `family_designs` evaluates it once for a
whole range of k, and `family_fits` fits the whole range from one QR.
The spline family is built per k: degree min(3, k-1) B-splines with
k - degree - 1 equally spaced interior knots, so every k spans the whole
interval and each basis is a partition of unity; each process builds the
spline basis of a k once.  Spline spaces for different k are not nested,
which is why their bias in k need not be monotone.  Only this module
knows which family is nested.

`family_fits` is the library's one least-squares fit of sieve designs:
`tuning.select_sieve` (so the tables 3-4 study, `mixconc tune` and the
demo) and `fit_sieve_ls` get their certified `Fit`s from it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg.lapack import dtrtrs

from .datagen import STREAM_VARIANCE
from .errors import (DomainError, NonConvergence, NonFinite, OracleVariance,
                     ShapeMismatch, SingularDesign)
from .estimators import Fit, _least_squares_qr, certified_fit

SUPPORT = (-6.0, 6.0)
#: Gauss-Legendre nodes per panel and panels across the +-12 sd x-range
#: of the moment oracle's quadrature.
_GL_ORDER = 24
_PANELS = 64
#: The polynomial moments are computed once at this k; smaller k take
#: leading blocks of them.
_MAX_K = 8


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
        """The basis evaluated at w, shape w.shape + (k,); NonFinite for a
        non-finite w.  Spline arguments are clipped to the support."""
        w = np.asarray(w, dtype=float)
        if not np.isfinite(w).all():
            raise NonFinite("sieve design needs finite w")
        if self.kind == "polynomial":
            Q = np.empty(w.shape + (self.k,))
            Q[..., 0] = 1.0
            u = w / 6.0
            for j in range(1, self.k):
                Q[..., j] = Q[..., j - 1] * u
            return Q
        return _spline_basis(self.k)(np.clip(w, *SUPPORT))


@functools.cache
def _spline_basis(k: int) -> BSpline:
    """The k-term spline basis as one BSpline with identity coefficients.
    Its knots depend on k alone, and building it costs more than
    evaluating it at a few hundred points, so each process builds it once
    per k; every evaluation returns a new array."""
    basis = SieveBasis("pspline", k)
    deg = basis.degree
    knots = np.r_[[SUPPORT[0]] * (deg + 1), basis.interior_knots(),
                  [SUPPORT[1]] * (deg + 1)]
    return BSpline(knots, np.eye(k), deg, extrapolate=False)


def is_nested(kind: str) -> bool:
    return kind == "polynomial"


def family_designs(kind: str, ks, w) -> list[np.ndarray]:
    """The designs of the k-term bases of one family at w, for every k in
    ks, in order.  The polynomial family is nested, so it is evaluated once
    at max(ks) and its designs are column prefixes (views) of that one
    array; each spline design is evaluated on its own."""
    bases = [SieveBasis(kind, int(k)) for k in ks]
    if not bases:
        raise DomainError("ks must be nonempty")
    if not is_nested(kind):
        return [basis.design(w) for basis in bases]
    Q = SieveBasis(kind, max(basis.k for basis in bases)).design(w)
    return [Q[..., :basis.k] for basis in bases]


def family_fits(kind: str, designs, y) -> list[Fit]:
    """Certified least-squares fits of y on each design of one family, in
    order; `designs` is what `family_designs(kind, ks, w)` returns.

    The polynomial family is nested, so one QR of [Q_K | y], Q_K the
    widest design, serves every k (`estimators._least_squares_qr`, whose
    rank rule raises SingularDesign): the R factor of the first k columns
    is the leading k x k block of R, and the first k entries of its last
    column are that factor's Q'y, so each fit is one triangular solve.
    Each spline design is fitted by its own `lstsq`; a rank-deficient
    spline design (an empty knot interval) gets its minimum-norm fit.
    Every fit is certified on its own design by `estimators.certified_fit`
    (method "closed_form"), so designs that are not the prefixes of the
    widest one fail their certificate (NonConvergence).  A design wider
    than the sample raises DomainError, one not of shape (n, k) for
    n = y.size ShapeMismatch, and a non-finite y NonFinite; a non-finite
    design (not scanned: `family_designs` has checked w) raises NonFinite
    from a spline `lstsq` and fails a polynomial certificate."""
    y = np.asarray(y, dtype=float)
    if not designs:
        raise DomainError("designs must be nonempty")
    if y.ndim != 1 or any(Q.ndim != 2 or Q.shape[0] != y.size for Q in designs):
        raise ShapeMismatch("family_fits needs designs of shape (n, k) and "
                            "a y of length n")
    widths = [Q.shape[1] for Q in designs]
    K = max(widths)
    if K > y.size:
        raise DomainError("k must not exceed the sample size")
    if not np.isfinite(y).all():
        raise NonFinite("family_fits needs a finite y")
    if not is_nested(kind):
        try:
            thetas = [np.linalg.lstsq(Q, y, rcond=None)[0] for Q in designs]
        except np.linalg.LinAlgError as exc:   # the SVD fails on NaN or inf
            finite = all(np.isfinite(Q).all() for Q in designs)
            raise (NonConvergence if finite else NonFinite)(
                f"family_fits: {exc}") from exc
    else:
        R, rank = _least_squares_qr(designs[widths.index(K)], y)
        if rank < K:
            raise SingularDesign(f"polynomial design of {K} terms is rank "
                                 "deficient")
        # LAPACK trtrs on the transposed block, the call
        # scipy.linalg.solve_triangular makes, without its wrapper's cost
        thetas = [dtrtrs(R[:k, :k].T, R[:k, K], lower=1, trans=1)[0]
                  for k in widths]
    return [certified_fit(Q, y, theta, "closed_form")
            for Q, theta in zip(designs, thetas)]


def fit_sieve_ls(basis: SieveBasis, w, y) -> Fit:
    """Least squares on the k-term basis at w: `family_fits` on its one
    design."""
    return family_fits(basis.kind, [basis.design(w)], y)[0]


def _w_to_x(w: np.ndarray) -> np.ndarray:
    """Inverse of w = 6x / (1 + |x|) on (-6, 6)."""
    return w / (6.0 - np.abs(w))


class SieveMomentOracle:
    """Population second moments of a sieve family against a scalar law.

    Computes M_k = E[q^k(W) q^k(W)'], c_k = E[q^k(W) theta*(W)] and
    E[theta*(W)^2] for W = 6X/(1+|X|), X ~ N(0, STREAM_VARIANCE), the law
    of the nonparametric design.  The default backend is panelized
    Gauss-Legendre quadrature on the x-axis with panel edges at the images
    of the spline knots (deterministic, piecewise-smooth integrands,
    accuracy ~1e-12); a seeded Monte Carlo backend is available for
    cross-validation.  Both backends are a set of points in w with
    weights (`_points`), so every moment has one formula.
    """

    def __init__(self, kind: str, target, method: str = "quadrature",
                 mc_draws: int = 1_000_000, seed: int = 20240901):
        if method not in ("quadrature", "mc"):
            raise DomainError("method must be 'quadrature' or 'mc'")
        self.kind = kind
        self.target = target
        self.method = method
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._proj: dict[int, tuple[np.ndarray, float, float]] = {}
        if method == "mc":
            rng = np.random.default_rng(seed)
            xs = rng.standard_normal(mc_draws) * math.sqrt(STREAM_VARIANCE)
            self._draws = 6.0 * xs / (1.0 + np.abs(xs))
        w, wt = self._points(np.array([]))
        self.t2 = float(np.sum(wt * self.target(w) ** 2))

    def _points(self, w_breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integration points in w and their weights.  The Monte Carlo
        backend gives its draws, each of weight 1/N.  The quadrature
        backend gives the Gauss-Legendre nodes of x-panels split at the
        images of the w-breakpoints, mapped to w, with their
        density-weighted weights."""
        if self.method == "mc":
            n = self._draws.size
            return self._draws, np.full(n, 1.0 / n)
        sd = math.sqrt(STREAM_VARIANCE)
        lim = 12.0 * sd
        edges = {-lim, 0.0, lim}
        for wb in np.asarray(w_breaks, dtype=float):
            xb = float(_w_to_x(np.array(wb)))
            if -lim < xb < lim:
                edges.add(xb)
        edges = np.sort(np.fromiter(edges, dtype=float))
        fine = []
        for a, b in zip(edges[:-1], edges[1:]):
            count = max(2, int(_PANELS * (b - a) / (2 * lim)) + 2)
            fine.append(np.linspace(a, b, count))
        grid = np.unique(np.concatenate(fine))
        gx, gw = np.polynomial.legendre.leggauss(_GL_ORDER)
        a = grid[:-1]
        h = np.diff(grid)
        x = (a[:, None] + 0.5 * h[:, None] * (gx + 1.0)).ravel()
        wts = (0.5 * h[:, None] * gw).ravel()
        dens = np.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        return 6.0 * x / (1.0 + np.abs(x)), wts * dens

    def moments(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Gram matrix M_k and cross vector c_k for the k-term basis.  The
        polynomial family is nested, so below _MAX_K they are the leading
        blocks of the moments at _MAX_K."""
        if k in self._cache:
            return self._cache[k]
        if is_nested(self.kind) and k < _MAX_K:
            M, c = self.moments(_MAX_K)
            out = (M[:k, :k].copy(), c[:k].copy())
        else:
            basis = SieveBasis(self.kind, k)
            w, wt = self._points(basis.interior_knots())
            Q = basis.design(w)
            Qw = (Q * wt[:, None]).T
            out = (Qw @ Q, Qw @ self.target(w))
        self._cache[k] = out
        return out

    def _projection(self, k: int) -> tuple[np.ndarray, float, float]:
        """(nu_k, B_k, standard error of B_k): the population least-squares
        coefficients of theta* on the k-term basis and the squared L2(P)
        distance of that projection to theta*.  B_k is the weighted mean
        squared residual on the points that gave the moments, not
        E theta*^2 - c_k'nu_k, a difference of O(1) terms that loses
        about 1e-10 of B_k for the polynomial k = 8.  The standard error
        is 0 for quadrature."""
        if k not in self._proj:
            M, c = self.moments(k)
            nu = np.linalg.solve(M, c)
            basis = SieveBasis(self.kind, k)
            w, wt = self._points(basis.interior_knots())
            res = (basis.design(w) @ nu - self.target(w)) ** 2
            se = 0.0
            if self.method == "mc":
                se = float(np.std(res) / math.sqrt(res.size))
            self._proj[k] = (nu, float(np.sum(wt * res)), se)
        return self._proj[k]

    def projection(self, k: int) -> np.ndarray:
        """Population least-squares coefficients of theta* on the k-term basis."""
        return self._projection(k)[0].copy()

    def bias(self, k: int) -> float:
        """L2(P) distance between theta* and its projection on the k-term space."""
        nu, _, se_b = self._projection(k)
        val = self.l2_error(k, nu)
        # delta method: se of sqrt(B) is se(B) / (2 sqrt(B)); 0 for quadrature
        if val > 0 and se_b / (2.0 * val) > 0.01 * val:
            raise OracleVariance(f"bias({k}) oracle std error above 1% of value")
        return val

    def l2_error(self, k: int, theta_hat: np.ndarray) -> float:
        """||theta_hat' q^k - theta*||_{L2(P)}, by Pythagoras about the
        projection: sqrt((theta_hat - nu_k)' M_k (theta_hat - nu_k) + B_k),
        which has no cancellation when theta_hat is near nu_k.  A theta_hat
        not of shape (k,) raises ShapeMismatch."""
        theta_hat = np.asarray(theta_hat, dtype=float)
        if theta_hat.shape != (k,):
            raise ShapeMismatch(f"theta_hat of shape {theta_hat.shape} for "
                                f"k = {k}")
        M, _ = self.moments(k)
        nu, b2, _ = self._projection(k)
        d = theta_hat - nu
        return math.sqrt(max(float(d @ M @ d), 0.0) + b2)
