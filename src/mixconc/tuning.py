"""Data-driven tuning-parameter selection.

The ideal parameter minimizes the variance proxy over the grid points
whose proxy dominates the (oracle) bias; the feasible parameter minimizes
it over the test set, whose membership only involves pairwise distances
between fitted parameters -- no bias knowledge.  Both rules are exact set
computations over a finite grid.  `select_sieve` and `select_lambda`
make the whole data-driven choice for one sample, one routine per family.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EmptyIdealSet, EmptyTestSet, NonFinite,
                     ShapeMismatch)
from .estimators import (NO_PENALTY, PenaltySpec, empirical_criterion,
                         fit_penalized_qr, quantile_loss)
from .sieves import family_designs, family_fits

#: multiplier in the test-set inequality dist <= multiplier * s * V_{k'}.
#: 4 is the displayed theoretical rule.
DEFAULT_TEST_MULTIPLIER = 4.0


@dataclass(frozen=True)
class TuningGrid:
    """Ordered tuning values; "index up" always means "variance up".

    For sieve dimensions the labels are increasing integers; for penalty
    levels the lambdas are stored in decreasing order.
    """

    labels: tuple
    kind: str  # "sieve_k" | "penalty_lambda"

    def __post_init__(self):
        if self.kind not in ("sieve_k", "penalty_lambda"):
            raise DomainError(f"unknown grid kind {self.kind!r}")
        if len(self.labels) == 0:
            raise DomainError("grid must be nonempty")
        diffs = np.diff(np.asarray(self.labels, dtype=float))
        if self.kind == "sieve_k" and not np.all(diffs > 0):
            raise DomainError("sieve grid must be strictly increasing")
        if self.kind == "penalty_lambda" and not np.all(diffs < 0):
            raise DomainError("lambda grid must be strictly decreasing")

    def __len__(self):
        return len(self.labels)


def sieve_grid(ks) -> TuningGrid:
    return TuningGrid(labels=tuple(int(k) for k in ks), kind="sieve_k")


def lambda_grid(lams) -> TuningGrid:
    return TuningGrid(labels=tuple(sorted((float(v) for v in lams), reverse=True)),
                      kind="penalty_lambda")


@dataclass(frozen=True)
class VarianceProxy:
    values: np.ndarray
    monotonized: bool = False

    def __getitem__(self, i):
        return float(self.values[i])


def variance_proxy(grid: TuningGrid, nbeta: float, *, penalty: str = "none",
                   m: float = 1.0, d: int | None = None,
                   mean_loss_at_zero: float | None = None) -> VarianceProxy:
    """The proxy matching the regularization scheme, per grid point.

    sieve grids:      V_k       = sqrt(k / nbeta)
    l1 penalty:       V_lambda  = (log(2d)/nbeta)^(1/4) sqrt(loss0/lambda)
    weighted l2(p):   V_lambda  = 2 sqrt(lambda^(-1/m) / nbeta)

    Values are monotonized by a running maximum when a raw inversion
    occurs; the flag records whether that happened.
    """
    if nbeta <= 0:
        raise DomainError("nbeta must be > 0")
    if grid.kind == "sieve_k":
        raw = np.sqrt(np.asarray(grid.labels, dtype=float) / nbeta)
    else:
        lams = np.asarray(grid.labels, dtype=float)
        if np.any(lams <= 0):
            raise DomainError("lambda values must be > 0")
        if penalty == "l1":
            if d is None or mean_loss_at_zero is None:
                raise DomainError("l1 proxy needs d and mean_loss_at_zero")
            raw = (math.log(2.0 * d) / nbeta) ** 0.25 \
                * np.sqrt(mean_loss_at_zero / lams)
        elif penalty == "weighted_l2":
            if m <= 0:
                raise DomainError("weighted_l2 proxy needs m > 0")
            raw = 2.0 * np.sqrt(lams ** (-1.0 / m) / nbeta)
        else:
            raise DomainError("penalty grids need penalty 'l1' or 'weighted_l2'")
    monotone = np.maximum.accumulate(raw)
    return VarianceProxy(values=monotone, monotonized=bool(np.any(monotone > raw)))


@dataclass(frozen=True)
class SelectionResult:
    k_feasible: object
    test_set: tuple
    s: float
    proxy_feasible: float = math.nan


def ideal_k(grid: TuningGrid, proxy: VarianceProxy, bias):
    """Smallest-proxy grid point with proxy >= sqrt-bias; ties -> largest label.

    `bias` holds the sqrt(B_k) values aligned with the grid.
    """
    bias = np.asarray(bias, dtype=float)
    if bias.shape != (len(grid),):
        raise DomainError("bias must align with the grid")
    qualified = [i for i in range(len(grid)) if proxy[i] >= bias[i]]
    if not qualified:
        raise EmptyIdealSet("no grid point has proxy >= sqrt-bias")
    best = min(proxy[i] for i in qualified)
    winners = [i for i in qualified if proxy[i] == best]
    return grid.labels[winners[-1]]


def test_set(grid: TuningGrid, fits, proxy: VarianceProxy, s: float,
             grams, multiplier: float = DEFAULT_TEST_MULTIPLIER) -> tuple:
    """Grid points k with dist(fit_k, fit_k') <= multiplier * s * V_k' for
    every k' above k in the grid order.

    dist is the displayed quadratic form sqrt(d' M_k' d), d the difference
    of the two fits with the smaller one embedded by zero-padding, and
    `grams` the per-grid-point list of PSD matrices M_k'; no fit may be
    wider than a later one (ShapeMismatch), and every entry must be finite
    (NonFinite).  Identity matrices give the Euclidean distance.  s and
    multiplier must be finite and > 0.
    Each k is compared with itself too, at distance 0, so the last grid
    point is a member whenever its proxy is >= 0.
    """
    if not 0 < s < math.inf:
        raise DomainError(f"s must be > 0 and finite, got {s!r}")
    if not 0 < multiplier < math.inf:
        raise DomainError(f"multiplier must be > 0 and finite, got "
                          f"{multiplier!r}")
    K = len(grid)
    if len(fits) != K:
        raise DomainError("fits must align with the grid")
    mats = [np.asarray(M, dtype=float) for M in grams]
    vecs = [np.asarray(f, dtype=float) for f in fits]
    sizes = [v.size for v in vecs]
    if any(a > b for a, b in zip(sizes, sizes[1:])):
        raise ShapeMismatch("a fit is wider than a later one")
    padded = np.zeros((K, max(sizes)))    # each fit, zero-padded
    for row, v in zip(padded, vecs):
        row[:v.size] = v
    if not np.isfinite(padded).all():
        raise NonFinite("a fit has a non-finite entry")

    members = []
    for i in range(K):
        for j in range(i, K):
            diff = padded[i, :sizes[j]] - padded[j, :sizes[j]]
            dist = math.sqrt(max(float(diff @ mats[j] @ diff), 0.0))
            if dist > multiplier * s * proxy[j]:
                break
        else:
            members.append(grid.labels[i])
    return tuple(members)


def feasible_k(grid: TuningGrid, fits, proxy: VarianceProxy, s: float,
               grams, multiplier: float = DEFAULT_TEST_MULTIPLIER
               ) -> SelectionResult:
    """Minimal-proxy member of the test set (the minimal label, since the
    proxy is non-decreasing along the grid)."""
    accepted = test_set(grid, fits, proxy, s, grams, multiplier)
    if not accepted:
        raise EmptyTestSet("test set empty: the last grid point's proxy is "
                           "negative")
    idx = {lab: i for i, lab in enumerate(grid.labels)}
    best = min(accepted, key=lambda lab: (proxy[idx[lab]], idx[lab]))
    return SelectionResult(k_feasible=best, test_set=accepted, s=s,
                           proxy_feasible=proxy[idx[best]])


def select_sieve(kind: str, ks, w, y, nbeta: float, s: float, grams=None,
                 multiplier: float = DEFAULT_TEST_MULTIPLIER):
    """The feasible sieve dimension for the sample (w, y) over the
    increasing grid ks, and the certified least-squares `Fit` of each k in
    ks, in order (`sieves.family_fits`).

    The proxy is sqrt(k / nbeta).  `grams` are the test set's matrices
    M_k, one per k; None takes the empirical Q_k'Q_k / n of the designs.
    """
    grid = sieve_grid(ks)
    proxy = variance_proxy(grid, nbeta)
    designs = family_designs(kind, grid.labels, w)
    fits = family_fits(kind, designs, y)
    if grams is None:
        grams = [Q.T @ Q / Q.shape[0] for Q in designs]
    result = feasible_k(grid, [fit.theta for fit in fits], proxy, s, grams,
                        multiplier)
    return result, fits


def select_lambda(X, y, tau: float, lams, nbeta: float, s: float,
                  multiplier: float = DEFAULT_TEST_MULTIPLIER):
    """The feasible l1 penalty level of the tau-quantile regression of y on
    X over the levels lams, and the certified `Fit` of each level in lams,
    in the order given (`estimators.fit_penalized_qr`).

    The proxy is the l1 one, with the mean check loss at theta = 0, and
    the test set's distance is Euclidean.
    """
    grid = lambda_grid(lams)
    d = X.shape[1]
    loss0 = empirical_criterion(quantile_loss(tau), NO_PENALTY, (X, y),
                                np.zeros(d))
    proxy = variance_proxy(grid, nbeta, penalty="l1", d=d,
                           mean_loss_at_zero=loss0)
    fits = [fit_penalized_qr((X, y), tau, PenaltySpec("l1", lam=float(lam)))
            for lam in lams]
    theta = {float(lam): fit.theta for lam, fit in zip(lams, fits)}
    result = feasible_k(grid, [theta[lam] for lam in grid.labels], proxy, s,
                        [np.eye(d)] * len(grid), multiplier)
    return result, fits


def default_s(n: int, m: int = 1) -> float:
    """The harness default s_n = 0.5 log(n/m)."""
    if n < 1 or m < 1 or n % m:
        raise DomainError("need n >= m >= 1 with m | n")
    return 0.5 * math.log(n / m)
