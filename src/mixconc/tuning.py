"""Data-driven tuning-parameter selection.

The ideal parameter minimizes the variance proxy over the grid points
whose proxy dominates the (oracle) bias; the feasible parameter minimizes
it over the test set, whose membership only involves pairwise distances
between fitted parameters -- no bias knowledge.  Both rules are exact set
computations over a finite grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyIdealSet, EmptyTestSet

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
    k_ideal: object | None = None
    proxy_feasible: float = math.nan
    proxy_ideal: float = math.nan


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
             metric, multiplier: float = DEFAULT_TEST_MULTIPLIER) -> tuple:
    """Grid points k with dist(fit_k, fit_k') <= multiplier * s * V_k' for
    every k' above k in the grid order.

    `metric` is either a per-grid-point list of PSD matrices M_k' (the
    displayed quadratic form; smaller fits are embedded by zero-padding)
    or a callable (i, j, fit_i, fit_j) -> distance.
    """
    if s <= 0:
        raise DomainError("s must be > 0")
    K = len(grid)
    if len(fits) != K:
        raise DomainError("fits must align with the grid")

    if callable(metric):
        dist = metric
    else:
        mats = [np.asarray(M, dtype=float) for M in metric]

        def dist(i, j, fi, fj):
            fj = np.asarray(fj, dtype=float)
            padded = np.zeros_like(fj)
            fi = np.asarray(fi, dtype=float)
            padded[:fi.size] = fi
            diff = padded - fj
            return math.sqrt(max(float(diff @ mats[j] @ diff), 0.0))

    members = []
    for i in range(K):
        ok = True
        for j in range(i, K):
            if dist(i, j, fits[i], fits[j]) > multiplier * s * proxy[j]:
                ok = False
                break
        if ok:
            members.append(grid.labels[i])
    return tuple(members)


def feasible_k(grid: TuningGrid, fits, proxy: VarianceProxy, s: float,
               metric, multiplier: float = DEFAULT_TEST_MULTIPLIER,
               bias=None) -> SelectionResult:
    """Minimal-proxy member of the test set (the minimal label, since the
    proxy is non-decreasing along the grid)."""
    accepted = test_set(grid, fits, proxy, s, metric, multiplier)
    if not accepted:
        raise EmptyTestSet("test set empty: s too small for this sample")
    idx = {lab: i for i, lab in enumerate(grid.labels)}
    best = min(accepted, key=lambda lab: (proxy[idx[lab]], idx[lab]))
    result_kwargs = {}
    if bias is not None:
        ki = ideal_k(grid, proxy, bias)
        result_kwargs = {"k_ideal": ki, "proxy_ideal": proxy[idx[ki]]}
    return SelectionResult(k_feasible=best, test_set=accepted, s=s,
                           proxy_feasible=proxy[idx[best]], **result_kwargs)


def default_s(n: int, m: int = 1) -> float:
    """The harness default s_n = 0.5 log(n/m)."""
    if n < 1 or m < 1 or n % m:
        raise DomainError("need n >= m >= 1 with m | n")
    return 0.5 * math.log(n / m)


def alpha_calibrated_s(alpha: float, grid_size: int, g0_const: float) -> float:
    """s solving 2 |K| g0(s) = alpha for the tail bound g0(s) = G0/s."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    return 2.0 * grid_size * g0_const / alpha
