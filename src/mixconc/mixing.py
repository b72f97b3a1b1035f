"""Mixing-decay models, the dependence-weighted norm family and effective
sample sizes.

The weight function

    mu_q(u) = sum_{i=0..q} 1{u <= 0.5 * beta(i)}

is a step function of u; every integral against it is computed exactly by
summing level * segment-length over its finitely many plateaus, never by
sampling, so all downstream bounds are deterministic.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .errors import DomainError, NonFinite, UnsupportedModel
from .lattice import SampleLattice


# ---------------------------------------------------------------------------
# decay models


@dataclass(frozen=True)
class BetaMixingModel:
    """A beta-mixing decay specification.

    kind is one of:
      "indicator"  -- beta(q) = 1 for 1 <= q < M, 0 for q >= M (m-dependence)
      "polynomial" -- beta(q) = (1+q)^(-m0) for q >= 1
      "iid"        -- beta(q) = 0 for q >= 1

    beta0 is the convention for beta(0).  The default 1 makes the effective
    sample size equal n exactly for i.i.d. data; beta0 = 2 reproduces the
    textbook i.i.d. remark (a factor-2 loss).
    """

    kind: str
    M: int | None = None
    m0: float | None = None
    beta0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("indicator", "polynomial", "iid"):
            raise DomainError(f"unknown kind {self.kind!r}")
        if self.kind == "indicator" and (self.M is None or self.M < 1):
            raise DomainError("indicator model needs a positive integer M")
        if self.kind == "polynomial" and (self.m0 is None or self.m0 <= 0):
            raise DomainError("polynomial model needs m0 > 0")
        if self.beta0 not in (1.0, 2.0):
            raise DomainError("beta0 must be 1 or 2")

    @staticmethod
    def indicator(M: int, beta0: float = 1.0) -> "BetaMixingModel":
        return BetaMixingModel(kind="indicator", M=M, beta0=beta0)

    @staticmethod
    def polynomial(m0: float, beta0: float = 1.0) -> "BetaMixingModel":
        return BetaMixingModel(kind="polynomial", m0=m0, beta0=beta0)

    @staticmethod
    def iid(beta0: float = 1.0) -> "BetaMixingModel":
        return BetaMixingModel(kind="iid", beta0=beta0)


def beta_coeff(model: BetaMixingModel, q: int) -> float:
    """The decay coefficient beta(q); q = 0 returns the beta0 convention."""
    if q < 0:
        raise DomainError("q must be >= 0")
    if q == 0:
        return model.beta0
    if model.kind == "indicator":
        return 1.0 if q < model.M else 0.0
    if model.kind == "polynomial":
        return (1.0 + q) ** (-model.m0)
    return 0.0


def beta_inverse(model: BetaMixingModel, u: float) -> int:
    """min{s in N0 : beta(s) <= u}; 0 for u > beta(0).

    Used only for the sandwich checks on mu_q; beta -> 0 guarantees
    existence for every u > 0.
    """
    if u <= 0:
        raise DomainError("u must be > 0")
    s = 0
    while beta_coeff(model, s) > u:
        s += 1
    return s


# ---------------------------------------------------------------------------
# the weight function and its exact integrals


def mu_q(model: BetaMixingModel, q: int, u: float) -> int:
    """Number of lags i in 0..q with u <= 0.5 * beta(i)."""
    if not (0.0 < u <= 1.0):
        raise DomainError("u must lie in (0, 1]")
    if q < 0:
        raise DomainError("q must be >= 0")
    return sum(1 for i in range(q + 1) if u <= 0.5 * beta_coeff(model, i))


def _mu_thresholds(model: BetaMixingModel, q: int) -> np.ndarray:
    """Descending thresholds 0.5*beta(i), i = 0..q, clipped into [0, 1].

    mu_q equals j on the interval (t_(j+1), t_(j)] for the sorted
    thresholds t_(1) >= ... >= t_(q+1), with t_(q+2) := 0.
    """
    t = np.array([0.5 * beta_coeff(model, i) for i in range(q + 1)])
    t = np.minimum(np.sort(t)[::-1], 1.0)
    return t


def mu_integral(model: BetaMixingModel, q: int, a: float) -> float:
    """Exact integral over (0,1] of mu_q(u)^a, as sum of level^a * length.

    Levels with mu = 0 contribute nothing, so a = 0 yields the measure of
    {u : mu_q(u) > 0}.
    """
    if q < 0 or a < 0:
        raise DomainError("q and a must be >= 0")
    t = _mu_thresholds(model, q)
    total = 0.0
    for j in range(1, len(t) + 1):
        hi = t[j - 1]
        lo = t[j] if j < len(t) else 0.0
        if hi > lo:
            total += float(j) ** a * (hi - lo)
    return total


def q_nk(model: BetaMixingModel, lattice: SampleLattice, k: int) -> int:
    """Smallest block length s in Q_n with 0.5 * beta(s) * n <= s * 2^(k+1).

    Existence is guaranteed: beta(n) <= 1 makes s = n always qualify.
    Exhaustive ascending scan; |Q_n| is small for admissible n.
    """
    if k < 0:
        raise DomainError("k must be >= 0")
    n = lattice.n
    for s in lattice.qn:
        if 0.5 * beta_coeff(model, s) * n <= s * 2.0 ** (k + 1):
            return s
    return n


# ---------------------------------------------------------------------------
# quantile functions and the dependence-weighted norm


@dataclass(frozen=True)
class QuantileFn:
    """Quantile function of |f(Z)|, analytic or empirical.

    Empirical quantile functions are step functions: Q(u) equals the
    (floor(n*u)+1)-th largest sample value on [k/n, (k+1)/n).
    """

    fn: Callable[[float], float] | None = None
    sample: np.ndarray | None = None

    @staticmethod
    def analytic(fn: Callable[[float], float]) -> "QuantileFn":
        return QuantileFn(fn=fn)

    @staticmethod
    def empirical(values: Sequence[float]) -> "QuantileFn":
        arr = np.sort(np.abs(np.asarray(values, dtype=float)))[::-1]
        if arr.size == 0:
            raise DomainError("empirical sample must be nonempty")
        return QuantileFn(sample=arr)

    def __call__(self, u: float) -> float:
        if self.sample is not None:
            n = self.sample.size
            idx = min(int(math.floor(n * u)), n - 1)
            return float(self.sample[idx])
        return float(self.fn(u))

    def lr_norm(self, r: float) -> float:
        """The L^r norm of |f| implied by this quantile function."""
        if self.sample is not None:
            return float(np.mean(self.sample ** r) ** (1.0 / r))
        val, _ = integrate.quad(lambda u: self.fn(u) ** r, 0.0, 1.0, limit=200)
        return val ** (1.0 / r)


def dep_norm(f: QuantileFn, model: BetaMixingModel, q: int,
             tol: float = 1e-10) -> float:
    """The dependence-adjusted norm sqrt(2 * int mu_q(u) Q_f(u)^2 du).

    Piecewise-exact when f is empirical (both factors are step functions);
    adaptive quadrature on each mu-plateau for analytic f.
    """
    if q < 0:
        raise DomainError("q must be >= 0")
    t = _mu_thresholds(model, q)
    # plateau j lives on (lo_j, hi_j] with value j
    edges = [(float(t[j]) if j < len(t) else 0.0, float(t[j - 1]), j)
             for j in range(1, len(t) + 1)]
    total = 0.0
    if f.sample is not None:
        n = f.sample.size
        grid = np.arange(1, n) / n
        for lo, hi, level in edges:
            if hi <= lo:
                continue
            cuts = [lo] + [g for g in grid if lo < g < hi] + [hi]
            for a, b in zip(cuts[:-1], cuts[1:]):
                qv = f(0.5 * (a + b))
                total += level * qv * qv * (b - a)
    else:
        import warnings
        for lo, hi, level in edges:
            if hi <= lo:
                continue
            with warnings.catch_warnings():
                # divergence is reported through NonFinite below
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                val, _ = integrate.quad(lambda u: f.fn(u) ** 2, lo, hi,
                                        epsabs=tol, epsrel=tol, limit=200)
            total += level * val
    result = 2.0 * total
    if not math.isfinite(result):
        raise NonFinite("the weighted quantile integral diverged")
    return math.sqrt(result)


# ---------------------------------------------------------------------------
# effective number of observations


@dataclass(frozen=True)
class EffectiveN:
    """n(beta) together with the block length and integral that produced it."""

    value: float
    q_n0: int
    mu_integral: float
    r: float


def effective_n(model: BetaMixingModel, lattice: SampleLattice,
                r: float) -> EffectiveN:
    """n(beta) = n / (2^(1-2/r) * (int mu_{q_{n,0}}^{r/(r-2)})^((r-2)/r))."""
    if r <= 2:
        raise DomainError("r must exceed 2")
    q0 = q_nk(model, lattice, 0)
    integral = mu_integral(model, q0, r / (r - 2.0))
    value = lattice.n / (2.0 ** (1.0 - 2.0 / r) * integral ** ((r - 2.0) / r))
    return EffectiveN(value=value, q_n0=q0, mu_integral=integral, r=r)


def b_r_factor(model: BetaMixingModel, q: int, r: float) -> float:
    """Exact B_r(q) = sqrt(2) * (int mu_q^{r/(r-2)})^((r-2)/(2r))."""
    if r <= 2:
        raise DomainError("r must exceed 2")
    return math.sqrt(2.0) * mu_integral(model, q, r / (r - 2.0)) ** ((r - 2.0) / (2 * r))


def b_r_bounds(model: BetaMixingModel, q: int, r: float) -> tuple[float, float]:
    """Closed-form sandwich on B_r(q) for indicator / polynomial decay.

    Case split for polynomial decay is on m0 versus r/(r-2).  The exact
    value from mu_integral always lies inside the returned pair.
    """
    if r <= 2:
        raise DomainError("r must exceed 2")
    if q < 1:
        raise DomainError("q must be >= 1")
    c = 2.0 ** (1.0 / r)
    e = (r - 2.0) / (2.0 * r)
    rr = r / (r - 2.0)
    if model.kind == "indicator":
        M = model.M
        upper = c * math.sqrt(min(1 + q, 1 + M))
        lower = c * math.sqrt(min(1 + q, M))
        return lower, upper
    if model.kind != "polynomial":
        raise UnsupportedModel("exact value available for iid; no bounds needed")
    m0 = model.m0
    if m0 > rr:
        upper = c * (m0 / (m0 - rr)) ** e
        lower = c * (2.0 ** -m0) ** e
    elif m0 == rr:
        upper = c * (m0 * math.log1p(q) + 1.0) ** (1.0 / (2 * m0))
        lower = c * math.sqrt(0.5) * (m0 * math.log1p(0.5 * q) + 2.0 ** m0) ** (1.0 / (2 * m0))
    else:
        upper = c * (rr / (rr - m0)) ** e * (1.0 + q) ** ((r - (r - 2.0) * m0) / (2 * r))
        lower = c * ((2.0 ** -m0 * m0) / (rr - m0)) ** e \
            * ((1.0 + 0.5 * q) ** (rr - m0) - 1.0) ** e
    return lower, upper


def effective_n_bounds(model: BetaMixingModel, lattice: SampleLattice,
                       r: float) -> tuple[float, float]:
    """Closed-form sandwich on n(beta), cases 1-4 of the bound proposition.

    The bracket [x] (smallest divisor >= x) is resolved on the concrete
    lattice, which is why a SampleLattice rather than a bare n is taken.
    """
    if r <= 2:
        raise DomainError("r must exceed 2")
    n = lattice.n
    rr = r / (r - 2.0)
    if model.kind == "indicator":
        M = model.M
        lower = n / min(1 + lattice.bracket(n / 4.0), 1 + M)
        upper = n / min(1 + n / 4.0, M)
        return lower, upper
    if model.kind != "polynomial":
        raise UnsupportedModel("iid has the exact value n / 2^(1-2/r) instead")
    m0 = model.m0
    if m0 > rr:
        lower = n / ((m0 * (r - 2.0)) / (m0 * (r - 2.0) - r)) ** ((r - 2.0) / r)
        upper = n / max((2.0 ** -m0) ** ((r - 2.0) / r), 1.0)
    elif m0 == rr:
        x = (n / 4.0) ** (1.0 / (m0 + 1.0))
        lower = n / (m0 * math.log1p(lattice.bracket(x)) + 1.0) ** (1.0 / m0)
        upper = n / (0.5 * (m0 * math.log(0.5 * (1.0 + x)) + 2.0 ** m0) ** (1.0 / m0))
    else:
        x = (n / 4.0) ** (1.0 / (m0 + 1.0))
        a0 = (r / (r - m0 * (r - 2.0))) ** ((r - 2.0) / r)
        a1 = 0.5 ** ((r - (r - 2.0) * m0) / r) \
            * ((2.0 ** -m0 * m0 * (r - 2.0)) / (r - m0 * (r - 2.0))) ** ((r - 2.0) / r)
        lower = n / ((1 + lattice.bracket(x)) ** ((r - (r - 2.0) * m0) / r) * a0)
        upper = n / (((1.0 + x) ** (rr - m0) - 2.0 ** (rr - m0)) ** ((r - 2.0) / r) * a1)
    return lower, upper
