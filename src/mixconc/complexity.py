"""Gaussian-complexity constants, suprema bounds and the variance term.

Three constants are in circulation for E[max_j |zeta_j|] <= c * sqrt(log 2k):
c = 1, the proof-safe c = sqrt(2) obtained by optimizing the Chernoff
parameter, and c = sqrt(0.5).  Only the proof-safe variant is a validated
upper bound -- the k = 2 oracle value E[max(|z1|,|z2|)] = 2/sqrt(pi) ~ 1.128
already exceeds sqrt(0.5 log 4) ~ 0.833 -- so all three ship behind an enum.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DomainError, MonotonicityViolation, NoSolution

_C1_LOWER = math.exp(1.0 / (math.pi + 2.0)) / 4.0 * math.sqrt((math.pi + 2.0) / math.pi)
_C2_LOWER = 1.0


class MaxVariant(Enum):
    SQRT_LOG = "sqrt-log"        # sqrt(log 2k), the displayed constant
    PROOF_SAFE = "proof-safe"    # sqrt(2 log 2k), provable
    HALF_LOG = "half-log"        # sqrt(0.5 log 2k), contradicted at k = 2


_VARIANT_SCALE = {
    MaxVariant.SQRT_LOG: 1.0,
    MaxVariant.PROOF_SAFE: 2.0,
    MaxVariant.HALF_LOG: 0.5,
}


@dataclass(frozen=True)
class UniversalConstants:
    """Constants entering the concentration bound.

    The generic-chaining constant L has no known numeric value; bounds
    computed from it are exact only up to L, default 1.
    """

    p_upsilon: int
    L_talagrand: float = 1.0

    @property
    def g0(self) -> float:
        """The tail constant G0 = 3(p_upsilon * 8.1 + sqrt(2) * 8); always > 33."""
        return 3.0 * (self.p_upsilon * 8.1 + math.sqrt(2.0) * 8.0)

    def tail_bound(self, u: float) -> float:
        """g0(u) = min(1, G0 / u)."""
        return min(1.0, self.g0 / u) if u > 0 else 1.0

    def K_qr(self, tau: float) -> float:
        """The quantile-regression multiplier max(1, sqrt(2) * 10 * L * (1 + tau))."""
        return max(1.0, math.sqrt(2.0) * 10.0 * self.L_talagrand * (1.0 + tau))


def gauss_abs_moment(s: float) -> float:
    """E|zeta|^s for standard normal zeta, via the Gamma function."""
    if s < 0:
        raise DomainError("moment order must be >= 0")
    return 2.0 ** (s / 2.0) * math.gamma((s + 1.0) / 2.0) / math.sqrt(math.pi)


def _weights(k, w):
    arr = np.broadcast_to(np.asarray(w, dtype=float), (k,)).copy()
    if np.any(arr <= 0):
        raise DomainError("weights must be strictly positive")
    return arr


def gauss_max_bound(k: int, p=1.0, b=1.0,
                    variant: MaxVariant = MaxVariant.SQRT_LOG) -> float:
    """Upper bound on E[max_j |p_j^-1 sqrt(b_j) zeta_j|].

    sqrt(max_j b_j / p_j^2) times sqrt(c log 2k) with c set by the variant.
    Only PROOF_SAFE is provable; the others reproduce displayed constants.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    p = _weights(k, p)
    b = _weights(k, b)
    scale = math.sqrt(float(np.max(b / p ** 2)))
    return scale * math.sqrt(_VARIANT_SCALE[variant] * math.log(2.0 * k))


def gauss_max_lower(k: int, p=1.0) -> float:
    """Lower bound on E[max_j |p_j^-1 zeta_j|], clamped to 0 when c1*k <= 1."""
    if k < 1:
        raise DomainError("k must be >= 1")
    p = _weights(k, p)
    arg = _C1_LOWER * k
    if arg <= 1.0:
        return 0.0
    return (1.0 - math.exp(-1.0)) * math.sqrt(math.log(arg) / _C2_LOWER) / float(np.max(p))


def c_kq(k: int, q: float, p=1.0, b=1.0,
         variant: MaxVariant = MaxVariant.SQRT_LOG) -> float:
    """The Hoelder constant C_{k,q}(p) multiplying sup ||tau||_{l^q(p)}.

    q = inf   -> sum_j sqrt(b_j)
    q in (1,inf) -> (E|z|^{q'})^{1/q'} (sum_j b_j^{q'/2} p_j^{-q'/q})^{1/q'},
                 q' = q/(q-1)
    q = 1     -> gauss_max_bound(k, p, b, variant)
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if q < 1:
        raise DomainError("q must be >= 1")
    b_arr = _weights(k, b)
    if math.isinf(q):
        return float(np.sum(np.sqrt(b_arr)))
    if q == 1:
        return gauss_max_bound(k, p, b, variant)
    p_arr = _weights(k, p)
    qs = q / (q - 1.0)
    moment = gauss_abs_moment(qs) ** (1.0 / qs)
    series = float(np.sum(b_arr ** (0.5 * qs) * p_arr ** (-qs / q)))
    return moment * series ** (1.0 / qs)


# ---------------------------------------------------------------------------
# Monte Carlo oracle for E sup over weighted lq balls


@dataclass(frozen=True)
class WeightedSetSpec:
    """The ball A = {tau : ||tau||_{l^q(p)} <= radius} with Gaussian scales b.

    For q = inf the norm is the plain max norm (no p weighting).
    """

    k: int
    q: float
    radius: float
    p: np.ndarray | float = 1.0
    b: np.ndarray | float = 1.0

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        return _weights(self.k, self.p), _weights(self.k, self.b)


def gauss_sup_oracle(spec: WeightedSetSpec, draws: int = 100_000,
                     seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of E[sup_{tau in A} sum_j zeta_j sqrt(b_j) tau_j].

    The inner supremum is attained in closed form by the dual-norm
    maximizer, so each draw contributes radius * dual_norm(xi).
    Returns (estimate, standard error); deterministic given the seed.
    """
    if draws < 10_000:
        raise DomainError("draws must be at least 10^4")
    if spec.radius < 0:
        raise DomainError("radius must be >= 0")
    p, b = spec.weights()
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((draws, spec.k))
    xi = np.abs(z) * np.sqrt(b)
    q = spec.q
    if math.isinf(q):
        vals = xi.sum(axis=1)
    elif q == 1:
        vals = (xi / p).max(axis=1)
    else:
        qs = q / (q - 1.0)
        vals = (np.sum(xi ** qs * p ** (-qs / q), axis=1)) ** (1.0 / qs)
    vals = spec.radius * vals
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))


def gauss_sup_lower(spec: WeightedSetSpec) -> float:
    """The matching lower bound for gauss_sup_oracle's expectation.

    q = inf uses the k^-1 factor (valid for k >= 2); q in (1,inf) uses
    K = (1/(L+1))^((q-1)/q) with L = 2 (q/(q-1)) 2^(q/(2(q-1))) Gamma(...);
    q = 1 uses the clamped max-of-Gaussians lower bound.
    """
    p, b = spec.weights()
    k, q = spec.k, spec.q
    if math.isinf(q):
        return spec.radius * float(np.sum(np.sqrt(b))) / k
    if q == 1:
        return spec.radius * gauss_max_lower(k, p / np.sqrt(b))
    qs = q / (q - 1.0)
    L = 2.0 * qs * 2.0 ** (qs / 2.0) * math.gamma(qs / 2.0)
    K = (1.0 / (L + 1.0)) ** ((q - 1.0) / q)
    return K * c_kq(k, q, p, b) * spec.radius


# ---------------------------------------------------------------------------
# variance-term machinery


@dataclass(frozen=True)
class VarianceInputs:
    """A complexity bound Gamma(A(s)) <= min(Lambda * s, B), plus multiplier C."""

    Lambda: float
    B: float
    C: float = 1.0

    def __post_init__(self):
        if self.Lambda < 0 or self.B < 0 or self.C <= 0:
            raise DomainError("Lambda, B must be >= 0 and C > 0")

    def with_multiplier(self, C: float) -> "VarianceInputs":
        return replace(self, C=C)


def variance_term(inputs: VarianceInputs) -> float:
    """min(C * Lambda, sqrt(C * B)) -- the fixed point in closed form."""
    return min(inputs.C * inputs.Lambda, math.sqrt(inputs.C * inputs.B))


def gamma_bound_l1(d: int, trWinv: float,
                   M_over_lambda: float) -> VarianceInputs:
    """(Lambda, B) for the l1-penalized quantile-regression complexity:
    Lambda = sqrt(2 tr W^-1), B = sqrt(log 2d) * M/lambda."""
    if d < 1:
        raise DomainError("d must be >= 1")
    if trWinv < 0 or M_over_lambda < 0:
        raise DomainError("inputs must be nonnegative")
    return VarianceInputs(Lambda=math.sqrt(2.0 * trWinv),
                          B=math.sqrt(math.log(2.0 * d)) * M_over_lambda)


def gamma_bound_l2p(d: int, m: float, lam: float, emin_W: float,
                    diagWinv) -> VarianceInputs:
    """(Lambda, B) for the weighted-l2(p) penalty with p_j = j^m.

    m > 1 caps the dimension at lambda^(-1/m) (with the prefix-average
    constant from the proof); m in [0, 1] caps the trace at
    lambda^-1 d^(1-m)/(1-m) (harmonic sum at m = 1, where the integral
    form is undefined).  The bound is linear in s, so B = inf.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    if lam <= 0 or emin_W <= 0:
        raise DomainError("lambda and emin_W must be > 0")
    diag = np.asarray(diagWinv, dtype=float)
    if diag.size != d:
        raise DomainError("diagWinv must have length d")
    avg = float(np.max(np.cumsum(diag) / np.arange(1, d + 1)))
    tr = float(np.sum(diag))
    if m > 1:
        cap = min(lam ** (-1.0 / m) * ((1.0 / (m - 1.0)) / (2.0 * avg)) ** (1.0 / m),
                  float(d))
        lam_sq = cap * 2.0 * avg
    else:
        if m == 1:
            series = float(np.sum(1.0 / np.arange(1, d + 1)))
        else:
            series = d ** (1.0 - m) / (1.0 - m)
        lam_sq = min(series / lam, 2.0 * tr)
    return VarianceInputs(Lambda=math.sqrt(lam_sq), B=math.inf)


#: The fixed point's inner grid {1, _X_RATIO, _X_RATIO^2, ...} <= _X_MAX
#: and the number of probes of its monotonicity check.
_X_RATIO = 1.05
_X_MAX = 1e6
_CHECK_POINTS = 12


def variance_term_fixed_point(H, s_max: float, tol: float = 1e-10) -> float:
    """Bisection for min{s > 0 : s >= 5 max_{x>=1} H(sx)/(sx)}.

    The inner max runs over the deterministic geometric grid
    {1, _X_RATIO, _X_RATIO^2, ...} up to _X_MAX.  The map
    s -> max_x H(sx)/(sx) must be non-increasing (checked at
    _CHECK_POINTS geometric probes), which makes the feasible set an
    up-interval so bisection applies.
    """
    xs = [1.0]
    while xs[-1] * _X_RATIO <= _X_MAX:
        xs.append(xs[-1] * _X_RATIO)
    xs = np.array(xs)

    def g(s: float) -> float:
        vals = [H(s * x) / (s * x) for x in xs]
        return 5.0 * max(vals)

    probes = np.geomspace(max(tol, s_max * 1e-8), s_max, _CHECK_POINTS)
    gv = [g(s) for s in probes]
    for a, b in zip(gv[:-1], gv[1:]):
        if b > a * (1.0 + 1e-9) + 1e-12:
            raise MonotonicityViolation("s -> max_x H(sx)/(sx) increased on the probe grid")

    lo, hi = tol, s_max
    if lo >= g(lo):
        return lo
    if hi < g(hi):
        raise NoSolution(f"even s_max={s_max} fails the fixed-point inequality")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid >= g(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return hi
