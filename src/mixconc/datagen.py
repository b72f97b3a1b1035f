"""Dependent data designs: m-block Gaussian streams, MA(q) noise, and the
linear / nonparametric simulation designs.

Seeding contract: every random quantity is drawn from a Philox generator
keyed by (master_seed, replication, stream) through numpy's SeedSequence
spawn keys, so replications and streams are independent and results are
bit-identical for a given master seed regardless of execution order.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError
from .estimators import PopulationDesign

_NOISE_MIX = 0.01                   # weight of the idiosyncratic shock
STREAM_VARIANCE = 1.0 + _NOISE_MIX ** 2   # Var(block + mix * idiosyncratic)


def substream(seed: int, rep: int, stream: int) -> np.random.Generator:
    """Counter-based generator for (master seed, replication, stream)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(rep, stream))))


@dataclass
class Dataset:
    y: np.ndarray
    X: np.ndarray | None = None
    w: np.ndarray | None = None
    truth: np.ndarray | Callable | None = None
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Header row, y first column, then x1..xd (or w)."""
        if self.X is not None:
            cols = np.column_stack([self.y, self.X])
            header = "y," + ",".join(f"x{j+1}" for j in range(self.X.shape[1]))
        else:
            cols = np.column_stack([self.y, self.w])
            header = "y,w"
        np.savetxt(path, cols, delimiter=",", header=header, comments="")


def _block_stream(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """One m-block stream of length n (m | n): V1, drawn first from rng,
    repeated over blocks of length m, plus 0.01 times a per-observation
    V2; its variance is STREAM_VARIANCE = 1 + 0.01^2, its within-block
    covariance 1 and its covariance across blocks 0."""
    return np.repeat(rng.standard_normal(n // m), m) \
        + _NOISE_MIX * rng.standard_normal(n)


def gen_block_gaussian(n: int, m: int, count: int, seed: int,
                       rep: int = 0,
                       stream_offset: int = 0) -> list[np.ndarray]:
    """`count` independent m-block-dependent standard-Gaussian streams, each
    from its own substream (see `_block_stream`)."""
    if n % m:
        raise DomainError("m must divide n")
    return [_block_stream(substream(seed, rep, stream_offset + s), n, m)
            for s in range(count)]


_TRUNC = 6.0
_TAIL = ndtr(-_TRUNC)


def _truncated_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal conditioned on |z| <= 6, by inverse CDF (exact bound)."""
    u = rng.random(size)
    return ndtri(_TAIL + u * (1.0 - 2.0 * _TAIL))


def truncated_innovation_variance() -> float:
    """Variance of the +-6 truncated standard normal (just below 1)."""
    phi6 = math.exp(-0.5 * _TRUNC ** 2) / math.sqrt(2.0 * math.pi)
    return 1.0 - 2.0 * _TRUNC * phi6 / (1.0 - 2.0 * _TAIL)


def gen_ma(n: int, q: int, coeffs, seed: int, rep: int = 0,
           stream: int = 0) -> np.ndarray:
    """MA(q) series U_i = e_i - sum_j coeffs[j] e_{i-j-1} with bounded
    (+-6 truncated Gaussian) innovations; q-dependent by construction."""
    if q < 1:
        raise DomainError("q must be >= 1")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (q,):
        raise DomainError("coeffs must have length q")
    rng = substream(seed, rep, stream)
    eps = _truncated_normal(rng, n + q)
    out = eps[q:].copy()
    for j in range(q):
        out -= coeffs[j] * eps[q - 1 - j:n + q - 1 - j]
    return out


def ma_autocovariance(coeffs, lag: int) -> float:
    """Theoretical autocovariance of gen_ma at the given lag."""
    th = np.r_[1.0, -np.asarray(coeffs, dtype=float)]
    if lag >= th.size:
        return 0.0
    return truncated_innovation_variance() * float(np.dot(th[:th.size - lag], th[lag:]))


def make_linear_design(n: int, m: int, d: int = 3, seed: int = 0,
                       rep: int = 0) -> Dataset:
    """The linear simulation design: y = sum_j j^(-1/2) x_j + 0.5 u with
    d independent block-Gaussian covariate streams and one error stream."""
    streams = gen_block_gaussian(n, m, d + 1, seed, rep=rep)
    X = np.stack(streams[:d], axis=1)
    u = streams[d]
    truth = np.arange(1, d + 1, dtype=float) ** -0.5
    y = X @ truth + 0.5 * u
    design = PopulationDesign(sigma_x=STREAM_VARIANCE * np.eye(d),
                              noise_var=0.25 * STREAM_VARIANCE)
    return Dataset(y=y, X=X, truth=truth,
                   meta={"n": n, "m": m, "d": d, "design": design})


def np_target(w):
    """The nonparametric truth theta*(w) = 2 cos(w) + w."""
    w = np.asarray(w, dtype=float)
    return 2.0 * np.cos(w) + w


def make_np_design(n: int, m: int, seed: int = 0, rep: int = 0) -> Dataset:
    """The nonparametric design: w = 6x/(1+|x|), y = theta*(w) + 0.5u."""
    x, u = gen_block_gaussian(n, m, 2, seed, rep=rep)
    w = 6.0 * x / (1.0 + np.abs(x))
    y = np_target(w) + 0.5 * u
    return Dataset(y=y, w=w, truth=np_target,
                   meta={"n": n, "m": m, "noise_var": 0.25 * STREAM_VARIANCE})
