"""Dependent data designs: m-block Gaussian streams and the linear /
nonparametric simulation designs.

Seeding contract: every random quantity is drawn from a Philox generator
at counter 0 whose key is fixed by (master_seed, replication, stream): it
is the key numpy's SeedSequence(master_seed, spawn_key=(replication,
stream)) gives Philox.  `spawn_keys` derives the keys of many pairs in
one vectorized pass of that hash, and the draws re-key one Philox per
call, so replications and streams are independent, and for a given
master seed a replication's draws are bit-identical in any order and in
any stack (`linear_design_stack`, `np_design_stack`,
`whitened_design_stack`).
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .estimators import PopulationDesign

_NOISE_MIX = 0.01                   # weight of the idiosyncratic shock
STREAM_VARIANCE = 1.0 + _NOISE_MIX ** 2   # Var(block + mix * idiosyncratic)

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# four uint32 words filled and mixed by hashmix / mix, read out by
# generate_state.
_POOL, _MASK32, _XSHIFT = 4, 0xFFFFFFFF, 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_ZERO4 = np.zeros(4, dtype=np.uint64)       # a Philox counter at 0


def spawn_keys(seed: int, rep, stream) -> np.ndarray:
    """Philox keys of (replication, stream) pairs under one master seed.

    rep and stream are broadcast against each other; the result has their
    shape plus a last axis of 2 (uint64), and its entry at a pair equals
    np.random.SeedSequence(seed, spawn_key=(rep, stream)).generate_state(
    2, np.uint64), the key Philox takes from that SeedSequence.  The seed
    is hashed once.  When every index fits one 32-bit word, as a study's
    do, the pairs are hashed in one pass on uint64 arrays; otherwise, and
    for up to _FEW_KEYS pairs, where that is cheaper than the pass's ~100
    numpy calls, they are hashed pair by pair on Python ints.  A negative
    or non-integer seed or index raises DomainError."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rep, stream = np.broadcast_arrays(np.asarray(rep), np.asarray(stream))
    if rep.dtype.kind not in "iu" or stream.dtype.kind not in "iu" \
            or (rep < 0).any() or (stream < 0).any():
        raise DomainError("replication and stream indices must be "
                          "integers >= 0")
    # SeedSequence pads the seed's words to the pool when a spawn key follows
    words = _words(int(seed))
    state = _absorb(words + [0] * (_POOL - len(words)))
    shape = rep.shape
    if rep.size <= _FEW_KEYS or max(rep.max(), stream.max()) > _MASK32:
        return np.array([_key(_absorb(_words(r) + _words(s), *state))
                         for r, s in zip(rep.ravel().tolist(),
                                         stream.ravel().tolist())],
                        dtype=np.uint64).reshape(shape + (2,))
    tail = [rep.astype(np.uint64), stream.astype(np.uint64)]
    return np.stack(_key(_absorb(tail, *state)), axis=-1)


#: spawn_keys hashes up to this many pairs one by one on Python ints
_FEW_KEYS = 8


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _absorb(words, pool=(), const=_INIT_A):
    """SeedSequence.mix_entropy continued from (pool, const) over more
    entropy words: the first _POOL words fill the pool, which is then
    mixed within; every later word is mixed into each pool word.  Returns
    the new (pool, const).  The words are Python ints or uint64 arrays of
    values below 2^32 that broadcast; every product stays below 2^64
    before it is masked."""
    pool = list(pool)

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = (_MIX_L * x - _MIX_R * y) & _MASK32
        return out ^ (out >> _XSHIFT)

    for word in words:
        if len(pool) < _POOL:
            pool.append(hashmix(word))
            if len(pool) == _POOL:
                for src in range(_POOL):
                    for dst in range(_POOL):
                        if src != dst:
                            pool[dst] = mix(pool[dst], hashmix(pool[src]))
        else:
            for dst in range(_POOL):
                pool[dst] = mix(pool[dst], hashmix(word))
    return pool, const


def _key(state):
    """SeedSequence.generate_state(2, np.uint64) of a full pool: the two
    64-bit key words."""
    const, out = _INIT_B, []
    for value in state[0]:
        value = value ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ (value >> _XSHIFT))
    # the little-endian pairs of the four words
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _generator() -> np.random.Generator:
    """A Philox generator for `_block_stream` to re-key."""
    return np.random.Generator(np.random.Philox(key=np.zeros(2, np.uint64)))


def _check_blocks(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise DomainError(f"n and m must be >= 1, got n={n}, m={m}")
    if n % m:
        raise DomainError("m must divide n")


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


def _block_stream(rng: np.random.Generator, keys: np.ndarray, m: int,
                  out: np.ndarray) -> None:
    """Fill out, of shape keys.shape[:-1] + (c, n), with m-block streams
    (m | n): the c streams of out[i] are drawn in turn from rng's Philox
    re-keyed to keys[i] (see `spawn_keys`) at counter 0.  A stream is V1,
    drawn first, repeated over blocks of length m, plus 0.01 times a
    per-observation V2; its variance is STREAM_VARIANCE = 1 + 0.01^2, its
    within-block covariance 1 and its covariance across blocks 0.  out may
    be a strided view (the columns of a design)."""
    n = out.shape[-1]
    # V1 and then V2 from one call: the same draws as two calls in turn
    draws = np.empty(n // m + n)
    shock, noise = draws[:n // m, None], draws[n // m:]
    blocks = noise.reshape(-1, m)            # a view: noise by block
    state = {"bit_generator": "Philox",
             "state": {"counter": _ZERO4, "key": None},
             "buffer": _ZERO4, "buffer_pos": 4,   # the buffer is used up
             "has_uint32": 0, "uinteger": 0}
    for i in np.ndindex(keys.shape[:-1]):
        state["state"]["key"] = keys[i]
        rng.bit_generator.state = state
        for stream in out[i]:
            rng.standard_normal(out=draws)
            noise *= _NOISE_MIX
            blocks += shock
            stream[...] = noise


def linear_design_stack(n: int, m: int, d: int, seed: int, reps) -> Dataset:
    """`make_linear_design` for each replication in reps, stacked: X is
    (R, n, d) and y (R, n).  The keys of all (rep, stream) pairs come from
    one `spawn_keys` pass, and each stream is written in place, so the
    stack holds no per-replication copies."""
    _check_blocks(n, m)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    reps = np.asarray(reps)
    keys = spawn_keys(seed, reps[:, None], np.arange(d + 1))
    X, y = np.empty((reps.size, n, d)), np.empty((reps.size, n))
    rng = _generator()
    _block_stream(rng, keys[:, :d], m, X.transpose(0, 2, 1)[:, :, None])
    _block_stream(rng, keys[:, d:], m, y[:, None, None])   # the error u
    truth = np.arange(1, d + 1, dtype=float) ** -0.5
    y *= 0.5                                 # y = X truth + 0.5 u in place
    y += X @ truth
    design = PopulationDesign(sigma_x=STREAM_VARIANCE * np.eye(d),
                              noise_var=0.25 * STREAM_VARIANCE)
    return Dataset(y=y, X=X, truth=truth,
                   meta={"n": n, "m": m, "d": d, "design": design})


def make_linear_design(n: int, m: int, d: int = 3, seed: int = 0,
                       rep: int = 0) -> Dataset:
    """The linear simulation design: y = sum_j j^(-1/2) x_j + 0.5 u with
    d independent block-Gaussian covariate streams (streams 0..d-1) and
    one error stream (stream d)."""
    data = linear_design_stack(n, m, d, seed, (rep,))
    data.X, data.y = data.X[0], data.y[0]
    return data


def np_target(w):
    """The nonparametric truth theta*(w) = 2 cos(w) + w."""
    w = np.asarray(w, dtype=float)
    return 2.0 * np.cos(w) + w


def np_design_stack(n: int, m: int, seed: int, reps) -> Dataset:
    """`make_np_design` for each replication in reps, stacked: w and y are
    (R, n), drawn into one buffer from the keys of one `spawn_keys` pass."""
    _check_blocks(n, m)
    keys = spawn_keys(seed, np.asarray(reps)[:, None], (0, 1))
    streams = np.empty(keys.shape[:-1] + (1, n))          # (R, 2, 1, n)
    _block_stream(_generator(), keys, m, streams)
    x, u = streams[:, 0, 0], streams[:, 1, 0]
    w = 6.0 * x / (1.0 + np.abs(x))
    return Dataset(y=np_target(w) + 0.5 * u, w=w, truth=np_target,
                   meta={"n": n, "m": m, "noise_var": 0.25 * STREAM_VARIANCE})


def make_np_design(n: int, m: int, seed: int = 0, rep: int = 0) -> Dataset:
    """The nonparametric design: w = 6x/(1+|x|), y = theta*(w) + 0.5u, with
    x stream 0 and u stream 1."""
    data = np_design_stack(n, m, seed, (rep,))
    data.w, data.y = data.w[0], data.y[0]
    return data


def whitened_design_stack(n: int, m: int, d: int, seed: int,
                          reps) -> Dataset:
    """The least-squares tail design for each replication in reps,
    stacked: y = X 0 + u, with X (R, n, d) whitened so that X'X / n = I
    and the error u (R, n).  The d covariate columns are drawn in turn from
    the one stream 0 (not one stream per column as in `make_linear_design`)
    and u is stream 1; the keys come from one `spawn_keys` pass and X'X / n
    is whitened by one stacked eigh.  The whitening needs n >= d."""
    _check_blocks(n, m)
    if not 1 <= d <= n:
        raise DomainError(f"d must lie in [1, n], got d={d}, n={n}")
    keys = spawn_keys(seed, np.asarray(reps)[:, None], (0, 1))
    X, u = np.empty((len(keys), n, d)), np.empty((len(keys), n))
    rng = _generator()
    _block_stream(rng, keys[:, :1], m, X.transpose(0, 2, 1)[:, None])
    _block_stream(rng, keys[:, 1:], m, u[:, None, None])
    evals, evecs = np.linalg.eigh(X.transpose(0, 2, 1) @ X / n)
    X = (X @ evecs * evals[:, None] ** -0.5) @ evecs.transpose(0, 2, 1)
    return Dataset(y=u, X=X, truth=np.zeros(d),
                   meta={"n": n, "m": m, "d": d})
