import math

import numpy as np
import pytest

from mixconc import DomainError, make_linear_design, make_np_design
from mixconc.datagen import (_FEW_KEYS, STREAM_VARIANCE, linear_design_stack,
                             np_design_stack, spawn_keys,
                             whitened_design_stack)
from mixconc.experiments import (TABLES12_GRID, TABLES34_GRID,
                                 ExperimentConfig, hash_cell)


def streams(n, m, count, seed, rep=0):
    """Block streams 0..count-1 of a replication: the covariate columns of
    `make_linear_design`, column j being stream j."""
    return make_linear_design(n, m, count, seed, rep).X.T


def test_block_stream_m1_iid_variance():
    (v,) = streams(200_000, 1, 1, seed=0)
    assert v.var() == pytest.approx(STREAM_VARIANCE, rel=0.02)
    lag1 = np.corrcoef(v[:-1], v[1:])[0, 1]
    assert abs(lag1) <= 3.0 / math.sqrt(v.size)


def test_block_stream_within_block_correlation():
    (v,) = streams(400_000, 4, 1, seed=1)
    pairs = v.reshape(-1, 4)
    r = np.corrcoef(pairs[:, 0], pairs[:, 3])[0, 1]
    # construction gives correlation 1 / (1 + 0.01^2)
    assert r == pytest.approx(1.0 / STREAM_VARIANCE, abs=3.0 / math.sqrt(100_000))


def test_block_means_uncorrelated_across_blocks():
    (v,) = streams(100_000, 10, 1, seed=2)
    means = v.reshape(-1, 10).mean(axis=1)
    rho = np.corrcoef(means[:-1], means[1:])[0, 1]
    assert abs(rho) <= 3.0 / math.sqrt(means.size)


def test_streams_mutually_independent():
    a, b = streams(100_000, 4, 2, seed=3)
    assert abs(np.corrcoef(a, b)[0, 1]) <= 3.0 / math.sqrt(100_000 / 4)


def test_block_stream_determinism_and_substreams():
    x1 = streams(1000, 4, 2, seed=9, rep=5)
    x2 = streams(1000, 4, 2, seed=9, rep=5)
    assert all((a == b).all() for a, b in zip(x1, x2))
    y = streams(1000, 4, 2, seed=9, rep=6)
    assert not (x1[0] == y[0]).all()


def test_block_requires_divisibility():
    with pytest.raises(DomainError):
        make_linear_design(10, 3, 1, seed=0)


def test_linear_design():
    ds = make_linear_design(100_000, 4, d=3, seed=6)
    assert np.allclose(ds.truth, [1.0, 2 ** -0.5, 3 ** -0.5])
    noise = ds.y - ds.X @ ds.truth
    assert noise.var() == pytest.approx(0.25 * STREAM_VARIANCE, rel=0.02)
    design = ds.meta["design"]
    assert np.allclose(design.sigma_x, STREAM_VARIANCE * np.eye(3))


def test_linear_design_single_block():
    ds = make_linear_design(64, 64, d=2, seed=7)
    # one block: observations share the block shock, so the within-block
    # spread is only the 0.01 idiosyncratic part
    assert np.std(ds.X[:, 0]) <= 0.02
    # population correlation 1/(1 + 0.01^2): across fresh blocks
    firsts, others = [], []
    for rep in range(4000):
        d2 = make_linear_design(4, 4, d=1, seed=7, rep=rep)
        firsts.append(d2.X[0, 0])
        others.append(d2.X[3, 0])
    r = np.corrcoef(firsts, others)[0, 1]
    assert r == pytest.approx(1.0 / STREAM_VARIANCE, abs=3.0 / math.sqrt(4000))


def test_np_design():
    ds = make_np_design(200_000, 2, seed=8)
    assert np.abs(ds.w).max() < 6.0
    assert abs(ds.w.mean()) <= 3.0 * ds.w.std() / math.sqrt(ds.w.size / 2)
    assert ds.truth(0.0) == pytest.approx(2.0)
    x = 1.0
    assert 6 * x / (1 + abs(x)) == pytest.approx(3.0)
    resid = ds.y - ds.truth(ds.w)
    assert resid.var() == pytest.approx(0.25 * STREAM_VARIANCE, rel=0.03)


def test_dataset_csv(tmp_path):
    ds = make_np_design(50, 1, seed=9)
    path = tmp_path / "data.csv"
    ds.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "y,w"
    arr = np.genfromtxt(path, delimiter=",", names=True)
    assert np.allclose(arr["y"], ds.y)
    ds2 = make_linear_design(20, 1, d=2, seed=10)
    path2 = tmp_path / "lin.csv"
    ds2.to_csv(path2)
    assert path2.read_text().splitlines()[0] == "y,x1,x2"


# -- the keyed streams: numpy's SeedSequence is the oracle --------------------


def _study_cell_seeds():
    base = ExperimentConfig().master_seed
    seeds = [base + 1000 * hash_cell(n, m) for (n, m) in TABLES12_GRID]
    seeds += [base + 97 * hash_cell(n, m) + 7 * pspline
              for (n, m) in TABLES34_GRID for pspline in (0, 1)]
    seeds += [base + 13 * mu0 + extra for mu0 in (1, 4) for extra in (0, 1)]
    return seeds


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5]
                         + _study_cell_seeds())
def test_spawn_keys_equal_seed_sequence(seed):
    # 12 pairs with a rep above 2^32 are hashed pair by pair; 18 pairs all
    # below 2^32, more than _FEW_KEYS, take the array pass
    streams = np.arange(6)
    assert 3 * streams.size > _FEW_KEYS
    for reps in (np.array([0, 2 ** 32 + 1]), np.array([0, 1, 2 ** 32 - 1])):
        keys = spawn_keys(seed, reps[:, None], streams)
        assert keys.shape == (len(reps), 6, 2) and keys.dtype == np.uint64
        for i, rep in enumerate(reps):
            for j, stream in enumerate(streams):
                ss = np.random.SeedSequence(seed,
                                            spawn_key=(int(rep), int(stream)))
                want = ss.generate_state(2, np.uint64)
                assert np.array_equal(keys[i, j], want)
                assert np.array_equal(spawn_keys(seed, rep, stream), want)


def _seed_sequence_stream(n, m, seed, rep, stream):
    """One m-block stream drawn from a SeedSequence-keyed Philox."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(rep, stream))))
    return (np.repeat(rng.standard_normal(n // m), m)
            + 0.01 * rng.standard_normal(n))


def _seed_sequence_linear_design(n, m, d, seed, rep):
    """The linear design drawn stream by stream from SeedSequence-keyed
    Philox generators, assembled with np.stack."""
    streams = [_seed_sequence_stream(n, m, seed, rep, stream)
               for stream in range(d + 1)]
    X = np.stack(streams[:d], axis=1)
    return X, X @ np.arange(1, d + 1, dtype=float) ** -0.5 + 0.5 * streams[d]


@pytest.mark.parametrize("n,m,d", [(50, 1, 3), (1000, 100, 3), (250, 5, 5),
                                   (100, 100, 3)])
def test_linear_design_stack_equals_each_replication(n, m, d):
    seed, reps = 20240901 + 1000 * hash_cell(n, m), range(40, 56)
    stack = linear_design_stack(n, m, d, seed, reps)
    assert stack.X.shape == (16, n, d) and stack.y.shape == (16, n)
    for r, rep in enumerate(reps):
        one = make_linear_design(n, m, d, seed, rep=rep)
        assert np.array_equal(stack.X[r], one.X)
        assert np.array_equal(stack.y[r], one.y)
        X, y = _seed_sequence_linear_design(n, m, d, seed, rep)
        assert np.array_equal(one.X, X) and np.array_equal(one.y, y)


@pytest.mark.parametrize("reps", [range(40, 56), (3, 2 ** 32, 7)],
                         ids=["array-pass", "pair-by-pair"])
@pytest.mark.parametrize("n,m", [(100, 1), (3000, 6), (60, 60)])
def test_np_design_stack_equals_each_replication(n, m, reps):
    # 16 reps hash their 32 (rep, stream) pairs in one array pass; a rep at
    # 2^32 sends the whole stack's keys pair by pair
    seed = 20240901 + 97 * hash_cell(n, m)
    stack = np_design_stack(n, m, seed, reps)
    assert stack.w.shape == stack.y.shape == (len(reps), n)
    for r, rep in enumerate(reps):
        one = make_np_design(n, m, seed, rep=rep)
        assert np.array_equal(stack.w[r], one.w)
        assert np.array_equal(stack.y[r], one.y)
        x, u = (_seed_sequence_stream(n, m, seed, rep, s) for s in (0, 1))
        w = 6.0 * x / (1.0 + np.abs(x))
        assert np.array_equal(one.w, w)
        assert np.array_equal(one.y, 2.0 * np.cos(w) + w + 0.5 * u)


def _seed_sequence_whitened_design(n, m, d, seed, rep):
    """The tail design drawn from SeedSequence-keyed Philox generators (the
    d columns in turn from stream 0, the error from stream 1) and whitened
    by the eigendecomposition of X'X / n, one replication at a time."""
    x_rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(rep, 0))))
    X = np.stack([np.repeat(x_rng.standard_normal(n // m), m)
                  + 0.01 * x_rng.standard_normal(n) for _ in range(d)], axis=1)
    evals, evecs = np.linalg.eigh(X.T @ X / n)
    X = X @ evecs @ np.diag(evals ** -0.5) @ evecs.T
    return X, _seed_sequence_stream(n, m, seed, rep, 1)


@pytest.mark.parametrize("n,m,d", [(64, 1, 3), (64, 4, 3), (128, 8, 5),
                                   (24, 24, 1), (3, 1, 3)])
def test_whitened_design_stack_equals_each_replication(n, m, d):
    seed, reps = 20240901 + 13 * m, range(40, 56)
    stack = whitened_design_stack(n, m, d, seed, reps)
    assert stack.X.shape == (16, n, d) and stack.y.shape == (16, n)
    assert np.array_equal(stack.truth, np.zeros(d))
    for r, rep in enumerate(reps):
        X, u = _seed_sequence_whitened_design(n, m, d, seed, rep)
        assert np.array_equal(stack.X[r], X)
        assert np.array_equal(stack.y[r], u)


@pytest.mark.parametrize("m", [1, 4, 8])
def test_whitened_design_stack_is_whitened(m):
    n, d = 64, 3
    X = whitened_design_stack(n, m, d, 20240901 + 13 * m, range(100)).X
    gram = X.transpose(0, 2, 1) @ X / n
    assert np.abs(gram - np.eye(d)).max() <= 1e-12


def test_streams_equal_seed_sequence_draws():
    x, u = streams(30, 3, 4, seed=4, rep=6)[2:]
    for stream, got in ((2, x), (3, u)):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(4, spawn_key=(6, stream))))
        assert np.array_equal(got, np.repeat(rng.standard_normal(10), 3)
                              + 0.01 * rng.standard_normal(30))


def test_raw_draws_are_pinned():
    # a change of key derivation or of stream order fails here
    ds = make_linear_design(20, 4, d=2, seed=7, rep=3)
    assert ds.X[:2].tolist() == [[1.366864278338269, -0.9387896490497205],
                                 [1.3938114014293403, -0.9288345434747072]]
    assert ds.y[:2] == pytest.approx([-0.3295883022384618,
                                      -0.28615078500522906], rel=1e-14)
    ds = make_np_design(10, 2, seed=11, rep=1)
    assert ds.w[:3].tolist() == [-0.003014801349412471, 0.010081130839223362,
                                 -0.6840147492486978]
    assert ds.y[:3] == pytest.approx([1.397028210860867, 1.4043427713543184,
                                      0.9250665510224877], rel=1e-14)


@pytest.mark.parametrize("call", [
    lambda: make_linear_design(10, 0),
    lambda: make_linear_design(10, -1),
    lambda: make_linear_design(10, 1, d=0),
    lambda: make_linear_design(10, 1, seed=-1),
    lambda: make_linear_design(10, 1, rep=-1),
    lambda: make_np_design(10, 0),
    lambda: make_np_design(10, -2),
    lambda: make_np_design(10, 1, seed=-1),
    lambda: make_np_design(10, 1, rep=-1),
    # the count (d) and the length (n) of the block streams
    lambda: make_linear_design(10, 1, d=-1),
    lambda: make_linear_design(0, 1),
    lambda: spawn_keys(1.5, 0, 0),
    lambda: spawn_keys(0, [0.5], 0),
    lambda: whitened_design_stack(2, 1, 3, 0, [0]),
    lambda: whitened_design_stack(8, 3, 1, 0, [0]),
], ids=["linear-m0", "linear-m-neg", "linear-d0", "linear-seed", "linear-rep",
        "np-m0", "np-m-neg", "np-seed", "np-rep", "block-count", "block-n0",
        "float-seed", "float-rep", "whitened-n-below-d",
        "whitened-m-not-dividing"])
def test_bad_design_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
