import json
import math

import numpy as np
import pytest

from mixconc import (BetaMixingModel, BoundParams, ExperimentConfig,
                     SieveBasis, default_s, eval_bound, feasible_k,
                     l1_envelope, make_np_design, run_ols_tail, run_tables12,
                     run_tables34, sieve_grid, variance_proxy, write_csv,
                     write_manifest)
from mixconc.experiments import (SIEVE_KS, TABLES12_GRID,
                                 TABLES34_TEST_MULTIPLIER, ReportRow,
                                 _tables34_chunk,
                                 build_sieve_oracle, hash_cell,
                                 snap_admissible)


@pytest.fixture(scope="module")
def tiny12():
    cfg = ExperimentConfig(experiment="tables12",
                           grid=((50, 1), (50, 2)), mc_reps=60,
                           chunk_size=30)
    return cfg, run_tables12(cfg)


def test_tables12_rows_shape(tiny12):
    cfg, rows = tiny12
    assert len(rows) == 4   # 2 cells x 2 methods
    med = [r for r in rows if r.method == "median"]
    assert med[0].mu_actual > 0
    assert med[1].mu_predicted == pytest.approx(
        math.sqrt(2) * med[0].mu_actual)
    assert all(r.n_failed == 0 for r in rows)
    assert all(r.n_reps == 60 for r in rows)


CHUNK_SIZES_AND_WORKERS = [(size, workers) for size in (1, 7, 15, 250)
                           for workers in (1, 2)]


@pytest.fixture(scope="module")
def ref12():
    cfg = ExperimentConfig(grid=((50, 1), (50, 2), (1000, 1), (1000, 10)),
                           mc_reps=40)
    return cfg, [repr(row) for row in run_tables12(cfg)]


@pytest.mark.parametrize("chunk_size,workers", CHUNK_SIZES_AND_WORKERS
                         + [(2000, 1), (2000, 2)])
def test_tables12_deterministic_across_workers(ref12, chunk_size, workers):
    # every row, to the last bit, whatever the chunk size and worker count
    cfg, ref = ref12
    rows = run_tables12(cfg.replace(chunk_size=chunk_size, workers=workers))
    assert [repr(row) for row in rows] == ref


@pytest.fixture(scope="module")
def ref34():
    cfg = ExperimentConfig(experiment="tables34",
                           grid=((100, 1), (1000, 1), (1000, 10)), mc_reps=40)
    oracles = {kind: build_sieve_oracle(kind) for kind in cfg.basis_kinds}
    return cfg, oracles, [repr(row) for row in run_tables34(cfg, oracles)]


@pytest.mark.parametrize("chunk_size,workers", CHUNK_SIZES_AND_WORKERS)
def test_tables34_deterministic_across_workers(ref34, chunk_size, workers):
    cfg, oracles, ref = ref34
    rows = run_tables34(cfg.replace(chunk_size=chunk_size, workers=workers),
                        oracles)
    assert [repr(row) for row in rows] == ref


def test_one_process_pool_per_study(monkeypatch):
    from mixconc import experiments
    starts = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    run_tables12(ExperimentConfig(grid=((50, 1), (50, 2)), mc_reps=20,
                                  chunk_size=10, workers=2))
    assert len(starts) == 1
    run_tables34(ExperimentConfig(experiment="tables34", grid=((100, 1),),
                                  mc_reps=20, chunk_size=10, workers=2,
                                  basis_kinds=("polynomial", "pspline")))
    assert len(starts) == 2


def test_tables12_chunk_matches_rep_by_rep_fits():
    # a chunk of 8 reps of every cell, pivoted as one stack, against its
    # reps fitted one at a time, R = 1
    from mixconc import (ABS_HALF, NO_PENALTY, SQUARED, delta_p, experiments,
                         make_linear_design)
    from mixconc.estimators import _finish_exact, _squared_gradient
    reps, tol = (0, 8), 1e-6
    for n, m in TABLES12_GRID:
        seed = 20240901 + 1000 * hash_cell(n, m)
        got = experiments._tables12_chunk((n, m, 3, seed, reps, tol))
        draws = [make_linear_design(n, m, 3, seed, rep=r)
                 for r in range(*reps)]
        X = np.stack([data.X for data in draws])
        y = np.stack([data.y for data in draws])
        Xt = X.transpose(0, 2, 1)
        theta_mean = np.linalg.solve(Xt @ X, Xt @ y[..., None])[..., 0]
        mean_resid = [_squared_gradient(X[r], y[r] - X[r] @ theta_mean[r],
                                        theta_mean[r], NO_PENALTY)
                      for r in range(len(X))]
        fits = [_finish_exact(X[r:r + 1], y[r:r + 1], 0.5, NO_PENALTY,
                              theta_mean[r:r + 1], tol) for r in range(len(X))]
        theta_med = np.concatenate([fit[0] for fit in fits])
        resid = np.concatenate([fit[1] for fit in fits])
        design, truth = draws[0].meta["design"], draws[0].truth
        delta_mean = delta_p(design, SQUARED, theta_mean, truth)
        delta_med = delta_p(design, ABS_HALF, theta_med, truth)
        assert np.all(resid <= tol) and max(mean_resid) <= 1e-12
        want = (delta_mean, np.ones(8, bool), delta_med, resid)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), (n, m)


@pytest.mark.parametrize("n", [50, 250, 1000])
def test_tables12_chunk_draws_one_pivot_slice_at_a_time(monkeypatch, n):
    # chunk_size 2000 is cut at the pivot's stack of max(1, SLICE_ROWS // n)
    # reps, each chunk draws its reps once, and the chunks cover them in order
    from mixconc import _admm, experiments
    asked, drawn = [], []
    chunk, draw = experiments._tables12_chunk, experiments.linear_design_stack

    def recorded_chunk(args):
        asked.append(args[4])
        return chunk(args)

    def recorded_draw(n, m, d, seed, reps):
        drawn.append(list(reps))
        return draw(n, m, d, seed, reps)
    monkeypatch.setattr(experiments, "_tables12_chunk", recorded_chunk)
    monkeypatch.setattr(experiments, "linear_design_stack", recorded_draw)
    run_tables12(ExperimentConfig(grid=((n, 1),), mc_reps=700,
                                  chunk_size=2000))
    step = max(1, _admm.SLICE_ROWS // n)
    assert all(stop - start <= step for start, stop in asked)
    assert drawn == [list(range(*span)) for span in asked]
    assert [r for reps in drawn for r in reps] == list(range(700))


def test_uncertified_median_fits_fail_the_cell(monkeypatch):
    from mixconc import NonConvergence, experiments

    def uncertified(X, y, tau, pen, theta0, tol):
        return theta0, np.full(len(X), np.inf), ["lp"] * len(X)
    monkeypatch.setattr(experiments, "_finish_exact", uncertified)
    with pytest.raises(NonConvergence, match=r"20 uncertified .*n=50, m=1"):
        run_tables12(ExperimentConfig(grid=((50, 1),), mc_reps=20,
                                      chunk_size=10))


def test_uncertified_mean_fits_fail_the_cell(monkeypatch):
    from mixconc import NonConvergence, experiments
    certify = experiments._squared_gradient

    def one_uncertified(X, res, theta, pen):
        out = certify(X, res, theta, pen)
        out[0] = np.inf                      # the first rep of each chunk
        return out
    monkeypatch.setattr(experiments, "_squared_gradient", one_uncertified)
    with pytest.raises(NonConvergence, match=r"2 uncertified mean .*n=50, m=1"):
        run_tables12(ExperimentConfig(grid=((50, 1),), mc_reps=20,
                                      chunk_size=10))


def test_ols_tail_rows():
    cfg = ExperimentConfig(experiment="ols-tail", mc_reps=400,
                           tail_mu0=(1, 4), tail_u=(0.5, 4.0, 16.0))
    rows = run_ols_tail(cfg)
    assert len(rows) == 6
    for row in rows:
        if row.u <= 0.5:
            assert row.tail_bound >= 1.0   # trivially satisfied
        assert row.tail_freq <= row.tail_bound + 3 * row.mc_std_error
    mu0_1 = [r for r in rows if r.m == 1]
    assert all(r.n_beta == 64 for r in mu0_1)


def test_eval_bound_g0_and_lambda_term():
    model = BetaMixingModel.iid()
    # upsilon = 1 pins p_upsilon = 2 and hence G0 = 82.54
    params = BoundParams(penalty="l1", d=3, n=64, model=model, pi0=4.0,
                         E_pi0=1.2, lam=0.1, theta_norm=2.0, u=100.0,
                         upsilon=1, trWinv=0.0, M_over_lambda=0.0)
    out = eval_bound(params)
    assert out["G0"] == pytest.approx(3 * (2 * 8.1 + math.sqrt(2) * 8))
    assert out["variance_component"] == 0.0
    front = 100.0 * max(1.0, math.sqrt(2) * 10 * 1.5) \
        * max(1.0, 2 ** 0.25 * 1.2)
    assert out["bound"] == pytest.approx(front * math.sqrt(0.1 * 2.0))


def test_eval_bound_dimension_scaling():
    def b_component(d):
        params = BoundParams(penalty="l1", d=d, n=64,
                             model=BetaMixingModel.iid(), pi0=4.0, E_pi0=1.0,
                             lam=0.1, theta_norm=0.0, u=10.0, upsilon=2,
                             trWinv=1e9, M_over_lambda=1.0)
        return eval_bound(params)["variance_component"]
    d = 7
    ratio = (b_component(2 * d) / b_component(d)) ** 2
    assert ratio == pytest.approx(math.sqrt(math.log(4 * d) / math.log(2 * d)))


def test_eval_bound_l2p_branches():
    base = dict(d=10, n=64, model=BetaMixingModel.iid(), pi0=4.0, E_pi0=1.0,
                lam=0.5, theta_norm=1.0, u=10.0, upsilon=2, emin_W=1.0)
    hi = eval_bound(BoundParams(penalty="l2p", m=2.0, **base))
    lo = eval_bound(BoundParams(penalty="l2p", m=0.5, trWinv=3.0, **base))
    assert hi["bound"] > 0 and lo["bound"] > 0


def test_l1_envelope():
    env, a_star = l1_envelope(0.02, 5.0, 80.0)
    assert a_star == pytest.approx(250.0)
    assert env == pytest.approx(
        0.02 * (1 + 80 * math.log(10.0) + 80 * math.log(50.0)))


def test_csv_schema_and_manifest(tmp_path, tiny12):
    cfg, rows = tiny12
    out = tmp_path / "report.csv"
    write_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(ReportRow.FIELDS)
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    mu = float(first[ReportRow.FIELDS.index("mu_actual")])
    assert mu == pytest.approx(rows[0].mu_actual, rel=1e-5)   # 6 sig digits
    man = tmp_path / "report.manifest.json"
    write_manifest(cfg, man)
    payload = json.loads(man.read_text())
    assert payload["master_seed"] == cfg.master_seed
    assert "numpy" in payload["versions"]
    assert payload["config"]["mc_reps"] == 60


def test_snap_admissible():
    assert snap_admissible(50, 3) == 50
    assert snap_admissible(14, 3) == 15   # 14 = 2*7 inadmissible; 15 = 3*5
    assert snap_admissible(7, 2) in (6, 8)


def test_hash_cell_stable():
    assert hash_cell(100, 4) == hash_cell(100, 4)
    assert hash_cell(100, 4) != hash_cell(100, 2)


def test_sieve_oracle_cache_reuse():
    oracle = build_sieve_oracle("polynomial")
    M8, c8 = oracle.moments(8)
    M5, c5 = oracle.moments(5)
    assert np.allclose(M8[:5, :5], M5)
    assert np.allclose(c8[:5], c5)


# -- the sieve study's fits ------------------------------------------------------


@pytest.mark.parametrize("kind", ["polynomial", "pspline"])
def test_tables34_chunk_matches_per_k_lstsq(kind):
    n, m, seed, reps = 100, 1, 12345, (0, 40)
    oracle = build_sieve_oracle(kind)
    grams = [oracle.moments(k)[0] for k in SIEVE_KS]
    s_n = default_s(n, m)
    kF, chosen = _tables34_chunk((kind, n, m, seed, reps,
                                  TABLES34_TEST_MULTIPLIER, grams, s_n))
    grid = sieve_grid(SIEVE_KS)
    proxy = variance_proxy(grid, n // m)
    ref_kF = []
    for rep, theta in zip(range(*reps), chosen):
        data = make_np_design(n, m, seed, rep=rep)
        fits = [np.linalg.lstsq(SieveBasis(kind, k).design(data.w), data.y,
                                rcond=None)[0] for k in SIEVE_KS]
        k = feasible_k(grid, fits, proxy, s_n, grams,
                       multiplier=TABLES34_TEST_MULTIPLIER).k_feasible
        ref_kF.append(k)
        ref = fits[SIEVE_KS.index(k)]
        assert np.linalg.norm(theta - ref) <= 1e-12 * np.linalg.norm(ref)
    assert kF == ref_kF
