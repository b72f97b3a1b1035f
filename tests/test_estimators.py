import math
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog, lsq_linear

from mixconc import (ABS_HALF, NO_PENALTY, SQUARED, DomainError, LossSpec,
                     NonConvergence, PenaltySpec, PopulationDesign,
                     ShapeMismatch, SieveMomentOracle, SingularDesign,
                     SolverOptions, bias_term, delta_p, delta_p_mc,
                     empirical_criterion, fit_ols, fit_penalized,
                     fit_penalized_qr, fit_sieve_ls, make_linear_design,
                     np_target, polynomial_basis, pspline_basis,
                     quantile_loss, subgradient_residual)
from mixconc import _admm
from mixconc import estimators as est
from mixconc.estimators import gradient_residual_squared


# -- criterion ------------------------------------------------------------------


def test_criterion_interpolant_zero():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    theta = np.array([2.0, -1.0])
    y = X @ theta
    assert empirical_criterion(SQUARED, NO_PENALTY, (X, y), theta) == 0.0


def test_criterion_hand_value():
    X = np.ones((3, 1))
    y = np.array([1.0, 2.0, 9.0])
    val = empirical_criterion(quantile_loss(0.5), NO_PENALTY, (X, y), [2.0])
    assert val == pytest.approx(4.0 / 3.0)


def test_criterion_penalty_additivity():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    theta = rng.standard_normal(3)
    pen = PenaltySpec("l1", lam=1.0)
    diff = empirical_criterion(quantile_loss(0.3), pen, (X, y), theta) \
        - empirical_criterion(quantile_loss(0.3), NO_PENALTY, (X, y), theta)
    assert diff == pytest.approx(np.abs(theta).sum())


def test_criterion_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        empirical_criterion(SQUARED, NO_PENALTY,
                            (np.ones((3, 2)), np.ones(3)), np.ones(3))


def test_abs_half_equals_median_loss():
    r = np.array([-2.0, 0.0, 3.5])
    assert np.allclose(ABS_HALF.values(r), 0.5 * np.abs(r))
    assert np.allclose(LossSpec("quantile", 0.5).values(r), 0.5 * np.abs(r))


# -- quantile regression solver ---------------------------------------------------


def test_median_matches_grid_oracle():
    X = np.ones((3, 1))
    y = np.array([1.0, 2.0, 9.0])
    fit = fit_penalized_qr((X, y), 0.5)
    grid = np.linspace(0.0, 10.0, 10_001)
    objs = [empirical_criterion(quantile_loss(0.5), NO_PENALTY, (X, y), [t])
            for t in grid]
    assert abs(fit.theta[0] - grid[int(np.argmin(objs))]) <= 1e-3
    assert fit.theta[0] == pytest.approx(2.0, abs=1e-9)
    assert fit.optimality_residual <= 1e-6


def test_l1_large_lambda_zeroes_theta():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    fit = fit_penalized_qr((X, y), 0.5, PenaltySpec("l1", lam=50.0))
    assert np.allclose(fit.theta, 0.0, atol=1e-8)
    assert fit.optimality_residual <= 1e-6


def test_ridge_path_matches_normal_equations():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 4))
    y = rng.standard_normal(60)
    pen = PenaltySpec("weighted_l2", lam=0.3, m=0.0)
    fit = fit_penalized((X, y), SQUARED, pen,
                        SolverOptions(tol=1e-10))
    n = X.shape[0]
    oracle = np.linalg.solve(X.T @ X / n + pen.lam * np.eye(4), X.T @ y / n)
    assert np.linalg.norm(fit.theta - oracle) <= 1e-8


def test_ridge_closed_form_matches_admm():
    ds = make_linear_design(400, 4, d=5, seed=12)
    pen = PenaltySpec("weighted_l2", lam=0.05, m=2.0)
    fit = fit_penalized((ds.X, ds.y), SQUARED, pen)
    assert fit.method == "closed_form" and fit.iterations == 0
    assert fit.optimality_residual <= 1e-10
    state = _admm.admm_batch(ds.X[None], ds.y[None], loss_kind="squared",
                             pen_kind="weighted_l2", lam=pen.lam,
                             pweights=pen.weights(5), iters=2000)
    assert np.linalg.norm(state.theta[0] - fit.theta) <= 1e-8


def test_penalized_qr_near_minimizer_contract():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 3))
    y = X @ np.array([1.0, -0.5, 0.2]) + rng.standard_normal(50)
    for pen in (NO_PENALTY, PenaltySpec("l1", lam=0.05),
                PenaltySpec("weighted_l2", lam=0.05, m=1.0)):
        fit = fit_penalized_qr((X, y), 0.3, pen)
        assert fit.optimality_residual <= 1e-6
        loss = quantile_loss(0.3)
        base = empirical_criterion(loss, pen, (X, y), fit.theta)
        for _ in range(40):
            probe = fit.theta + rng.standard_normal(3) * rng.uniform(0, 2)
            assert base <= empirical_criterion(loss, pen, (X, y), probe) + 1e-9


def test_subgradient_residual_detects_suboptimal():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    fit = fit_penalized_qr((X, y), 0.5)
    good = subgradient_residual(X, y, fit.theta, 0.5, NO_PENALTY)
    bad = subgradient_residual(X, y, fit.theta + 0.3, 0.5, NO_PENALTY)
    assert good <= 1e-6 < bad


def _bvls_certificate(X, y, theta, tau, lam=0.0):
    """The certificate's box problem restated and handed to bvls."""
    n, d = X.shape
    res = y - X @ theta
    act = np.abs(res) <= 1e-7 * (1.0 + np.abs(y).max())
    base = -(X[~act].T @ (tau - (res[~act] <= 0))) / n
    cols = [-X[act].T / n]
    lo = [tau - 1.0] * int(act.sum())
    hi = [tau] * int(act.sum())
    if lam > 0:
        zero = np.abs(theta) <= 1e-9
        base = base + lam * np.sign(theta) * (~zero)
        cols.append(lam * np.eye(d)[:, zero])
        lo += [-1.0] * int(zero.sum())
        hi += [1.0] * int(zero.sum())
    A = np.hstack(cols)
    sol = lsq_linear(A, -base, bounds=(lo, hi), method="bvls")
    return float(np.linalg.norm(A @ sol.x + base)), A.shape[1]


@pytest.fixture
def box_solves(monkeypatch):
    """Counts the certificate's bvls calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return lsq_linear(*args, **kwargs)
    monkeypatch.setattr(est, "lsq_linear", counting)
    return calls


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_certificate_vertex_shortcut_matches_bvls(lam, box_solves):
    # at a pivot vertex the d free subgradients (active rows, and zero
    # coefficients under l1) solve a square system inside the box
    rng = np.random.default_rng(41)
    X = rng.standard_normal((200, 5))
    y = X @ np.array([1.0, -0.6, 0.0, 0.0, 0.3]) + rng.standard_normal(200)
    pen = PenaltySpec("l1", lam=lam) if lam else NO_PENALTY
    fit = fit_penalized_qr((X, y), 0.3, pen)
    assert fit.method == "simplex"
    if lam:
        assert 0 < np.sum(np.abs(fit.theta) <= 1e-9) < 5
    expected, free = _bvls_certificate(X, y, fit.theta, 0.3, lam)
    assert free == 5
    box_solves.clear()
    got = subgradient_residual(X, y, fit.theta, 0.3, pen)
    assert not box_solves                        # answered by the shortcut
    assert got <= 1e-12 and abs(got - expected) <= 1e-12


def test_certificate_out_of_box_vertex_falls_back_to_bvls(box_solves):
    # interpolating the three largest responses is a vertex, not the median
    rng = np.random.default_rng(42)
    X = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    top = np.argsort(y)[-3:]
    theta = np.linalg.solve(X[top], y[top])
    expected, free = _bvls_certificate(X, y, theta, 0.5)
    assert free == 3
    got = subgradient_residual(X, y, theta, 0.5, NO_PENALTY)
    assert len(box_solves) == 1
    assert got > 1e-3 and got == pytest.approx(expected, rel=1e-9)


def test_quantile_tau_off_center():
    rng = np.random.default_rng(5)
    X = np.ones((201, 1))
    y = np.sort(rng.standard_normal(201))
    fit = fit_penalized_qr((X, y), 0.25)
    assert fit.theta[0] == pytest.approx(np.quantile(y, 0.25), abs=1e-6)


def test_admm_nonconvergence_names_the_sweep_count(monkeypatch):
    # a quantile + weighted-l2 fit whose certificate never passes
    monkeypatch.setattr(est, "_MAX_SWEEPS", 700)
    monkeypatch.setattr(est, "_certificate", lambda *args: 1.0)
    ds = make_linear_design(60, 1, d=3, seed=4)
    with pytest.raises(NonConvergence,
                       match=r"admm fit: residual 1\.000e\+00 > tol 1\.0e-06 "
                             r"\(700 ADMM sweeps\)"):
        fit_penalized_qr((ds.X, ds.y), 0.5,
                         PenaltySpec("weighted_l2", lam=0.05, m=2.0))


def test_fit_method_names_the_path_taken(monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.standard_normal((80, 3))
    y = X @ np.array([1.0, -0.5, 0.2]) + rng.standard_normal(80)
    assert fit_penalized_qr((X, y), 0.5).method == "simplex"
    assert fit_penalized_qr((X, y), 0.5, PenaltySpec("l1", lam=0.05)).method \
        == "simplex"
    assert fit_penalized_qr((X, y), 0.5, PenaltySpec("weighted_l2", lam=0.05,
                                                     m=1.0)).method == "admm"
    assert fit_penalized((X, y), SQUARED).method == "closed_form"
    assert fit_penalized((X, y), SQUARED, PenaltySpec("l1", lam=0.05)).method \
        == "admm"
    exact = fit_penalized_qr((X, y), 0.3, PenaltySpec("l1", lam=0.05))
    # a stalled pivot hands the problem to the LP
    monkeypatch.setattr(_admm, "simplex_polish", lambda *args, **kw: None)
    fit = fit_penalized_qr((X, y), 0.3, PenaltySpec("l1", lam=0.05))
    assert fit.method == "lp" and fit.optimality_residual <= 1e-6
    assert fit.objective == pytest.approx(exact.objective, rel=1e-12)


# -- exact solver against an independent LP oracle -------------------------------


def _lp_objective(X, y, tau, lam):
    """Optimal (1/n) sum rho_tau(y - X b) + lam ||b||_1 by HiGHS, with
    b = b+ - b- and residual u+ - u-, all parts nonnegative."""
    n, d = X.shape
    c = np.r_[np.full(2 * d, lam), np.full(n, tau / n),
              np.full(n, (1.0 - tau) / n)]
    Xs = sparse.csr_matrix(X)
    A = sparse.hstack([Xs, -Xs, sparse.eye(n), -sparse.eye(n)], format="csc")
    res = linprog(c, A_eq=A, b_eq=y, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


@pytest.mark.parametrize("seed", range(40))
def test_quantile_fit_matches_lp_oracle(seed):
    # m-block designs (m up to 100: rows of a block nearly coincide), an
    # intercept column, and responses rounded to ties
    rng = np.random.default_rng(seed)
    m = int(rng.choice([1, 2, 5, 10, 20, 50, 100]))
    n = m * int(rng.integers(max(2, 8 // m + 1), max(3, 600 // m)))
    d = int(rng.integers(1, 7))
    tau = float(rng.choice([0.3, 0.5, 0.7]))
    lam = float(rng.choice([0.0, 0.002, 0.02, 0.2]))
    ds = make_linear_design(n, m, d, seed=seed, rep=1)
    X, y = ds.X, ds.y
    if seed % 3 == 0:
        X = np.column_stack([np.ones(n), X[:, 1:]])
    if seed % 2 == 0:
        y = np.round(y, 1)
    pen = PenaltySpec("l1", lam=lam) if lam else NO_PENALTY
    fit = fit_penalized_qr((X, y), tau, pen)
    lp = _lp_objective(X, y, tau, lam)
    assert fit.objective <= lp + 1e-9 * (1.0 + abs(lp))
    assert fit.optimality_residual <= 1e-6
    assert fit.method == "simplex"      # degenerate vertices do not stall
    assert subgradient_residual(X, y, fit.theta, tau, pen) <= 1e-6


def test_unpenalized_d8_certifies_within_a_second():
    ds = make_linear_design(2000, 1, d=8, seed=20240901, rep=83)
    start = time.perf_counter()
    fit = fit_penalized_qr((ds.X, ds.y), 0.5)
    assert time.perf_counter() - start < 1.0
    assert fit.method == "simplex" and fit.optimality_residual <= 1e-6


@pytest.mark.parametrize("n, d, tau, lam, rep", [(500, 10, 0.3, 0.02, 21),
                                                 (1000, 20, 0.5, 0.01, 22),
                                                 (10_000, 50, 0.5, 0.01, 0)])
def test_l1_quantile_fits_certify(n, d, tau, lam, rep):
    ds = make_linear_design(n, 1, d=d, seed=20240901, rep=rep)
    X, y = ds.X, ds.y
    fit = fit_penalized_qr((X, y), tau, PenaltySpec("l1", lam=lam))
    assert fit.method == "simplex" and fit.optimality_residual <= 1e-6
    if n <= 1000:
        lp = _lp_objective(X, y, tau, lam)
        assert fit.objective <= lp + 1e-9 * (1.0 + abs(lp))


# -- least squares ------------------------------------------------------------


def test_ols_orthonormal_formula():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((50, 3))
    S = X.T @ X / 50
    evals, evecs = np.linalg.eigh(S)
    X = X @ evecs @ np.diag(evals ** -0.5) @ evecs.T
    y = rng.standard_normal(50)
    fit = fit_ols((X, y))
    assert np.allclose(fit.theta, X.T @ y / 50, atol=1e-10)


def test_ols_noiseless_recovery():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 4))
    theta = np.array([1.0, -2.0, 0.5, 3.0])
    fit = fit_ols((X, X @ theta))
    assert np.linalg.norm(fit.theta - theta) <= 1e-10


def test_ols_scalar_is_covariance_ratio():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(40)
    y = 2.0 * x + rng.standard_normal(40)
    fit = fit_ols((x[:, None], y))
    assert fit.theta[0] == pytest.approx(np.dot(x, y) / np.dot(x, x))


def test_ols_singular():
    X = np.ones((10, 2))
    with pytest.raises(SingularDesign):
        fit_ols((X, np.ones(10)))


# -- sieve least squares --------------------------------------------------------


def test_sieve_polynomial_line():
    w = np.linspace(-5, 5, 40)
    y = 1.5 - 0.5 * w
    fit = fit_sieve_ls(polynomial_basis(2), w, y)
    assert fit.objective <= 1e-20
    # scaled monomials: function values must match exactly
    assert np.allclose(polynomial_basis(2).design(w) @ fit.theta, y)


def test_sieve_polynomial_exact_recovery():
    rng = np.random.default_rng(9)
    w = rng.uniform(-6, 6, 80)
    y = 0.3 + 0.2 * w - 0.05 * w ** 2 + 0.01 * w ** 3
    for k in (4, 6, 8):
        fit = fit_sieve_ls(polynomial_basis(k), w, y)
        assert np.abs(polynomial_basis(k).design(w) @ fit.theta - y).max() <= 1e-8


def test_sieve_pspline_partition_of_unity():
    rng = np.random.default_rng(10)
    w = rng.uniform(-6, 6, 100)
    for k in (3, 5, 8):
        basis = pspline_basis(k)
        assert np.allclose(basis.design(w).sum(axis=1), 1.0, atol=1e-12)
        fit = fit_sieve_ls(basis, w, np.full(100, 4.2))
        assert np.allclose(basis.design(w) @ fit.theta, 4.2, atol=1e-8)


def test_sieve_certificate_is_the_least_squares_gradient():
    rng = np.random.default_rng(12)
    w = rng.uniform(-6, 6, 150)
    y = np_target(w) + rng.standard_normal(150)
    for basis in (polynomial_basis(5), pspline_basis(7)):
        fit = fit_sieve_ls(basis, w, y)
        assert fit.optimality_residual == gradient_residual_squared(
            basis.design(w), y, fit.theta, NO_PENALTY)


def test_sieve_normal_equations_residual():
    rng = np.random.default_rng(11)
    w = rng.uniform(-6, 6, 200)
    y = np_target(w) + rng.standard_normal(200)
    fit = fit_sieve_ls(pspline_basis(6), w, y)
    Q = pspline_basis(6).design(w)
    rel = np.linalg.norm(Q.T @ Q @ fit.theta - Q.T @ y) / np.linalg.norm(Q.T @ y)
    assert rel <= 1e-8


# -- population distance and bias ------------------------------------------------


def _design(d=3):
    return PopulationDesign(sigma_x=1.0001 * np.eye(d),
                            noise_var=0.25 * 1.0001)


def test_delta_p_zero_and_unit():
    design = PopulationDesign(sigma_x=np.eye(3), noise_var=1.0)
    theta = np.array([1.0, 2.0, 3.0])
    assert delta_p(design, SQUARED, theta, theta) == 0.0
    e1 = theta + np.array([1.0, 0.0, 0.0])
    assert delta_p(design, SQUARED, e1, theta) == pytest.approx(1.0)
    assert delta_p(design, ABS_HALF, theta, theta) == 0.0


def test_delta_p_median_matches_mc_oracle():
    design = _design()
    truth = np.array([1.0, 2 ** -0.5, 3 ** -0.5])
    theta = truth + np.array([0.15, -0.1, 0.05])

    def sampler(draws, rng):
        X = rng.standard_normal((draws, 3)) * math.sqrt(1.0001)
        U = rng.standard_normal(draws) * math.sqrt(1.0001)
        return X, X @ truth + 0.5 * U

    analytic = delta_p(design, ABS_HALF, theta, truth)
    mc, se = delta_p_mc(sampler, ABS_HALF, theta, truth, draws=1_000_000,
                        seed=56)
    # compare criterion differences (deltas squared) within 3 MC ses
    assert analytic ** 2 == pytest.approx(mc ** 2, abs=3 * se)


def test_delta_p_broadcasts_over_replications():
    rng = np.random.default_rng(43)
    L = rng.standard_normal((4, 4))
    design = PopulationDesign(sigma_x=L @ L.T + np.eye(4), noise_var=0.3)
    truth = rng.standard_normal(4)
    thetas = truth + 0.1 * rng.standard_normal((25, 4))
    for loss in (SQUARED, ABS_HALF):
        batch = delta_p(design, loss, thetas, truth)
        assert batch.shape == (25,)
        rows = np.array([delta_p(design, loss, t, truth) for t in thetas])
        assert np.all(np.abs(batch - rows) <= 1e-15 * np.abs(rows))
    assert isinstance(delta_p(design, SQUARED, thetas[0], truth), float)


def test_bias_term_sieve():
    oracle = SieveMomentOracle("polynomial", np_target)
    # exactly representable target: w is in the k = 2 span
    lin_oracle = SieveMomentOracle("polynomial", lambda w: 0.5 * w)
    assert bias_term(oracle=lin_oracle, k=2) <= 1e-6  # sqrt of cancellation noise
    vals = [bias_term(oracle=oracle, k=k) for k in range(3, 9)]
    # non-increasing, strictly smaller whenever an even power enters
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[2] < vals[1] * 0.5   # k=5 adds w^4
    assert vals[4] < vals[3] * 0.5   # k=7 adds w^6
    # parity: odd powers add nothing against a symmetric weight
    assert vals[1] == pytest.approx(vals[0], rel=1e-9)
    assert vals[3] == pytest.approx(vals[2], rel=1e-9)


def test_bias_term_penalty():
    pen = PenaltySpec("l1", lam=0.2)
    theta = np.array([1.0, -2.0, 0.5])
    assert bias_term(pen=pen, theta_star=theta) == pytest.approx(0.2 * 3.5)
    assert math.sqrt(bias_term(pen=pen, theta_star=theta)) == \
        pytest.approx(math.sqrt(0.2 * np.abs(theta).sum()))
    with pytest.raises(DomainError):
        bias_term(pen=pen)


def test_pspline_bias_nonmonotone_flagged():
    oracle = SieveMomentOracle("pspline", np_target)
    vals, monotone = oracle.bias_curve(range(3, 9))
    assert not monotone          # spline spaces are not nested
    assert vals[3] > vals[2]     # k=6 above k=5


def test_oracle_backends_agree():
    quad = SieveMomentOracle("polynomial", np_target)
    mc = SieveMomentOracle("polynomial", np_target, method="mc",
                           mc_draws=2_000_000, seed=99)
    for k in (3, 5, 7):
        assert mc.bias(k) == pytest.approx(quad.bias(k), rel=2e-2, abs=2e-3)
    assert mc.t2 == pytest.approx(quad.t2, rel=5e-3)
