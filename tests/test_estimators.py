import ast
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog, lsq_linear

from mixconc import (ABS_HALF, NO_PENALTY, SQUARED, DomainError, LossSpec,
                     MixconcError, NonConvergence, NonFinite, PenaltySpec,
                     PopulationDesign, ShapeMismatch, SieveMomentOracle,
                     SingularDesign,
                     SolverOptions, delta_p, delta_p_mc, empirical_criterion,
                     fit_ols, fit_penalized, fit_penalized_qr, fit_sieve_ls,
                     make_linear_design, np_target, quantile_loss,
                     subgradient_residual)
from mixconc import _admm
from mixconc import estimators as est
from mixconc.sieves import SieveBasis, is_nested


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
    # the median loss is the quantile loss at 1/2, not a kind of its own
    assert ABS_HALF == quantile_loss(0.5)
    with pytest.raises(DomainError):
        LossSpec("abs_half")


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


def test_ridge_closed_form_matches_augmented_lstsq():
    # (1/n) |y - X theta|^2 + lam theta' P theta is (1/n) times the least
    # squares of [y; 0] on the augmented design [X; sqrt(n lam P)]
    ds = make_linear_design(400, 4, d=5, seed=12)
    pen = PenaltySpec("weighted_l2", lam=0.05, m=2.0)
    fit = fit_penalized((ds.X, ds.y), SQUARED, pen)
    assert fit.method == "closed_form"
    assert fit.optimality_residual <= 1e-10
    aug = np.vstack([ds.X, np.diag(np.sqrt(400 * pen.lam * pen.weights(5)))])
    oracle = np.linalg.lstsq(aug, np.r_[ds.y, np.zeros(5)], rcond=None)[0]
    assert np.linalg.norm(oracle - fit.theta) <= 1e-12


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


def test_certificate_is_exact_with_over_200_interpolated_rows(box_solves):
    # rounded data: theta = (1, 0.5) interpolates 225 rows; the box least
    # squares over them read 6.5e-8 when it switched to inexact trf above
    # 200 free columns, and bvls reads below 1e-16
    ds = make_linear_design(700, 7, d=2, seed=3)
    X, y = np.round(ds.X), np.round(ds.y)
    pen = PenaltySpec("weighted_l2", lam=0.0092, m=2.04)
    fit = fit_penalized_qr((X, y), 0.76, pen)
    res = y - X @ fit.theta
    assert np.sum(np.abs(res) <= 1e-7 * (1.0 + np.abs(y).max())) > 200
    box_solves.clear()
    assert subgradient_residual(X, y, fit.theta, 0.76, pen) <= 1e-12
    assert len(box_solves) == 1
    assert fit.optimality_residual <= 1e-12


def _per_rep_certificate(X, y, theta, tau, pen):
    """The certificate of one fit as `subgradient_residual` computed it rep
    by rep before it took stacks: the fixed part of the subgradient from
    the rows off the fit, the square system at a vertex when its solution
    lies in the box, bvls otherwise.  The oracle of the stacked
    certificate tests below."""
    n, d = X.shape
    res = y - X @ theta
    act = np.abs(res) <= 1e-7 * (1.0 + np.abs(y).max())
    base = -(X[~act].T @ (tau - (res[~act] <= 0))) / n
    A = -X[act].T / n
    lo, hi = [tau - 1.0] * A.shape[1], [tau] * A.shape[1]
    if pen.kind == "l1" and pen.lam > 0:
        zero = np.abs(theta) <= 1e-9
        base = base + pen.lam * np.sign(theta) * (~zero)
        A = np.hstack([A, pen.lam * np.eye(d)[:, zero]])
        lo, hi = lo + [-1.0] * int(zero.sum()), hi + [1.0] * int(zero.sum())
    elif pen.kind == "weighted_l2" and pen.lam > 0:
        base = base + pen.lam * 2.0 * pen.weights(d) * theta
    if A.shape[1] == 0:
        return float(np.linalg.norm(base))
    if A.shape[1] == d:
        s = np.linalg.solve(A, -base)
        if np.all(s >= np.array(lo) - 1e-12) and np.all(s <= np.array(hi) + 1e-12):
            return float(np.linalg.norm(A @ s + base))
    sol = lsq_linear(A, -base, bounds=(lo, hi), method="bvls")
    return float(np.linalg.norm(A @ sol.x + base))


def _assert_stack_matches_per_rep(X, y, theta, tau, pen):
    """The stacked certificate against the per-rep oracle, and each rep's
    2-D call against its entry of the stack."""
    stacked = subgradient_residual(X, y, theta, tau, pen)
    assert stacked.shape == (len(X),)
    for r in range(len(X)):
        single = subgradient_residual(X[r], y[r], theta[r], tau, pen)
        assert isinstance(single, float) and single == stacked[r]
        assert abs(stacked[r] - _per_rep_certificate(X[r], y[r], theta[r], tau,
                                                     pen)) <= 1e-16
    return stacked


def test_stacked_certificate_of_every_tables12_cell():
    # the first 40 reps of each cell of the tables 1-2 study at its default
    # master seed, fitted as the study fits them
    from mixconc.datagen import linear_design_stack
    from mixconc.experiments import TABLES12_GRID, hash_cell
    for n, m in TABLES12_GRID:
        data = linear_design_stack(n, m, 3, 20240901 + 1000 * hash_cell(n, m),
                                   range(40))
        X, y = data.X, data.y
        start = fit_ols((X, y)).theta
        theta, cert = est._finish_exact(X, y, 0.5, NO_PENALTY, start)
        stacked = _assert_stack_matches_per_rep(X, y, theta, 0.5, NO_PENALTY)
        assert np.array_equal(stacked, cert) and stacked.max() <= 1e-15


def test_stacked_certificate_with_l1_zero_coefficients(box_solves):
    # sparse truth: the l1 fits put some coefficients at zero, so the free
    # columns of a vertex mix interpolated rows and zero signs
    rng = np.random.default_rng(43)
    X = rng.standard_normal((6, 200, 5))
    y = X @ np.array([1.0, -0.6, 0.0, 0.0, 0.3]) \
        + rng.standard_normal((6, 200))
    pen = PenaltySpec("l1", lam=0.05)
    theta = np.stack([fit_penalized_qr((X[r], y[r]), 0.3, pen).theta
                      for r in range(6)])
    zeros = np.sum(np.abs(theta) <= 1e-9, axis=1)
    assert zeros.min() > 0 and zeros.max() < 5
    box_solves.clear()
    stacked = subgradient_residual(X, y, theta, 0.3, pen)
    assert not box_solves and stacked.max() <= 1e-12
    _assert_stack_matches_per_rep(X, y, theta, 0.3, pen)


def test_stacked_certificate_with_weighted_l2():
    X, y = _stacked_draws(150, 5, 4, 29, 5)
    pen = PenaltySpec("weighted_l2", lam=0.02, m=1.5)
    theta = np.stack([fit_penalized_qr((X[r], y[r]), 0.6, pen).theta
                      for r in range(5)])
    stacked = _assert_stack_matches_per_rep(X, y, theta, 0.6, pen)
    assert stacked.max() <= 1e-6


def test_stacked_certificate_sends_non_vertex_reps_to_bvls(box_solves):
    # six reps: vertices (the median fit, and an out-of-box vertex through
    # the three largest responses) and non-vertices (d - 1 interpolated rows,
    # none, and a rounded design where one theta interpolates many rows)
    X, y = _stacked_draws(60, 1, 3, 31, 6)
    X[5], y[5] = np.round(X[5]), np.round(y[5])
    theta = np.stack([fit_penalized_qr((X[r], y[r]), 0.5).theta
                      for r in range(6)])
    top = np.argsort(y[1])[-3:]
    theta[1] = np.linalg.solve(X[1, top], y[1, top])
    # through rows 0 and 1 of rep 2 only: move along their null direction
    theta[2] = np.linalg.lstsq(X[2, :2], y[2, :2], rcond=None)[0] \
        + 0.37 * np.cross(X[2, 0], X[2, 1])
    theta[3] = theta[3] + 0.01
    theta[5] = np.array([1.0, 0.0, 0.0])
    res = y - (X @ theta[..., None])[..., 0]
    free = np.sum(np.abs(res) <= 1e-7 * (1 + np.abs(y).max(axis=1))[:, None],
                  axis=1)
    assert free[[0, 1, 4]].tolist() == [3, 3, 3] and free[2] == 2
    assert free[3] == 0 and free[5] > 3
    box_solves.clear()
    stacked = _assert_stack_matches_per_rep(X, y, theta, 0.5, NO_PENALTY)
    assert len(box_solves) == 2 * 3          # reps 1, 2 and 5, stack and oracle
    assert stacked[[0, 4]].max() <= 1e-12 and stacked[[1, 2, 3]].min() > 1e-3


def test_quantile_tau_off_center():
    rng = np.random.default_rng(5)
    X = np.ones((201, 1))
    y = np.sort(rng.standard_normal(201))
    fit = fit_penalized_qr((X, y), 0.25)
    assert fit.theta[0] == pytest.approx(np.quantile(y, 0.25), abs=1e-6)


def test_fit_method_names_the_path_taken(monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.standard_normal((80, 3))
    y = X @ np.array([1.0, -0.5, 0.2]) + rng.standard_normal(80)
    assert fit_penalized_qr((X, y), 0.5).method == "simplex"
    assert fit_penalized_qr((X, y), 0.5, PenaltySpec("l1", lam=0.05)).method \
        == "simplex"
    assert fit_penalized_qr((X, y), 0.5, PenaltySpec(
        "weighted_l2", lam=0.05, m=1.0)).method == "active_set"
    assert fit_penalized((X, y), SQUARED).method == "closed_form"
    assert fit_ols((X, y)).method == "closed_form"
    assert fit_penalized((X, y), SQUARED, PenaltySpec("l1", lam=0.05)).method \
        == "active_set"
    # a stalled pivot on a full-rank design leaves the fit uncertified
    monkeypatch.setattr(_admm, "simplex_polish", lambda X, y, theta, tau=0.5:
                        (theta, np.ones(len(X), dtype=bool)))
    with pytest.raises(NonConvergence):
        fit_penalized_qr((X, y), 0.3, PenaltySpec("l1", lam=0.05))


# -- the active-set solver against independent oracles ----------------------------


def _lasso_dual_bound(X, y, lam, theta):
    """A lower bound on min (1/n)|y - X b|^2 + lam |b|_1 for any X: the
    dual value of the residual of theta, scaled into the dual box
    |X' nu|_inf <= n lam / 2."""
    n = len(y)
    r = y - X @ theta
    nu = r * min(1.0, n * lam / 2.0 / max(np.abs(X.T @ r).max(), 1e-300))
    return (y @ y - (y - nu) @ (y - nu)) / n


def _qr_l2_dual(X, y, tau, pen, theta):
    """The dual value u'y/n - v' P^-1 v / (4 n^2 lam), v = X'u, of quantile
    regression + lam theta' P theta at a u in [tau - 1, tau]^n built from
    theta: the side of each residual, and bvls on the interpolated rows."""
    n, d = X.shape
    res = y - X @ theta
    u = np.where(res > 0, tau, tau - 1.0)
    act = np.abs(res) <= 1e-7 * (1.0 + np.abs(y).max())
    P = pen.weights(d)
    if act.any():
        target = 2.0 * n * pen.lam * P * theta - X[~act].T @ u[~act]
        u[act] = lsq_linear(X[act].T, target, bounds=(tau - 1.0, tau),
                            method="bvls").x
    v = X.T @ u
    return u @ y / n - v @ (v / P) / (4.0 * n * n * pen.lam)


@pytest.mark.parametrize("seed, lam", [(21, 0.01), (22, 0.1), (23, 0.5)])
def test_lasso_matches_its_box_constrained_dual(seed, lam):
    # X = QR, b = Q'y: theta = R^-1 (b - (n/2) R^-T s*), s* the bvls fit of
    # 2b/n by R^-T s over the box [-lam, lam]^d
    ds = make_linear_design(300, 2, d=8, seed=seed)
    n = 300
    fit = fit_penalized((ds.X, ds.y), SQUARED, PenaltySpec("l1", lam=lam))
    Q, R = np.linalg.qr(ds.X)
    b = Q.T @ ds.y
    RinvT = np.linalg.inv(R).T
    s = lsq_linear(RinvT, 2.0 * b / n, bounds=(-lam, lam), method="bvls").x
    oracle = np.linalg.solve(R, b - n / 2.0 * RinvT @ s)
    assert fit.method == "active_set" and fit.optimality_residual <= 1e-12
    assert np.abs(fit.theta - oracle).max() <= 1e-12


@pytest.mark.parametrize("n, m, d, tau, lam, pexp", [
    (500, 1, 5, 0.5, 0.01, 2.0), (1000, 10, 10, 0.3, 0.01, 2.0),
    (300, 2, 4, 0.8, 1.0, 0.0), (2000, 1, 20, 0.7, 0.001, 2.0)])
def test_quantile_weighted_l2_closes_its_duality_gap(n, m, d, tau, lam, pexp):
    # the last case is the one ADMM left uncertified after 50 000 sweeps
    ds = make_linear_design(n, m, d, seed=20240901)
    pen = PenaltySpec("weighted_l2", lam=lam, m=pexp)
    fit = fit_penalized_qr((ds.X, ds.y), tau, pen)
    assert fit.method == "active_set" and fit.optimality_residual <= 1e-12
    gap = fit.objective - _qr_l2_dual(ds.X, ds.y, tau, pen, fit.theta)
    assert -1e-15 <= gap <= 1e-12 * (1.0 + abs(fit.objective))


def test_active_set_step_cap_raises_nonconvergence(monkeypatch):
    # with no multiplier ever inside its box, held rows leave forever
    monkeypatch.setattr(_admm, "_MULT_TOL", -1.0)
    ds = make_linear_design(60, 1, d=3, seed=4)
    with pytest.raises(NonConvergence, match="no optimum within 630 steps"):
        fit_penalized_qr((ds.X, ds.y), 0.5,
                         PenaltySpec("weighted_l2", lam=0.05, m=2.0))
    monkeypatch.undo()
    # a fit above tol is refused by certification, as every fit is
    with pytest.raises(NonConvergence, match="active_set fit: residual"):
        fit_penalized((ds.X, ds.y), SQUARED, PenaltySpec("l1", lam=0.05),
                      SolverOptions(tol=1e-300))


def test_active_set_flat_direction_without_a_kink_is_singular():
    # Q of rank one and no rows: the KKT system is singular and the
    # objective falls without bound along its null vector (1, -1)
    with pytest.raises(SingularDesign, match="no kink on a flat direction"):
        _admm.active_set(np.ones((2, 2)), np.array([1.0, -1.0]),
                         np.zeros((0, 2)), np.zeros(0), 1.0, 0.5)


def test_squared_l1_at_the_api_scale_certifies_fast():
    ds = make_linear_design(10_000, 1, d=50, seed=20240901)
    start = time.perf_counter()
    fit = fit_penalized((ds.X, ds.y), SQUARED, PenaltySpec("l1", lam=0.01))
    assert time.perf_counter() - start < 1.0
    assert fit.method == "active_set" and fit.optimality_residual <= 1e-12
    bound = _lasso_dual_bound(ds.X, ds.y, 0.01, fit.theta)
    assert fit.objective <= bound + 1e-12


@pytest.mark.parametrize("lam", [0.5, 0.05, 0.001])
def test_lasso_with_more_columns_than_rows_certifies(lam):
    # the free columns outnumber the rows at small lam: singular KKT
    # systems are stepped along their null vector
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 100))
    y = X[:, :5] @ np.ones(5) + rng.standard_normal(50)
    fit = fit_penalized((X, y), SQUARED, PenaltySpec("l1", lam=lam))
    assert fit.method == "active_set" and fit.optimality_residual <= 1e-12
    assert fit.objective <= _lasso_dual_bound(X, y, lam, fit.theta) + 1e-12


def test_lasso_with_a_duplicated_column_certifies():
    ds = make_linear_design(500, 1, d=5, seed=3)
    X = np.column_stack([ds.X, ds.X[:, 1]])
    for lam in (0.1, 0.01, 1e-4):
        fit = fit_penalized((X, ds.y), SQUARED, PenaltySpec("l1", lam=lam))
        assert fit.optimality_residual <= 1e-12
        assert fit.objective <= _lasso_dual_bound(X, ds.y, lam,
                                                  fit.theta) + 1e-12


@pytest.mark.parametrize("tau", [0.3, 0.5])
def test_quantile_weighted_l2_on_rounded_duplicated_rows(tau):
    # rounded X and y put many rows on one kink and some exactly on zero;
    # the first 50 rows appear twice
    ds = make_linear_design(400, 2, d=4, seed=8)
    X, y = np.round(ds.X, 1), np.round(ds.y)
    X, y = np.vstack([X, X[:50]]), np.r_[y, y[:50]]
    pen = PenaltySpec("weighted_l2", lam=0.01, m=1.0)
    fit = fit_penalized_qr((X, y), tau, pen)
    assert fit.method == "active_set" and fit.optimality_residual <= 1e-12
    gap = fit.objective - _qr_l2_dual(X, y, tau, pen, fit.theta)
    assert gap <= 1e-12 * (1.0 + abs(fit.objective))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(k=st.integers(2, 60), m=st.sampled_from([1, 2, 5, 10]),
       d=st.integers(1, 8), seed=st.integers(0, 2 ** 20),
       round_x=st.booleans(), round_y=st.booleans(), dup=st.booleans(),
       lam=st.floats(1e-4, 3.0), tau=st.floats(0.1, 0.9),
       pexp=st.floats(0.0, 10.0), lasso=st.booleans())
def test_active_set_fits_are_optimal_or_typed_errors(k, m, d, seed, round_x,
                                                    round_y, dup, lam, tau,
                                                    pexp, lasso):
    # m-block designs (rows of a block nearly coincide), rounded covariates
    # and responses (ties, rank-deficient lasso designs), a duplicated
    # column; the oracle is a dual lower bound on the optimum
    ds = make_linear_design(m * k, m, d, seed=seed)
    X = np.round(ds.X) if round_x else ds.X
    y = np.round(ds.y) if round_y else ds.y
    if dup:
        X = np.column_stack([X, X[:, 0]])
    try:
        if lasso:
            fit = fit_penalized((X, y), SQUARED, PenaltySpec("l1", lam=lam))
            bound = _lasso_dual_bound(X, y, lam, fit.theta)
        else:
            pen = PenaltySpec("weighted_l2", lam=lam, m=pexp)
            fit = fit_penalized_qr((X, y), tau, pen)
            bound = _qr_l2_dual(X, y, tau, pen, fit.theta)
    except MixconcError:
        return
    assert fit.optimality_residual <= 1e-6
    assert fit.objective <= bound + 1e-9


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


def _oracle_draw(seed, rep=1):
    """(X, y, tau, pen) of one oracle case: m-block designs (m up to 100:
    rows of a block nearly coincide), an intercept column for seeds
    divisible by 3, and responses rounded to ties for even seeds; the reps
    of one seed share (n, d, tau, pen)."""
    rng = np.random.default_rng(seed)
    m = int(rng.choice([1, 2, 5, 10, 20, 50, 100]))
    n = m * int(rng.integers(max(2, 8 // m + 1), max(3, 600 // m)))
    d = int(rng.integers(1, 7))
    tau = float(rng.choice([0.3, 0.5, 0.7]))
    lam = float(rng.choice([0.0, 0.002, 0.02, 0.2]))
    ds = make_linear_design(n, m, d, seed=seed, rep=rep)
    X, y = ds.X, ds.y
    if seed % 3 == 0:
        X = np.column_stack([np.ones(n), X[:, 1:]])
    if seed % 2 == 0:
        y = np.round(y, 1)
    return X, y, tau, (PenaltySpec("l1", lam=lam) if lam else NO_PENALTY)


@pytest.mark.parametrize("seed", range(40))
def test_quantile_fit_matches_lp_oracle(seed):
    X, y, tau, pen = _oracle_draw(seed)
    fit = fit_penalized_qr((X, y), tau, pen)
    lp = _lp_objective(X, y, tau, pen.lam)
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


# -- the exact pivot over a stack of replications ---------------------------------


def _reference_pivot(X, y, theta, tau):
    """The pivot of one problem as a plain loop, the reference the stacked
    pivot must match bit for bit: the optimal theta, or None when it
    stalls."""
    n, d = X.shape
    ztol = 1e-12 * (1.0 + float(np.abs(y).max(initial=0.0)))
    basis, A = np.empty((d, d)), []
    for i in np.argsort(np.abs(y - X @ theta)):
        v = X[i] - basis[:len(A)].T @ (basis[:len(A)] @ X[i])
        norm = np.linalg.norm(v)
        if norm > 1e-10 * np.linalg.norm(X[i]):
            basis[len(A)] = v / norm
            A.append(int(i))
            if len(A) == d:
                break
    if len(A) < d:
        return None
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[A] = False
    neg = np.zeros(n, dtype=bool)
    for _ in range(n + 10 * d):
        XA = X[A]
        theta = np.linalg.solve(XA, y[A])
        res = y - X @ theta
        zero = nonbasic & (np.abs(res) <= ztol)
        res[zero] = 0.0
        neg = np.where(zero, neg, res < 0)
        psi = np.where(nonbasic, tau - neg, 0.0)
        s = np.linalg.solve(XA.T, -(X.T @ psi))
        over, under = s - tau, (tau - 1.0) - s
        viol = np.maximum(over, under)
        j = int(np.argmax(viol))
        if viol[j] <= 1e-12:
            return theta
        sigma = -1.0 if over[j] >= under[j] else 1.0
        g = sigma * (X @ np.linalg.solve(XA, np.eye(d)[j]))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = res / g
        cross = np.flatnonzero(nonbasic & (np.abs(g) > 1e-13)
                               & ((t > 0.0) | (zero & ((g > 0.0) != neg))))
        cross = cross[np.argsort(t[cross], kind="stable")]
        deriv0 = (sigma * s[j] + (1.0 - tau if sigma > 0 else tau)) / n
        deriv = np.cumsum(np.r_[deriv0, np.abs(g[cross]) / n])[1:]
        stop = np.flatnonzero(deriv >= -1e-15)
        if stop.size == 0:
            return None
        neg[cross[:stop[0]]] ^= True
        neg[A[j]] = sigma > 0
        nonbasic[A[j]] = True
        nonbasic[cross[stop[0]]] = False
        A[j] = int(cross[stop[0]])
    return None


def _stacked_draws(n, m, d, seed, reps):
    """X (R, n, d) and y (R, n) of reps 0..reps-1 of one linear design."""
    draws = [make_linear_design(n, m, d, seed=seed, rep=r) for r in range(reps)]
    return (np.stack([draw.X for draw in draws]),
            np.stack([draw.y for draw in draws]))


def _lstsq_starts(X, y):
    return np.stack([np.linalg.lstsq(Xr, yr, rcond=None)[0]
                     for Xr, yr in zip(X, y)])


def _alone_and_stacked(X, y, tau, pen, theta0):
    """`_finish_exact` on the whole stack, and on each rep as R = 1."""
    stacked = est._finish_exact(X, y, tau, pen, theta0)
    alone = [est._finish_exact(X[r:r + 1], y[r:r + 1], tau, pen,
                               theta0[r:r + 1]) for r in range(len(X))]
    return stacked, alone


@pytest.mark.parametrize("seed", range(40))
def test_stacked_pivot_is_bit_identical_to_single_fits(seed):
    # the oracle cases (ties, m-block vertices, l1 augmented rows) in a
    # mixed batch: four draws of one shape, the last with tied responses
    draws = [_oracle_draw(seed, rep) for rep in (1, 2, 3, 4)]
    tau, pen = draws[0][2], draws[0][3]
    X = np.stack([draw[0] for draw in draws])
    y = np.stack([draw[1] for draw in draws])
    y[3] = np.round(y[3], 1)
    theta0 = _lstsq_starts(X, y)
    (theta, cert), alone = _alone_and_stacked(X, y, tau, pen, theta0)
    for r, (theta_r, cert_r) in enumerate(alone):
        assert np.array_equal(theta[r], theta_r[0]) and cert[r] == cert_r[0]
    assert np.all(cert <= 1e-6)
    if pen is NO_PENALTY:
        for r in range(4):
            assert np.array_equal(theta[r], _reference_pivot(X[r], y[r],
                                                             theta0[r], tau))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("n, m", [(40, 2), (200, 20)])
def test_stacked_pivot_on_rounded_designs(n, m, seed):
    # covariates and responses rounded: many rows sit on each vertex, so
    # the side each row was left on decides the degenerate steps
    X, y = _stacked_draws(n, m, 3, seed, 12)
    X, y = np.round(X, 1), np.round(y)
    theta0 = _lstsq_starts(X, y)
    theta, stalled = _admm.simplex_polish(X, y, theta0, 0.5)
    for r in range(12):
        alone, alone_stalled = _admm.simplex_polish(X[r:r + 1], y[r:r + 1],
                                                    theta0[r:r + 1], 0.5)
        assert np.array_equal(theta[r], alone[0])
        assert stalled[r] == alone_stalled[0]
        reference = _reference_pivot(X[r], y[r], theta0[r], 0.5)
        assert stalled[r] == (reference is None)
        assert stalled[r] or np.array_equal(theta[r], reference)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(reps=st.integers(2, 6), k=st.integers(6, 40),
       m=st.sampled_from([1, 2, 5]), d=st.integers(2, 5),
       seed=st.integers(0, 2 ** 20),
       tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       lasso=st.booleans(), lam=st.sampled_from([0.002, 0.02, 0.2]),
       digits=st.sampled_from([0, 1]), dup=st.integers(0, 5))
def test_stacked_exact_fits_equal_each_rep_alone(reps, k, m, d, seed, tau,
                                                 lasso, lam, digits, dup):
    # rounded X and y put rows and responses on ties; rep `dup` has two
    # equal columns, so its unpenalized pivot stalls and is pivoted again on
    # its independent columns; HiGHS checks every rep's fit, l1 or not (the
    # stacked fit and the fit alone are one vector, bit for bit)
    X, y = _stacked_draws(m * k, m, d, seed, reps)
    X, y = np.round(X, digits), np.round(y, digits)
    dup %= reps
    X[dup, :, 1] = X[dup, :, 0]
    pen = PenaltySpec("l1", lam=lam) if lasso else NO_PENALTY
    theta0 = _lstsq_starts(X, y)
    (theta, cert), alone = _alone_and_stacked(X, y, tau, pen, theta0)
    for r, (theta_r, cert_r) in enumerate(alone):
        assert np.array_equal(theta[r], theta_r[0]) and cert[r] == cert_r[0]
        assert cert[r] <= 1e-6
        lp = _lp_objective(X[r], y[r], tau, pen.lam)
        objective = empirical_criterion(quantile_loss(tau), pen, (X[r], y[r]),
                                        theta[r])
        assert abs(objective - lp) <= 1e-9 * (1.0 + abs(lp))
    assert fit_penalized_qr((X[dup], y[dup]), tau, pen).method == "simplex"


def _batch_with_a_rank_one_rep(n=80, d=3):
    """Three reps of one shape; the middle one has rank-one rows, so no d
    of them are independent."""
    X, y = _stacked_draws(n, 1, d, 17, 3)
    X[1] = np.outer(X[1, :, 0], [1.0, -0.5, 2.0])
    return X, y


def test_a_stalling_rep_leaves_the_batch_alone():
    X, y = _batch_with_a_rank_one_rep()
    theta0 = np.zeros((3, 3))
    theta0[[0, 2]] = _lstsq_starts(X[[0, 2]], y[[0, 2]])
    theta, stalled = _admm.simplex_polish(X, y, theta0, 0.5)
    assert stalled.tolist() == [False, True, False]
    assert np.array_equal(theta[1], theta0[1])          # kept as started
    for r in (0, 2):
        alone, alone_stalled = _admm.simplex_polish(X[r:r + 1], y[r:r + 1],
                                                    theta0[r:r + 1], 0.5)
        assert not alone_stalled[0] and np.array_equal(theta[r], alone[0])
    # the rank-one rep is pivoted again on its one independent column
    theta, cert = est._finish_exact(X, y, 0.5, NO_PENALTY, theta0)
    assert np.all(cert <= 1e-6) and np.all(theta[1, 1:] == 0.0)
    assert cert[1] == subgradient_residual(X[1], y[1], theta[1], 0.5, NO_PENALTY)
    assert fit_penalized_qr((X[1], y[1]), 0.5).method == "simplex"


def test_a_forced_stall_leaves_only_its_rep_uncertified(monkeypatch):
    X, y = _stacked_draws(80, 1, 3, 17, 3)          # every rep full rank
    polish = _admm.simplex_polish

    def stall_rep_1(*args):
        theta, stalled = polish(*args)
        stalled[1] = True
        return theta, stalled
    monkeypatch.setattr(_admm, "simplex_polish", stall_rep_1)
    theta, cert = est._finish_exact(X, y, 0.5, NO_PENALTY, np.zeros((3, 3)))
    assert cert[1] == np.inf and cert[0] <= 1e-6 and cert[2] <= 1e-6


def _stable_prefix(key, count):
    return np.argsort(key, axis=1, kind="stable")[:, :count]


@pytest.mark.parametrize("case", ["ties", "signed-zeros", "all-inf", "R=1",
                                  "random"])
def test_crossing_order_equals_the_stable_argsort_prefix(case):
    rng = np.random.default_rng(5)
    key = np.where(rng.random((40, 300)) < 0.3,
                   rng.integers(0, 6, (40, 300)) / 4.0, np.inf)
    if case == "signed-zeros":
        key[key == 0.0] = rng.choice([0.0, -0.0], size=int((key == 0.0).sum()))
    elif case == "all-inf":
        key[::3] = np.inf
    elif case == "R=1":
        key = key[:1]
    elif case == "random":
        key = np.where(np.isfinite(key), rng.random(key.shape), np.inf)
    ncross = np.isfinite(key).sum(axis=1)
    count = max(1, ncross.max())
    got = _admm._crossing_order(key, count)
    want = _stable_prefix(key, count)
    assert got.shape == want.shape
    for r in range(len(key)):                # the ranks of crossing rows
        assert np.array_equal(got[r, :ncross[r]], want[r, :ncross[r]])
    if case == "R=1":
        assert np.array_equal(got, want)


def test_a_singular_stacked_system_is_nan_in_its_rep_only():
    a = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    b = np.ones((3, 2))
    x = _admm._solve_stack(a, b)
    assert np.array_equal(x[0], [1.0, 1.0]) and np.array_equal(x[2], [0.5, 0.5])
    assert np.isnan(x[1]).all()


# -- the ADMM warm start of a single fit --------------------------------------


def _reference_sweeps(X, y, tau, iters):
    """The reference ADMM sweeps in their plain form: a stacked Gram solve
    and two einsums per sweep, with the primal r and the dual u kept."""
    R, n, d = X.shape
    G = np.einsum("rij,rik->rjk", X, X)
    c, a = 1.0 / n, 1.7
    theta, r, u = np.zeros((R, d)), np.zeros((R, n)), np.zeros((R, n))
    for _ in range(iters):
        rhs = np.einsum("rij,ri->rj", X, y - r - u)
        theta = np.linalg.solve(G, rhs[..., None])[..., 0]
        h = a * np.einsum("rij,rj->ri", X, theta) + (1.0 - a) * (y - r)
        v = y - h - u
        r = v - np.clip(v, -c * (1.0 - tau), c * tau)
        u = u + h + r - y
    return theta


@pytest.mark.parametrize("shape", [(1000, 1, 3, 0.3), (1000, 10, 4, 0.3),
                                   (2000, 1, 8, 0.5), None],
                         ids=["n1000-d3", "n1000-m10-d4", "n2000-d8", "ones6"])
def test_warm_start_matches_the_reference_sweeps(shape):
    if shape is None:                    # the design of the perfbench hook test
        X, y, tau = np.ones((1, 6, 1)), np.arange(6.0)[None], 0.5
    else:
        n, m, d, tau = shape
        ds = make_linear_design(n, m, d, seed=20240901)
        X, y = ds.X[None], ds.y[None]
    ref = _reference_sweeps(X, y, tau, 300)
    new = _admm.admm_batch(X, y, tau, 300)
    assert new.shape == ref.shape
    assert np.all(np.abs(new - ref) <= 1e-10 * (1.0 + np.abs(ref)))


def test_warm_start_stack_equals_each_rep_alone():
    X, y = _stacked_draws(500, 5, 3, seed=4, reps=2)
    stacked = _admm.admm_batch(X, y, 0.3, 300)
    for r in range(2):
        assert np.array_equal(stacked[r],
                              _admm.admm_batch(X[r:r + 1], y[r:r + 1], 0.3,
                                               300)[0])


API_QR_SHAPES = [  # (n, m, d, tau, lam) of the perfbench api's qr, qr_l1 calls
    (500, 1, 3, 0.3, 0.0), (1000, 1, 3, 0.5, 0.0), (500, 1, 5, 0.3, 0.0),
    (500, 10, 3, 0.3, 0.0), (500, 10, 5, 0.5, 0.0), (1000, 1, 4, 0.3, 0.0),
    (1000, 10, 3, 0.5, 0.0), (1000, 10, 4, 0.3, 0.0), (2000, 1, 3, 0.3, 0.0),
    (2000, 1, 5, 0.5, 0.0), (2000, 10, 3, 0.5, 0.0), (2000, 1, 8, 0.5, 0.0),
    (500, 1, 10, 0.3, 0.02), (1000, 1, 20, 0.5, 0.01)]


@pytest.mark.parametrize("n, m, d, tau, lam", API_QR_SHAPES)
def test_quantile_fit_does_not_depend_on_its_start(n, m, d, tau, lam):
    # the pivot from the ADMM start and from the lstsq fit reach one vertex
    ds = make_linear_design(n, m, d, seed=20240901, rep=n + 10 * m + d)
    X, y = ds.X, ds.y
    pen = PenaltySpec("l1", lam=lam) if lam else NO_PENALTY
    fit = fit_penalized_qr((X, y), tau, pen)
    start = np.linalg.lstsq(X, y, rcond=None)[0]
    theta, _ = est._finish_exact(X[None], y[None], tau, pen, start[None])
    assert fit.method == "simplex"
    assert np.all(np.abs(fit.theta - theta[0]) <= 1e-12)


RANK_DEFICIENT = {"ones-6x2": (np.ones((6, 2)), np.arange(6.0)),
                  "x2=2x1": (np.column_stack([np.ones(5), np.arange(5.0),
                                              2.0 * np.arange(5.0)]),
                             np.array([0.0, 2.0, 1.0, 5.0, 3.0])),
                  "ones-2x3": (np.ones((2, 3)), np.arange(2.0)),
                  "zeros-5x2": (np.zeros((5, 2)), np.arange(5.0)),
                  "zero-column": (np.column_stack([np.arange(6.0),
                                                   np.zeros(6)]),
                                  np.array([1.0, 0.0, 3.0, 2.0, 5.0, 4.0]))}


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("case", RANK_DEFICIENT)
def test_rank_deficient_quantile_fits_certify(case, lam):
    # an exactly singular X'X: the warm start takes the least-norm steps;
    # an unpenalized pivot finds fewer than d independent rows and is
    # pivoted again on the independent columns (none for an all-zero X),
    # the l1 rows make the augmented design full rank
    X, y = RANK_DEFICIENT[case]
    start = _admm.admm_batch(X[None], y[None], 0.5, 300)
    assert np.isfinite(start).all()
    pen = PenaltySpec("l1", lam=lam) if lam else NO_PENALTY
    fit = fit_penalized_qr((X, y), 0.5, pen)
    assert fit.method == "simplex" and fit.optimality_residual <= 1e-6
    lp = _lp_objective(X, y, 0.5, lam)
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


def test_unpenalized_least_squares_singular_through_fit_penalized():
    # the one least-squares solve: fit_penalized refuses the minimum-norm
    # solution of a rank-deficient design, as fit_ols does
    X = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
    with pytest.raises(SingularDesign, match="design rank 1 < 2"):
        fit_penalized((X, np.ones(10)), SQUARED)


# -- stacks of fits -------------------------------------------------------------


STACK_CASES = {"squared": (SQUARED, NO_PENALTY),
               "ridge": (SQUARED, PenaltySpec("weighted_l2", lam=0.05, m=1.0)),
               "quantile": (quantile_loss(0.3), NO_PENALTY),
               "quantile-l1": (quantile_loss(0.5), PenaltySpec("l1", lam=0.02))}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case", STACK_CASES)
def test_a_stacked_fit_equals_each_rep_fitted_alone(case, seed):
    # six reps of one shape: rep 2 has tied (rounded) responses, and rep 4
    # a duplicated column, except under the unpenalized squared loss, which
    # refuses it; a single quantile fit starts from ADMM, a stack from the
    # least-squares fits, so the two agree to rounding
    loss, pen = STACK_CASES[case]
    X, y = _stacked_draws(120, 2, 4, seed, 6)
    y[2] = np.round(y[2])
    if case != "squared":
        X[4, :, 3] = X[4, :, 1]
    tol = SolverOptions().tol
    stacked = fit_penalized((X, y), loss, pen)
    assert stacked.theta.shape == (6, 4)
    assert stacked.objective.shape == stacked.optimality_residual.shape == (6,)
    assert np.all(stacked.optimality_residual <= tol)
    for r in range(6):
        alone = fit_penalized((X[r], y[r]), loss, pen)
        assert alone.method == stacked.method
        assert np.abs(stacked.theta[r] - alone.theta).max() <= 1e-12
        assert alone.optimality_residual <= tol
        assert isinstance(alone.objective, float)
        assert abs(stacked.objective[r] - alone.objective) <= 1e-12


@pytest.mark.parametrize("loss, pen", [
    (quantile_loss(0.5), PenaltySpec("weighted_l2", lam=0.1)),
    (SQUARED, PenaltySpec("l1", lam=0.1))], ids=["quantile-wl2", "squared-l1"])
def test_the_active_set_classes_refuse_a_stack(loss, pen):
    X, y = _stacked_draws(50, 1, 3, 3, 2)
    with pytest.raises(ShapeMismatch, match="not a stack of 2"):
        fit_penalized((X, y), loss, pen)
    assert fit_penalized((X[0], y[0]), loss, pen).method == "active_set"


def test_a_stack_is_checked_before_any_solver():
    X, y = _stacked_draws(50, 1, 3, 3, 4)
    for bad in (y[:3], y[:, :-1], y[0], y[..., None]):
        for fit in (fit_ols, lambda data: fit_penalized_qr(data, 0.5)):
            with pytest.raises(ShapeMismatch):
                fit((X, bad))
    y[2, 7] = np.inf
    with pytest.raises(NonFinite):
        fit_penalized_qr((X, y), 0.5)
    y[2, 7], X[1, 3, 0] = 0.0, np.nan
    with pytest.raises(NonFinite):
        fit_ols((X, y))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(reps=st.integers(1, 6), d=st.integers(1, 8), blocks=st.integers(4, 30),
       m=st.sampled_from([1, 2, 5]), seed=st.integers(0, 2 ** 20),
       lam=st.sampled_from([1e-3, 0.1, 10.0]), pexp=st.sampled_from([0.0, 2.0]),
       zero=st.booleans(), rep=st.integers(0, 5))
def test_closed_form_stacks_match_lstsq(reps, d, blocks, m, seed, lam, pexp,
                                        zero, rep):
    # well-conditioned stacks (at least 4 d blocks): OLS against lstsq per
    # rep, ridge against the lstsq of the augmented design [X; sqrt(n lam
    # P)]; then one rep loses a column to a zero or to a copy of another
    n = m * blocks * d
    X, y = _stacked_draws(n, m, d, seed, reps)
    pen = PenaltySpec("weighted_l2", lam=lam, m=pexp)
    ols, ridge = fit_ols((X, y)), fit_penalized((X, y), SQUARED, pen)
    root = np.diag(np.sqrt(n * lam * pen.weights(d)))
    for r in range(reps):
        want = np.linalg.lstsq(X[r], y[r], rcond=None)[0]
        assert np.linalg.norm(ols.theta[r] - want) \
            <= 1e-12 * np.linalg.norm(want)
        want = np.linalg.lstsq(np.vstack([X[r], root]), np.r_[y[r], np.zeros(d)],
                               rcond=None)[0]
        assert np.linalg.norm(ridge.theta[r] - want) \
            <= 1e-12 * np.linalg.norm(want)
    rep %= reps
    if zero or d == 1:
        X[rep, :, d - 1] = 0.0
    else:
        X[rep, :, d - 1] = X[rep, :, 0]
    with pytest.raises(SingularDesign, match=rf"^design rank {d - 1} < {d} "
                       rf"at stack positions \[{rep}\]$"):
        fit_ols((X, y))


@pytest.fixture
def draw200():
    ds = make_linear_design(200, 1, 3, seed=1)
    return ds.X.copy(), ds.y.copy()


def test_infinite_response_is_rejected_before_the_solver(draw200):
    X, y = draw200
    y[3] = np.inf
    with pytest.raises(NonFinite):
        fit_penalized_qr((X, y), 0.5)


@pytest.mark.parametrize("where", ["X", "y"])
def test_nan_quantile_input_is_rejected(draw200, where):
    X, y = draw200
    (X[5] if where == "X" else y[5:6])[0] = np.nan
    with pytest.raises(NonFinite):
        fit_penalized_qr((X, y), 0.5)


def test_nan_least_squares_design_is_rejected(draw200):
    X, y = draw200
    X[7, 1] = np.nan
    with pytest.raises(NonFinite):
        fit_ols((X, y))


def test_short_response_is_a_shape_mismatch(draw200):
    X, y = draw200
    with pytest.raises(ShapeMismatch):
        fit_penalized_qr((X, y[:-1]), 0.5)
    with pytest.raises(ShapeMismatch):
        fit_ols((X, y[:, None]))


@pytest.mark.parametrize("shape", [(0, 3), (5, 0), (0, 0)])
@pytest.mark.parametrize("loss", [SQUARED, quantile_loss(0.5)],
                         ids=["squared", "quantile"])
def test_empty_design_is_a_shape_mismatch(shape, loss):
    with pytest.raises(ShapeMismatch):
        fit_penalized((np.ones(shape), np.ones(shape[0])), loss)


@pytest.mark.parametrize("kind", ["l1", "weighted_l2"])
@pytest.mark.parametrize("lam, m", [(math.nan, 0.0), (math.inf, 0.0),
                                    (0.1, math.nan), (0.1, math.inf)])
def test_penalty_rejects_non_finite_lambda_and_m(kind, lam, m):
    with pytest.raises(DomainError):
        PenaltySpec(kind, lam=lam, m=m)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_solver_tol_must_lie_in_the_open_half_line(tol):
    with pytest.raises(DomainError):
        SolverOptions(tol=tol)


# -- sieve least squares --------------------------------------------------------


@pytest.mark.parametrize("basis", [SieveBasis("polynomial", 4),
                                   SieveBasis("pspline", 5)],
                         ids=["polynomial", "pspline"])
def test_sieve_fit_rejects_non_finite_w(basis):
    rng = np.random.default_rng(13)
    w = rng.uniform(-6, 6, 60)
    y = np_target(w) + rng.standard_normal(60)
    w[4] = np.nan
    with pytest.raises(NonFinite):
        fit_sieve_ls(basis, w, y)
    w[4] = -np.inf
    with pytest.raises(NonFinite):
        basis.design(w)


def test_sieve_polynomial_line():
    w = np.linspace(-5, 5, 40)
    y = 1.5 - 0.5 * w
    basis = SieveBasis("polynomial", 2)
    fit = fit_sieve_ls(basis, w, y)
    assert fit.objective <= 1e-20
    # scaled monomials: function values must match exactly
    assert np.allclose(basis.design(w) @ fit.theta, y)


def test_sieve_polynomial_exact_recovery():
    rng = np.random.default_rng(9)
    w = rng.uniform(-6, 6, 80)
    y = 0.3 + 0.2 * w - 0.05 * w ** 2 + 0.01 * w ** 3
    for k in (4, 6, 8):
        basis = SieveBasis("polynomial", k)
        fit = fit_sieve_ls(basis, w, y)
        assert np.abs(basis.design(w) @ fit.theta - y).max() <= 1e-8


def test_sieve_pspline_partition_of_unity():
    rng = np.random.default_rng(10)
    w = rng.uniform(-6, 6, 100)
    for k in (3, 5, 8):
        basis = SieveBasis("pspline", k)
        assert np.allclose(basis.design(w).sum(axis=1), 1.0, atol=1e-12)
        fit = fit_sieve_ls(basis, w, np.full(100, 4.2))
        assert np.allclose(basis.design(w) @ fit.theta, 4.2, atol=1e-8)


def test_sieve_certificate_is_the_least_squares_gradient():
    rng = np.random.default_rng(12)
    w = rng.uniform(-6, 6, 150)
    y = np_target(w) + rng.standard_normal(150)
    for basis in (SieveBasis("polynomial", 5), SieveBasis("pspline", 7)):
        fit = fit_sieve_ls(basis, w, y)
        Q = basis.design(w)
        assert fit.optimality_residual == est._squared_gradient(
            Q, y - Q @ fit.theta, fit.theta, NO_PENALTY)


def test_sieve_normal_equations_residual():
    rng = np.random.default_rng(11)
    w = rng.uniform(-6, 6, 200)
    y = np_target(w) + rng.standard_normal(200)
    basis = SieveBasis("pspline", 6)
    fit = fit_sieve_ls(basis, w, y)
    Q = basis.design(w)
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
    assert lin_oracle.bias(2) <= 1e-6  # sqrt of cancellation noise
    vals = [oracle.bias(k) for k in range(3, 9)]
    # non-increasing, strictly smaller whenever an even power enters
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[2] < vals[1] * 0.5   # k=5 adds w^4
    assert vals[4] < vals[3] * 0.5   # k=7 adds w^6
    # parity: odd powers add nothing against a symmetric weight
    assert vals[1] == pytest.approx(vals[0], rel=1e-9)
    assert vals[3] == pytest.approx(vals[2], rel=1e-9)


def test_pspline_bias_nonmonotone_flagged():
    oracle = SieveMomentOracle("pspline", np_target)
    vals = [oracle.bias(k) for k in range(3, 9)]
    assert not is_nested("pspline")   # spline spaces are not nested
    assert vals[3] > vals[2]          # k=6 above k=5


def test_oracle_backends_agree():
    quad = SieveMomentOracle("polynomial", np_target)
    mc = SieveMomentOracle("polynomial", np_target, method="mc",
                           mc_draws=2_000_000, seed=99)
    for k in (3, 5, 7):
        assert mc.bias(k) == pytest.approx(quad.bias(k), rel=2e-2, abs=2e-3)
    assert mc.t2 == pytest.approx(quad.t2, rel=5e-3)


def test_estimators_does_not_import_sieves():
    # sieves builds its fits with estimators.certified_fit; the dependency
    # runs one way only
    with open(est.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
    assert not {"sieves", "mixconc.sieves"} & imported


def test_certified_fit_matches_the_public_objective_and_certificate():
    ds = make_linear_design(120, 1, d=3, seed=2)
    X, y = ds.X, ds.y
    pen = PenaltySpec("weighted_l2", lam=0.01, m=2.0)
    theta = fit_penalized((X, y), SQUARED, pen).theta
    fit = est.certified_fit(X, y, theta, "closed_form", SQUARED, pen)
    assert fit.objective == empirical_criterion(SQUARED, pen, (X, y), theta)
    assert fit.optimality_residual == est._squared_gradient(
        X, y - X @ theta, theta, pen)
    with pytest.raises(NonConvergence, match="closed_form fit: residual"):
        est.certified_fit(X, y, theta + 1.0, "closed_form")
