import math

import numpy as np
import pytest
from scipy.interpolate import BSpline

from mixconc import (NO_PENALTY, SQUARED, DomainError, NonConvergence,
                     NonFinite, ShapeMismatch, SieveMomentOracle,
                     SingularDesign, SolverOptions, empirical_criterion,
                     make_np_design, np_target)
from mixconc import estimators as est
from mixconc.experiments import hash_cell
from mixconc.sieves import SieveBasis, family_designs, family_fits, is_nested


def test_basis_shapes_and_kinds():
    w = np.linspace(-5.9, 5.9, 31)
    for kind, k in (("polynomial", 1), ("polynomial", 8), ("pspline", 3),
                    ("pspline", 8)):
        Q = SieveBasis(kind, k).design(w)
        assert Q.shape == (31, k)
        assert np.isfinite(Q).all()
    assert is_nested("polynomial") and not is_nested("pspline")


def test_pspline_degree_rule():
    assert SieveBasis("pspline", 3).degree == 2   # quadratic Bernstein
    for k in range(4, 9):
        assert SieveBasis("pspline", k).degree == 3
    # "three equally spaced knots" corresponds to k = 7
    assert np.allclose(SieveBasis("pspline", 7).interior_knots(), [-3, 0, 3])


def test_polynomial_nesting():
    w = np.linspace(-6, 6, 11)
    Q8 = SieveBasis("polynomial", 8).design(w)
    Q5 = SieveBasis("polynomial", 5).design(w)
    assert np.allclose(Q8[:, :5], Q5)


@pytest.mark.parametrize("kind", ["polynomial", "pspline"])
def test_family_designs_equal_the_per_k_designs(kind):
    w = np.random.default_rng(4).uniform(-6.5, 6.5, 57)
    ks = (3, 4, 5, 6, 7, 8)
    designs = family_designs(kind, ks, w)
    assert len(designs) == len(ks)
    for k, Q in zip(ks, designs):
        assert np.array_equal(Q, SieveBasis(kind, k).design(w))
    with pytest.raises(DomainError):
        family_designs(kind, (), w)


#: interior points, the ends of the support and points beyond it
EDGE_W = np.array([-100.0, -7.0, -6.0, -5.999, -3.0, -0.1, 0.0, 1.5, 3.0,
                   5.999, 6.0, 6.5, 1e6])


def fresh_spline_design(k, w):
    basis = SieveBasis("pspline", k)
    deg = basis.degree
    knots = np.r_[[-6.0] * (deg + 1), basis.interior_knots(), [6.0] * (deg + 1)]
    return BSpline(knots, np.eye(k), deg, extrapolate=False)(np.clip(w, -6, 6))


@pytest.mark.parametrize("k", range(3, 9))
def test_spline_design_equals_a_freshly_built_bspline(k):
    w = np.r_[EDGE_W, np.random.default_rng(k).uniform(-6, 6, 40)]
    for _ in range(2):
        assert np.array_equal(SieveBasis("pspline", k).design(w),
                              fresh_spline_design(k, w))


def test_spline_design_is_a_new_array_every_call():
    basis = SieveBasis("pspline", 6)
    Q = basis.design(EDGE_W)
    Q[:] = 99.0
    assert np.array_equal(basis.design(EDGE_W), fresh_spline_design(6, EDGE_W))
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFinite):
            basis.design(np.r_[EDGE_W, bad])


def thetas(fits):
    return [fit.theta for fit in fits]


def relative_gap(fits, refs):
    return max(np.max(np.abs(f - r)) / np.max(np.abs(r)) for f, r in zip(fits, refs))


@pytest.mark.parametrize("n", [100, 3000])
@pytest.mark.parametrize("kind", ["polynomial", "pspline"])
def test_family_fits_match_per_k_lstsq_in_the_order_of_ks(kind, n):
    ks = (5, 3, 8)
    for rep in range(3):
        data = make_np_design(n, 1, seed=11, rep=rep)
        fits = thetas(family_fits(kind, family_designs(kind, ks, data.w), data.y))
        refs = [np.linalg.lstsq(SieveBasis(kind, k).design(data.w), data.y,
                                rcond=None)[0] for k in ks]
        assert [f.shape for f in fits] == [(k,) for k in ks]
        assert relative_gap(fits, refs) <= 1e-12


def test_family_fits_refuse_a_rank_deficient_polynomial_design():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(60)
    for values in (np.array([0.5]), np.linspace(-5, 5, 7)):
        w = rng.choice(values, size=60)   # fewer distinct values than K = 8
        with pytest.raises(SingularDesign):
            family_fits("polynomial", family_designs("polynomial", (3, 8), w), y)
    w = np.linspace(-5, 5, 60)
    with pytest.raises(DomainError):
        family_fits("polynomial", [], y)
    with pytest.raises(ShapeMismatch):
        family_fits("pspline", family_designs("pspline", (3, 4), w), y[:-1])
    with pytest.raises(NonFinite):
        family_fits("polynomial", family_designs("polynomial", (3, 4), w),
                    np.r_[y[:-1], np.nan])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_family_fits_refuse_a_non_finite_design(bad):
    w = np.linspace(-5, 5, 60)
    y = np_target(w)
    for kind, error in (("pspline", NonFinite), ("polynomial", NonConvergence)):
        designs = family_designs(kind, (3, 5), w)
        designs[-1] = designs[-1].copy()
        designs[-1][7, 1] = bad
        with pytest.raises(error):
            family_fits(kind, designs, y)


def test_family_fits_refuse_k_above_the_sample_size():
    w = np.linspace(-5, 5, 5)
    y = np.arange(5.0)
    for kind in ("polynomial", "pspline"):
        with pytest.raises(DomainError, match="sample size"):
            family_fits(kind, family_designs(kind, (3, 8), w), y)
        fits = family_fits(kind, family_designs(kind, (3, 5), w), y)
        assert [fit.theta.size for fit in fits] == [3, 5]


def test_family_fits_certify_non_prefix_polynomial_designs_or_raise():
    rng = np.random.default_rng(7)
    w = rng.uniform(-6, 6, 80)
    y = np_target(w) + rng.standard_normal(80)
    Q = family_designs("polynomial", (8,), w)[0]
    for designs in ([Q[:, 1:4], Q], [Q[:, [0, 2, 4]], Q[:, :6]],
                    family_designs("pspline", (5, 8), w)):
        with pytest.raises(NonConvergence):
            family_fits("polynomial", designs, y)


#: the study's seed for the pspline cell (n, m) = (100, 1)
PSPLINE_100_SEED = 20240901 + 97 * hash_cell(100, 1) + 7


def test_family_fits_rank_deficient_spline_designs_of_the_study():
    # replication 72 has no w above the last interior knot of k = 8 (3.6)
    data = make_np_design(100, 1, PSPLINE_100_SEED, rep=72)
    designs = family_designs("pspline", range(3, 9), data.w)
    assert np.linalg.matrix_rank(designs[-1]) < 8
    tol = SolverOptions().tol
    for Q, fit in zip(designs, family_fits("pspline", designs, data.y)):
        assert np.array_equal(fit.theta, np.linalg.lstsq(Q, data.y, rcond=None)[0])
        assert fit.optimality_residual <= tol
        assert fit.method == "closed_form"


def test_family_fits_objective_and_certificate_of_each_design():
    data = make_np_design(300, 1, seed=5)
    for kind in ("polynomial", "pspline"):
        designs = family_designs(kind, (3, 6, 8), data.w)
        for Q, fit in zip(designs, family_fits(kind, designs, data.y)):
            assert fit.objective == empirical_criterion(SQUARED, NO_PENALTY,
                                                        (Q, data.y), fit.theta)
            assert fit.optimality_residual == est._squared_gradient(
                Q, data.y - Q @ fit.theta, fit.theta, NO_PENALTY)


def test_polynomial_design_is_the_monomial_table():
    w = np.linspace(-6, 6, 13)
    Q = SieveBasis("polynomial", 8).design(w)
    assert np.allclose(Q, np.stack([(w / 6) ** j for j in range(8)], axis=-1),
                       rtol=1e-15, atol=1e-16)


FROZEN_POLY_BIAS = {3: 0.869135949, 4: 0.869135949, 5: 0.200890083,
                    6: 0.200890083, 7: 0.023590396, 8: 0.023590396}
FROZEN_PSPLINE_BIAS = {3: 0.869136, 4: 0.869136, 5: 0.092938, 6: 0.338918,
                       7: 0.012987, 8: 0.124727}


def test_frozen_bias_values():
    poly = SieveMomentOracle("polynomial", np_target)
    for k, val in FROZEN_POLY_BIAS.items():
        assert poly.bias(k) == pytest.approx(val, abs=2e-8)
    psp = SieveMomentOracle("pspline", np_target)
    for k, val in FROZEN_PSPLINE_BIAS.items():
        assert psp.bias(k) == pytest.approx(val, abs=2e-6)


def test_gram_positive_definite_and_cross():
    mean = {}
    for kind in ("polynomial", "pspline"):
        oracle = SieveMomentOracle(kind, np_target)
        for k in (3, 6, 8):
            M, c = oracle.moments(k)
            assert np.all(np.linalg.eigvalsh(M) > 0)
            assert c.shape == (k,)
            # both families span the constants: the first monomial and the
            # splines' partition of unity each give E theta*(W) from c
            mean.setdefault(kind, []).append(c[0] if is_nested(kind)
                                             else c.sum())
    assert mean["pspline"] == pytest.approx(mean["polynomial"], rel=1e-10)


def test_l2_error_at_projection_is_bias():
    for kind in ("polynomial", "pspline"):
        oracle = SieveMomentOracle(kind, np_target)
        for k in (3, 5, 7):
            assert oracle.l2_error(k, oracle.projection(k)) == oracle.bias(k)


def test_l2_error_rejects_a_theta_of_another_shape():
    oracle = SieveMomentOracle("polynomial", np_target)
    for bad in (np.zeros(4), np.zeros(6), np.zeros((5, 1)), 0.0):
        with pytest.raises(ShapeMismatch):
            oracle.l2_error(5, bad)
    assert oracle.l2_error(5, list(oracle.projection(5))) == oracle.bias(5)


def quadrature_l2_error(oracle, k, theta_hat):
    """||theta_hat' q - theta*|| summed directly on the oracle's nodes."""
    basis = SieveBasis(oracle.kind, k)
    w, wd = oracle._points(basis.interior_knots())
    res = basis.design(w) @ theta_hat - oracle.target(w)
    return math.sqrt(float(np.sum(wd * res * res)))


@pytest.mark.parametrize("kind", ["polynomial", "pspline"])
def test_l2_error_near_the_projection_matches_direct_quadrature(kind):
    # the expanded form theta'M theta - 2 theta'c + E theta*^2 is off by
    # up to 8e-11 relative here (polynomial k = 7, 8)
    oracle = SieveMomentOracle(kind, np_target)
    rng = np.random.default_rng(5)
    for k in range(3, 9):
        for scale in (0.0, 1e-5, 1e-3):
            theta_hat = oracle.projection(k) + scale * rng.standard_normal(k)
            direct = quadrature_l2_error(oracle, k, theta_hat)
            assert oracle.l2_error(k, theta_hat) == pytest.approx(
                direct, rel=1e-12, abs=0)


def test_quadrature_matches_dense_mc():
    oracle = SieveMomentOracle("pspline", np_target)
    rng = np.random.default_rng(123)
    x = rng.standard_normal(2_000_000) * np.sqrt(1.0001)
    w = 6 * x / (1 + np.abs(x))
    Q = SieveBasis("pspline", 6).design(w)
    M_mc = Q.T @ Q / w.size
    M, _ = oracle.moments(6)
    assert np.allclose(M, M_mc, atol=3e-3)
