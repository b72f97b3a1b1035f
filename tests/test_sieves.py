import numpy as np
import pytest

from mixconc import DomainError, SieveMomentOracle, np_target
from mixconc.sieves import SieveBasis, family_designs, is_nested


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
    for kind in ("polynomial", "pspline"):
        oracle = SieveMomentOracle(kind, np_target)
        for k in (3, 6, 8):
            M, c = oracle.moments(k)
            assert np.all(np.linalg.eigvalsh(M) > 0)
            assert c.shape == (k,)
        C = oracle.cross_gram(4, 7)
        assert C.shape == (4, 7)
        # consistency with the square grams on the diagonal blocks
        if kind == "polynomial":
            M7, _ = oracle.moments(7)
            assert np.allclose(C, M7[:4, :7])


def test_l2_error_at_projection_is_bias():
    oracle = SieveMomentOracle("polynomial", np_target)
    for k in (3, 5, 7):
        nu = oracle.projection(k)
        assert oracle.l2_error(k, nu) == pytest.approx(oracle.bias(k), abs=1e-9)


def test_quadrature_matches_dense_mc():
    oracle = SieveMomentOracle("pspline", np_target)
    rng = np.random.default_rng(123)
    x = rng.standard_normal(2_000_000) * np.sqrt(1.0001)
    w = 6 * x / (1 + np.abs(x))
    Q = SieveBasis("pspline", 6).design(w)
    M_mc = Q.T @ Q / w.size
    M, _ = oracle.moments(6)
    assert np.allclose(M, M_mc, atol=3e-3)
