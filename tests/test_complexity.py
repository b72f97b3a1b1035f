import math

import numpy as np
import pytest

from mixconc import (DomainError, MaxVariant, MonotonicityViolation,
                     NoSolution, UniversalConstants, VarianceInputs,
                     WeightedSetSpec, c_kq, gamma_bound_l1, gamma_bound_l2p,
                     gauss_max_bound, gauss_max_lower, gauss_sup_lower,
                     gauss_sup_oracle, variance_term,
                     variance_term_fixed_point)
from mixconc.complexity import gauss_abs_moment

SQRT_2_PI = math.sqrt(2.0 / math.pi)


def test_universal_constants():
    assert UniversalConstants(2).g0 == pytest.approx(3 * (2 * 8.1 + math.sqrt(2) * 8))
    for p in (2, 3, 5, 7, 11, 13):
        assert UniversalConstants(p).g0 > 33.0
    consts = UniversalConstants(2)
    assert consts.tail_bound(10.0) == 1.0
    assert consts.tail_bound(1000.0) == pytest.approx(consts.g0 / 1000.0)
    assert consts.K_qr(0.5) == pytest.approx(math.sqrt(2) * 10 * 1.5)


def test_gauss_abs_moment():
    assert gauss_abs_moment(1.0) == pytest.approx(SQRT_2_PI)
    assert gauss_abs_moment(2.0) == pytest.approx(1.0)
    assert gauss_abs_moment(4.0) == pytest.approx(3.0)


def test_gauss_max_bound_examples():
    assert gauss_max_bound(2) == pytest.approx(math.sqrt(math.log(4)))
    assert gauss_max_bound(2, variant=MaxVariant.PROOF_SAFE) == \
        pytest.approx(math.sqrt(2 * math.log(4)))
    k1 = gauss_max_bound(1, variant=MaxVariant.PROOF_SAFE)
    assert k1 == pytest.approx(math.sqrt(2 * math.log(2)))
    assert k1 >= SQRT_2_PI  # analytic half-normal mean
    with pytest.raises(DomainError):
        gauss_max_bound(0)


def test_gauss_max_lower():
    assert gauss_max_lower(2) == 0.0    # c1 * 2 < 1 -> clamp
    val = gauss_max_lower(100)
    est, se = gauss_sup_oracle(WeightedSetSpec(k=100, q=1.0, radius=1.0),
                               draws=100_000, seed=5)
    assert 0.0 < val < est + 3 * se
    # homogeneity: scaling p by c scales the bound by 1/c
    assert gauss_max_lower(100, p=2.0) == pytest.approx(val / 2.0)


def test_c_kq_examples():
    assert c_kq(3, math.inf) == pytest.approx(3.0)
    assert c_kq(4, 2.0) == pytest.approx(2.0)
    assert c_kq(2, 1.0) == pytest.approx(math.sqrt(math.log(4)))
    with pytest.raises(DomainError):
        c_kq(3, 0.5)


def test_oracle_examples():
    est, se = gauss_sup_oracle(WeightedSetSpec(k=3, q=math.inf, radius=1.0),
                               draws=200_000, seed=1)
    assert est == pytest.approx(3 * SQRT_2_PI, abs=4 * se)
    est, se = gauss_sup_oracle(WeightedSetSpec(k=2, q=1.0, radius=1.0),
                               draws=200_000, seed=2)
    assert est == pytest.approx(2.0 / math.sqrt(math.pi), abs=4 * se)
    est, _ = gauss_sup_oracle(WeightedSetSpec(k=3, q=2.0, radius=0.0),
                              draws=10_000, seed=3)
    assert est == 0.0
    with pytest.raises(DomainError):
        gauss_sup_oracle(WeightedSetSpec(k=2, q=2.0, radius=1.0), draws=100)


def test_oracle_deterministic():
    spec = WeightedSetSpec(k=5, q=1.5, radius=2.0, p=1.5, b=0.7)
    a = gauss_sup_oracle(spec, draws=20_000, seed=42)
    b = gauss_sup_oracle(spec, draws=20_000, seed=42)
    assert a == b


def test_max_gauss_counterexample():
    # E max(|z1|,|z2|) = 2/sqrt(pi) ~ 1.128 exceeds the half-log
    # constant sqrt(0.5 log 4) ~ 0.833; the proof-safe constant holds.
    est, se = gauss_sup_oracle(WeightedSetSpec(k=2, q=1.0, radius=1.0),
                               draws=400_000, seed=7)
    lemma = gauss_max_bound(2, variant=MaxVariant.HALF_LOG)
    safe = gauss_max_bound(2, variant=MaxVariant.PROOF_SAFE)
    assert est - 3 * se > lemma
    assert est + 3 * se < safe


def test_gamma_bound_l1_examples():
    vi = gamma_bound_l1(3, trWinv=3.0, M_over_lambda=10.0)
    assert vi.Lambda == pytest.approx(math.sqrt(6.0))
    assert vi.B == pytest.approx(math.sqrt(math.log(6.0)) * 10.0)
    assert variance_term(gamma_bound_l1(3, 3.0, 0.0)) == 0.0
    assert gamma_bound_l1(1, 1.0, 1.0).B == pytest.approx(math.sqrt(math.log(2.0)))


def test_gamma_bound_l2p():
    diag = np.ones(6)
    # m = 0 with lambda below d / (2 tr W^-1): cap is sqrt(2 tr W^-1)
    vi = gamma_bound_l2p(6, m=0.0, lam=0.4, emin_W=1.0, diagWinv=diag)
    assert vi.Lambda == pytest.approx(math.sqrt(2.0 * 6.0))
    # balance-point rate shape: lambda = nbeta^(-m/(m+1)) gives
    # variance term proportional to nbeta^(-m/(2(m+1)))
    m = 2.0
    vals = []
    for nbeta in (100.0, 400.0, 1600.0):
        lam = nbeta ** (-m / (m + 1.0))
        vi = gamma_bound_l2p(10 ** 6, m=m, lam=lam, emin_W=1.0,
                             diagWinv=np.ones(10 ** 6))
        vals.append(variance_term(vi.with_multiplier(1.0 / math.sqrt(nbeta))))
    for a, b, (n1, n2) in zip(vals, vals[1:], [(100, 400), (400, 1600)]):
        assert b / a == pytest.approx((n2 / n1) ** (-m / (2 * (m + 1))), rel=1e-6)
    # d = 1: both branches coincide up to the min
    v1 = gamma_bound_l2p(1, m=2.0, lam=10.0, emin_W=1.0, diagWinv=[1.0])
    assert v1.Lambda <= math.sqrt(2.0)


def test_variance_term_examples():
    assert variance_term(VarianceInputs(Lambda=2.0, B=1.0)) == 1.0
    assert variance_term(VarianceInputs(Lambda=2.0, B=0.0)) == 0.0
    assert variance_term(VarianceInputs(Lambda=1.0, B=4.0, C=4.0)) == 4.0


def test_variance_term_monotone_and_scaling():
    rng = np.random.default_rng(13)
    for _ in range(200):
        lam, b, c = rng.uniform(0.1, 5.0, size=3)
        base = variance_term(VarianceInputs(lam, b, c))
        assert variance_term(VarianceInputs(lam * 1.1, b, c)) >= base
        assert variance_term(VarianceInputs(lam, b * 1.1, c)) >= base
        assert variance_term(VarianceInputs(lam, b, c * 1.1)) >= base
        for C in (1.0, 1.7, 4.0):
            assert variance_term(VarianceInputs(lam, b, c * C)) \
                <= C * variance_term(VarianceInputs(lam, b, c)) + 1e-12


def test_fixed_point_constant_h():
    B = 2.3
    val = variance_term_fixed_point(lambda s: B, s_max=100.0, tol=1e-10)
    assert val == pytest.approx(math.sqrt(5 * B), abs=1e-8)


def test_fixed_point_matches_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(10):
        lam, b, c = rng.uniform(0.2, 3.0, size=3)
        H = lambda s: (c / 5.0) * min(lam * s, b)
        val = variance_term_fixed_point(H, s_max=1000.0, tol=1e-9)
        assert val == pytest.approx(
            variance_term(VarianceInputs(lam, b, c)), abs=1e-7)


def test_fixed_point_linear_h():
    # H(s) = Lambda s / 5: the inequality is s >= Lambda, so the minimum
    # is Lambda, collapsing to the bracket floor when Lambda < tol.
    assert variance_term_fixed_point(lambda s: 0.5 * s / 5.0, s_max=10.0,
                                     tol=1e-10) == pytest.approx(0.5, abs=1e-8)
    assert variance_term_fixed_point(lambda s: 0.0, s_max=10.0,
                                     tol=1e-10) == pytest.approx(1e-10)


def test_fixed_point_errors():
    with pytest.raises(NoSolution):
        variance_term_fixed_point(lambda s: 1000.0, s_max=10.0)
    with pytest.raises(MonotonicityViolation):
        variance_term_fixed_point(lambda s: s ** 2, s_max=10.0)


def _spec_bounds(spec):
    upper = c_kq(spec.k, spec.q, spec.p, spec.b,
                 MaxVariant.PROOF_SAFE) * spec.radius
    lower = gauss_sup_lower(spec)
    return lower, upper


def test_oracle_sandwich_small():
    rng = np.random.default_rng(23)
    for q in (1.0, 1.5, 2.0, 4.0, math.inf):
        for _ in range(3):
            k = int(rng.integers(2, 25))
            spec = WeightedSetSpec(
                k=k, q=q, radius=float(rng.uniform(0.5, 3.0)),
                p=rng.uniform(0.5, 2.0, size=k), b=rng.uniform(0.5, 2.0, size=k))
            est, se = gauss_sup_oracle(spec, draws=60_000,
                                       seed=int(rng.integers(10 ** 6)))
            lower, upper = _spec_bounds(spec)
            assert est <= upper + 3 * se
            assert est >= lower - 3 * se
