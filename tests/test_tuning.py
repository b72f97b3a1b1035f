import math

import numpy as np
import pytest

from mixconc import (NO_PENALTY, DomainError, EmptyIdealSet, EmptyTestSet,
                     NonFinite, PenaltySpec, ShapeMismatch, TuningGrid,
                     build_sieve_oracle, default_s, empirical_criterion,
                     family_designs, family_fits, feasible_k,
                     fit_penalized_qr, ideal_k, lambda_grid,
                     make_linear_design, make_np_design, quantile_loss,
                     select_lambda, select_sieve, sieve_grid,
                     variance_proxy)
from mixconc.tuning import test_set as pairwise_test_set


def test_grid_validation():
    g = sieve_grid([3, 4, 5])
    assert g.labels == (3, 4, 5)
    with pytest.raises(DomainError):
        TuningGrid(labels=(5, 3), kind="sieve_k")
    lg = lambda_grid([0.1, 1.0, 0.5])
    assert lg.labels == (1.0, 0.5, 0.1)   # decreasing: index up = variance up


def test_variance_proxy_sieve_examples():
    g = sieve_grid(range(3, 9))
    p = variance_proxy(g, 100)
    assert p[2] == pytest.approx(math.sqrt(5 / 100), abs=5e-4)   # 0.224
    p500 = variance_proxy(g, 500)
    assert p500[4] == pytest.approx(0.118, abs=5e-4)             # sqrt(7/500)


def test_variance_proxy_penalties():
    g = lambda_grid([1.0, 0.5, 0.25])
    p = variance_proxy(g, 100.0, penalty="weighted_l2", m=1.0)
    # lambda = 1/nbeta gives 2 sqrt(lambda^-1 / nbeta) = 2
    g2 = lambda_grid([1.0 / 100.0])
    p2 = variance_proxy(g2, 100.0, penalty="weighted_l2", m=1.0)
    assert p2[0] == pytest.approx(2.0)
    assert not p.monotonized
    assert all(p[i] <= p[i + 1] for i in range(2))
    pl1 = variance_proxy(g, 100.0, penalty="l1", d=10, mean_loss_at_zero=2.0)
    assert pl1[0] == pytest.approx(
        (math.log(20) / 100.0) ** 0.25 * math.sqrt(2.0 / 1.0))


def test_variance_proxy_errors():
    g = lambda_grid([1.0, 0.5])
    with pytest.raises(DomainError):
        variance_proxy(g, 100.0, penalty="l1")   # missing stats
    with pytest.raises(DomainError):
        variance_proxy(lambda_grid([1.0]), 0.0, penalty="weighted_l2", m=1.0)


def test_ideal_k_crossing():
    g = sieve_grid(range(3, 9))
    proxy = variance_proxy(g, 400)
    bias = np.array([0.9, 0.5, 0.3, 0.25, 0.05, 0.04])
    # proxy: 0.087.. at k=3 rising to 0.141; crossing between 6 and 7
    assert ideal_k(g, proxy, bias) == 7


def test_ideal_k_zero_bias_and_ties():
    g = sieve_grid(range(3, 9))
    proxy = variance_proxy(g, 400)
    assert ideal_k(g, proxy, np.zeros(6)) == 3
    with pytest.raises(EmptyIdealSet):
        ideal_k(g, proxy, np.full(6, 10.0))


def test_ideal_k_tie_takes_largest_label():
    g = sieve_grid([3, 4])
    proxy = variance_proxy(g, 100)
    proxy = type(proxy)(values=np.array([0.2, 0.2]))   # flat proxy
    assert ideal_k(g, proxy, np.array([0.1, 0.1])) == 4


def _toy_setup(nb=400):
    g = sieve_grid(range(3, 9))
    proxy = variance_proxy(g, nb)
    metric = [np.eye(k) for k in g.labels]
    return g, proxy, metric


def test_test_set_identical_fits():
    g, proxy, metric = _toy_setup()
    fits = [np.ones(k) for k in g.labels]   # padded distances nonzero!
    same = [np.zeros(k) for k in g.labels]
    assert pairwise_test_set(g, same, proxy, 1.0, metric) == g.labels
    assert pairwise_test_set(g, fits, proxy, 1e9, metric) == g.labels   # s -> infinity


def test_test_set_two_point_exclusion():
    g = sieve_grid([3, 4])
    proxy = variance_proxy(g, 100)
    fits = [np.array([5.0, 0.0, 0.0]), np.zeros(4)]
    metric = [np.eye(3), np.eye(4)]
    s = 1.0
    # dist(3,4) = 5 > 4 * s * proxy[4]: only the larger label survives
    assert 5.0 > 4 * s * proxy[1]
    assert pairwise_test_set(g, fits, proxy, s, metric) == (4,)


def test_feasible_k_full_set_and_empty():
    g, proxy, metric = _toy_setup()
    same = [np.zeros(k) for k in g.labels]
    res = feasible_k(g, same, proxy, 1.0, metric)
    assert res.k_feasible == 3
    assert res.test_set == g.labels
    # a Gram metric puts each fit at distance 0 from itself, so the top
    # label is a member for any s; only a negative proxy empties the set
    fits = [np.full(k, 9.0) for k in g.labels]
    fits[-1] = np.zeros(8)
    assert feasible_k(g, fits, proxy, 1e-9, metric).test_set == (8,)
    negative = type(proxy)(values=-proxy.values)
    with pytest.raises(EmptyTestSet):
        feasible_k(g, fits, negative, 1.0, metric)


def test_test_set_rejects_a_non_positive_multiplier():
    g, proxy, metric = _toy_setup()
    same = [np.zeros(k) for k in g.labels]
    for multiplier in (0.0, -1.0):
        with pytest.raises(DomainError, match="multiplier"):
            pairwise_test_set(g, same, proxy, 1.0, metric, multiplier)
        with pytest.raises(DomainError, match="multiplier"):
            feasible_k(g, same, proxy, 1.0, metric, multiplier)


def test_test_set_rejects_a_non_finite_fit():
    # a NaN distance passes no rejection test, so the NaN fit of k = 3
    # used to join the test set (3, 5) for any s and be selected
    g = sieve_grid([3, 4, 5])
    proxy = variance_proxy(g, 100)
    grams = [np.eye(k) for k in g.labels]
    for bad in (math.nan, math.inf):
        fits = [np.full(3, bad), np.full(4, 5.0), np.zeros(5)]
        for s in (1e-3, 1.0, 1e3):
            with pytest.raises(NonFinite):
                pairwise_test_set(g, fits, proxy, s, grams)
            with pytest.raises(NonFinite):
                feasible_k(g, fits, proxy, s, grams)


def padded_distance(fi, fj, M):
    """The displayed quadratic form, fi zero-padded to fj's length."""
    padded = np.zeros_like(fj)
    padded[:fi.size] = fi
    diff = padded - fj
    return math.sqrt(max(float(diff @ M @ diff), 0.0))


def test_test_set_matrix_metric_is_the_zero_padded_form():
    rng = np.random.default_rng(3)
    g = sieve_grid([3, 4, 5, 6])
    proxy = variance_proxy(g, 200)
    mats = []
    for k in g.labels:
        A = rng.standard_normal((k, k))
        mats.append(A @ A.T)
    fits = [rng.standard_normal(k) for k in g.labels]
    # the s at which each pair k < k' sits on its threshold
    margins = sorted(padded_distance(fits[i], fits[j], mats[j]) / (4 * proxy[j])
                     for i in range(4) for j in range(i + 1, 4))
    for s in margins:
        want = tuple(g.labels[i] for i in range(4)
                     if all(padded_distance(fits[i], fits[j], mats[j])
                            <= 4 * s * proxy[j] for j in range(i, 4)))
        assert pairwise_test_set(g, fits, proxy, s, mats) == want
        assert pairwise_test_set(g, [list(f) for f in fits], proxy, s,
                                 mats) == want
    with pytest.raises(ShapeMismatch):
        pairwise_test_set(g, fits[::-1], proxy, 1.0, mats)


def test_feasible_vs_ideal_consistency():
    # whenever the ideal label is in the test set, the feasible proxy
    # cannot exceed the ideal proxy
    rng = np.random.default_rng(7)
    g = sieve_grid(range(3, 9))
    for _ in range(200):
        nb = int(rng.integers(50, 2000))
        proxy = variance_proxy(g, nb)
        bias = np.sort(rng.uniform(0, 0.5, size=6))[::-1]
        fits = [rng.standard_normal(k) * rng.uniform(0, 0.3) for k in g.labels]
        metric = [np.eye(k) for k in g.labels]
        s = float(rng.uniform(0.2, 5.0))
        accepted = pairwise_test_set(g, fits, proxy, s, metric)
        if not accepted:
            continue
        try:
            ki = ideal_k(g, proxy, bias)
        except EmptyIdealSet:
            continue
        res = feasible_k(g, fits, proxy, s, metric)
        if ki in accepted:
            assert res.proxy_feasible <= proxy[g.labels.index(ki)] + 1e-12


def test_test_set_monotone_in_s():
    rng = np.random.default_rng(8)
    g = sieve_grid(range(3, 9))
    proxy = variance_proxy(g, 300)
    for _ in range(50):
        fits = [rng.standard_normal(k) * 0.2 for k in g.labels]
        metric = [np.eye(k) for k in g.labels]
        s_small, s_big = sorted(rng.uniform(0.05, 4.0, size=2))
        small = set(pairwise_test_set(g, fits, proxy, s_small, metric))
        big = set(pairwise_test_set(g, fits, proxy, s_big, metric))
        assert small <= big


def test_selection_scale_invariance():
    # scaling proxy and threshold s jointly leaves the selection unchanged
    rng = np.random.default_rng(9)
    g = sieve_grid(range(3, 9))
    proxy = variance_proxy(g, 500)
    fits = [rng.standard_normal(k) * 0.1 for k in g.labels]
    metric = [np.eye(k) for k in g.labels]
    res1 = feasible_k(g, fits, proxy, 2.0, metric)
    scaled = type(proxy)(values=proxy.values * 3.7)
    res2 = feasible_k(g, fits, scaled, 2.0 / 3.7, metric)
    assert res1.k_feasible == res2.k_feasible
    assert res1.test_set == res2.test_set


def test_s_helpers():
    assert default_s(1000, 1) == pytest.approx(0.5 * math.log(1000))
    assert default_s(3000, 6) == pytest.approx(0.5 * math.log(500))


# -- the data-driven choice of one sample -------------------------------------


@pytest.mark.parametrize("kind", ["polynomial", "pspline"])
def test_select_sieve_equals_a_hand_assembly(kind):
    # the empirical grams (grams=None) and the oracle grams; the pspline
    # sample's test set differs between the two
    n, m, ks, mult = 300, 3, range(3, 9), 4.0
    data = make_np_design(n, m, seed=1)
    s = default_s(n, m)
    grid = sieve_grid(ks)
    proxy = variance_proxy(grid, n // m)
    designs = family_designs(kind, ks, data.w)
    thetas = [fit.theta for fit in family_fits(kind, designs, data.y)]
    oracle_grams = [build_sieve_oracle(kind).moments(k)[0] for k in ks]
    test_sets = []
    for grams, hand_grams in ((None, [Q.T @ Q / n for Q in designs]),
                              (oracle_grams, oracle_grams)):
        result, fits = select_sieve(kind, ks, data.w, data.y, n // m, s,
                                    grams, mult)
        assert result == feasible_k(grid, thetas, proxy, s, hand_grams, mult)
        assert all(np.array_equal(fit.theta, theta)
                   for fit, theta in zip(fits, thetas, strict=True))
        test_sets.append(result.test_set)
    if kind == "pspline":
        assert test_sets == [(8,), (7, 8)]


def test_select_lambda_equals_a_hand_assembly():
    # the levels are given out of order: the fits follow them, the grid
    # and the test set run down from the largest level
    data = make_linear_design(200, 2, 3, seed=1)
    X, y, tau, lams, s = data.X, data.y, 0.5, (0.002, 0.2, 0.02, 0.05), 0.02
    grid = lambda_grid(lams)
    loss0 = empirical_criterion(quantile_loss(tau), NO_PENALTY, (X, y),
                                np.zeros(3))
    proxy = variance_proxy(grid, 100, penalty="l1", d=3,
                           mean_loss_at_zero=loss0)
    thetas = {lam: fit_penalized_qr((X, y), tau,
                                    PenaltySpec("l1", lam=lam)).theta
              for lam in lams}
    result, fits = select_lambda(X, y, tau, lams, 100, s, multiplier=1.2)
    assert result == feasible_k(grid, [thetas[lam] for lam in grid.labels],
                                proxy, s, [np.eye(3)] * 4, 1.2)
    assert result.test_set == (0.02, 0.002)
    assert all(np.array_equal(fit.theta, thetas[lam])
               for lam, fit in zip(lams, fits, strict=True))
