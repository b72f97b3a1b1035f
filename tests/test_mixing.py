import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mixconc
from mixconc import (BetaMixingModel, DomainError, NonFinite, QuantileFn,
                     UnsupportedModel, b_r_bounds, b_r_factor, beta_coeff,
                     beta_inverse, build_lattice, dep_norm, effective_n,
                     effective_n_bounds, mu_integral, mu_q, q_nk)

IND4 = BetaMixingModel.indicator(4)
IID = BetaMixingModel.iid()
IID2 = BetaMixingModel.iid(beta0=2.0)


def models_grid():
    out = [IND4, BetaMixingModel.indicator(2), BetaMixingModel.indicator(16)]
    for m0 in (0.3, 1.0, 2.0, 3.0, 5.0):
        out.append(BetaMixingModel.polynomial(m0))
    out += [IID, IID2, BetaMixingModel.indicator(4, beta0=2.0)]
    return out


# -- beta ---------------------------------------------------------------------


def test_beta_coeff_examples():
    assert beta_coeff(IND4, 3) == 1.0
    assert beta_coeff(BetaMixingModel.polynomial(3.0), 1) == pytest.approx(0.125)
    assert beta_coeff(IID2, 0) == 2.0
    assert beta_coeff(IND4, 4) == 0.0


def test_beta_nonincreasing_and_vanishing():
    for model in models_grid():
        vals = [beta_coeff(model, q) for q in range(0, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.05 or model.kind == "polynomial"


# -- mu_q ---------------------------------------------------------------------


def test_mu_q_examples():
    assert mu_q(IND4, 10, 0.4) == 4
    assert mu_q(IID2, 17, 0.9) == 1
    assert mu_q(IND4, 10, 0.6) == 0


def test_mu_q_domain():
    with pytest.raises(DomainError):
        mu_q(IID, 3, 0.0)
    with pytest.raises(DomainError):
        mu_q(IID, 3, 1.5)


def test_mu_q_monotonicities():
    us = np.linspace(0.01, 1.0, 23)
    for model in models_grid():
        for u in us:
            vals = [mu_q(model, q, u) for q in range(0, 30)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        for q in (0, 3, 11):
            vals = [mu_q(model, q, u) for u in us]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_mu_sandwich():
    # min(beta^-1(2u), q+1) <= mu_q(u) <= min(beta^-1(2u) + 1, q+1)
    us = np.linspace(0.013, 1.0, 41)
    for model in models_grid():
        for q in (1, 2, 5, 17):
            for u in us:
                val = mu_q(model, q, u)
                binv = beta_inverse(model, 2.0 * u) if 2.0 * u <= model.beta0 \
                    else 0
                assert min(binv, q + 1) <= val <= min(binv + 1, q + 1)


def test_mu_integral_examples():
    assert mu_integral(IND4, 4, 2.0) == pytest.approx(8.0)
    assert mu_integral(IID2, 1, 2.0) == pytest.approx(1.0)
    assert mu_integral(IID, 1, 0.0) == pytest.approx(0.5)
    assert mu_integral(IND4, 10, 0.0) == pytest.approx(0.5)


def test_mu_integral_matches_riemann():
    rng = np.random.default_rng(1)
    grid = np.linspace(0, 1, 200_001)[1:]
    for model in models_grid()[:6]:
        q = int(rng.integers(1, 12))
        a = float(rng.uniform(0.0, 3.0))
        vals = np.array([mu_q(model, q, u) for u in grid], dtype=float)
        riemann = np.sum(np.where(vals > 0, vals ** a, 0.0)) / grid.size
        assert mu_integral(model, q, a) == pytest.approx(riemann, abs=5e-4)


@pytest.mark.parametrize("beta0", [1.0, 2.0])
@pytest.mark.parametrize("q", [0, 1, 5, 200])
def test_mu_plateaus_need_no_sort_or_clip(beta0, q):
    # the thresholds 0.5 beta(i) come sorted and within [0, 1] already
    from mixconc.mixing import _mu_plateaus
    for model in (BetaMixingModel.indicator(4, beta0=beta0),
                  BetaMixingModel.polynomial(1.5, beta0=beta0),
                  BetaMixingModel.iid(beta0=beta0)):
        t = np.minimum(np.sort([0.5 * beta_coeff(model, i)
                                for i in range(q + 1)])[::-1], 1.0)
        lows = np.append(t[1:], 0.0)
        want = [(float(lo), float(hi), j) for j, (lo, hi)
                in enumerate(zip(lows, t), start=1) if hi > lo]
        assert _mu_plateaus(model, q) == want


# -- q_nk ---------------------------------------------------------------------


def test_q_nk_examples():
    lat = build_lattice(64, 2)
    assert q_nk(IID, lat, 0) == 1
    assert q_nk(IND4, lat, 0) == 4
    assert q_nk(BetaMixingModel.indicator(1000), lat, 0) == 16


def test_q_nk_nonincreasing_in_k():
    lat = build_lattice(720, 3)
    for model in models_grid():
        vals = [q_nk(model, lat, k) for k in range(0, 12)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


# -- dep_norm -----------------------------------------------------------------


def test_dep_norm_constant():
    f = QuantileFn.empirical([3.0] * 7)
    assert dep_norm(f, IID2, 5) == pytest.approx(3.0 * math.sqrt(2.0))
    g = QuantileFn.analytic(lambda u: 3.0)
    assert dep_norm(g, IID2, 5) == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-9)


IMPORT_FOOTPRINT = """
import sys
import mixconc, mixconc.cli
assert "scipy.integrate" not in sys.modules, "loaded on import"
from mixconc import BetaMixingModel, QuantileFn, dep_norm
value = dep_norm(QuantileFn.analytic(lambda u: 3.0),
                 BetaMixingModel.iid(beta0=2.0), 5)
assert abs(value - 3.0 * 2.0 ** 0.5) < 1e-9, value
assert "scipy.integrate" in sys.modules
"""


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    # a fresh interpreter, since this one may have loaded it already
    src = str(pathlib.Path(mixconc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_dep_norm_iid_is_l2():
    rng = np.random.default_rng(2)
    sample = np.abs(rng.standard_normal(400))
    f = QuantileFn.empirical(sample)
    l2 = math.sqrt(np.mean(sample ** 2))
    assert dep_norm(f, IID2, 9) == pytest.approx(math.sqrt(2.0) * l2, rel=1e-10)


def test_dep_norm_monotone_in_q():
    rng = np.random.default_rng(3)
    f = QuantileFn.empirical(np.abs(rng.standard_normal(150)))
    for model in models_grid():
        vals = [dep_norm(f, model, q) for q in range(0, 16, 3)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_dep_norm_bounded_by_br_times_lr():
    rng = np.random.default_rng(4)
    for trial in range(10):
        sample = np.abs(rng.standard_normal(60)) ** (1 + trial % 3)
        f = QuantileFn.empirical(sample)
        for model in (IND4, BetaMixingModel.polynomial(3.0)):
            for q in (1, 4, 9):
                for r in (2.5, 4.0):
                    upper = b_r_bounds(model, q, r)[1]
                    assert dep_norm(f, model, q) <= upper * f.lr_norm(r) + 1e-10


def midpoint_dep_norm(f, model, q):
    """sqrt(2 int mu_q Q_f^2) summed segment by segment between every
    mu-threshold and every k/n, each segment valued at its midpoint."""
    n = f.sample.size
    cuts = {0.0, 1.0} | {k / n for k in range(1, n)}
    cuts |= {min(0.5 * beta_coeff(model, i), 1.0) for i in range(q + 1)}
    cuts = sorted(c for c in cuts if 0.0 <= c <= 1.0)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        u = 0.5 * (a + b)
        total += mu_q(model, q, u) * f(u) ** 2 * (b - a)
    return math.sqrt(2.0 * total)


def test_empirical_dep_norm_matches_a_midpoint_reference():
    rng = np.random.default_rng(6)
    samples = [np.array([2.5]),                        # n = 1
               np.array([1.0, 1.0, 1.0, 0.5, 0.5]),    # ties
               np.round(rng.standard_normal(40), 1),   # ties, both signs
               rng.standard_normal(333)]
    for sample in samples:
        f = QuantileFn.empirical(sample)
        for model in models_grid():
            for q in (0, 1, 3, 10, 50):
                assert dep_norm(f, model, q) == pytest.approx(
                    midpoint_dep_norm(f, model, q), rel=1e-12, abs=0)


def test_dep_norm_nonfinite():
    f = QuantileFn.analytic(lambda u: u ** -2.0)
    with pytest.raises((NonFinite, Exception)):
        dep_norm(f, IID2, 1)


# -- effective n --------------------------------------------------------------


def test_effective_n_examples():
    lat = build_lattice(64, 2)
    assert effective_n(IID2, lat, 4.0).value == pytest.approx(64 / math.sqrt(2))
    assert effective_n(IID, lat, 4.0).value == pytest.approx(64.0)
    eff = effective_n(IND4, lat, 4.0)
    assert eff.value == pytest.approx(16.0)
    assert eff.q_n0 == 4
    assert eff.mu_integral == pytest.approx(8.0)


def test_effective_n_iid_identities():
    for n in (16, 64, 1024):
        lat = build_lattice(n, 2)
        for r in (2.5, 3.0, 4.0, 8.0):
            assert effective_n(IID, lat, r).value == pytest.approx(n)
            v2 = effective_n(IID2, lat, r).value
            assert n / 2 < v2 < n


def test_effective_n_b_r_identity():
    # n(beta) * B_r(q_n0)^2 == 2^(2/r) * n
    for n in (64, 720):
        lat = build_lattice(n, 3)
        for model in models_grid():
            for r in (2.5, 4.0):
                eff = effective_n(model, lat, r)
                br = b_r_factor(model, eff.q_n0, r)
                assert eff.value * br ** 2 == pytest.approx(
                    2.0 ** (2.0 / r) * n, rel=1e-12)


def test_effective_n_bounds_examples():
    lat = build_lattice(64, 2)
    lo, hi = effective_n_bounds(IND4, lat, 4.0)
    assert lo == pytest.approx(12.8)
    assert hi == pytest.approx(16.0)
    lat3 = build_lattice(300, 3)
    lo, _ = effective_n_bounds(BetaMixingModel.polynomial(3.0), lat3, 4.0)
    assert lo == pytest.approx(300 / math.sqrt(3.0))
    with pytest.raises(UnsupportedModel):
        effective_n_bounds(IID, lat, 4.0)


def test_effective_n_bounds_sandwich():
    ns = [16, 32, 64, 256, 1024, 4096, 18, 36, 90, 360, 720, 3000]
    for n in ns:
        lat = build_lattice(n, 3)
        for r in (2.5, 3.0, 4.0, 8.0):
            rr = r / (r - 2.0)
            models = [BetaMixingModel.indicator(M) for M in (2, 4, 16)]
            models += [BetaMixingModel.polynomial(m0)
                       for m0 in (2 * rr, rr, 0.5 * rr, 0.3)]
            for model in models:
                exact = effective_n(model, lat, r).value
                lo, hi = effective_n_bounds(model, lat, r)
                assert lo <= exact * (1 + 1e-9)
                assert exact <= hi * (1 + 1e-9)


def test_b_r_bounds_examples():
    up = b_r_bounds(IND4, 4, 4.0)[1]
    assert up == pytest.approx(2.0 ** 0.25 * math.sqrt(5.0))
    up = b_r_bounds(BetaMixingModel.polynomial(5.0), 1000, 4.0)[1]
    assert up == pytest.approx(2.0 ** 0.25 * (5.0 / 3.0) ** 0.25)


def test_b_r_bounds_sandwich():
    for r in (2.5, 3.0, 4.0, 8.0):
        rr = r / (r - 2.0)
        models = [BetaMixingModel.indicator(M) for M in (1, 2, 4, 100)]
        models += [BetaMixingModel.polynomial(m0)
                   for m0 in (0.3, 0.8, rr / 2, rr, 1.5 * rr, 3.0, 5.0)]
        for model in models:
            for q in (1, 2, 4, 16, 64, 256, 1024):
                exact = b_r_factor(model, q, r)
                lo, hi = b_r_bounds(model, q, r)
                assert lo <= exact * (1 + 1e-12)
                assert exact <= hi * (1 + 1e-12)
