"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The Monte Carlo studies run once per session at the stated sizes
(MC = 2000 / 2500 / 5000) and are shared across criteria.

Two printed entries of the location-regression tables cannot be produced
by any draw of the stated design (both lie below a Jensen lower bound);
the tests check those cells against corrected targets, kept with the
printed values and the reasons in `REF_ERRATA`.

Two assertions are expected to fail and are kept faithful rather than
loosened: the sqrt(m) band states the asymptotic law, which the mean
regression misses at q = 10 blocks (exact ratio ~1.24), and the spline
ideal dimension at effective sizes 300-500 depends on a spline-space
reading that the project's documents do not settle.
"""

import functools
import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from mixconc import (BetaMixingModel, ExperimentConfig, MaxVariant,
                     PenaltySpec, QuantileFn, SolverOptions, SQUARED,
                     WeightedSetSpec, b_r_bounds, beta_inverse, build_lattice,
                     c_kq, dep_norm, effective_n, effective_n_bounds,
                     empirical_criterion, fit_penalized, fit_penalized_qr,
                     gauss_max_bound, gauss_sup_lower, gauss_sup_oracle,
                     mu_q, quantile_loss, run_ols_tail, run_tables12,
                     run_tables34, sieve_grid, variance_proxy)
from mixconc.experiments import TABLES12_GRID, TABLES34_GRID
from mixconc.tuning import test_set as pairwise_test_set
from mixconc.tuning import feasible_k, ideal_k
from mixconc.errors import EmptyIdealSet

SEED = 20240901

# reference table entries ------------------------------------------------------

REF_MEDIAN = {(50, 1): 11.88, (50, 2): 16.95,
                (100, 1): 6.184, (100, 2): 8.896, (100, 4): 12.62,
                (250, 1): 4.021, (250, 5): 8.992, (250, 10): 13.08,
                (1000, 1): 1.986, (1000, 10): 6.318, (1000, 20): 9.171,
                (1000, 40): 12.68, (1000, 100): 21.24}
REF_MEAN = {(50, 1): 8.931, (50, 2): 12.97,
              (100, 1): 8.122, (100, 2): 11.53, (100, 4): 17.25,
              (250, 1): 5.078, (250, 5): 11.77, (250, 10): 17.07,
              (1000, 1): 2.544, (1000, 10): 8.228, (1000, 20): 11.65,
              (1000, 40): 17.24, (1000, 100): 22.07}
REF_V_ENTRIES = [(5, 100, 0.224), (7, 100, 0.264), (7, 300, 0.153),
                   (5, 300, 0.130), (7, 500, 0.118), (5, 500, 0.100),
                   (7, 1000, 0.084), (5, 1000, 0.071), (7, 2000, 0.059),
                   (5, 2000, 0.050), (7, 3000, 0.048), (5, 3000, 0.041)]
REF_POLY_RN_MEDIANS = [0.464, 0.492, 0.573, 0.705, 0.902, 1.036, 0.571]
REF_POLY_KI = [5, 7, 7, 7, 7, 7, 7]
REF_POLY_KF = [5, 5, 5, 5, 5, 5, 5]
REF_PSPLINE_KI = [5, 7, 7, 7, 7, 7, 7]
REF_PSPLINE_KF = [7, 7, 7, 7, 7, 7, 7]


# independent oracle for the mean regression -----------------------------------

CHI3_MEAN = math.sqrt(2) * math.gamma(2.0) / math.gamma(1.5)   # E chi_3


def mean_jensen_bound(q):
    """Lower bound on 100 E||theta_hat - theta|| for the mean regression on
    q i.i.d. N(0, I_3) blocks: W -> sqrt(z^T W^-1 z) is convex and E W = q I,
    so Jensen gives 100 * 0.5 * E chi_3 / sqrt(q)."""
    return 50.0 * CHI3_MEAN / math.sqrt(q)


@functools.cache
def ols_oracle_mean_cell(q, reps=200_000, seed=SEED):
    """100 E||theta_hat - theta|| for the mean regression on q blocks, in
    plain numpy (nothing from mixconc).

    Without the 0.01 within-block noise (it moves the value by ~0.03 %)
    an m-block design is q i.i.d. N(0, I_3) rows repeated m times, and OLS
    on repeated rows is OLS on the q distinct rows.  Given X, the error is
    N(0, W^-1 / 4) with W = sum_b x_b x_b^T ~ Wishart(q, I_3): W = L L^T is
    drawn by the Bartlett decomposition and the error as L^-T z / 2.
    """
    rng = np.random.default_rng(seed)
    L = np.zeros((reps, 3, 3))
    L[:, [0, 1, 2], [0, 1, 2]] = np.sqrt(
        rng.chisquare(q - np.arange(3), size=(reps, 3)))
    L[:, [1, 2, 2], [0, 0, 1]] = rng.standard_normal((reps, 3))
    z = rng.standard_normal((reps, 3, 1))
    err = 0.5 * np.linalg.solve(np.swapaxes(L, 1, 2), z)[..., 0]
    return 100.0 * float(np.linalg.norm(err, axis=1).mean())


class Erratum(NamedTuple):
    printed: float
    used: float
    reason: str


#: Printed entries that no draw of the stated design can produce, keyed
#: (method, n, m).  The printed tables above stay verbatim.
REF_ERRATA = {
    ("mean", 50, 1): Erratum(
        REF_MEAN[(50, 1)], REF_MEDIAN[(50, 1)],
        "n = 50 row exchanged between the tables: the printed mean is below "
        f"the Jensen bound {mean_jensen_bound(50):.2f}; the printed median "
        "is the mean cell"),
    ("mean", 1000, 100): Erratum(
        REF_MEAN[(1000, 100)], ols_oracle_mean_cell(10),
        f"printed value is below the Jensen bound {mean_jensen_bound(10):.2f}"
        " at q = 10 blocks; the target is the independent OLS oracle"),
}


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


# shared Monte Carlo runs ------------------------------------------------------


@pytest.fixture(scope="session")
def tables12_rows():
    cfg = ExperimentConfig(experiment="tables12", grid=TABLES12_GRID,
                           mc_reps=2000, master_seed=SEED, workers=2)
    return run_tables12(cfg)


@pytest.fixture(scope="session")
def tables34_rows():
    cfg = ExperimentConfig(experiment="tables34", grid=TABLES34_GRID,
                           mc_reps=2500, master_seed=SEED, workers=2)
    return run_tables34(cfg)


def _cell(rows, method, n, m):
    return next(r for r in rows if r.method == method and r.n == n and r.m == m)


# criterion: table 1/2 reproduction ---------------------------------------------


def test_tables12_anchor_cells(tables12_rows):
    med = _cell(tables12_rows, "median", 1000, 1)
    tol = max(3 * med.mc_std_error, 0.04 * 1.986)
    check("tables12 anchor 100*mu1(1000,1) = 1.986",
          abs(med.mu_actual - 1.986) <= tol,
          f"got {med.mu_actual:.3f} (band {tol:.3f})")
    mean = _cell(tables12_rows, "mean", 1000, 1)
    tol = max(3 * mean.mc_std_error, 0.04 * 2.544)
    check("tables12 anchor 100*mu2(1000,1) = 2.544",
          abs(mean.mu_actual - 2.544) <= tol,
          f"got {mean.mu_actual:.3f} (band {tol:.3f})")


def test_tables12_analytic_sanity_anchors(tables12_rows):
    # asymptotic formulas independent of the reference table
    med = _cell(tables12_rows, "median", 1000, 1).mu_actual
    mean = _cell(tables12_rows, "mean", 1000, 1).mu_actual
    mean_asym = 0.5 * math.sqrt(3.0 / 1000.0) * CHI3_MEAN / math.sqrt(3) * 100
    check("tables12 analytic anchor for the mean regression",
          abs(mean - mean_asym) / mean_asym < 0.05,
          f"got {mean:.3f} vs asymptotic {mean_asym:.3f}")
    check("tables12 analytic anchor for the median regression",
          abs(med - 2.00) / 2.00 < 0.05, f"got {med:.3f} vs asymptotic 2.00")


def test_tables12_n50_mean_cell(tables12_rows):
    # The printed 8.931 lies below the Jensen bound at q = 50 and belongs
    # to the median column (the n = 50 row is exchanged between the two
    # tables); the printed median 11.88 is the mean cell.
    erratum = REF_ERRATA[("mean", 50, 1)]
    mean = _cell(tables12_rows, "mean", 50, 1)
    check(f"tables12 100*mu2(50,1) = {erratum.used} within 5% "
          f"[erratum: printed {erratum.printed}]",
          abs(mean.mu_actual - erratum.used) / erratum.used <= 0.05,
          f"got {mean.mu_actual:.3f}")


def test_tables12_grid_six_percent(tables12_rows):
    # the 22-cell grid = both tables without the (swapped) n = 50 row;
    # the mean (1000, 100) cell is checked against the independent oracle
    # (the printed 22.07 lies below the Jensen bound at q = 10).
    worst = ("", 0.0)
    for method, table in (("median", REF_MEDIAN), ("mean", REF_MEAN)):
        for (n, m), target in table.items():
            if n == 50:
                continue
            if (method, n, m) in REF_ERRATA:
                target = REF_ERRATA[(method, n, m)].used
            row = _cell(tables12_rows, method, n, m)
            dev = abs(row.mu_actual - target) / target
            if dev > worst[1]:
                worst = (f"{method}({n},{m})={row.mu_actual:.3f} vs {target:.4g}",
                         dev)
    erratum = REF_ERRATA[("mean", 1000, 100)]
    check("tables12 22-cell grid within 6% [erratum: mean(1000,100) "
          f"{erratum.used:.2f}, printed {erratum.printed}]",
          worst[1] <= 0.06, f"worst {worst[0]} dev {worst[1]:.1%}")


def test_tables12_mean_oracle_anchors():
    # The oracle behind the corrected targets, anchored to the printed
    # mean cells it should reproduce, to the Jensen bound that rules the
    # errata out, and to direct OLS at the q = 10 cell it replaces.
    worst = ("", 0.0)
    for (n, m), printed in REF_MEAN.items():
        if n == 50 or ("mean", n, m) in REF_ERRATA:
            continue
        oracle = ols_oracle_mean_cell(n // m)
        dev = abs(oracle - printed) / printed
        if dev > worst[1]:
            worst = (f"q={n // m}: {oracle:.3f} vs {printed}", dev)
    check("mean-regression oracle within 2% of the printed mean cells",
          worst[1] <= 0.02, f"worst {worst[0]} dev {worst[1]:.1%}")

    detail = [f"q={q}: {ols_oracle_mean_cell(q):.3f} > {mean_jensen_bound(q):.3f}"
              for q in (10, 25, 50)]
    check("mean-regression oracle above the Jensen bound",
          all(ols_oracle_mean_cell(q) > mean_jensen_bound(q)
              for q in (10, 25, 50)), "; ".join(detail))

    bounds = {key: mean_jensen_bound(key[1] // key[2]) for key in REF_ERRATA}
    detail = [f"{method}({n},{m}): printed {e.printed} < {bounds[method, n, m]:.3f}"
              for (method, n, m), e in REF_ERRATA.items()]
    check("printed errata entries below the Jensen bound",
          all(e.printed < bounds[key] for key, e in REF_ERRATA.items()),
          "; ".join(detail))

    rng = np.random.default_rng(SEED + 4)
    X = rng.standard_normal((100_000, 10, 3))
    u = rng.standard_normal((100_000, 10))
    err = 0.5 * np.linalg.solve(np.einsum("rbi,rbj->rij", X, X),
                                np.einsum("rbi,rb->ri", X, u)[..., None])
    direct = 100.0 * float(np.linalg.norm(err[..., 0], axis=1).mean())
    oracle = ols_oracle_mean_cell(10)
    check("mean-regression oracle matches direct OLS at q = 10 within 1%",
          abs(oracle - direct) / direct <= 0.01,
          f"oracle {oracle:.3f} vs direct {direct:.3f}")


def test_sqrt_m_scaling(tables12_rows):
    # Expected to FAIL only at the mean (1000, 100) pair: with q = 10
    # blocks the exact finite-sample ratio is ~1.23.
    worst = ("", 1.0)
    for row in tables12_rows:
        if row.m == 1:
            continue
        dev = max(row.ratio / 1.15, 0.90 / row.ratio)
        if dev > worst[1]:
            worst = (f"{row.method}({row.n},{row.m}) ratio {row.ratio:.3f}", dev)
    check("sqrt(m)-scaling ratios in [0.90, 1.15] [one known bad cell]",
          worst[1] <= 1.0, worst[0])


def test_sqrt_m_scaling_median_spot(tables12_rows):
    row = _cell(tables12_rows, "median", 1000, 100)
    check("sqrt(m)-scaling spot: median (1000,100) ratio near 1.07",
          0.90 <= row.ratio <= 1.15, f"ratio {row.ratio:.3f}")


# criterion: tables 3/4 ----------------------------------------------------------


def test_tables34_deterministic_v_columns():
    failures = []
    for k, nb, target in REF_V_ENTRIES:
        grid = sieve_grid(range(3, 9))
        val = variance_proxy(grid, nb)[list(grid.labels).index(k)]
        if abs(val - target) >= 1e-3:
            failures.append((k, nb, val, target))
    check("tables34 deterministic sqrt(k/n_beta) V columns to 3 decimals",
          not failures, str(failures))


def test_tables34_polynomial_selections(tables34_rows):
    rows = [r for r in tables34_rows if r.method == "polynomial"]
    ok = True
    detail = []
    for row, ki, kf in zip(rows, REF_POLY_KI, REF_POLY_KF):
        good = row.k_ideal == ki and row.k_feasible == kf \
            and row.k_feasible_freq >= 0.60
        ok &= good
        detail.append(f"nb={int(row.n_beta)}: kI={row.k_ideal} "
                      f"kF={row.k_feasible}@{row.k_feasible_freq:.0%}")
    check("tables34 polynomial modal selections (kF=5, kI=7/5, freq>=60%)",
          ok, "; ".join(detail))


def test_tables34_polynomial_rn_medians(tables34_rows):
    rows = [r for r in tables34_rows if r.method == "polynomial"]
    ok = True
    detail = []
    for row, target in zip(rows, REF_POLY_RN_MEDIANS):
        dev = abs(row.r_q50 - target) / target
        ok &= dev <= 0.15
        detail.append(f"{row.r_q50:.3f}/{target:.3f}")
    check("tables34 polynomial r_n medians within 15%", ok, " ".join(detail))


def test_tables34_pspline_qualitative(tables34_rows):
    # Expected to FAIL at effective sizes 300 and 500: every natural
    # reading of the spline construction gives bias(5) just below
    # sqrt(5/300), hence an ideal dimension of 5 where the reference prints 7.
    rows = [r for r in tables34_rows if r.method == "pspline"]
    ok = True
    detail = []
    for row, ki, kf in zip(rows, REF_PSPLINE_KI, REF_PSPLINE_KF):
        good = abs(row.k_ideal - ki) <= 1 and abs(row.k_feasible - kf) <= 1
        ok &= good
        detail.append(f"nb={int(row.n_beta)}: kI={row.k_ideal}/{ki} "
                      f"kF={row.k_feasible}/{kf}")
    check("tables34 pspline selections qualitative (+-1) [basis ambiguity]",
          ok, "; ".join(detail))


# criterion: least-squares toy tail ---------------------------------------------


def test_ols_tail_domination():
    start = time.time()
    cfg = ExperimentConfig(experiment="ols-tail", mc_reps=5000,
                           master_seed=SEED, tail_u=(4.0, 8.0, 16.0),
                           tail_mu0=(1, 4), tail_n=64)
    rows = run_ols_tail(cfg)
    elapsed = time.time() - start
    ok = True
    detail = []
    for row in rows:
        slack = row.tail_bound - row.tail_freq
        ok &= slack >= -3 * row.mc_std_error
        detail.append(f"mu0={row.m} u={row.u:g}: freq {row.tail_freq:.4f} "
                      f"<= bound {row.tail_bound:.3f}")
    check("ols-tail frequencies dominated by (4d/u) sqrt(E)", ok,
          "; ".join(detail))
    check("ols-tail runtime under one minute", elapsed < 60.0,
          f"{elapsed:.1f}s")


# criterion: effective-n properties ----------------------------------------------


def test_effective_n_properties():
    ok = True
    ns = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 18, 36, 90, 360,
          720, 2160, 3000]
    for n in ns:
        lat = build_lattice(n, 3)
        for r in (2.5, 3.0, 4.0, 8.0):
            rr = r / (r - 2.0)
            models = [BetaMixingModel.indicator(M) for M in (2, 4, 16)]
            models += [BetaMixingModel.polynomial(m0)
                       for m0 in (2 * rr, rr, 0.5 * rr)]
            for model in models:
                exact = effective_n(model, lat, r).value
                lo, hi = effective_n_bounds(model, lat, r)
                ok &= lo <= exact * (1 + 1e-9) and exact <= hi * (1 + 1e-9)
            ok &= abs(effective_n(BetaMixingModel.iid(), lat, r).value - n) < 1e-9
            v2 = effective_n(BetaMixingModel.iid(beta0=2.0), lat, r).value
            ok &= n / 2 < v2 < n
    lat64 = build_lattice(64, 2)
    exact = effective_n(BetaMixingModel.indicator(4), lat64, 4.0).value
    ok &= abs(exact - 16.0) < 1e-9
    check("effective-n sandwich, iid identities, indicator(4)@64 = 16", ok)


# criterion: norm family ----------------------------------------------------------


def test_norm_family_properties():
    rng = np.random.default_rng(SEED)
    models = [BetaMixingModel.indicator(4), BetaMixingModel.indicator(2),
              BetaMixingModel.polynomial(3.0), BetaMixingModel.polynomial(1.5),
              BetaMixingModel.iid(beta0=2.0)]
    ok = True
    for trial in range(50):
        sample = np.abs(rng.standard_normal(40)) ** rng.uniform(0.5, 2.0)
        f = QuantileFn.empirical(sample)
        model = models[trial % len(models)]
        vals = [dep_norm(f, model, q) for q in (0, 1, 2, 4, 8, 16)]
        ok &= all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))
        if model.kind != "iid":
            for q in (1, 4, 8):
                for r in (2.5, 4.0):
                    upper = b_r_bounds(model, q, r)[1]
                    ok &= dep_norm(f, model, q) <= upper * f.lr_norm(r) + 1e-10
    for model in models:
        for q in (1, 3, 9):
            for u in np.linspace(0.017, 1.0, 29):
                val = mu_q(model, q, u)
                binv = beta_inverse(model, 2 * u) if 2 * u <= model.beta0 else 0
                ok &= min(binv, q + 1) <= val <= min(binv + 1, q + 1)
    check("norm family: monotone in q, B_r domination, mu sandwich", ok)


# criterion: Gaussian-complexity sandwich ----------------------------------------


def test_gaussian_complexity_sandwich():
    rng = np.random.default_rng(SEED + 1)
    qs = [1.0, 1.5, 2.0, 4.0, math.inf]
    ok = True
    for trial in range(30):
        q = qs[trial % len(qs)]
        k = int(rng.integers(2, 40))
        spec = WeightedSetSpec(k=k, q=q, radius=float(rng.uniform(0.5, 3.0)),
                               p=rng.uniform(0.5, 2.0, size=k),
                               b=rng.uniform(0.5, 2.0, size=k))
        est, se = gauss_sup_oracle(spec, draws=100_000,
                                   seed=int(rng.integers(10 ** 6)))
        upper = c_kq(k, q, spec.p, spec.b, MaxVariant.PROOF_SAFE) * spec.radius
        lower = gauss_sup_lower(spec)
        ok &= lower - 3 * se <= est <= upper + 3 * se
    est, se = gauss_sup_oracle(WeightedSetSpec(k=2, q=1.0, radius=1.0),
                               draws=400_000, seed=SEED)
    lemma = gauss_max_bound(2, variant=MaxVariant.HALF_LOG)
    safe = gauss_max_bound(2, variant=MaxVariant.PROOF_SAFE)
    ok &= est - 3 * se > lemma and est + 3 * se < safe
    check("Gaussian-complexity sandwich + max-bound counterexample", ok,
          f"k=2 oracle {est:.4f} vs half-log {lemma:.4f} / safe {safe:.4f}")


# criterion: solver certification -------------------------------------------------


def test_solver_certification(tables12_rows):
    worst = max(r.worst_residual for r in tables12_rows
                if r.method == "median")
    check("penalized-QR subgradient residual <= 1e-6 on all harness fits",
          worst <= 1e-6, f"worst {worst:.2e}")

    X = np.ones((3, 1))
    y = np.array([1.0, 2.0, 9.0])
    fit = fit_penalized_qr((X, y), 0.5)
    grid = np.linspace(0, 10, 10_001)
    objs = [empirical_criterion(quantile_loss(0.5), PenaltySpec("none"),
                                (X, y), [t]) for t in grid]
    oracle = grid[int(np.argmin(objs))]
    check("d=1 unpenalized median matches brute-force grid within 1e-3",
          abs(fit.theta[0] - oracle) <= 1e-3,
          f"{fit.theta[0]:.6f} vs {oracle:.6f}")

    rng = np.random.default_rng(SEED + 2)
    Xr = rng.standard_normal((80, 5))
    yr = rng.standard_normal(80)
    pen = PenaltySpec("weighted_l2", lam=0.2, m=1.0)
    fit = fit_penalized((Xr, yr), SQUARED, pen,
                        SolverOptions(tol=1e-10))
    target = np.linalg.solve(Xr.T @ Xr / 80 + pen.lam * np.diag(pen.weights(5)),
                             Xr.T @ yr / 80)
    err = np.linalg.norm(fit.theta - target)
    check("ridge path matches normal-equations oracle within 1e-8",
          err <= 1e-8, f"err {err:.2e}")


# criterion: tuning logic ----------------------------------------------------------


def test_tuning_logic_properties():
    rng = np.random.default_rng(SEED + 3)
    grid = sieve_grid(range(3, 9))
    ok = True
    for _ in range(200):
        nb = int(rng.integers(50, 3000))
        proxy = variance_proxy(grid, nb)
        bias = np.sort(rng.uniform(0.0, 0.6, size=6))[::-1]
        fits = [rng.standard_normal(k) * rng.uniform(0, 0.4)
                for k in grid.labels]
        metric = [np.eye(k) for k in grid.labels]
        s = float(rng.uniform(0.1, 4.0))
        accepted = pairwise_test_set(grid, fits, proxy, s, metric)
        try:
            ki = ideal_k(grid, proxy, bias)
        except EmptyIdealSet:
            ki = None
        if accepted and ki is not None and ki in accepted:
            res = feasible_k(grid, fits, proxy, s, metric, bias=bias)
            ok &= res.proxy_feasible <= res.proxy_ideal + 1e-12
        s2 = s * float(rng.uniform(1.0, 3.0))
        bigger = pairwise_test_set(grid, fits, proxy, s2, metric)
        ok &= set(accepted) <= set(bigger)
    check("tuning logic: V(kF) <= V(kI) when kI feasible; monotone in s", ok)
