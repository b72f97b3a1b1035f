"""Penalized quantile regression and data-driven sieve-dimension choice on
one simulated dataset.
"""

import numpy as np

from mixconc import (PenaltySpec, build_sieve_oracle, default_s,
                     family_designs, family_fits, feasible_k,
                     fit_penalized_qr, ideal_k, make_linear_design,
                     make_np_design, sieve_grid, variance_proxy)

print("=== penalized median regression on 4-dependent data ===\n")
ds = make_linear_design(240, 4, d=3, seed=5)
for lam in (0.0, 0.02, 0.2, 2.0):
    pen = PenaltySpec("l1", lam=lam) if lam else PenaltySpec("none")
    fit = fit_penalized_qr((ds.X, ds.y), 0.5, pen)
    print(f"  lambda={lam:4.2f}: theta={np.round(fit.theta, 3)}"
          f"  subgradient residual {fit.optimality_residual:.1e}")
print(f"  truth: {np.round(ds.truth, 3)} (heavier penalties shrink to zero)")

print("\n=== choosing the sieve dimension ===\n")
n, m = 1000, 1
ds = make_np_design(n, m, seed=6)
ks = range(3, 9)
grid = sieve_grid(ks)
designs = family_designs("polynomial", ks, ds.w)
fits = [fit.theta for fit in family_fits("polynomial", designs, ds.y)]
grams = [Q.T @ Q / n for Q in designs]

proxy = variance_proxy(grid, n // m)
oracle = build_sieve_oracle("polynomial")
bias = [oracle.bias(k) for k in ks]
print("  k   sqrt(k/n(beta))   sqrt-bias (oracle)")
for i, k in enumerate(ks):
    print(f"  {k}      {proxy[i]:.4f}          {bias[i]:.4f}")

ki = ideal_k(grid, proxy, bias)
s = default_s(n, m)
res = feasible_k(grid, fits, proxy, s, grams, multiplier=1.2, bias=bias)
print(f"\n  ideal dimension (needs the bias oracle): k_I = {ki}")
print(f"  feasible dimension (data only, s = {s:.2f}): k_F = {res.k_feasible}"
      f"  from test set {res.test_set}")
print("  The feasible rule recovers the variance-bias balance without "
      "touching the unknown bias.")
