"""Monte Carlo harness: the two simulation studies, the least-squares tail
check, and the concentration-bound evaluators.

The three studies take their (n, m) cells from `_snapped_grid` (the
default is the study's own grid), draw their data with `datagen`'s
stacks, fit and certify with `estimators`, and the sieve study fits and
selects with `tuning.select_sieve`.  `_chunks` cuts a cell of sample size
n into chunks of at most max(1, _STACK_ROWS // n) replications, and the
keys of a replication's substreams derive from (the cell's seed, global
replication index); the tail check's cells with equal m share their
seed.  A study maps the chunks of all its cells through one process
pool; a chunk draws its replications as one stack and returns
per-replication values, and each cell's statistics are computed once
from its chunks' values joined in replication order, so a report depends
on neither the worker count nor the chunking; a chunk's typed error names
its study, cell, seed and replications.
"""

import csv
import dataclasses
import json
import math
import numbers
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .complexity import UniversalConstants
from .datagen import (linear_design_stack, np_design_stack, np_target,
                      whitened_design_stack)
from .errors import DomainError, MixconcError
from .estimators import ABS_HALF, SQUARED, SolverOptions, delta_p, fit_penalized
from .lattice import _integer, admissible_sizes, build_lattice
from .mixing import BetaMixingModel, effective_n
from .sieves import SieveMomentOracle
from .tuning import (default_s, ideal_k, select_sieve, sieve_grid,
                     variance_proxy)

TABLES12_GRID = ((50, 1), (50, 2),
                 (100, 1), (100, 2), (100, 4),
                 (250, 1), (250, 5), (250, 10),
                 (1000, 1), (1000, 10), (1000, 20), (1000, 40), (1000, 100))
TABLES34_GRID = ((100, 1), (300, 1), (500, 1), (1000, 1),
                 (2000, 1), (3000, 1), (3000, 6))
OLS_TAIL_GRID = ((64, 1), (64, 4))
SIEVE_KS = (3, 4, 5, 6, 7, 8)

#: each study's default grid
_GRIDS = {"tables12": TABLES12_GRID, "tables34": TABLES34_GRID,
          "ols-tail": OLS_TAIL_GRID}

#: rows per stream a chunk draws at most; the pivot holds a few this size
_STACK_ROWS = 2 ** 15

#: test-set multiplier that reproduces the reference selections; the
#: displayed theoretical rule (multiplier 4 with s_n = 0.5 log(n/m)) keeps
#: every candidate dimension in the test set at small n.
TABLES34_TEST_MULTIPLIER = 1.2


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "tables12"
    grid: tuple | None = None          # None: the grid of `experiment`
    mc_reps: int = 2000
    master_seed: int = 20240901
    upsilon: int = 3
    d: int = 3
    basis_kinds: tuple = ("polynomial", "pspline")
    test_multiplier: float = TABLES34_TEST_MULTIPLIER
    solver_tol: float = 1e-6
    workers: int = 1
    tail_u: tuple = (4.0, 8.0, 16.0)
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in _GRIDS:
            raise DomainError(f"unknown experiment {self.experiment!r}; "
                              f"expected one of {sorted(_GRIDS)}")
        if self.grid is None:
            object.__setattr__(self, "grid", _GRIDS[self.experiment])
        for name, low in (("mc_reps", 1), ("d", 1), ("workers", 1),
                          ("master_seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise DomainError(f"{name} must be an integer >= {low}, "
                                  f"got {value!r}")
        for name in ("solver_tol", "test_multiplier"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
                raise DomainError(f"{name} must be finite and > 0, "
                                  f"got {value!r}")

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


#: the report's CSV columns, in field order
ReportRow.FIELDS = tuple(f.name for f in dataclasses.fields(ReportRow))


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


def write_manifest(config: ExperimentConfig, path, error=None) -> None:
    """A run's config echo and versions, and its error if it failed, with
    stale_out naming a file at config.out (a failed run writes no CSV)."""
    import scipy
    from . import __version__
    payload = {
        "config": dataclasses.asdict(config),
        "master_seed": config.master_seed,
        "versions": {"mixconc": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
    }
    if error is not None:
        payload["error"] = dict(type=type(error).__name__, message=str(error))
        if config.out and os.path.exists(config.out):
            payload["stale_out"] = config.out
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=list)


def snap_admissible(n: int, upsilon: int) -> int:
    """Nearest sample size admissible for the given upsilon (ties go down);
    1 for n < 1.  A power of two lies in [n, 2n], so the nearest is among
    the admissible sizes up to 2n."""
    n = _integer(n, "n")
    return min(admissible_sizes(2 * max(n, 1), upsilon),
               key=lambda k: (abs(k - n), k))


def _snapped_grid(config: ExperimentConfig, low: int,
                  what: str) -> list[tuple[int, int]]:
    """The study's (n, m) cells with n snapped to an admissible size; each
    entry must be an integer pair n, m >= 1 with m dividing the snapped n,
    which must be at least low (`what` names that floor)."""
    grid = []
    for entry in config.grid:
        try:
            n, m = map(operator.index, entry)
        except (TypeError, ValueError):
            raise DomainError(f"grid entry {entry!r} is not an n:m pair of "
                              f"integers") from None
        if n < 1:
            raise DomainError(f"sample size n={n} must be >= 1")
        if m < 1:
            raise DomainError(f"block length m={m} at n={n} must be >= 1")
        n = snap_admissible(n, config.upsilon)
        if n % m:
            raise DomainError(f"m={m} does not divide (snapped) n={n}")
        if n < low:
            raise DomainError(f"cell (n={n}, m={m}): the snapped n is below "
                              f"{what}")
        grid.append((n, m))
    return grid


def _chunks(total: int, n: int) -> list[tuple[int, int]]:
    """The (start, stop) replication ranges of a cell of sample size n:
    consecutive, each at most max(1, _STACK_ROWS // n) replications long."""
    size = max(1, _STACK_ROWS // n)
    return [(s, min(s + size, total)) for s in range(0, total, size)]


def _cell_seed(config: ExperimentConfig, n: int, m: int, kind=None) -> int:
    """A cell's seed: of tables 1-2 (kind None) or of a tables 3-4 basis."""
    if kind is None:
        return config.master_seed + 1000 * hash_cell(n, m)
    return config.master_seed + 97 * hash_cell(n, m) + 7 * (kind == "pspline")


def _named_chunk(task):
    """fn(args), re-raising a typed error as its type prefixed by where."""
    fn, where, args = task
    try:
        return fn(args)
    except MixconcError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _run_cells(fn, cells, workers: int) -> list[tuple]:
    """Map the (reps, args) chunk tasks of every (label, tasks) cell through
    one process pool (none for one worker); each cell gets fn(args)'s tuples
    of per-replication arrays or lists joined in replication order."""
    flat = [(fn, f"{label}, replications {start}..{stop - 1}", args)
            for label, tasks in cells for (start, stop), args in tasks]
    if workers <= 1:
        results = map(_named_chunk, flat)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = iter(list(pool.map(_named_chunk, flat)))
    return [tuple(np.concatenate(field) if isinstance(field[0], np.ndarray)
                  else [x for part in field for x in part]
                  for field in zip(*[next(results) for _ in tasks]))
            for _, tasks in cells]


# ---------------------------------------------------------------------------
# tables 1-2: location regressions under m-block dependence


def _tables12_chunk(args):
    """The mean distances, median distances and median certificates of
    one chunk of a tables 1-2 cell, in replication order.  The chunk is one
    stack (see `_chunks`), drawn once and fitted by one `fit_penalized`
    call per loss."""
    (n, m, d, seed, reps, tol) = args
    data = linear_design_stack(n, m, d, seed, range(*reps))
    truth, design, opts = data.truth, data.meta["design"], SolverOptions(tol)
    mean = fit_penalized((data.X, data.y), SQUARED, opts=opts)
    median = fit_penalized((data.X, data.y), ABS_HALF, opts=opts)
    return (delta_p(design, SQUARED, mean.theta, truth),
            delta_p(design, ABS_HALF, median.theta, truth),
            median.optimality_residual)


def _mc_mean(values: np.ndarray) -> tuple[int, float, float]:
    """Count, mean x100 and its MC standard error x100 of a cell's
    per-replication values, from one pass of sums."""
    count = values.size
    total, sumsq = float(values.sum()), float((values ** 2).sum())
    sd = 100.0 * math.sqrt(max(sumsq / count - (total / count) ** 2, 0.0))
    return count, 100.0 * total / count, sd / math.sqrt(count)


def run_tables12(config: ExperimentConfig) -> list[ReportRow]:
    """Reproduce the location-regression tables: MC averages of the
    population criterion distance, x100, with sqrt(m)-scaled predictions."""
    grid, cells = _snapped_grid(config, config.d, f"d={config.d}"), []
    for (n, m) in grid:
        if (n, 1) not in grid:
            raise DomainError(f"the sqrt(m) prediction at (n={n}, m={m}) "
                              f"needs the cell (n={n}, m=1) in the grid")
        seed = _cell_seed(config, n, m)
        cells.append((f"tables12 cell (n={n}, m={m}), seed {seed}",
                      [(rr, (n, m, config.d, seed, rr, config.solver_tol))
                       for rr in _chunks(config.mc_reps, n)]))
    stats = {}
    for (n, m), (delta_mean, delta_med, resid) in zip(
            grid, _run_cells(_tables12_chunk, cells, config.workers)):
        stats["median", n, m] = (*_mc_mean(delta_med), float(resid.max()))
        stats["mean", n, m] = (*_mc_mean(delta_mean), math.nan)

    rows = []
    for method in ("median", "mean"):
        for (n, m) in grid:
            count, mu, se, worst = stats[method, n, m]
            predicted = math.sqrt(m) * stats[method, n, 1][1]
            rows.append(ReportRow(
                experiment="tables12", n=n, m=m, method=method,
                n_beta=n / m, mu_actual=mu, mu_predicted=predicted,
                ratio=mu / predicted, mc_std_error=se, n_reps=count,
                worst_residual=worst))
    return rows


def hash_cell(n: int, m: int) -> int:
    """Stable small integer tag for a grid cell (keeps substreams apart)."""
    return (n * 131 + m) % 99991


# ---------------------------------------------------------------------------
# tables 3-4: sieve regression with data-driven dimension choice


def build_sieve_oracle(kind: str) -> SieveMomentOracle:
    """The quadrature moment oracle of the nonparametric design's truth."""
    return SieveMomentOracle(kind, np_target)


def _tables34_chunk(args):
    """Feasible dimension and its fit per replication of one stacked chunk,
    by `select_sieve`; the parent turns the fits into r_n with the oracle."""
    (kind, n, m, seed, reps, mult, grams, s_n) = args
    data = np_design_stack(n, m, seed, range(*reps))
    kF, chosen = [], []
    for w, y in zip(data.w, data.y):
        result, fits = select_sieve(kind, SIEVE_KS, w, y, n // m, s_n, grams,
                                    mult)
        kF.append(result.k_feasible)
        chosen.append(fits[SIEVE_KS.index(result.k_feasible)].theta)
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
    sizes = _snapped_grid(config, max(SIEVE_KS), "the largest sieve "
                          f"dimension k={max(SIEVE_KS)}")
    for kind in config.basis_kinds:
        oracle = (oracles or {}).get(kind) or build_sieve_oracle(kind)
        grams = [oracle.moments(k)[0] for k in SIEVE_KS]
        bias = np.array([oracle.bias(k) for k in SIEVE_KS])
        for (n, m) in sizes:
            proxy = variance_proxy(grid, n // m)
            kI = ideal_k(grid, proxy, bias)
            s_n = default_s(n, m)
            seed = _cell_seed(config, n, m, kind)
            cells.append((kind, oracle, n, m, proxy, kI, s_n))
            tasks.append((f"tables34 {kind} cell (n={n}, m={m}), seed {seed}",
                          [(rr, (kind, n, m, seed, rr, config.test_multiplier,
                                 grams, s_n))
                           for rr in _chunks(config.mc_reps, n)]))

    rows = []
    for (kind, oracle, n, m, proxy, kI, s_n), (kF, chosen) in zip(
            cells, _run_cells(_tables34_chunk, tasks, config.workers)):
        rn = np.array([math.sqrt(n) * oracle.l2_error(k, fit)
                       / (math.sqrt(m * kI) * s_n)
                       for k, fit in zip(kF, chosen)])
        labels, counts = np.unique(kF, return_counts=True)
        mode = int(labels[np.argmax(counts)])
        freq = float(counts.max() / rn.size)
        q10, q50, q90 = np.quantile(rn, [0.1, 0.5, 0.9])
        rows.append(ReportRow(
            experiment="tables34", n=n, m=m, method=kind, n_beta=n // m,
            r_q10=float(q10), r_q50=float(q50), r_q90=float(q90),
            k_ideal=kI, k_ideal_freq=1.0,
            k_feasible=mode, k_feasible_freq=freq,
            v_ideal=proxy[SIEVE_KS.index(kI)],
            v_feasible=proxy[SIEVE_KS.index(mode)],
            mc_std_error=float(rn.std(ddof=1) / math.sqrt(rn.size)),
            n_reps=int(rn.size)))
    return rows


# ---------------------------------------------------------------------------
# least-squares toy concentration check


#: fresh designs the tail check's moment oracle averages over
TAIL_MOMENT_DESIGNS = 2000


def ols_tail_moment_oracle(n, mu0, d, seed) -> float:
    """E[(block sum of x_l U / sqrt(mu0))^2 / mu0] over fresh designs,
    drawn in `_chunks` stacks; the per-design sums are added in order."""
    total, q = 0.0, n // mu0
    for reps in _chunks(TAIL_MOMENT_DESIGNS, n):
        data = whitened_design_stack(n, mu0, d, seed, range(*reps))
        block = (data.X * data.y[..., None]).reshape(-1, q, mu0, d).sum(2)
        for value in (block ** 2).reshape(len(block), -1).sum(axis=1):
            total += float(value) / mu0
    return total / (TAIL_MOMENT_DESIGNS * q * d)


def _ols_tail_chunk(args):
    """The error norm |X'u / n| of the least-squares estimate of theta = 0
    (X'X / n = I) for each replication of one stacked chunk."""
    (n, m, d, seed, reps) = args
    data = whitened_design_stack(n, m, d, seed, range(*reps))
    # matmuls, as X.T @ u and norm's dot do it per design: norm(axis=1)
    # differs from those by an ulp on some designs
    delta = (data.X.transpose(0, 2, 1) @ data.y[..., None])[..., 0] / n
    return (np.sqrt((delta[:, None, :] @ delta[..., None])[:, 0, 0]),)


def run_ols_tail(config: ExperimentConfig) -> list[ReportRow]:
    """Tail frequencies of the whitened least-squares estimator against
    the (4d/u) sqrt(E[(Delta/sqrt(mu0))^2]) bound, over the (n, mu0) grid."""
    d = config.d
    for u in config.tail_u:
        if not (isinstance(u, numbers.Real) and math.isfinite(u) and u > 0):
            raise DomainError(f"tail_u must be finite and > 0, got {u!r}")
    grid = _snapped_grid(config, d, f"d={d}")
    seeds = [config.master_seed + 13 * mu0 for (_, mu0) in grid]
    cells = [(f"ols-tail cell (n={n}, m={mu0}), seed {seed}",
              [(rr, (n, mu0, d, seed, rr))
               for rr in _chunks(config.mc_reps, n)])
             for (n, mu0), seed in zip(grid, seeds)]
    rows = []
    for (n, mu0), seed, (errs,) in zip(
            grid, seeds, _run_cells(_ols_tail_chunk, cells, config.workers)):
        Ehat = ols_tail_moment_oracle(n, mu0, d, seed + 1)
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
    """Numeric right-hand side of the concentration bound, with components.
    Every numeric parameter must be finite."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value!r}")
    if params.d < 1:
        raise DomainError("d must be >= 1")
    if not 0.0 < params.tau < 1.0:
        raise DomainError("tau must lie in (0, 1)")
    if params.lam < 0 or (params.lam == 0 and params.penalty == "l2p"):
        raise DomainError("lam must be >= 0, and > 0 under the l2p penalty")
    if params.penalty == "l2p" and params.m < 0:
        raise DomainError("m must be >= 0")
    for name in ("theta_norm", "trWinv", "M_over_lambda", "E_pi0"):
        if getattr(params, name) < 0:
            raise DomainError(f"{name} must be >= 0")
    for name, low in (("emin_W", 0), ("u", 0), ("pi0", 2)):
        if getattr(params, name) <= low:
            raise DomainError(f"{name} must be > {low}")
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
