"""Command-line front end.

Subcommands:
  effn      effective number of observations for a mixing model
  bound     numeric concentration bound for penalized quantile regression
  simulate  the Monte Carlo studies (tables12 | tables34 | ols-tail)
  tune      data-driven sieve-dimension selection on a CSV dataset

Configuration files are flat ``key = value`` text; values may be numbers,
comma lists, or n:m pair lists (see parse_config).
"""

import argparse
import json
import sys

import numpy as np

from .errors import MixconcError
from .estimators import fit_sieve_ls
from .experiments import (BoundParams, ExperimentConfig, TABLES12_GRID,
                          TABLES34_GRID, eval_bound, run_ols_tail,
                          run_tables12, run_tables34, write_csv,
                          write_manifest)
from .lattice import build_lattice
from .mixing import BetaMixingModel, effective_n, effective_n_bounds
from .sieves import SieveBasis
from .tuning import default_s, feasible_k, lambda_grid, sieve_grid, \
    variance_proxy


def _parse_value(raw: str):
    raw = raw.strip()
    if ":" in raw:
        try:
            pairs = []
            for part in raw.split(","):
                a, b = part.split(":")
                pairs.append((int(a), int(b)))
            return tuple(pairs)
        except ValueError:
            pass
    if "," in raw:
        return tuple(_parse_value(p) for p in raw.split(","))
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_config(path: str) -> dict:
    """Flat key = value file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, raw = line.partition("=")
            if not _:
                raise MixconcError(f"bad config line: {line!r}")
            out[key.strip()] = _parse_value(raw)
    return out


def _model_from_args(args) -> BetaMixingModel:
    if args.model == "iid":
        return BetaMixingModel.iid(beta0=args.beta0)
    if args.model == "indicator":
        return BetaMixingModel.indicator(args.M, beta0=args.beta0)
    return BetaMixingModel.polynomial(args.m0, beta0=args.beta0)


def _cmd_effn(args) -> int:
    lattice = build_lattice(args.n, args.upsilon)
    model = _model_from_args(args)
    eff = effective_n(model, lattice, args.r)
    out = {"n": args.n, "upsilon": args.upsilon, "r": args.r,
           "model": args.model, "n_beta": eff.value, "q_n0": eff.q_n0,
           "mu_integral": eff.mu_integral}
    if model.kind != "iid":
        lo, hi = effective_n_bounds(model, lattice, args.r)
        out["bound_lower"], out["bound_upper"] = lo, hi
    print(json.dumps(out, indent=2))
    return 0


def _cmd_bound(args) -> int:
    params = BoundParams(
        penalty=args.penalty, d=args.d, n=args.n,
        model=_model_from_args(args), pi0=args.pi0, E_pi0=args.E_pi0,
        lam=args.lam, theta_norm=args.theta_norm, u=args.u,
        upsilon=args.upsilon, tau=args.tau, L=args.L, trWinv=args.trWinv,
        M_over_lambda=args.M_over_lambda, m=args.m, emin_W=args.emin_W,
        D_sup=args.D_sup)
    print(json.dumps(eval_bound(params), indent=2))
    return 0


def _config_from_file(args, experiment, default_grid) -> ExperimentConfig:
    overrides = {}
    if args.config:
        overrides.update(parse_config(args.config))
    cfg = ExperimentConfig(experiment=experiment, grid=default_grid)
    known = {f.name for f in cfg.__dataclass_fields__.values()}
    unknown = set(overrides) - known
    if unknown:
        raise MixconcError(f"unknown config keys: {sorted(unknown)}")
    fields = {}
    for key, value in overrides.items():
        default = getattr(cfg, key)
        # single-element lists parse as scalars; restore tuple-typed fields
        if isinstance(default, tuple) and not isinstance(value, tuple):
            value = (value,)
        elif isinstance(default, (int, float)) \
                and not isinstance(value, (int, float)):
            raise MixconcError(f"config key {key!r} needs a number, got {value!r}")
        fields[key] = value
    cfg = cfg.replace(**fields)
    if args.seed is not None:
        cfg = cfg.replace(master_seed=args.seed)
    if args.reps is not None:
        cfg = cfg.replace(mc_reps=args.reps)
    if args.workers is not None:
        cfg = cfg.replace(workers=args.workers)
    if args.out is not None:
        cfg = cfg.replace(out=args.out)
    return cfg


def _cmd_simulate(args) -> int:
    if args.study == "tables12":
        cfg = _config_from_file(args, "tables12", TABLES12_GRID)
        rows = run_tables12(cfg)
    elif args.study == "tables34":
        cfg = _config_from_file(args, "tables34", TABLES34_GRID)
        rows = run_tables34(cfg)
    else:
        cfg = _config_from_file(args, "ols-tail", ())   # run_ols_tail has no grid
        rows = run_ols_tail(cfg)
    if cfg.out:
        write_csv(rows, cfg.out)
        write_manifest(cfg, cfg.out + ".manifest.json")
        print(f"wrote {len(rows)} rows to {cfg.out}")
    else:
        for row in rows:
            print(row)
    return 0


def _column(data, name: str) -> np.ndarray:
    """One column of a `tune` CSV; a missing column or a cell that does not
    parse as a finite number is an input error."""
    if name not in (data.dtype.names or ()):
        raise MixconcError(f"tune: the CSV has no {name!r} column")
    col = np.atleast_1d(np.asarray(data[name], dtype=float))   # one data row: 0-d
    bad = np.flatnonzero(~np.isfinite(col))
    if bad.size:
        raise MixconcError(f"tune: column {name!r} has {bad.size} empty or "
                           f"non-numeric cells (first in data row {bad[0] + 1})")
    return col


def _cmd_tune(args) -> int:
    try:
        data = np.genfromtxt(args.data, delimiter=",", names=True)
    except OSError as exc:
        raise MixconcError(f"tune: cannot read {args.data}: {exc}") from exc
    names = data.dtype.names or ()
    y = _column(data, "y")
    n = y.size
    if n % args.m:
        raise MixconcError("block length m must divide the sample size")
    nbeta = n // args.m
    s = args.s if args.s is not None else default_s(n, args.m)
    if "w" in names:
        result, extra = _tune_sieve(args, y, _column(data, "w"), nbeta, s)
    elif "x1" in names:
        xcols = [c for c in names if c.startswith("x")]
        X = np.column_stack([_column(data, c) for c in xcols])
        result, extra = _tune_lambda(args, X, y, nbeta, s)
    else:
        raise MixconcError("tune expects a CSV with columns y,w or y,x1..xd")
    out = {"n": n, "m": args.m, "n_beta": nbeta, "s": s,
           "test_set": list(result.test_set),
           "k_feasible": result.k_feasible,
           "proxy_feasible": result.proxy_feasible}
    out.update(extra)
    print(json.dumps(out, indent=2))
    return 0


def _tune_sieve(args, y, w, nbeta, s):
    ks = tuple(range(args.kmin, args.kmax + 1))
    grid = sieve_grid(ks)
    proxy = variance_proxy(grid, nbeta)
    fits, grams = [], []
    for k in ks:
        basis = SieveBasis(args.basis, k)
        fits.append(fit_sieve_ls(basis, w, y).theta)
        Q = basis.design(w)
        grams.append(Q.T @ Q / y.size)
    result = feasible_k(grid, fits, proxy, s, grams,
                        multiplier=args.multiplier)
    coefs = fits[ks.index(result.k_feasible)]
    return result, {"basis": args.basis,
                    "coefficients": list(map(float, coefs))}


def _tune_lambda(args, X, y, nbeta, s):
    from .estimators import PenaltySpec, fit_penalized_qr, quantile_loss, \
        empirical_criterion, NO_PENALTY
    if not args.lambdas:
        raise MixconcError("lambda-grid tuning needs --lambdas")
    grid = lambda_grid(args.lambdas)
    d = X.shape[1]
    loss0 = empirical_criterion(quantile_loss(args.tau), NO_PENALTY, (X, y),
                                np.zeros(d))
    proxy = variance_proxy(grid, nbeta, penalty="l1", d=d,
                           mean_loss_at_zero=loss0)
    fits = [fit_penalized_qr((X, y), args.tau, PenaltySpec("l1", lam=lam)).theta
            for lam in grid.labels]
    euclid = lambda i, j, a, b: float(np.linalg.norm(a - b))
    result = feasible_k(grid, fits, proxy, s, euclid,
                        multiplier=args.multiplier)
    coefs = fits[grid.labels.index(result.k_feasible)]
    return result, {"penalty": "l1", "tau": args.tau,
                    "coefficients": list(map(float, coefs))}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixconc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_effn = sub.add_parser("effn", help="effective number of observations")
    p_effn.add_argument("--model", choices=("iid", "indicator", "polynomial"),
                        default="iid")
    p_effn.add_argument("--M", type=int, default=1)
    p_effn.add_argument("--m0", type=float, default=3.0)
    p_effn.add_argument("--beta0", type=float, default=1.0)
    p_effn.add_argument("--n", type=int, required=True)
    p_effn.add_argument("--upsilon", type=int, default=3)
    p_effn.add_argument("--r", type=float, default=4.0)
    p_effn.set_defaults(func=_cmd_effn)

    p_bound = sub.add_parser("bound", help="concentration bound evaluator")
    p_bound.add_argument("--penalty", choices=("l1", "l2p"), default="l1")
    p_bound.add_argument("--d", type=int, required=True)
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--model", choices=("iid", "indicator", "polynomial"),
                         default="iid")
    p_bound.add_argument("--M", type=int, default=1)
    p_bound.add_argument("--m0", type=float, default=3.0)
    p_bound.add_argument("--beta0", type=float, default=1.0)
    p_bound.add_argument("--pi0", type=float, default=4.0)
    p_bound.add_argument("--E-pi0", dest="E_pi0", type=float, default=1.0)
    p_bound.add_argument("--lam", type=float, required=True)
    p_bound.add_argument("--theta-norm", dest="theta_norm", type=float,
                         required=True)
    p_bound.add_argument("--u", type=float, default=100.0)
    p_bound.add_argument("--upsilon", type=int, default=3)
    p_bound.add_argument("--tau", type=float, default=0.5)
    p_bound.add_argument("--L", type=float, default=1.0)
    p_bound.add_argument("--trWinv", type=float, default=0.0)
    p_bound.add_argument("--M-over-lambda", dest="M_over_lambda", type=float,
                         default=0.0)
    p_bound.add_argument("--m", type=float, default=2.0)
    p_bound.add_argument("--emin-W", dest="emin_W", type=float, default=1.0)
    p_bound.add_argument("--D-sup", dest="D_sup", type=float, default=None)
    p_bound.set_defaults(func=_cmd_bound)

    p_sim = sub.add_parser("simulate", help="Monte Carlo studies")
    p_sim.add_argument("study", choices=("tables12", "tables34", "ols-tail"))
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_tune = sub.add_parser("tune", help="sieve-dimension selection on a CSV")
    p_tune.add_argument("--data", required=True, help="CSV with columns y,w")
    p_tune.add_argument("--basis", choices=("polynomial", "pspline"),
                        default="polynomial")
    p_tune.add_argument("--kmin", type=int, default=3)
    p_tune.add_argument("--kmax", type=int, default=8)
    p_tune.add_argument("--m", type=int, default=1)
    p_tune.add_argument("--s", type=float, default=None)
    p_tune.add_argument("--multiplier", type=float, default=4.0)
    p_tune.add_argument("--tau", type=float, default=0.5)
    p_tune.add_argument("--lambdas", type=float, nargs="+", default=None,
                        help="lambda grid for l1-penalized tuning (y,x1..xd data)")
    p_tune.set_defaults(func=_cmd_tune)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MixconcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
