"""Command-line front end.

Subcommands:
  effn      effective number of observations for a mixing model
  bound     numeric concentration bound for penalized quantile regression
  simulate  the Monte Carlo studies (tables12 | tables34 | ols-tail)
  tune      data-driven choice of a sieve dimension (tuning.select_sieve)
            or an l1 penalty level (tuning.select_lambda) on a CSV dataset

Configuration files are flat ``key = value`` text; values may be numbers,
comma lists, or n:m pair lists (see parse_config).
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import MixconcError
from .experiments import (BoundParams, ExperimentConfig, eval_bound,
                          run_ols_tail, run_tables12, run_tables34, write_csv,
                          write_manifest)
from .lattice import build_lattice
from .mixing import BetaMixingModel, effective_n, effective_n_bounds
from .tuning import default_s, select_lambda, select_sieve


def _parse_item(raw: str):
    raw = raw.strip()
    if ":" in raw:
        try:
            a, b = raw.split(":")
            return int(a), int(b)
        except ValueError:
            pass
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _parse_value(raw: str):
    """A comma list, or an n:m pair, parses as a tuple of its items."""
    items = tuple(_parse_item(part) for part in raw.split(","))
    return items if len(items) > 1 or isinstance(items[0], tuple) else items[0]


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
    # each BoundParams field is the option of its name, except the model
    values = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(BoundParams)}
    values["model"] = _model_from_args(args)
    print(json.dumps(eval_bound(BoundParams(**values)), indent=2))
    return 0


def _config_from_file(args, experiment) -> ExperimentConfig:
    overrides = {}
    if args.config:
        overrides.update(parse_config(args.config))
    cfg = ExperimentConfig(experiment=experiment)
    unknown = set(overrides) - set(cfg.__dataclass_fields__)
    if unknown:
        raise MixconcError(f"unknown config keys: {sorted(unknown)}")
    if overrides.get("experiment", experiment) != experiment:
        raise MixconcError(f"config key experiment = "
                           f"{overrides['experiment']!r} does not match the "
                           f"study {experiment!r}")
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
    run = {"tables12": run_tables12, "tables34": run_tables34,
           "ols-tail": run_ols_tail}[args.study]
    cfg = _config_from_file(args, args.study)
    try:
        rows = run(cfg)
    except MixconcError as exc:     # a failed run's manifest names its error
        if cfg.out:
            write_manifest(cfg, cfg.out + ".manifest.json", error=exc)
        raise
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
    if args.m < 1:
        raise MixconcError("block length m must be >= 1")
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
    result, fits = select_sieve(args.basis, range(args.kmin, args.kmax + 1),
                                w, y, nbeta, s, multiplier=args.multiplier)
    coefs = fits[result.k_feasible - args.kmin].theta
    return result, {"basis": args.basis,
                    "coefficients": list(map(float, coefs))}


def _tune_lambda(args, X, y, nbeta, s):
    if not args.lambdas:
        raise MixconcError("lambda-grid tuning needs --lambdas")
    result, fits = select_lambda(X, y, args.tau, args.lambdas, nbeta, s,
                                 multiplier=args.multiplier)
    coefs = fits[args.lambdas.index(result.k_feasible)].theta
    return result, {"penalty": "l1", "tau": args.tau,
                    "coefficients": list(map(float, coefs))}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixconc")
    sub = parser.add_subparsers(dest="command", required=True)

    # the mixing model and the lattice, shared by effn and bound
    mixing = argparse.ArgumentParser(add_help=False)
    mixing.add_argument("--model", choices=("iid", "indicator", "polynomial"),
                        default="iid")
    mixing.add_argument("--M", type=int, default=1)
    mixing.add_argument("--m0", type=float, default=3.0)
    mixing.add_argument("--beta0", type=float, default=1.0)
    mixing.add_argument("--n", type=int, required=True)
    mixing.add_argument("--upsilon", type=int, default=3)

    p_effn = sub.add_parser("effn", parents=[mixing],
                            help="effective number of observations")
    p_effn.add_argument("--r", type=float, default=4.0)
    p_effn.set_defaults(func=_cmd_effn)

    p_bound = sub.add_parser("bound", parents=[mixing],
                             help="concentration bound evaluator")
    p_bound.add_argument("--penalty", choices=("l1", "l2p"), default="l1")
    p_bound.add_argument("--d", type=int, required=True)
    p_bound.add_argument("--pi0", type=float, default=4.0)
    p_bound.add_argument("--E-pi0", dest="E_pi0", type=float, default=1.0)
    p_bound.add_argument("--lam", type=float, required=True)
    p_bound.add_argument("--theta-norm", dest="theta_norm", type=float,
                         required=True)
    p_bound.add_argument("--u", type=float, default=100.0)
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

    p_tune = sub.add_parser("tune", help="sieve or l1 penalty choice on a CSV")
    p_tune.add_argument("--data", required=True, help="CSV: y,w or y,x1..xd")
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
