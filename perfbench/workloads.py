"""The benchmark's three workloads: two Monte Carlo studies and a closed
loop of single public calls.

Each workload has `setup(seed)` (everything a run needs before its first
timed call), `measure(state)` (the untraced, timed run with its correctness
gate) and `trace(state)` (one untraced and one traced pass over the same
inputs, for the per-layer metrics and the tracing overhead).  A run does a
fixed amount of work, one study call or one api pass, so a faster program
is measured on the same inputs as a slower one.
The program is called only through the public ``mixconc`` namespace, so an
installed tracer sees every call.
"""

import contextlib
import io
import json
import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import mixconc
import mixconc.cli
import mixconc.experiments as experiments

import apiworker
import gate
import spans

#: ExperimentConfig's own default master seed; `--seed 0` maps onto it, and
#: the stored references are for that seed.
BASE_SEED = 20240901
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
#: per-call deadline of the api workload (a miss is a failure, censored here).
DEADLINE_S = 10.0
#: certificate bound for every returned fit (SolverOptions' default tol).
CERT_TOL = mixconc.SolverOptions().tol


class GateFailure(Exception):
    """A correctness check failed; the run reports no speed."""


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    above it; with ten or fewer samples, the maximum at percentile 100."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def warm_lazy_imports() -> None:
    """First calls into scipy's lazily loaded solvers and spline code."""
    from scipy.interpolate import BSpline
    from scipy.optimize import linprog, lsq_linear
    lsq_linear(np.eye(2), np.ones(2), bounds=(0.0, 1.0), method="bvls")
    linprog(np.ones(2), A_eq=np.ones((1, 2)), b_eq=[1.0], method="highs")
    BSpline(np.arange(8.0), np.eye(4), 3)(np.linspace(3.0, 4.0, 5))


class Run:
    """Outcome of one measured or traced run."""

    def __init__(self, attempted, failed, metrics, notes, detail=None):
        self.attempted, self.failed = attempted, failed
        self.metrics, self.notes = metrics, notes
        self.detail = detail or {}     # written to the run record only


def result_line(run: Run, declared: list[dict]) -> dict:
    """The JSON result of a correct run.  Its metrics must be exactly the
    declared ones: a metric missing from the run, or one nobody declared,
    is a defect of the benchmark and stops it."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(run.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(run.metrics) ^ set(units))} "
                           "are not both measured and declared")
    return {"correct": True, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": run.metrics[name], "unit": units[name]}
                        for name in sorted(units)}}


# ---------------------------------------------------------------------------
# Monte Carlo studies


class Study:
    """A whole study, called once through its public runner on inputs drawn
    from the workload seed."""

    def __init__(self, name, experiment, grid, reps, workers, kinds=None):
        self.name, self.experiment, self.grid = name, experiment, grid
        self.reps, self.workers, self.kinds = reps, workers, kinds

    def config(self, seed: int):
        cfg = experiments.ExperimentConfig(
            experiment=self.experiment, grid=self.grid, mc_reps=self.reps,
            workers=self.workers, master_seed=BASE_SEED + 7919 * seed)
        return cfg if self.kinds is None else cfg.replace(basis_kinds=self.kinds)

    def replications(self) -> int:
        return self.reps * len(self.grid) * (len(self.kinds) if self.kinds else 1)

    def setup(self, seed: int) -> dict:
        warm_lazy_imports()
        state = {"seed": seed, "oracles": None}
        cfg = self.config(seed)
        tiny = cfg.replace(grid=self.grid[:2], mc_reps=8, workers=1,
                           master_seed=cfg.master_seed - 1)
        if self.experiment == "tables34":
            oracles = {k: mixconc.build_sieve_oracle(k) for k in tiny.basis_kinds}
            for oracle in oracles.values():
                for k in experiments.SIEVE_KS:
                    oracle.bias(k)
            state["oracles"] = oracles
        self._call(tiny, state)
        return state

    def close(self, state) -> None:
        pass

    def _call(self, cfg, state):
        """The study's report rows.  A typed error of the program (for
        `run_tables12`: any uncertified median fit raises NonConvergence)
        fails the correctness gate."""
        try:
            if self.experiment == "tables12":
                return mixconc.run_tables12(cfg)
            return mixconc.run_tables34(cfg, state["oracles"])
        except mixconc.MixconcError as exc:
            raise GateFailure(f"{self.name}: {type(exc).__name__}: {exc}") from exc

    def _timed(self, cfg, state):
        start = time.perf_counter()
        rows = self._call(cfg, state)
        return rows, time.perf_counter() - start

    def check(self, rows, cfg, compare_reference: bool) -> list[str]:
        problems = []
        for row in rows:
            if row.n_reps + row.n_failed != cfg.mc_reps:
                problems.append(f"({row.n}, {row.m}, {row.method}): "
                                f"{row.n_reps}+{row.n_failed} reps of {cfg.mc_reps}")
            if row.method == "median" and row.n_failed:
                problems.append(f"({row.n}, {row.m}) median: {row.n_failed} uncertified")
            if self.experiment == "tables34" and (
                    row.k_feasible not in experiments.SIEVE_KS
                    or not math.isfinite(row.r_q50)):
                problems.append(f"({row.n}, {row.m}, {row.method}): bad selection")
        if compare_reference:
            reference = gate.load_reference(self.reference_path())
            problems += gate.compare_reports(gate.report_rows(rows), reference)
        return problems

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.seed{DEFAULT_SEED}.json"

    def write_reference(self, state) -> Path:
        cfg = self.config(DEFAULT_SEED)
        rows = self._call(cfg, state)
        problems = self.check(rows, cfg, compare_reference=False)
        if problems:
            raise GateFailure("; ".join(problems))
        gate.save_reference(self.reference_path(), gate.report_rows(rows),
                            {"workload": self.name, "seed": DEFAULT_SEED,
                             "master_seed": cfg.master_seed, "mc_reps": cfg.mc_reps})
        return self.reference_path()

    @staticmethod
    def _fits_per_rep(row) -> int:
        return len(experiments.SIEVE_KS) if row.experiment == "tables34" else 1

    def measure(self, state) -> Run:
        cfg = self.config(state["seed"])
        rows, wall = self._timed(cfg, state)
        problems = self.check(rows, cfg, state["seed"] == DEFAULT_SEED)
        if problems:
            raise GateFailure("; ".join(problems[:10]))
        reps = self.replications()
        uncertified = sum(r.n_failed for r in rows)
        metrics = {
            "reps_per_s": reps / wall,
            "fits_per_s": sum(r.n_reps * self._fits_per_rep(r) for r in rows) / wall,
            # one study call: both are its wall time
            "fit_s.p50": wall,
            "fit_s.tail": wall,
            "certified_frac": 1.0 - uncertified / reps,
        }
        notes = {"study_wall_s": wall, "replications": reps}
        return Run(reps, uncertified, metrics, notes)

    def trace(self, state) -> Run:
        cfg = self.config(state["seed"])
        rows, plain = self._timed(cfg, state)
        problems = self.check(rows, cfg, state["seed"] == DEFAULT_SEED)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_rows, traced = self._timed(cfg, state)
        finally:
            tracer.uninstall()
        problems += self.check(traced_rows, cfg, state["seed"] == DEFAULT_SEED)
        if problems:
            raise GateFailure("; ".join(problems[:10]))
        record = tracer.export()
        metrics = spans.layer_metrics(record)
        worst = [r.worst_residual for r in rows if r.method == "median"]
        uncertified = sum(r.n_failed for r in rows)
        metrics["estimators.worst_certificate"] = max(worst, default=0.0)
        metrics["estimators.fits_failed.nonconvergence"] = uncertified
        metrics["estimators.fits_failed.deadline"] = 0
        metrics["trace.overhead_frac"] = traced / plain - 1.0
        notes = {"plain_s": plain, "traced_s": traced}
        return Run(self.replications(), uncertified, metrics, notes, {"trace": record})


# ---------------------------------------------------------------------------
# single public calls under a deadline


#: The api pass, part one: every call kind the benchmark covers, on the
#: shapes named for it (unpenalized quantile fits with n 500-2000, m in
#: {1, 10}, d 3-5; the l1 quantile fits of `mixconc tune --lambdas`, with
#: the ROADMAP's two baseline cases; weighted-l2 quantile fits; squared loss
#: with l1 and weighted-l2; exact least squares at n=10^4, d=50; sieve fits
#: and sieve `tune`; one `tune --lambdas`).  Every entry is one public call
#: on its own datagen draw.  The proportions are chosen, not measured: there
#: is no record of how the library is called.
API_COVERAGE = (
    *[("qr", dict(n=n, m=1, d=3, tau=tau))
      for n in (500, 1000) for tau in (0.3, 0.5) for _ in range(3)],
    ("qr", dict(n=500, m=1, d=5, tau=0.3)),
    ("qr", dict(n=500, m=10, d=3, tau=0.3)),
    ("qr", dict(n=500, m=10, d=5, tau=0.5)),
    ("qr", dict(n=1000, m=1, d=4, tau=0.3)),
    ("qr", dict(n=1000, m=10, d=3, tau=0.5)),
    ("qr", dict(n=1000, m=10, d=4, tau=0.3)),
    ("qr", dict(n=2000, m=1, d=3, tau=0.3)),
    ("qr", dict(n=2000, m=1, d=5, tau=0.5)),
    ("qr", dict(n=2000, m=10, d=3, tau=0.5)),
    ("qr_l1", dict(n=500, m=1, d=10, tau=0.3, lam=0.02)),
    ("qr_l1", dict(n=1000, m=1, d=20, tau=0.5, lam=0.01)),
    ("qr_wl2", dict(n=500, m=1, d=5, tau=0.5, lam=0.01)),
    *[("sq_l1", dict(n=500, m=1, d=5, lam=0.01))] * 2,
    ("sq_l1", dict(n=1000, m=10, d=10, lam=0.01)),
    *[("sq_wl2", dict(n=500, m=1, d=5, lam=0.01))] * 2,
    ("sq_wl2", dict(n=1000, m=10, d=10, lam=0.01)),
    *[("ols", dict(n=10000, m=m, d=50)) for m in (1, 10) for _ in range(3)],
    *[("sieve", dict(n=n, m=m, basis=basis, k=k))
      for basis in ("polynomial", "pspline") for (n, m, k) in
      ((500, 1, 5), (1000, 1, 6), (3000, 1, 8), (3000, 6, 7))],
    *[("tune_sieve", dict(n=n, m=m, basis=basis))
      for basis in ("polynomial", "pspline") for (n, m) in ((1000, 1), (2000, 4))],
    ("tune_lambdas", dict(n=500, m=1, d=10, lams=(0.5, 0.2, 0.05))),
)

#: The api pass, part two: repeats that exist only to reduce variance.  Each
#: repeats one coverage call on that call's own draw (`draw` is its coverage
#: slot), so the repeats cost the same work and differ only by timing noise.
#: They are placed where the two order statistics reported fall: `fit_s.p50`
#: among the small unpenalized fits (n=1000, d=3) and `fit_s.tail` among the
#: heavy ones (n=1000, m=10, d=4).  Each then reads a central order statistic
#: of many timings of one call rather than one call of many: read off single
#: calls of different draws, `fit_s.tail` had a run-to-run spread of 0.28.
#: The price: unpenalized quantile fits are 55 of the 83 fixed calls, and the
#: two latency metrics mostly time those two calls.
API_BAND = (
    *[("qr", dict(n=1000, m=1, d=3, tau=0.3, draw=8))] * 30,
    *[("qr", dict(n=1000, m=10, d=4, tau=0.3, draw=17))] * 4,
)

#: One of the ROADMAP's large single-fit cases ends every pass: unpenalized
#: n=2000, d=8, whose vertex polish enumerates C(20, 8) subsets.  It misses
#: the deadline today.  The two other large cases (l1 and squared-l1 at
#: n=10^4, d=50) are left out: each miss costs a whole deadline, and three
#: per pass would not fit the benchmark's time budget.
API_LARGE = ("qr", dict(n=2000, m=1, d=8, tau=0.5))

#: master seed of the api draws.  The api inputs are the same for every
#: --seed: single-call costs vary up to a hundredfold between draws of one
#: shape, and a pass is only 84 calls, so seed-dependent draws would make the
#: run-to-run spread that of the draws, not of the program.
API_DATA_SEED = BASE_SEED


class Api:
    """One pass of single public calls, in a deadline worker, on fixed
    inputs."""

    def __init__(self, out_dir: Path, calls=API_COVERAGE + API_BAND, large=API_LARGE):
        self.out_dir, self.calls, self.large = out_dir, calls, large

    def pass_specs(self) -> list:
        """(slot, kind, params) of the pass, in the order they are called:
        the fixed calls in one interleaved order, then the large case in the
        last slot.  The order is fixed because a call's time depends on what
        the worker process ran before it (allocator and cache state)."""
        order = np.random.default_rng(API_DATA_SEED).permutation(len(self.calls))
        specs = [(int(slot), *self.calls[slot]) for slot in order]
        return specs + [(len(self.calls), *self.large)]

    def make_ops(self) -> list[dict]:
        """Inputs of the pass; the call in slot s draws replication s of the
        api master seed, or replication `draw` when its parameters name one.
        Every call gets arrays of its own, also a repeat."""
        ops = []
        for slot, kind, p in self.pass_specs():
            rep = p.get("draw", slot)
            op = {"kind": kind, "params": p, "rep": rep}
            if kind in ("sieve", "tune_sieve"):
                data = mixconc.make_np_design(p["n"], p["m"], seed=API_DATA_SEED, rep=rep)
            else:
                data = mixconc.make_linear_design(p["n"], p["m"], p.get("d", 3),
                                                  seed=API_DATA_SEED, rep=rep)
            if kind.startswith("tune"):
                path = self.out_dir / f"api-slot{slot}.csv"
                data.to_csv(path)
                op["argv"] = self._tune_argv(kind, p, path)
            else:
                op["X"], op["y"], op["w"] = data.X, data.y, data.w
            ops.append(op)
        return ops

    @staticmethod
    def _tune_argv(kind, p, path) -> list[str]:
        argv = ["tune", "--data", str(path), "--m", str(p["m"])]
        if kind == "tune_sieve":
            return argv + ["--basis", p["basis"]]
        return argv + ["--lambdas"] + [str(v) for v in p["lams"]]

    def setup(self, seed: int) -> dict:
        warm_lazy_imports()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        ops = self.make_ops()
        worker = apiworker.DeadlineWorker(run_op, ops + [_warm_up_op()], DEADLINE_S)
        warm = worker.call(len(ops))
        if warm.status != "ok":
            worker.close()
            raise GateFailure(f"warm-up call failed: {warm.status}")
        return {"seed": seed, "ops": ops, "worker": worker}

    def close(self, state) -> None:
        state["worker"].close()

    def _pass(self, worker, ops, slots=None):
        """Outcomes of the calls in `slots` (default: all, in pass order)."""
        outcomes = []
        start = time.perf_counter()
        for i in range(len(ops)) if slots is None else slots:
            outcomes.append(worker.call(i))
        return outcomes, time.perf_counter() - start

    def measure(self, state) -> Run:
        ops = state["ops"]
        outcomes, wall = self._pass(state["worker"], ops)
        problems = check_api(ops, outcomes)
        if problems:
            raise GateFailure("; ".join(problems[:10]))
        ok = [o for o in outcomes if o.status == "ok"]
        # a failed call counts as missing the deadline
        latency = [o.seconds if o.status == "ok" else DEADLINE_S for o in outcomes]
        value, pct = tail(latency)
        metrics = {
            "reps_per_s": len(outcomes) / wall,
            "fits_per_s": len(ok) / wall,
            "fit_s.p50": statistics.median(latency),
            "fit_s.tail": value,
            "certified_frac": len(ok) / len(outcomes),
        }
        notes = {"pass_wall_s": wall, "tail_percentile": pct, "calls": len(outcomes),
                 "failures": _failure_counts(outcomes)}
        detail = {"calls": [(op["kind"], op["params"], op["rep"], o.status, o.seconds)
                            for op, o in zip(ops, outcomes)]}
        return Run(len(outcomes), len(outcomes) - len(ok), metrics, notes, detail)

    def trace(self, state) -> Run:
        tracer = spans.Tracer()
        tracer.install()
        try:
            # regenerate the inputs under the tracer so datagen is measured
            traced_ops = self.make_ops()
            worker = apiworker.DeadlineWorker(run_op, traced_ops, DEADLINE_S)
            try:
                traced, _ = self._pass(worker, traced_ops)
            finally:
                worker.close()
        finally:
            tracer.uninstall()
        problems = check_api(traced_ops, traced)
        # the untraced reference repeats only the calls that succeeded traced:
        # the overhead is taken over calls that succeed in both passes
        ops = state["ops"]
        ok = [i for i, out in enumerate(traced) if out.status == "ok"]
        plain, _ = self._pass(state["worker"], ops, ok)
        problems += check_api([ops[i] for i in ok], plain)
        if problems:
            raise GateFailure("; ".join(problems[:10]))
        for out in traced:
            if out.trace is not None:
                tracer.absorb(out.trace)     # no parent span: the client is untraced
        record = tracer.export()
        metrics = spans.layer_metrics(record)
        residuals = [o.value["residual"] for o in traced
                     if o.status == "ok" and "residual" in o.value]
        failures = _failure_counts(traced)
        metrics["estimators.worst_certificate"] = max(residuals, default=0.0)
        metrics["estimators.fits_failed.nonconvergence"] = failures.get("NonConvergence", 0)
        metrics["estimators.fits_failed.deadline"] = failures.get("deadline", 0)
        both = [(p.seconds, traced[i].seconds) for i, p in zip(ok, plain)
                if p.status == "ok"]
        metrics["trace.overhead_frac"] = (sum(t for _, t in both)
                                          / sum(p for p, _ in both) - 1.0)
        notes = {"failures": failures}
        return Run(len(traced), len(traced) - len(ok), metrics, notes, {"trace": record})


def _warm_up_op() -> dict:
    """A small quantile fit on a draw outside every pass."""
    p = dict(n=200, m=1, d=2, tau=0.5)
    data = mixconc.make_linear_design(p["n"], p["m"], p["d"], seed=API_DATA_SEED,
                                      rep=10 ** 6)
    return {"kind": "qr", "params": p, "rep": 10 ** 6, "X": data.X, "y": data.y}


def _failure_counts(outcomes) -> dict:
    counts = {}
    for out in outcomes:
        if out.status != "ok":
            counts[out.status] = counts.get(out.status, 0) + 1
    return counts


def run_op(op) -> dict:
    """One public call; runs inside the deadline worker."""
    kind, p = op["kind"], op["params"]
    if kind.startswith("tune"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mixconc.cli.main(op["argv"])
        if code != 0:
            raise CliExit(f"exit {code}: {err.getvalue().strip()}")
        return {"tune": json.loads(out.getvalue())}
    X, y = op["X"], op["y"]
    if kind == "qr":
        fit = mixconc.fit_penalized_qr((X, y), p["tau"])
    elif kind == "qr_l1":
        fit = mixconc.fit_penalized_qr((X, y), p["tau"], mixconc.PenaltySpec("l1", lam=p["lam"]))
    elif kind == "qr_wl2":
        fit = mixconc.fit_penalized_qr((X, y), p["tau"],
                                       mixconc.PenaltySpec("weighted_l2", lam=p["lam"], m=2.0))
    elif kind == "sq_l1":
        fit = mixconc.fit_penalized((X, y), mixconc.SQUARED,
                                    mixconc.PenaltySpec("l1", lam=p["lam"]))
    elif kind == "sq_wl2":
        fit = mixconc.fit_penalized((X, y), mixconc.SQUARED,
                                    mixconc.PenaltySpec("weighted_l2", lam=p["lam"], m=2.0))
    elif kind == "ols":
        fit = mixconc.fit_ols((X, y))
    elif kind == "sieve":
        fit = mixconc.fit_sieve_ls(mixconc.SieveBasis(p["basis"], p["k"]), op["w"], y)
    else:
        raise ValueError(f"unknown api call {kind!r}")
    return {"theta": fit.theta, "objective": fit.objective,
            "residual": fit.optimality_residual}


class CliExit(Exception):
    """`mixconc.cli.main` returned a non-zero exit code."""


def check_api(ops, outcomes) -> list[str]:
    """Certificates of every returned fit; quantile fits against the LP."""
    problems = []
    for op, out in zip(ops, outcomes):
        if out.status != "ok":
            continue
        kind, p, value = op["kind"], op["params"], out.value
        label = f"{kind} {p} rep {op['rep']}"
        if "tune" in value:
            problems += _check_tune(label, kind, p, value["tune"])
            continue
        if not (value["residual"] <= CERT_TOL and np.all(np.isfinite(value["theta"]))):
            problems.append(f"{label}: certificate {value['residual']:.3g} > {CERT_TOL}")
        if kind in ("qr", "qr_l1"):
            lam = p["lam"] if kind == "qr_l1" else 0.0
            lp = gate.quantile_lp_objective(op["X"], op["y"], p["tau"], lam)
            problems += [f"{label}: {msg}" for msg in
                         gate.check_against_lp(value["objective"], lp)]
    return problems


def _check_tune(label, kind, p, out) -> list[str]:
    coefs = np.asarray(out.get("coefficients", []), dtype=float)
    expected = p.get("d")
    ok = (out.get("k_feasible") in out.get("test_set", ())
          and coefs.size > 0 and np.all(np.isfinite(coefs))
          and (expected is None or coefs.size == expected))
    return [] if ok else [f"{label}: malformed tune output {out}"]


def get(name: str, out_dir: Path):
    if name == "mc-location":
        return Study("mc-location", "tables12", experiments.TABLES12_GRID,
                     reps=250, workers=1)
    if name == "mc-sieve":
        return Study("mc-sieve", "tables34", experiments.TABLES34_GRID,
                     reps=500, workers=2, kinds=("polynomial", "pspline"))
    if name == "api":
        return Api(out_dir)
    raise KeyError(name)


NAMES = ("mc-location", "mc-sieve", "api")
