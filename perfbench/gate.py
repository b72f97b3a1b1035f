"""Correctness checks: study reports against a stored reference, and
quantile fits against an independent HiGHS linear program.

Every check returns a list of problem strings; an empty list means pass.
"""

import json
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

#: relative tolerance for numeric report columns compared to the reference.
REPORT_RTOL = 1e-9
#: columns left out of the comparison: certificates depend on the solver's
#: path, not on the answer; they are checked against solver_tol instead.
UNCOMPARED = ("worst_residual",)
#: a fit's objective may exceed the LP optimum by at most
#: LP_SLACK * (1 + |LP optimum|); it covers the 1e-6 certificate tolerance
#: and HiGHS's own feasibility tolerance.
LP_SLACK = 1e-6


def report_rows(rows) -> list[dict]:
    """Study report rows as plain dicts of JSON values (NaN -> None)."""
    out = []
    for row in rows:
        rec = {}
        for field in row.FIELDS:
            value = getattr(row, field)
            if isinstance(value, (np.integer, np.floating)):
                value = value.item()
            if isinstance(value, float) and math.isnan(value):
                value = None
            rec[field] = value
        out.append(rec)
    return out


def compare_reports(actual: list[dict], reference: list[dict]) -> list[str]:
    if len(actual) != len(reference):
        return [f"{len(actual)} report rows, reference has {len(reference)}"]
    problems = []
    for i, (got, want) in enumerate(zip(actual, reference)):
        for field, expected in want.items():
            if field in UNCOMPARED:
                continue
            value = got.get(field)
            if isinstance(expected, float) and isinstance(value, (int, float)):
                if not math.isclose(value, expected, rel_tol=REPORT_RTOL,
                                    abs_tol=1e-12):
                    problems.append(f"row {i} {field}: {value!r} != {expected!r}")
            elif value != expected:
                problems.append(f"row {i} {field}: {value!r} != {expected!r}")
    return problems


def load_reference(path) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["rows"]


def save_reference(path, rows: list[dict], meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, "rows": rows}, fh, indent=1)
        fh.write("\n")


def quantile_lp_objective(X, y, tau: float, l1_lam: float = 0.0) -> float:
    """Optimal value of (1/n) sum rho_tau(y - X b) + lam ||b||_1 as an LP:
    b = b+ - b-, residual = u+ - u-, all parts nonnegative."""
    n, d = X.shape
    c = np.r_[np.full(2 * d, l1_lam), np.full(n, tau / n), np.full(n, (1.0 - tau) / n)]
    Xs = sparse.csr_matrix(X)
    A = sparse.hstack([Xs, -Xs, sparse.eye(n), -sparse.eye(n)], format="csc")
    res = linprog(c, A_eq=A, b_eq=y, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def check_against_lp(objective: float, lp_objective: float) -> list[str]:
    if objective <= lp_objective + LP_SLACK * (1.0 + abs(lp_objective)):
        return []
    return [f"objective {objective:.12g} above LP optimum {lp_objective:.12g}"]
