"""Tests of the benchmark itself: span self time, the tracer's install and
restore, the deadline worker, metric names against BENCHMARK.json, and the
correctness gate.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import mixconc  # noqa: E402
import apiworker  # noqa: E402
import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_nested_spans():
    #        name   layer start end parent
    spans_ = [("a", "x", 0.0, 10.0, -1),
              ("b", "y", 1.0, 4.0, 0),
              ("c", "y", 5.0, 7.0, 0),
              ("d", "z", 2.0, 3.0, 1)]
    assert spans.self_times(spans_) == [5.0, 2.0, 2.0, 1.0]
    # work handed to other processes overlaps; only the union is covered
    attached = [(0, 1.0, 6.0), (0, 3.0, 8.0), (0, 9.0, 12.0)]
    assert spans.self_times(spans_[:1], attached) == [10.0 - 7.0 - 1.0]


def test_layer_metrics_from_a_recorded_call():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mixconc.experiments.build_lattice is mixconc.build_lattice
        mixconc.experiments.snap_admissible(97, 3)       # calls build_lattice
        mixconc.fit_penalized_qr((np.ones((6, 1)), np.arange(6.0)), 0.5)
    finally:
        tracer.uninstall()
    assert mixconc.build_lattice.__module__ == "mixconc.lattice"
    assert not hasattr(mixconc.build_lattice, "__wrapped__")
    record = tracer.export()
    metrics = spans.layer_metrics(record)
    assert metrics["experiments.calls"] == 1
    assert metrics["lattice.calls"] >= 2
    assert metrics["admm.sweeps"] == 300          # one first sweep, R = 1
    assert metrics["estimators.certificates"] >= 1
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS.values())
    roots = sum(s[3] - s[2] for s in record["spans"] if s[4] < 0)
    assert total == pytest.approx(roots, rel=1e-9)


def _sleep_op(seconds):
    time.sleep(seconds)
    return seconds


def test_deadline_worker_kills_and_restarts():
    worker = apiworker.DeadlineWorker(_sleep_op, [0.01, 5.0, 0.02], deadline_s=0.3)
    try:
        first, missed, after = worker.call(0), worker.call(1), worker.call(2)
    finally:
        worker.close()
    assert (first.status, missed.status, after.status) == ("ok", "deadline", "ok")
    assert missed.seconds == 0.3 and after.value == 0.02
    assert worker.restarts == 1
    assert not worker._proc.is_alive()


def _declared(kind):
    return {m["name"]: m for m in SPEC[kind]}


def test_declared_metrics_are_well_formed():
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert NAME.fullmatch(m["name"]) and m["better"] in ("lower", "higher")
    setup = _declared("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [
    workloads.Study("tiny-location", "tables12", ((50, 1), (50, 2)), reps=6, workers=1),
    workloads.Study("tiny-sieve", "tables34", ((100, 1),), reps=6, workers=1,
                    kinds=("polynomial",)),
    "api",
])
def test_printed_metrics_are_declared(workload, tmp_path):
    if workload == "api":
        workload = workloads.Api(
            tmp_path, calls=(("qr", dict(n=100, m=1, d=2, tau=0.5)),
                             ("ols", dict(n=200, m=1, d=3)),
                             ("tune_sieve", dict(n=200, m=1, basis="polynomial"))),
            large=("sieve", dict(n=300, m=1, basis="pspline", k=5)))
    state = workload.setup(3)
    try:
        measured = workload.measure(state)
        traced = workload.trace(state)
    finally:
        workload.close(state)
    measured.metrics.update(setup_s=1.0, peak_rss_mb=1.0)
    for run, kind in ((measured, "end_to_end"), (traced, "per_layer")):
        line = workloads.result_line(run, SPEC[kind])
        for name, metric in line["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == _declared(kind)[name]["unit"]
            assert isinstance(metric["value"], (int, float))
    assert measured.failed == 0 and measured.metrics["certified_frac"] == 1.0


def test_a_typed_program_error_fails_the_gate():
    # m=7 divides no admissible n near 50: run_tables12 raises DomainError
    study = workloads.Study("bad-grid", "tables12", ((50, 7),), reps=2, workers=1)
    with pytest.raises(workloads.GateFailure, match="DomainError"):
        study.measure({"seed": 0, "oracles": None})


def test_api_band_repeats_coverage_calls_on_their_draws():
    for kind, params in workloads.API_BAND:
        call = dict(params)
        slot = call.pop("draw")
        assert workloads.API_COVERAGE[slot] == (kind, call)


def test_result_line_refuses_undeclared_metrics():
    run = workloads.Run(1, 0, {"latency_ms": 1.0}, {})
    with pytest.raises(RuntimeError):
        workloads.result_line(run, SPEC["end_to_end"])


@pytest.mark.parametrize("name", ["mc-location", "mc-sieve"])
def test_reference_check_rejects_a_perturbed_report(name):
    study = workloads.get(name, HERE)
    reference = gate.load_reference(study.reference_path())
    assert gate.compare_reports(json.loads(json.dumps(reference)), reference) == []
    perturbed = json.loads(json.dumps(reference))
    field = "mu_actual" if name == "mc-location" else "r_q50"
    perturbed[3][field] *= 1.0 + 1e-7
    assert gate.compare_reports(perturbed, reference)
    relabelled = json.loads(json.dumps(reference))
    relabelled[0]["n_reps"] -= 1
    assert gate.compare_reports(relabelled, reference)
    assert gate.compare_reports(reference[:-1], reference)


def test_lp_oracle_agrees_with_fits_and_rejects_a_worse_objective():
    data = mixconc.make_linear_design(200, 1, 3, seed=5)
    for pen in (mixconc.NO_PENALTY, mixconc.PenaltySpec("l1", lam=0.02)):
        fit = mixconc.fit_penalized_qr((data.X, data.y), 0.3, pen)
        lp = gate.quantile_lp_objective(data.X, data.y, 0.3, pen.lam)
        assert gate.check_against_lp(fit.objective, lp) == []
        assert gate.check_against_lp(lp + 1e-4, lp)
