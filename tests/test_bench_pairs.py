"""The paired-run script's schedule and summary, without running the
benchmark."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

DECLARED = [
    {"name": "reps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def _result(reps, rss, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"reps_per_s": {"value": reps, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(side, workload, seed):
        calls.append((seed, side))
        return _result(1.0, 1.0)
    records = pairs.run_pairs("mc-sieve", 4, run)
    assert calls == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
                     (3, "parent"), (3, "change"), (4, "change"), (4, "parent")]
    assert [r["first"] for r in records] == ["parent", "change"] * 2
    assert [r["seed"] for r in records] == [1, 2, 3, 4]
    assert [seed for seed, _ in pairs.schedule(10)] == list(range(1, 11))


def test_summary_medians_quartiles_and_wins():
    parent = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [200.0, 110.0, 180.0, 210.0, 190.0]
    rss = [(90.0, 91.0), (90.0, 89.0), (90.0, 90.0), (90.0, 89.0), (90.0, 95.0)]
    records = [{"seed": i + 1, "parent": _result(p, rp), "change": _result(c, rc)}
               for i, (p, c, (rp, rc)) in enumerate(zip(parent, change, rss))]
    out = pairs.summarize(records, DECLARED)
    reps = out["metrics"]["reps_per_s"]
    # inclusive quartiles of 90, 95, 100, 105, 110
    assert reps["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
    assert reps["change"] == {"q1": 180.0, "median": 190.0, "q3": 200.0}
    assert (reps["wins"], reps["ties"], reps["pairs"]) == (4, 1, 5)
    assert reps["change_vs_parent"] == pytest.approx(0.9)
    assert reps["within_bound"] and not reps["gain"]      # 4 wins of 5
    rss_out = out["metrics"]["peak_rss_mb"]
    # lower is better: 89 < 90 wins, 91 and 95 lose, 90 ties
    assert (rss_out["wins"], rss_out["ties"]) == (2, 1)
    assert rss_out["change"]["median"] == 90.0 and rss_out["within_bound"]
    assert out["pairs"] == out["pairs_correct"] == 5


def _records(parent, change, rss=(100.0, 100.0)):
    return [{"seed": i + 1, "parent": _result(p, rss[0]),
             "change": _result(c, rss[1])} for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_gain_and_bound():
    records = _records([100.0 + i for i in range(10)],
                       [150.0 + i for i in range(10)], rss=(100.0, 115.0))
    out = pairs.summarize(records, DECLARED)
    reps = out["metrics"]["reps_per_s"]
    assert reps["wins"] == 10 and reps["gain"] and not reps["unresolved"]
    # 15 % more memory is past the 10 % bound
    rss = out["metrics"]["peak_rss_mb"]
    assert not rss["within_bound"] and not rss["unresolved"]


@pytest.mark.parametrize("broken", ["failed", "incorrect"])
def test_no_gain_when_a_change_run_fails(broken):
    records = _records([100.0 + i for i in range(10)],
                       [150.0 + i for i in range(10)])
    change = {"correct": broken == "failed", "attempted": 10,
              "failed": int(broken == "failed"),
              "metrics": _result(160.0, 100.0)["metrics"]}
    records.append({"seed": 11, "parent": _result(100.0, 100.0), "change": change})
    out = pairs.summarize(records, DECLARED)
    reps = out["metrics"]["reps_per_s"]
    # 10 wins in 11 pairs would be a gain, but a change run did not hold
    assert reps["wins"] >= 10 and not reps["gain"]
    assert out["failed"] == {"parent": 0, "change": int(broken == "failed")}


def test_wins_count_against_every_pair_run():
    records = _records([100.0 + i for i in range(8)], [150.0 + i for i in range(8)])
    for seed in (9, 10):
        records.append({"seed": seed, "parent": {"correct": False, "metrics": {}},
                        "change": _result(150.0, 100.0)})
    out = pairs.summarize(records, DECLARED)
    assert out["pairs"] == 10 and out["pairs_correct"] == 8
    reps = out["metrics"]["reps_per_s"]
    assert (reps["pairs"], reps["wins"]) == (8, 8) and not reps["gain"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [50.0, 60.0, 100.0, 140.0, 150.0] * 2    # IQR 80 > 0.25 * 100
    records = _records(parent, [p + 1.0 for p in parent])
    reps = pairs.summarize(records, DECLARED)["metrics"]["reps_per_s"]
    assert reps["unresolved"]
    assert not reps["within_bound"] and not reps["gain"]
    # unless every change run reads better than every parent run
    records = _records(parent, [p + 200.0 for p in parent])
    reps = pairs.summarize(records, DECLARED)["metrics"]["reps_per_s"]
    assert not reps["unresolved"] and reps["within_bound"] and reps["gain"]
