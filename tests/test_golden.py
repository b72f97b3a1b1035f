"""Byte-for-byte regression of the three studies' CSV reports.

The files under `tests/golden/` hold the reports of the configurations
below.  A study must reproduce them exactly with one worker and with two,
at a row budget (`experiments._STACK_ROWS`) that cuts every tables 1-2
and 3-4 cell into several chunks, so the pool has several tasks per
cell.  Regenerate them with `PYTHONPATH=src python tests/test_golden.py`
only when a report is meant to change, and say why in CHANGES.md.
"""

from pathlib import Path

import pytest

from mixconc import (ExperimentConfig, experiments, run_ols_tail,
                     run_tables12, run_tables34, write_csv)

GOLDEN = Path(__file__).resolve().parent / "golden"

STUDIES = {
    "tables12": (run_tables12, ExperimentConfig(
        experiment="tables12",
        grid=((50, 1), (50, 2), (100, 1), (100, 4), (250, 1), (250, 5)),
        mc_reps=40)),
    "tables34": (run_tables34, ExperimentConfig(
        experiment="tables34", grid=((100, 1), (300, 1), (3000, 6)),
        mc_reps=40)),
    "ols-tail": (run_ols_tail, ExperimentConfig(
        experiment="ols-tail", grid=(), mc_reps=200,
        tail_u=(0.5, 1.0, 2.0))),
}


#: chunks of 30 reps at n = 50 down to 1 rep at n = 3000
STACK_ROWS = 1500


def write_report(study: str, workers: int, path: Path) -> None:
    run, cfg = STUDIES[study]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_STACK_ROWS", STACK_ROWS)
        write_csv(run(cfg.replace(workers=workers)), path)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("study", sorted(STUDIES))
def test_report_matches_golden(study, workers, tmp_path):
    out = tmp_path / f"{study}.csv"
    write_report(study, workers, out)
    assert out.read_bytes() == (GOLDEN / f"{study}.csv").read_bytes()


if __name__ == "__main__":
    for name in STUDIES:
        write_report(name, 1, GOLDEN / f"{name}.csv")
        print(f"wrote {GOLDEN / name}.csv")
