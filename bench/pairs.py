"""Paired benchmark runs of two commits, written to one JSON file.

    python3 bench/pairs.py --parent main --change HEAD --out BENCH.json

Run it inside a git checkout.  Each side is extracted with `git archive`
into a fresh temporary directory, and the command that `BENCHMARK.json`
declares (`perfbench/run.py`) runs there untraced at the declared run
length, so each side runs its own committed benchmark on its own sources.
Every declared workload runs ten pairs; pair i runs both sides at seed
i + 1, even pairs the parent first, odd pairs the change.  The script keeps what each run prints and the
environment block that `run.py` records, and adds no timers of its own.

The output holds both commits, every run's result and environment, and per
workload and end-to-end metric: each side's median and quartiles, the
change's relative difference, the pairs the change won (ties count for
neither side), whether the runs spread too widely to tell (`unresolved`:
the parent's interquartile range is larger than the bound times its
median, and not every change run is better than every parent run),
whether the change stays within the metric's bound, and whether it shows
a gain.  A gain needs every change run correct, no more failed operations
than the parent's runs, wins in at least nine of every ten pairs run, and
a median better by more than the parent's interquartile range.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SEED = 1
PAIRS = 10
#: a run that takes longer than this is a failed run, not a slow one.
RUN_TIMEOUT_S = 1800


def schedule(pairs: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, order in which the sides run) of every pair."""
    return [(FIRST_SEED + i, SIDES if i % 2 == 0 else SIDES[::-1])
            for i in range(pairs)]


def run_pairs(workload: str, pairs: int, run) -> list[dict]:
    """One record per pair; `run(side, workload, seed)` returns the result
    of one benchmark run."""
    records = []
    for seed, order in schedule(pairs):
        record = {"seed": seed, "first": order[0]}
        for side in order:
            record[side] = run(side, workload, seed)
        records.append(record)
    return records


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(records: list[dict], declared: list[dict]) -> dict:
    """Per declared end-to-end metric: quartiles over the pairs in which
    both runs passed their correctness check, wins counted against every
    pair run."""
    ok = [r for r in records if r["parent"].get("correct") and r["change"].get("correct")]
    failed = {side: sum(r[side].get("failed", 0) for r in records) for side in SIDES}
    attempted = {side: sum(r[side].get("attempted", 0) for r in records)
                 for side in SIDES}
    change_holds = (all(r["change"].get("correct") for r in records)
                    and failed["change"] <= failed["parent"])
    summary = {"pairs": len(records), "pairs_correct": len(ok),
               "failed": failed, "attempted": attempted, "metrics": {}}
    for metric in declared:
        name = metric["name"]
        values = [(r["parent"]["metrics"][name]["value"],
                   r["change"]["metrics"][name]["value"]) for r in ok]
        if not values:
            continue
        sign = 1.0 if metric["better"] == "higher" else -1.0
        base = quartiles([p for p, _ in values])
        new = quartiles([c for _, c in values])
        gained = sign * (new["median"] - base["median"])
        spread = base["q3"] - base["q1"]
        allowed = metric["bound"] * abs(base["median"])
        wins = sum(sign * (c - p) > 0 for p, c in values)
        apart = (min(sign * c for _, c in values)
                 > max(sign * p for p, _ in values))
        summary["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "pairs": len(values), "wins": wins,
            "ties": sum(c == p for p, c in values),
            "parent": base, "change": new,
            "change_vs_parent": (new["median"] / base["median"] - 1.0
                                 if base["median"] else None),
            "unresolved": spread > allowed and not apart,
            "within_bound": (spread <= allowed or apart) and -gained <= allowed,
            "gain": (change_holds and wins >= 0.9 * len(records)
                     and gained > spread),
        }
    return summary


def git(root: Path, *args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, **kwargs)


def extract(root: Path, commit: str, dest: Path) -> Path:
    """The committed files of `commit`, from a fresh `git archive`."""
    dest.mkdir(parents=True)
    archive = git(root, "archive", "--format=tar", commit).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


class Runner:
    """Runs the declared benchmark command in each side's directory."""

    def __init__(self, dirs: dict, benchmark: dict):
        self.dirs, self.benchmark = dirs, benchmark

    def __call__(self, side: str, workload: str, seed: int) -> dict:
        directory = self.dirs[side]
        cmd = [*self.benchmark["command"], "--workload", workload,
               "--seed", str(seed), "--seconds", str(self.benchmark["run_seconds"]),
               "--trace", "0"]
        try:
            proc = subprocess.run(cmd, cwd=directory, capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
        except subprocess.TimeoutExpired:
            result = {"correct": False, "timeout_s": RUN_TIMEOUT_S}
        record = directory / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
        if record.is_file():
            result["env"] = json.loads(record.read_text())["env"]
        print(f"{workload} seed {seed} {side}: correct={result.get('correct')}",
              file=sys.stderr, flush=True)
        return result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git ref of the parent side")
    p.add_argument("--change", required=True, help="git ref of the change side")
    p.add_argument("--out", required=True, type=Path, help="JSON file to write")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel",
                    text=True).stdout.strip())
    commits = {side: git(root, "rev-parse", "--verify", f"{ref}^{{commit}}",
                         text=True).stdout.strip()
               for side, ref in zip(SIDES, (args.parent, args.change))}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {side: extract(root, commits[side], Path(tmp) / side)
                for side in SIDES}
        benchmark = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
        run = Runner(dirs, benchmark)
        out = {"commits": commits,
               "refs": {"parent": args.parent, "change": args.change},
               "benchmark": {"command": benchmark["command"],
                             "run_seconds": benchmark["run_seconds"],
                             "first_seed": FIRST_SEED, "pairs": PAIRS},
               "workloads": {}}
        for name in (w["name"] for w in benchmark["workloads"]):
            records = run_pairs(name, PAIRS, run)
            out["workloads"][name] = {
                "summary": summarize(records, benchmark["end_to_end"]),
                "pairs": records}
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
