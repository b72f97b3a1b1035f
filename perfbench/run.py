"""Benchmark entry point.

    python3 perfbench/run.py --workload mc-location --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` it times the workload untraced and
prints the end-to-end metrics; with ``--trace 1`` it runs one untraced and
one traced pass over the same inputs and prints the per-layer metrics.  A
run does a fixed amount of work (one study call or one api pass), so
``--seconds`` is accepted and not used.
Every run checks the program's outputs first; a failed check prints
``"correct": false`` with no metrics and exits with code 1.  The last line
of standard output is the JSON result.  A record of the run (environment,
notes, spans of a traced run) is written to ``.perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402  (must pin BLAS threads before numpy loads)

envinfo.pin_threads()

#: fresh processes timed from start to "ready" for setup_s (median reported).
SETUP_SAMPLES = 3
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="accepted and not used: a run does a fixed amount of work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (one setup_s sample)")
    p.add_argument("--write-reference", action="store_true",
                   help="store the study report of the default seed")
    return p.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "mixconc" / "__init__.py").is_file():
        raise SystemExit(f"error: no mixconc sources under {src}")
    sys.path.insert(0, str(src))
    import mixconc
    if Path(mixconc.__file__).resolve().parent != (src / "mixconc").resolve():
        raise SystemExit(f"error: imported mixconc from {mixconc.__file__}")
    import workloads
    return workloads


def setup_sample(args) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--setup-only"], check=True, cwd=ROOT, timeout=120)
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.get(args.workload, OUT_DIR)
    if args.setup_only:
        workload.close(workload.setup(args.seed))
        return 0
    if args.write_reference:
        if not isinstance(workload, workloads.Study):
            raise SystemExit("error: only the study workloads have a stored reference")
        print(workload.write_reference(workload.setup(workloads.DEFAULT_SEED)))
        return 0

    env = envinfo.record(ROOT)
    setup_s, run, state = [], None, None
    try:
        state = workload.setup(args.seed)
        if not args.trace:
            setup_s = [setup_sample(args) for _ in range(SETUP_SAMPLES)]
        run = workload.trace(state) if args.trace else workload.measure(state)
    except workloads.GateFailure as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
    finally:
        if state is not None:
            workload.close(state)
    env["loadavg_after"] = os.getloadavg()

    if run is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    else:
        if not args.trace:
            run.metrics["setup_s"] = statistics.median(setup_s)
            run.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
        result = workloads.result_line(run, declared(args.trace))
    notes = {} if run is None else run.notes
    detail = {} if run is None else dict(run.detail)
    detail["trace"] = _jsonable(detail.get("trace"))
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"args": vars(args), "env": env, "setup_samples_s": setup_s,
                   "notes": notes, "result": result, **detail}, fh,
                  default=float, separators=(",", ":"))
    for key, value in notes.items():
        print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0 if run is not None else 1


def _jsonable(record):
    """Counter keys of a trace record are (layer, counter) tuples."""
    if record is None:
        return None
    return {"spans": record["spans"],
            "counts": {".".join(k): v for k, v in record["counts"].items()},
            "foreign": [(parent, _jsonable(b)) for parent, b in record["foreign"]]}


def declared(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for a traced or untraced run."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]

if __name__ == "__main__":
    sys.exit(main())
