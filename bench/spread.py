"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --workloads husimi_revival cli_scenarios random_box \
        --out bench/results/baseline_a.json

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, and checks ``correct`` on every run.
With ``--trace 1`` it does the same for the per-layer metrics.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report: "):]) for line in lines
                  if line.startswith("report: "))
    return {"result": json.loads(lines[-1]), "report": report}


# Report fields kept per run in the --out file; the environment is the
# same for every run and is kept once per workload.
KEEP = ("iterations", "wall_s", "setup_s", "untraced_wall_s",
        "err_over_tol", "check_ratios", "long_time_err", "failures",
        "descriptors", "traced_identical")


def compact(runs: list[dict], seeds: list[int]) -> dict:
    return {
        "environment": runs[0]["report"]["environment"],
        "runs": [{"seed": seed, "result": r["result"],
                  "report": {k: r["report"][k] for k in KEEP
                             if k in r["report"]}}
                 for seed, r in zip(seeds, runs)]}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write runs as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    doc = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            out = run_once(workload, seed, seconds, args.trace)
            res = out["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in
                      res["metrics"].items() if args.trace == 0),
                  flush=True)
            ok = ok and res["correct"]
            runs.append(out)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = spread(values) if len(values) >= 2 else \
                {"values": values}
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            if len(values) >= 2 and name in bounds:
                s = metrics[name]["iqr_over_median"]
                print(f"  {name}: median {metrics[name]['median']:.6g} "
                      f"{metrics[name]['unit']}, quartile spread "
                      f"{s:.3f} of median (bound {bounds[name]})")
        doc["workloads"][workload] = {"metrics": metrics,
                                      **compact(runs, args.seeds)}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
