"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--trace 0] [--out FILE]

Runs ``perfbench/run.py`` once per seed, one after another, with the
``run_seconds`` of BENCHMARK.json.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the inter-quartile
distance as a share of the median, next to the metric's bound.  ``--out``
writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else None
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        shown = "n/a" if spread is None else f"{spread:.4f}"
        print(f"{name:40s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  spread {shown}  bound {bounds.get(name)}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
