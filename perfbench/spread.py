"""Spread of the benchmark's end-to-end metrics between seeds.

    python3 perfbench/spread.py --workload NAME --seeds 0-9

Runs ``run.py`` untraced for ``run_seconds`` of ``BENCHMARK.json``, once per
seed, one run after another, and prints for every metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median, against the metric's bound.  The table is also
written to ``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    args = ap.parse_args(argv)

    seconds = run.BENCH["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in run.BENCH["end_to_end"]}

    values, runs = {}, []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **res})
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    table = {}
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        spread = run.quartile_spread(vals)
        bound = bounds[name]
        table[name] = {"median": med, "spread": spread, "bound": bound, "values": vals}
        verdict = ("within a third" if spread < bound / 3 else
                   "within bound" if spread <= bound else "OVER BOUND")
        print(f"{name:16s} median {med:14.6g}  spread {spread:.4f}  bound {bound}: {verdict}")
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, f"spread-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                   "table": table}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
