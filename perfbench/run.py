"""superkw benchmark: one workload, closed loop, every pass in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

One client runs one pass after another, each in a new child process
(``child.py``) with BLAS and OpenMP threads pinned to 1, until the next pass
would end after ``--seconds``; at least the workload's ``min_passes`` run,
unless the next pass would end after ``RUN_LIMIT_S``.  When fewer
than ``MIN_SETUPS`` passes fit, set-up-only children make up the difference,
so that ``setup_s`` is always a median of several set-ups.  The seed is passed to
the program as its ``seed``: pass i of a run uses ``seed + 1000 * i``, so
that a run samples several of the Meataxe's random paths; the workload's
inputs never change with it.  Every report is checked against
``expected.json``.

End-to-end metrics (``--trace 0``): ``pass_s``, the median wall seconds of a
pass over the workload's reports; ``setup_s``, the median seconds from
importing superkw through parsing or catalog construction and ``validate``;
``peak_rss_mb``, the median peak resident memory (MiB) of a pass's process.
Failed and attempted reports are the ``failed`` and ``attempted`` fields.

Per-layer metrics (``--trace 1``): one untraced pass, then traced passes
(at least two, all at the same seed) whose counts must agree exactly; a
mismatch is a benchmark error.  Self times are medians over the traced
passes; ``trace.overhead_s`` is traced minus untraced ``pass_s``.  Spans and
summaries go to ``perfbench/out/``.

The last line of standard output is the result as one JSON object.  Any
error (a child that crashes, a missing source tree, differing counts) exits
with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_SETUPS = 3
# no pass starts that would end after this, so that a run ends within 180 s
# even when several passes take the Meataxe's slow path
RUN_LIMIT_S = 165
SEED_STRIDE = 1000
CHILD_TIMEOUT_S = 170
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# metric names and units; layer_value reads a per-layer metric's statistic
# from the last part of its name
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def run_child(workload, seed, *extra) -> dict:
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child failed (exit {proc.returncode}): {' '.join(cmd)}\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def timed_child(workload, seed, *extra):
    t = time.perf_counter()
    res = run_child(workload, seed, *extra)
    return res, time.perf_counter() - t


# ---------------------------------------------------------------------------
# provenance


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(args, first: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
        "child_threads": THREAD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# runs


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_passes(workload, start, seconds, pass_args, min_passes=1):
    """Passes until the next one would end after ``start + seconds`` (or,
    before ``min_passes`` have run, after ``start + RUN_LIMIT_S``); pass i
    runs the child with the seed and flags ``pass_args(i)`` gives."""
    results, walls = [], []
    while True:
        seed, extra = pass_args(len(results))
        res, wall = timed_child(workload, seed, *extra)
        results.append(res | {"seed": seed})
        walls.append(wall)
        next_end = time.perf_counter() + max(walls) - start
        if next_end > (seconds if len(results) >= min_passes else RUN_LIMIT_S):
            return results


def measure(args, start) -> tuple:
    # more program seeds per run average out the seed's effect on the Meataxe
    passes = run_passes(args.workload, start, args.seconds,
                        lambda i: (args.seed + SEED_STRIDE * i, ()),
                        workloads.WORKLOADS[args.workload].min_passes)
    setups = [run_child(args.workload, args.seed, "--setup-only")
              for _ in range(MIN_SETUPS - len(passes))]
    for i, r in enumerate(passes):
        print(f"pass {i + 1} (program seed {r['seed']}): pass_s={r['pass_s']:.4f} "
              f"setup_s={r['setup_s']:.4f} peak_rss_mb={r['peak_rss_mb']:.1f} "
              f"failed={r['failed']}/{r['attempted']} "
              + " ".join(f"[{k}: {v:.3f} s]" for k, v in r["report_s"].items()))
    setup_all = [r["setup_s"] for r in setups + passes]
    pass_all = [r["pass_s"] for r in passes]
    metrics = {
        "pass_s": statistics.median(pass_all),
        "setup_s": statistics.median(setup_all),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    print(f"pass_s over {len(pass_all)} passes: quartile spread "
          f"{quartile_spread(pass_all):.4f} of the median; setup_s over "
          f"{len(setup_all)} set-ups: {quartile_spread(setup_all):.4f}")
    return metrics, passes


def deterministic_part(trace: dict) -> dict:
    return {"counts": trace["counts"], "maxima": trace["maxima"]}


def layer_value(name, traced, overhead):
    """The statistic a per-layer metric name asks for, from traced passes."""
    first = traced[0]["trace"]
    counts, maxima = first["counts"], first["maxima"]
    if name == "trace.overhead_s":
        return overhead
    span, stat = name.rsplit(".", 1)
    if stat == "calls":
        return counts.get(span, 0)
    if stat in ("self_s", "s"):
        key = "self_s" if stat == "self_s" else "inclusive_s"
        return statistics.median(t["trace"][key].get(span, 0.0) for t in traced)
    if stat == "proper_frac":
        return counts.get(f"{span}.proper", 0) / counts[span] if counts.get(span) else 0.0
    if stat == "action_bytes":
        return maxima.get(name, 0)
    return counts.get(name, 0)


def measure_traced(args, start) -> tuple:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    for name in os.listdir(OUT):
        if name.startswith(os.path.basename(stem) + "-"):
            os.remove(os.path.join(OUT, name))
    base, _ = timed_child(args.workload, args.seed)
    traced = run_passes(
        args.workload, start, args.seconds,
        lambda i: (args.seed, ("--trace", "--spans", f"{stem}-spans.json") if i == 0
                   else ("--trace",)),
        min_passes=2)
    if len(traced) < 2:
        raise BenchError(f"a second traced pass would end after {RUN_LIMIT_S} s; "
                         "counts not compared")
    ref = deterministic_part(traced[0]["trace"])
    for i, t in enumerate(traced[1:], start=2):
        if deterministic_part(t["trace"]) != ref:
            raise BenchError(f"traced pass {i} counts differ from pass 1 at seed "
                             f"{args.seed}: {deterministic_part(t['trace'])} vs {ref}")
    overhead = statistics.median(t["pass_s"] for t in traced) - base["pass_s"]
    metrics = {name: layer_value(name, traced, overhead) for name, _ in PER_LAYER}
    with open(f"{stem}-trace.json", "w", encoding="utf-8") as fh:
        json.dump({"untraced_pass_s": base["pass_s"],
                   "traced": [t["trace"] | {"pass_s": t["pass_s"]} for t in traced],
                   "per_layer": metrics}, fh, indent=1, sort_keys=True)
    print(f"traced passes: {len(traced)}, counts identical; untraced pass_s "
          f"{base['pass_s']:.4f}, traced pass_s "
          + ", ".join(f"{t['pass_s']:.4f}" for t in traced)
          + f"; spans of pass 1 in {os.path.relpath(stem, ROOT)}-spans.json")
    for name, where in traced[0]["trace"]["rebound"].items():
        print(f"rebound {name}: {', '.join(where)}")
    return metrics, [base] + traced


def run(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(sorted(workloads.WORKLOADS))}")
    if not os.path.isdir(os.path.join(ROOT, "src", "superkw")):
        raise BenchError(f"no superkw sources under {os.path.join(ROOT, 'src')}")
    start = time.perf_counter()
    if args.trace:
        values, passes = measure_traced(args, start)
        spec = PER_LAYER
    else:
        values, passes = measure(args, start)
        spec = END_TO_END
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for r in passes:
        for f in r["failures"]:
            print(f"FAILED {f['report']}: {'; '.join(f['errors'])}")
    print("provenance " + json.dumps(provenance(args, passes[0]), sort_keys=True))
    for name, unit in spec:
        print(f"{name:40s} {values[name]!r:>24} {unit}")
    print(f"{'failed_frac':40s} {failed / attempted!r:>24} ({failed} of {attempted} reports)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """The smoke workload passes its check, a tampered answer is counted as
    failed, two traced passes give identical counts, and every checker flags
    a wrong answer."""
    os.makedirs(OUT, exist_ok=True)
    ok = True

    def verdict(label, cond, detail):
        nonlocal ok
        ok = ok and cond
        print(f"{'PASS' if cond else 'FAIL'} {label}: {detail}")

    good = run_child("smoke", 0)
    verdict("smoke pass is correct", good["failed"] == 0 and good["attempted"] == 1,
            f"{good['failed']} of {good['attempted']} failed in {good['pass_s']:.3f} s")

    bad_answers = copy.deepcopy(workloads.EXPECTED)
    row = bad_answers["conjecture"]["oddheis_p3"]["per_chi"][0]
    row["geometric_factor_dims"][0] += 1
    path = os.path.join(OUT, "expected-tampered.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bad_answers, fh)
    bad = run_child("smoke", 0, "--expected", path)
    verdict("tampered answer is flagged", bad["failed"] == 1 and bad["attempted"] == 1,
            f"failed_frac {bad['failed'] / bad['attempted']}; "
            + "; ".join(e for f in bad["failures"] for e in f["errors"]))

    t1, t2 = (run_child("smoke", 0, "--trace")["trace"] for _ in range(2))
    verdict("traced counts repeat", deterministic_part(t1) == deterministic_part(t2),
            f"{sum(t1['counts'].values())} calls counted")
    check_checkers(verdict)
    return 0 if ok else 1


def check_checkers(verdict):
    """The oracle, scan and module checkers accept a right answer and flag a
    wrong one, on small inputs in this process."""
    import numpy as np

    sk = workloads.load_superkw()
    exp = workloads.EXPECTED

    def accepts_and_flags(label, check, answer, right, wrong):
        errs = check(answer, right)
        verdict(f"{label}: right answer passes", not errs, "; ".join(errs) or "no errors")
        errs = check(answer, wrong)
        verdict(f"{label}: wrong answer is flagged", bool(errs), "; ".join(errs))

    key = "gl(1|1) p=3 k=2 chi=0,1"
    g9 = sk.classical.catalog("gl(1|1)", 3, 2).algebra
    payload = sk.report.oracle_factors(g9, (0, 1), 0, 4000)
    right = exp["oracle"][key]
    accepts_and_flags("check_oracle", workloads.check_oracle, payload, right,
                      right | {"geometric_dim": right["geometric_dim"] + 1})

    scan_alg = workloads.parse_validated(sk, "osp1_2_p3k2", 0).algebra
    rep = sk.chargeom.max_exponents(scan_alg)
    right = exp["build"]["max_exponents osp1_2_p3k2"]
    accepts_and_flags("check_scan",
                      lambda r, e: workloads.check_scan(r, scan_alg.field.p, e), rep, right,
                      right | {"value": right["value"] + 1})

    # the 36-dim regular module of gl(1|1) at p=3, then one action entry
    # changed; the seeded vectors of check_module reach that entry
    g = sk.classical.catalog("gl(1|1)", 3).algebra
    chi = np.zeros(g.s_even, dtype=np.int64)
    M = sk.env.regular_module(sk.env.ReducedAlgebra(g, chi)).module
    want = {"dim": 36, "superdim": [18, 18]}
    errs = workloads.check_module(g, chi, M, want, 0)
    verdict("check_module: right module passes", not errs, "; ".join(errs) or "no errors")
    M.action[0, 0, 0] = (M.action[0, 0, 0] + 1) % 3
    errs = workloads.check_module(g, chi, M, want, 0)
    verdict("check_module: changed action entry is flagged", bool(errs), "; ".join(errs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
