"""One set-up and one pass of a workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N [--setup-only]
        [--trace] [--spans PATH] [--expected PATH]

Prints one JSON object: set-up seconds, pass seconds, per-report seconds,
reports attempted and failed (with the reasons), and the process's peak
resident memory.  With ``--trace`` it adds the per-layer counts and times
and writes the spans to ``--spans``.  ``run.py`` starts this program; run
on its own it is a quick way to look at one pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def blas_info(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps.get(k, {}).get("name", "") + " " + str(deps.get(k, {}).get("version", ""))
                for k in ("blas", "lapack")}
    except (KeyError, TypeError, ValueError):
        return {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--expected", help="answers file (default: expected.json)")
    args = ap.parse_args(argv)

    expected = workloads.EXPECTED
    if args.expected:
        with open(args.expected, encoding="utf-8") as fh:
            expected = json.load(fh)
    wl = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    sk = workloads.load_superkw()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    inputs = wl.setup(sk, args.seed)
    setup_s = time.perf_counter() - t0

    import numpy as np

    out = {"setup_s": setup_s, "numpy": np.__version__, "blas": blas_info(np)}
    if not args.setup_only:
        report_s, failures, attempted = {}, [], 0
        for rid, (label, compute, check) in enumerate(
                wl.reports(sk, inputs, args.seed, expected)):
            attempted += 1
            if tracer:
                tracer.report_id, tracer.enabled = rid, True
            t = time.perf_counter()
            try:
                result = compute()
                errs = None
            except Exception as exc:  # a raised report is a failed report
                result, errs = None, [f"raised {type(exc).__name__}: {exc}"]
            report_s[label] = time.perf_counter() - t
            if tracer:
                tracer.enabled = False
            if errs is None:
                errs = check(result)
            del result
            if errs:
                failures.append({"report": label, "errors": errs[:5]})
        out.update(pass_s=sum(report_s.values()), report_s=report_s,
                   attempted=attempted, failed=len(failures), failures=failures)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        out["trace"] = tracer.summary()
        out["trace"]["rebound"] = dict(tracer.rebound)
        if args.spans:
            tracer.write_spans(args.spans, t0)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
