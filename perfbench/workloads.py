"""The benchmark's workloads: fixed inputs, one pass of reports, and the checks.

Each workload has a ``setup`` (what a user pays before the first answer:
parsing or catalog construction, then ``validate``) and a list of reports.
A report is a callable whose result is checked against ``expected.json``,
which holds the mathematically known answers.  The program seed steers the
Meataxe's random choices and the sampled axiom checks, never the answer.

``min_passes`` is the fewest passes a run makes whatever ``--seconds``
says.  On ``oracle-nonsplit`` a pass's time depends on the program seed:
the Meataxe's path for osp1_2_p3 at chi=(1,1,0) takes 4-6.5 s at most seeds
and 20-46 s at about one in ten, so six passes keep the median of a run
steady and keep up to two slow seeds from setting it.  ``build-large``
does the same work at every seed, so two passes suffice; where one pass
fills a run, it is 1.

Only public entry points of ``superkw`` are used.  ``superkw`` is imported
inside ``load_superkw`` so that the import is part of the timed set-up.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALGEBRAS = os.path.join(ROOT, "algebras")

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def load_superkw():
    """Import the layers the benchmark drives (every module of the package,
    so that tracing can rebind names in all of them)."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    names = ["gflin", "lsa", "modules", "env", "chargeom", "classical",
             "solvable", "penv", "lsafile", "report"]
    return SimpleNamespace(**{n: importlib.import_module(f"superkw.{n}") for n in names})


def _chi_key(chi) -> str:
    return ",".join(str(int(c)) for c in chi)


def algebra_label(source) -> str:
    return source if isinstance(source, str) else "{} p={} k={}".format(*source)


def parse_validated(sk, name, seed):
    """Parse a file of ``algebras/`` and validate it, as a user's run does."""
    af = sk.lsafile.parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa"))
    bad = af.algebra.validate(seed=seed)
    if bad:
        raise RuntimeError(f"{name} fails validation: {bad[0]}")
    return af


def load_algebra(sk, source, seed):
    """A file of ``algebras/`` (a name), or a catalog entry (a ``(name, p, k)``
    triple), which validates the algebra itself."""
    if isinstance(source, str):
        return parse_validated(sk, source, seed).algebra
    return sk.classical.catalog(*source).algebra


# ---------------------------------------------------------------------------
# conjecture: what `superkw conjecture FILE` does, report plus rendering


class ConjectureWorkload:
    min_passes = 1

    def __init__(self, files):
        self.files = files

    def setup(self, sk, seed):
        return [(name, parse_validated(sk, name, seed)) for name in self.files]

    def reports(self, sk, inputs, seed, expected):
        for name, af in inputs:
            def run(af=af):
                doc = sk.report.conjecture_report(af, seed=seed)
                return doc, sk.report.render_report(doc)
            yield name, run, lambda out, name=name: check_conjecture(
                out, expected["conjecture"][name])


def check_conjecture(out, exp) -> list:
    doc, text = out
    errs = []
    if json.loads(text) != doc:
        errs.append("rendered report does not parse back to the report")
    status = doc["conjecture"]["status"]
    if status != exp["status"]:
        errs.append(f"status {status}, expected {exp['status']}")
    mval = doc["mdim"]["value"]["value"]
    if mval != exp["mdim_value"]:
        errs.append(f"M(g) = {mval}, expected {exp['mdim_value']}")
    got = [[row["chi"], row["factor_dims"]["value"],
            row["geometric_factor_dims"]["value"]] for row in doc["per_chi"]]
    want = [[row["chi"], row["factor_dims"], row["geometric_factor_dims"]]
            for row in exp["per_chi"]]
    if [g[0] for g in got] != [w[0] for w in want]:
        errs.append("scanned characters differ from the expected list")
    else:
        for g, w in zip(got, want):
            if g != w:
                errs.append(f"chi={g[0]}: factors {g[1]} / geometric {g[2]}, "
                            f"expected {w[1]} / {w[2]}")
    return errs


# ---------------------------------------------------------------------------
# oracle: brute-force decomposition at characters with non-split factors


class OracleWorkload:
    def __init__(self, cases, min_passes):
        self.cases = cases  # (algebra source, chi)
        self.min_passes = min_passes

    def setup(self, sk, seed):
        return [(algebra_label(src), load_algebra(sk, src, seed), chi)
                for src, chi in self.cases]

    def reports(self, sk, inputs, seed, expected):
        for label, g, chi in inputs:
            key = f"{label} chi={_chi_key(chi)}"
            yield (key,
                   lambda g=g, chi=chi: sk.report.oracle_factors(g, chi, seed, 4000),
                   lambda out, key=key: check_oracle(out, expected["oracle"][key]))


def check_oracle(payload, exp) -> list:
    errs = []
    total = sum(payload["dims"])
    if total != exp["regular_dim"]:
        errs.append(f"factor dimensions sum to {total}, expected {exp['regular_dim']}")
    for fac in payload["factors"]:
        got = (fac["dim"], fac["endo_even"], fac["geometric_dim"])
        want = (exp["factor_dim"], exp["endo_even"], exp["geometric_dim"])
        if got != want:
            errs.append(f"factor (dim, endo_even, geometric_dim) = {got}, expected {want}")
            break
    return errs


# ---------------------------------------------------------------------------
# build: regular modules of the largest catalog algebra, and a character scan


class BuildWorkload:
    min_passes = 2

    def __init__(self, source, chis, scan_source):
        self.source, self.chis, self.scan_source = source, chis, scan_source

    def setup(self, sk, seed):
        return load_algebra(sk, self.source, seed), load_algebra(sk, self.scan_source, seed)

    def reports(self, sk, inputs, seed, expected):
        import numpy as np

        g, scan_alg = inputs
        for chi in self.chis:
            key = f"{algebra_label(self.source)} chi={_chi_key(chi)}"
            chi_arr = np.array(chi, dtype=np.int64)
            yield (key,
                   lambda chi_arr=chi_arr: sk.env.regular_module(
                       sk.env.ReducedAlgebra(g, chi_arr)).module,
                   lambda M, key=key, chi_arr=chi_arr: check_module(
                       g, chi_arr, M, expected["build"][key], seed))
        key = f"max_exponents {algebra_label(self.scan_source)}"
        yield (key,
               lambda: sk.chargeom.max_exponents(scan_alg),
               lambda rep, key=key: check_scan(rep, scan_alg.field.p,
                                               expected["build"][key]))


def check_module(g, chi, M, exp, seed, nvec=3) -> list:
    """Dimension, superdimension, and the bracket and p-character relations
    applied to a few seeded random vectors (the full dim^3 check is too slow).
    Plain numpy arithmetic mod p, so that a traced run does not count it."""
    import numpy as np

    if M.dim != exp["dim"] or list(M.superdim) != exp["superdim"]:
        return [f"dim {M.dim} superdim {list(M.superdim)}, expected "
                f"{exp['dim']} {exp['superdim']}"]
    f = g.field
    if f.k != 1:
        return ["spot check supports prime fields only"]
    p, n = f.p, g.n
    rng = np.random.default_rng(seed)
    V = rng.integers(0, p, size=(M.dim, nvec)).astype(np.float64)

    def act(i, X):
        # float64 products are exact: entries < p, sums far below 2^53
        return np.rint(M.action[i] @ X) % p

    AV = [act(i, V) for i in range(n)]
    # AAV[i][j] = rho(x_i) rho(x_j) V, one product per generator
    AAV = [np.split(act(i, np.hstack(AV)), n, axis=1) for i in range(n)]

    def rho_v(x):
        return sum(int(c) * AV[l] for l, c in enumerate(x) if c) % p \
            if np.any(x) else np.zeros_like(V)

    for i in range(n):
        for j in range(n):
            sign = 1 if g.parities[i] * g.parities[j] % 2 else -1
            rhs = (AAV[i][j] + sign * AAV[j][i]) % p
            if not np.array_equal(rho_v(g.structure[i, j]), rhs):
                return [f"bracket relation fails for generators {i}, {j}"]
    if g.pmap is not None:
        for i in range(g.s_even):
            lhs = V
            for _ in range(p):
                lhs = act(i, lhs)
            rhs = (rho_v(g.pmap[i]) + pow(int(chi[i]), p, p) * V) % p
            if not np.array_equal(lhs, rhs):
                return [f"p-character relation fails for generator {i}"]
    return []


def check_scan(rep, p, exp) -> list:
    got = {
        "value": rep.value(p),
        "pairs": [[pr.even, pr.odd] for pr in rep.pairs],
        "scanned": rep.scanned,
        "exhaustive": rep.exhaustive,
        "b0_max": rep.b0_max,
        "b1_max": rep.b1_max,
    }
    return [f"{k} = {got[k]}, expected {exp[k]}" for k in exp if got[k] != exp[k]]


# ---------------------------------------------------------------------------

WORKLOADS = {
    # the command users run; many spins of small modules, so per-call
    # overhead in `modules` and `gflin` dominates
    "conjecture-small": ConjectureWorkload(
        ["oddheis_p3", "gl1_1_p3", "heis_p3", "solv2_p5"]),
    # factors that are not absolutely irreducible: Meataxe kernel search,
    # endomorphism degree, and GF(9) arithmetic.  osp(1|2) over GF(9) at
    # chi=(1,0,0) would take 20 s a pass; gl(1|1) over GF(9) keeps a pass
    # short enough for several per run
    "oracle-nonsplit": OracleWorkload(
        [("osp1_2_p3", (1, 1, 0)), (("gl(1|1)", 3, 2), (0, 1))], min_passes=6),
    # straightening, induction and the dense action tensor; no Meataxe
    "build-large": BuildWorkload(
        ("sl(2|1)", 3, 1), [(0, 0, 0, 0), (1, 0, 0, 0)], "osp1_2_p3k2"),
    # self-test: a few seconds end to end
    "smoke": ConjectureWorkload(["oddheis_p3"]),
    # the Artin-Schreier case: the expected answer is the theory's (geometric
    # dimension 5); the program reports 25 today, so this workload fails
    "oracle-sl2": OracleWorkload([("sl2_p5", (1, 0, 0))], min_passes=1),
}
