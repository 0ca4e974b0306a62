"""Command-line surface.

Exit codes: 0 clean, 1 mathematical violation or disagreement found,
2 budget exhausted, 3 input error.  All commands are deterministic for a
fixed (file, flags, seed) triple.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .chargeom import BudgetExceeded
from .classical import CatalogError, baby_verma, catalog
from .gflin import FieldError
from .lsa import LsaError, NeedsFieldExtension
from .lsafile import LsaParseError, parse_lsa_path, write_lsa
from .modules import MeataxeFailure, is_graded_irreducible, validate_module
from .penv import minimal_p_envelope, verify_envelope
from .report import (
    CacheError,
    OracleCache,
    conjecture_report,
    mdim_fragment,
    render_report,
)
from .solvable import ConstructionFailure, construct_irreducible

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


def _load(path: str):
    try:
        return parse_lsa_path(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except LsaParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load_valid(args):
    """The parsed args.file; a violated axiom of its algebra exits 1."""
    af = _load(args.file)
    bad = af.algebra.validate(seed=args.seed)
    if bad:
        print(f"INVALID input algebra: {bad[0]}", file=sys.stderr)
        raise SystemExit(EXIT_VIOLATION)
    return af


def _parse_chi(text: str, expected: int, q: int) -> np.ndarray:
    try:
        vals = [int(v) for v in text.split(",")]
    except ValueError:
        print(f"error: malformed character {text!r}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    if len(vals) != expected:
        print(
            f"error: character needs {expected} values, got {len(vals)}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_INPUT)
    if any(not 0 <= v < q for v in vals):
        print(f"error: character values must be field codes in [0, {q})",
              file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    return np.array(vals, dtype=np.int64)


def _sample_count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    af = _load(args.file)
    violations = af.algebra.validate(seed=args.seed)
    if violations:
        for v in violations:
            print(str(v))
        print(f"INVALID: {len(violations)} violation(s)")
        return EXIT_VIOLATION
    print(f"OK: dimensions ({af.algebra.s_even}|{af.algebra.t_odd}), "
          f"restricted={af.algebra.restricted}")
    return EXIT_OK


def cmd_mdim(args) -> int:
    g = _load_valid(args).algebra
    frag = mdim_fragment(g, args.strategy, args.budget, args.seed, args.samples)
    p = g.field.p
    lines = []
    for (m, n), w in zip(frag["pairs"], frag["witnesses"]):
        lines.append(
            f"M = {p}^{m}*2^{n} = {p**m * 2**n}  witness chi = "
            + ",".join(str(c) for c in w)
        )
    lines.append(f"exhaustive = {frag['exhaustive']}  scanned = {frag['scanned']}")
    lines.append(
        f"b0_max = {frag['b0_max']['value']}  b1_max = {frag['b1_max']['value']}  "
        f"simultaneous_witness = "
        + (
            ",".join(str(c) for c in frag["simultaneous_witness"])
            if frag["simultaneous_witness"] is not None
            else "none"
        )
    )
    _emit("\n".join(lines) + "\n", args.report)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    af = _load_valid(args)
    try:
        cache = OracleCache(args.cache) if args.cache else None
    except CacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    doc = conjecture_report(
        af,
        seed=args.seed,
        budget=args.budget,
        strategy=args.strategy,
        samples=args.samples,
        cache=cache,
    )
    if cache is not None:
        cache.save()
    _emit(render_report(doc), args.report)
    return EXIT_OK if doc["conjecture"]["status"] == "agree" else EXIT_VIOLATION


def cmd_solvable_irr(args) -> int:
    g = _load_valid(args).algebra
    chi = _parse_chi(args.chi, g.s_even, g.field.q)
    try:
        M, trace = construct_irreducible(
            g, chi, seed=args.seed, ext_cap=args.ext_cap, budget=args.budget
        )
    except (ConstructionFailure, LsaError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    irr = is_graded_irreducible(M, args.seed)
    lines = [
        f"dim = {M.dim}  superdim = ({M.superdim[0]}|{M.superdim[1]})",
        f"irreducible = {irr}",
        f"route = {trace.terminal}  fallback = {trace.fallback}  "
        f"extension_degree = {trace.extension_degree}",
    ]
    for i, st in enumerate(trace.steps):
        lines.append(
            f"step {i}: ideal {st.ideal_dim} stabilizer {st.stabilizer_dim} "
            f"codims {st.codims}"
        )
    _emit("\n".join(lines) + "\n", args.report)
    return EXIT_OK if irr else EXIT_VIOLATION


def cmd_baby_verma(args) -> int:
    try:
        entry = catalog(args.algebra, args.p, args.k)
    except (CatalogError, FieldError) as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    g, tri = entry.algebra, entry.triangular
    if tri is None:
        print(f"error: {args.algebra} has no triangular decomposition", file=sys.stderr)
        return EXIT_INPUT
    chi = _parse_chi(args.chi, g.s_even, g.field.q)
    lam = _parse_chi(args.lam, tri.cartan.dim, g.field.q)
    try:
        ind = baby_verma(g, tri, chi, lam, budget=args.budget)
    except LsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    M = ind.module
    irr = is_graded_irreducible(M, args.seed)
    ok_mod = not validate_module(M)
    _emit(
        f"dim = {M.dim}  superdim = ({M.superdim[0]}|{M.superdim[1]})\n"
        f"module_valid = {ok_mod}\nirreducible = {irr}\n",
        args.report,
    )
    return EXIT_OK if ok_mod else EXIT_VIOLATION


def cmd_penv(args) -> int:
    af = _load(args.file)
    g = af.algebra
    env = minimal_p_envelope(g)
    violations = verify_envelope(g, env)
    text = write_lsa(env.algebra)
    header = (
        f"# dim = {env.algebra.n}  added_even = {env.added_even}  "
        f"verified = {not violations}\n"
        "# convention: p-values over the retained center are fixed to zero\n"
    )
    _emit(header + text, args.report)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 3, not argparse's 2, which the
    exit-code contract reserves for an exhausted budget."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="superkw",
        description="Workbench for restricted Lie superalgebras over GF(p^k): "
        "character geometry, reduced enveloping algebras, and "
        "maximal-irreducible-dimension checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # each flag is registered only on the commands that read it
    def common(sp, with_file=True):
        if with_file:
            sp.add_argument("file", help="algebra file (superkw-lsa v1)")
        sp.add_argument("--report", default=None, help="write output to a file")

    def seed(sp):
        sp.add_argument("--seed", type=int, default=0)

    def budget(sp):
        sp.add_argument("--budget", type=int, default=4000)

    sp = sub.add_parser("validate", help="check the axioms of an algebra file")
    common(sp)
    seed(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("mdim", help="maximal-dimension invariant scan")
    common(sp)
    seed(sp)
    budget(sp)
    sp.add_argument("--strategy", choices=["exhaustive", "random"], default="exhaustive")
    sp.add_argument("--samples", type=_sample_count, default=200)
    sp.set_defaults(func=cmd_mdim)

    sp = sub.add_parser("conjecture", help="full per-character verification report")
    common(sp)
    seed(sp)
    budget(sp)
    sp.add_argument("--strategy", choices=["exhaustive", "random"], default="exhaustive")
    sp.add_argument("--samples", type=_sample_count, default=8)
    sp.add_argument("--cache", default=None, help="oracle result cache file")
    sp.set_defaults(func=cmd_conjecture)

    sp = sub.add_parser("solvable-irr", help="construct an irreducible module")
    common(sp)
    seed(sp)
    budget(sp)
    sp.add_argument("--ext-cap", dest="ext_cap", type=int, default=4)
    sp.add_argument("--chi", required=True, help="comma-separated even values")
    sp.set_defaults(func=cmd_solvable_irr)

    sp = sub.add_parser("baby-verma", help="induced highest-weight module")
    common(sp, with_file=False)
    seed(sp)
    budget(sp)
    sp.add_argument("--algebra", required=True, help="catalog name, e.g. gl(1|1)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--chi", required=True)
    sp.add_argument("--lam", "--lambda", dest="lam", required=True)
    sp.set_defaults(func=cmd_baby_verma)

    sp = sub.add_parser("penv", help="minimal p-envelope of a Lie superalgebra file")
    common(sp)
    sp.set_defaults(func=cmd_penv)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code)
    except NeedsFieldExtension as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (BudgetExceeded, MeataxeFailure) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
