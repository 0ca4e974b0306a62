"""Line-oriented algebra file format (version header `superkw-lsa v1`).

Grammar, one directive per line, `#` comments and blank lines ignored:

    superkw-lsa v1
    field p=<prime> k=<degree>
    modulus <c0>,<c1>,...,<ck>          # optional; defaults to the built-in table
    basis <name> <even|odd>             # even entries must precede odd ones
    bracket <ni> <nj> [<nl>:<scalar>]*  # [x_i, x_j]; omitted pairs are zero
    pmap <ni> [<nl>:<scalar>]*          # p-th power of an even basis element
    triangular cartan <names> plus <names> minus <names>   # comma-separated

A scalar is the wire form of a field element: k integers in [0, p),
little-endian in the power basis, comma-separated (a single integer when
k = 1).  Entries with i <= j are authoritative; a (j, i) line, if present,
must agree with the sign rule.  If any pmap line is present the algebra is
restricted and unlisted even elements get p-value zero; with no pmap block
the algebra is a plain Lie superalgebra.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .classical import TriangularData, triangular_data
from .gflin import Field
from .lsa import LieSuperAlgebra

FORMAT_HEADER = "superkw-lsa v1"


class LsaParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class AlgebraFile:
    algebra: LieSuperAlgebra
    triangular: Optional[TriangularData]

    def content_hash(self) -> str:
        """Hash of the canonical serialization, not of the raw input."""
        canon = write_lsa(self.algebra, self.triangular)
        return hashlib.sha256(canon.encode()).hexdigest()


def _parse_digits(f: Field, text: str, line_no: int) -> List[int]:
    """The power-basis digits of a serialized scalar."""
    parts = text.split(",")
    if len(parts) != f.k:
        raise LsaParseError(
            line_no, f"scalar needs {f.k} coordinates in [0,{f.p}), got {text!r}")
    coords = []
    for part in parts:
        try:
            v = int(part)
        except ValueError:
            raise LsaParseError(line_no, f"malformed coefficient {part!r}")
        if not 0 <= v < f.p:
            raise LsaParseError(
                line_no, f"coefficient {v} outside [0,{f.p})")
        coords.append(v)
    return coords


def _parse_terms(f: Field, parts: List[str], names: Dict[str, int], n: int, line_no: int) -> np.ndarray:
    digits = np.zeros((n, f.k), dtype=np.int64)
    for term in parts:
        if ":" not in term:
            raise LsaParseError(line_no, f"term {term!r} is not name:scalar")
        name, _, sc = term.partition(":")
        if name not in names:
            raise LsaParseError(line_no, f"unknown basis name {name!r}")
        digits[names[name]] = _parse_digits(f, sc, line_no)
    return f.undigits(digits)


def parse_lsa(text: str) -> AlgebraFile:
    lines = text.splitlines()
    stripped = [(i + 1, ln.split("#", 1)[0].strip()) for i, ln in enumerate(lines)]
    content = [(no, ln) for no, ln in stripped if ln]
    if not content or content[0][1] != FORMAT_HEADER:
        no = content[0][0] if content else 1
        raise LsaParseError(no, f"missing header {FORMAT_HEADER!r}")
    field: Optional[Field] = None
    modulus: Optional[List[int]] = None
    basis: List[Tuple[str, int]] = []
    names: Dict[str, int] = {}
    bracket_lines: List[Tuple[int, str, str, List[str]]] = []
    pmap_lines: List[Tuple[int, str, List[str]]] = []
    tri_line: Optional[Tuple[int, List[str]]] = None
    p = k = None

    for no, ln in content[1:]:
        parts = ln.split()
        head = parts[0]
        if head == "field":
            kv = dict(part.split("=", 1) for part in parts[1:] if "=" in part)
            try:
                p, k = int(kv["p"]), int(kv["k"])
            except (KeyError, ValueError):
                raise LsaParseError(no, "field line must be 'field p=<int> k=<int>'")
        elif head == "modulus":
            if len(parts) != 2:
                raise LsaParseError(no, "modulus line takes one comma-separated list")
            try:
                modulus = [int(x) for x in parts[1].split(",")]
            except ValueError:
                raise LsaParseError(no, "malformed modulus coefficients")
        elif head == "basis":
            if len(parts) != 3 or parts[2] not in ("even", "odd"):
                raise LsaParseError(no, "basis line must be 'basis <name> <even|odd>'")
            if parts[1] in names:
                raise LsaParseError(no, f"duplicate basis name {parts[1]!r}")
            par = 0 if parts[2] == "even" else 1
            if basis and par < basis[-1][1]:
                raise LsaParseError(no, "even basis elements must precede odd ones")
            names[parts[1]] = len(basis)
            basis.append((parts[1], par))
        elif head == "bracket":
            if len(parts) < 3:
                raise LsaParseError(no, "bracket line needs two basis names")
            bracket_lines.append((no, parts[1], parts[2], parts[3:]))
        elif head == "pmap":
            if len(parts) < 2:
                raise LsaParseError(no, "pmap line needs a basis name")
            pmap_lines.append((no, parts[1], parts[2:]))
        elif head == "triangular":
            tri_line = (no, parts[1:])
        else:
            raise LsaParseError(no, f"unknown directive {head!r}")

    if p is None:
        raise LsaParseError(1, "missing field line")
    try:
        field = Field(p, k, modulus) if modulus else Field(p, k)
    except Exception as exc:
        raise LsaParseError(1, f"invalid field: {exc}")
    n = len(basis)
    if n == 0:
        raise LsaParseError(1, "no basis elements")
    parities = [par for _, par in basis]

    structure = np.zeros((n, n, n), dtype=np.int64)
    given = {}
    for no, ni, nj, terms in bracket_lines:
        if ni not in names or nj not in names:
            raise LsaParseError(no, f"unknown basis name in bracket {ni!r},{nj!r}")
        i, j = names[ni], names[nj]
        vec = _parse_terms(field, terms, names, n, no)
        if (i, j) in given:
            raise LsaParseError(no, f"duplicate bracket entry ({ni},{nj})")
        given[(i, j)] = (no, vec)
    # every i <= j entry first; the mirror before the entry itself, so that
    # an (i, i) line keeps its own value
    for (i, j), (no, vec) in sorted(given.items(), key=lambda e: (e[0][0] > e[0][1], e[0])):
        if i > j and (j, i) in given:
            if not np.array_equal(structure[i, j], vec):
                raise LsaParseError(
                    no,
                    f"bracket ({basis[i][0]},{basis[j][0]}) disagrees with the "
                    "sign rule applied to the (i,j) entry")
            continue
        sign_neg = (parities[i] * parities[j]) % 2 == 0
        structure[j, i] = field.neg_arr(vec) if sign_neg else vec
        structure[i, j] = vec

    pmap = None
    if pmap_lines:
        s = sum(1 for par in parities if par == 0)
        pmap = np.zeros((s, n), dtype=np.int64)
        for no, ni, terms in pmap_lines:
            if ni not in names:
                raise LsaParseError(no, f"unknown basis name {ni!r}")
            i = names[ni]
            if parities[i] != 0:
                raise LsaParseError(no, f"pmap entry for odd element {ni!r}")
            pmap[i] = _parse_terms(field, terms, names, n, no)

    try:
        alg = LieSuperAlgebra(field, [nm for nm, _ in basis], parities, structure, pmap)
    except Exception as exc:
        raise LsaParseError(1, f"inconsistent algebra data: {exc}")

    tri = None
    if tri_line is not None:
        no, parts = tri_line
        spec = {}
        it = iter(parts)
        for key in it:
            try:
                val = next(it)
            except StopIteration:
                raise LsaParseError(no, "triangular line has a dangling keyword")
            spec[key] = val
        for key in ("cartan", "plus", "minus"):
            if key not in spec:
                raise LsaParseError(no, f"triangular line missing {key!r}")

        def block(key):
            idxs = []
            for nm in spec[key].split(","):
                if nm not in names:
                    raise LsaParseError(no, f"unknown basis name {nm!r} in triangular")
                idxs.append(names[nm])
            return idxs

        cart, plus, minus = block("cartan"), block("plus"), block("minus")
        covered = sorted(cart + plus + minus)
        if covered != list(range(n)):
            raise LsaParseError(no, "triangular blocks must partition the basis")
        tri = triangular_data(alg, cart, plus, minus)
    return AlgebraFile(alg, tri)


def parse_lsa_path(path: str) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lsa(fh.read())


def write_lsa(g: LieSuperAlgebra, tri: Optional[TriangularData] = None) -> str:
    """Canonical serialization; stable for hashing and golden files."""
    f = g.field

    def terms(vec):
        digits = f.digits(vec).tolist()
        return " ".join(f"{g.names[l]}:" + ",".join(map(str, digits[l]))
                        for l in np.nonzero(vec)[0])

    out = [FORMAT_HEADER, f"field p={f.p} k={f.k}"]
    if f.k > 1:
        out.append("modulus " + ",".join(str(c) for c in f.modulus))
    for i, nm in enumerate(g.names):
        out.append(f"basis {nm} {'even' if g.parities[i] == 0 else 'odd'}")
    for i in range(g.n):
        for j in range(i, g.n):
            vec = g.structure[i, j]
            if np.any(vec):
                out.append(f"bracket {g.names[i]} {g.names[j]} {terms(vec)}")
    if g.pmap is not None:
        for i in range(g.s_even):
            vec = g.pmap[i]
            if np.any(vec):
                out.append(f"pmap {g.names[i]} {terms(vec)}")
            else:
                out.append(f"pmap {g.names[i]}")
    if tri is not None:
        def block(S):
            idxs = []
            for row in S.basis:
                nz = np.nonzero(row)[0]
                idxs.append(g.names[nz[0]])
            return ",".join(idxs)

        out.append(
            f"triangular cartan {block(tri.cartan)} plus {block(tri.n_plus)} "
            f"minus {block(tri.n_minus)}"
        )
    return "\n".join(out) + "\n"
