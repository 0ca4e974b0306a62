"""Verification-report construction and the oracle result cache.

Reports are single JSON documents with sorted keys and no timestamps, so a
rerun with the same inputs and seed is byte-identical.  Every number that
matters carries a provenance tag: "computed" (exact linear algebra),
"oracle" (brute-force module decomposition), or "predicted" (the character
geometry formula).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import Counter
from dataclasses import asdict, fields, replace
from typing import Dict, List, Optional

import numpy as np

from .chargeom import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    SCAN_CAP,
    character_classes,
    characters,
    check_chi,
    chi_geometry,
    max_exponents,
    restrict_chi,
)
from .env import ReducedAlgebra, induce, regular_module
from .lsa import LieSuperAlgebra, Subspace, as_subalgebra, kac_odd_space
from .modules import (
    CompositionReport,
    FactorClass,
    FactorRecord,
    SuperModule,
    composition_factors,
    composition_series,
    derived_seed,
    verify_dim_form,
)

REPORT_HEADER = "superkw-report v1"
# version of the cached oracle payload, bumped when its layout or any answer
# in it changes; part of every cache key, so a cache written under another
# version is recomputed instead of served
CACHE_SCHEMA = 4
# the oracle scans every character when there are at most this many, and
# seeded samples otherwise
EXHAUSTIVE_CAP = 100


def tagged(value, provenance: str) -> Dict:
    return {"value": value, "provenance": provenance}


def _chi_list(chi) -> List[int]:
    return [int(c) for c in chi]


class CacheError(ValueError):
    """An oracle cache file that cannot be read back."""


FACTOR_KEYS = {f.name for f in fields(FactorRecord)}


def _is_payload(got) -> bool:
    """A cache entry of the shape `oracle_factors` writes: nonnegative ints
    throughout, a nonempty list of factors, each with a superdim that sums
    to its positive dim = endo_even * geometric_dim, and `dims` and
    `geometric_dims` the sorted dims and geometric dims of the factors."""
    def ints(xs):
        return isinstance(xs, list) and all(type(x) is int and x >= 0 for x in xs)

    def factor(r):
        return (isinstance(r, dict) and set(r) == FACTOR_KEYS
                and ints(r["superdim"]) and len(r["superdim"]) == 2
                and ints([r[k] for k in FACTOR_KEYS - {"superdim"}])
                and 0 < sum(r["superdim"]) == r["dim"] == r["endo_even"] * r["geometric_dim"])

    if not (isinstance(got, dict) and set(got) == {"dims", "geometric_dims", "factors"}):
        return False
    facs = got["factors"]
    return (isinstance(facs, list) and facs != [] and all(factor(r) for r in facs)
            and ints(got["dims"]) and got["dims"] == sorted(r["dim"] for r in facs)
            and ints(got["geometric_dims"])
            and got["geometric_dims"] == sorted(r["geometric_dim"] for r in facs))


class OracleCache:
    """Composition-factor results keyed by (payload schema, algebra hash,
    chi, seed, budget)."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.data: Dict[str, dict] = {}
        self.hits = 0
        if path and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:  # unreadable, bad JSON or bad UTF-8
                raise CacheError(f"unreadable cache file {path}: {exc}") from exc
            if not isinstance(data, dict):
                raise CacheError(f"cache file {path} does not hold a JSON object")
            self.data = data

    @staticmethod
    def key(algebra_hash: str, chi, seed: int, budget: int) -> str:
        blob = json.dumps(
            [CACHE_SCHEMA, algebra_hash, _chi_list(chi), seed, budget],
            separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def get(self, key: str) -> Optional[dict]:
        """The payload stored under key, None on a miss.  Raises CacheError
        when the entry does not have the shape `oracle_factors` writes."""
        got = self.data.get(key)
        if got is None:
            return None
        if not _is_payload(got):
            raise CacheError(f"cache file {self.path} holds a malformed entry {key}")
        self.hits += 1
        return got

    def put(self, key: str, payload: dict):
        self.data[key] = payload

    def save(self):
        """Write the cache atomically: a reader sees the old file or the new
        one, never a partial write."""
        if not self.path:
            return
        path = os.path.abspath(self.path)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.data, fh, sort_keys=True, indent=1)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def oracle_composition(
    g: LieSuperAlgebra, chi, seed: int, budget: int, classes: Optional[List[FactorClass]] = None
) -> CompositionReport:
    """Composition factors of the regular module of U_chi(g), in two levels.

    The factors of the regular module of U_chi(g0), g0 the even part, are
    found once.  Each of their classes S0 is then induced once, through
    p = g0 + V for an odd, g0-stable V with [V, V] = 0 (`kac_odd_space`;
    V = 0 where there is none, and p = g0):

    - U_chi(g) is free over U_chi(p), so induction from p is exact.  The
      regular module of U_chi(p) has layers Lambda^k(V) (x) U_chi(g0), and
      by the tensor identity each is a sum of copies of the regular module
      of g0, parity-shifted for odd k.  Each S0, inflated to p with V
      acting by 0, thus appears 2^(dim V - 1) times as itself and as many
      times parity-shifted, and
      [Reg g : S] = sum over S0 of [Reg g0 : S0] 2^(dim V - 1)
      ([K(S0) : S] + [Pi K(S0) : S]), for the Kac module
      K(S0) = U_chi(g) (x) over U_chi(p) of S0, of dimension
      2^(t - dim V) dim S0.  Pi K(S0) has the factors of K(S0) with their
      superdimensions reversed, so only K(S0) is decomposed.
    - With V = 0 the formula reads [Reg g : S] = sum over S0 of
      [Reg g0 : S0] [Ind S0 : S], induction from g0 itself.

    g0 is purely even, so every S0 is even and K(S0) carries the grading
    of the regular module: superdimensions and endomorphism degrees come
    out exactly.  The induced modules share one list of classes, so a
    factor that an earlier one found is recognised without the Meataxe.
    When g0 = g or g0 = 0 there is nothing to gain: the regular module is
    decomposed itself.

    `classes`, when given, receives the factor classes of g in the order
    found, as `composition_series` fills it (not those of g0)."""
    chi = check_chi(g, chi)
    if g.t_odd == 0 or g.s_even == 0:
        reg = regular_module(ReducedAlgebra(g, chi), budget).module
        return composition_factors(reg, seed, classes)
    f, s = g.field, g.s_even
    h = as_subalgebra(g, Subspace(f, s, g.n, f.eye(g.n)[:s]))
    reg0 = regular_module(ReducedAlgebra(h.alg, restrict_chi(chi, h)), budget).module
    # each class of g0 with its multiplicity, in the order found
    multiplicity = Counter(K for K, _ in composition_series(reg0, seed))
    V = kac_odd_space(g)
    p = as_subalgebra(g, h.space.sum_with(V))
    known = [] if classes is None else classes
    records = []
    for index, (K, mult) in enumerate(multiplicity.items()):
        S0 = K.module
        # inflated to p, whose even rows are g0's: g0 acts through S0, V by 0
        zero = np.zeros((V.dim, S0.dim, S0.dim), dtype=S0.action.dtype)
        base = SuperModule(alg=p.alg, chi=S0.chi, parities=S0.parities,
                           action=np.concatenate([S0.action, zero]))
        ind = induce(g, chi, p, base, budget).module
        found = composition_factors(ind, derived_seed(seed, index), known).factors
        if V.dim:
            found += [replace(r, superdim=r.superdim[::-1]) for r in found]
            mult <<= V.dim - 1
        records += found * mult
    return CompositionReport(sorted(records))


def oracle_factors(
    g: LieSuperAlgebra,
    chi,
    seed: int,
    budget: int,
    cache: Optional[OracleCache] = None,
    algebra_hash: str = "",
) -> dict:
    """Factor data of the regular module, through the cache when given."""
    key = OracleCache.key(algebra_hash, chi, seed, budget) if cache else None
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    rep = oracle_composition(g, chi, seed, budget)
    payload = {
        "dims": rep.dims,
        "geometric_dims": rep.geometric_dims,
        # one entry per FactorRecord, its fields as keys (`FACTOR_KEYS`)
        "factors": [dict(asdict(r), superdim=list(r.superdim)) for r in rep.factors],
    }
    if cache is not None:
        cache.put(key, payload)
    return payload


def chi_verdict(g: LieSuperAlgebra, chi, payload: dict) -> dict:
    """The per-character fields of a report: block ranks and the predicted
    dimension from the character geometry, the oracle's factors, and the
    verdicts comparing the two."""
    geo = chi_geometry(g, chi)
    gd = payload["geometric_dims"]
    predicted = geo.value(g.field.p)
    return {
        "chi": _chi_list(chi),
        "b0": tagged(geo.even_rank, "computed"),
        "b1": tagged(geo.odd_rank, "computed"),
        "exp_pair": [geo.exp_pair.even, geo.exp_pair.odd],
        "predicted_dim": tagged(predicted, "predicted"),
        "factor_dims": tagged(payload["dims"], "oracle"),
        "geometric_factor_dims": tagged(gd, "oracle"),
        "factors": payload["factors"],
        "equidimensional": len(set(gd)) <= 1,
        "thm_agrees": all(d == predicted for d in gd),
        "dim_form_ok": verify_dim_form(gd, g.field.p),
        "kw_divisible": all(int(d) % predicted == 0 for d in gd),
    }


def mdim_fragment(g: LieSuperAlgebra, strategy, seed, samples) -> dict:
    rep = max_exponents(g, strategy=strategy, seed=seed, samples=samples)
    return {
        "pairs": [[pr.even, pr.odd] for pr in rep.pairs],
        "witnesses": [_chi_list(w) for w in rep.witnesses],
        "value": tagged(rep.value(g.field.p), "computed"),
        "exhaustive": rep.exhaustive,
        "scanned": rep.scanned,
        "b0_max": tagged(rep.b0_max, "computed"),
        "b1_max": tagged(rep.b1_max, "computed"),
        "simultaneous_witness": (
            _chi_list(rep.simultaneous_witness)
            if rep.simultaneous_witness is not None
            else None
        ),
    }


def _chi_scan_set(g, mdim_frag, strategy, samples, seed):
    """Characters fed to the oracle, sorted and without repeats: the zero
    character, every maximizer witness, and either the full space (when
    small) or seeded samples."""
    f = g.field
    s = g.s_even
    exhaustive = strategy == "exhaustive" and f.q**s <= EXHAUSTIVE_CAP
    keys = {(0,) * s, *map(tuple, mdim_frag["witnesses"])}
    keys.update(tuple(map(int, chi)) for chi in characters(f, s, exhaustive, samples, seed))
    return [np.array(k, dtype=np.int64) for k in sorted(keys)], exhaustive


def conjecture_report(
    af,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    strategy: str = "exhaustive",
    samples: int = 8,
    cache: Optional[OracleCache] = None,
) -> dict:
    """Full per-character scan: geometry, oracle factors, equidimensionality
    and divisibility probes, and the maximal-dimension comparison.

    The scanned characters fall into classes under the restricted
    automorphisms (`chargeom.character_classes`), and every field of a
    verdict but `chi` is constant on a class.  So the oracle runs once per
    class, at its representative (the first character of the class in scan
    order): a `MeataxeFailure` names that character, and the cache holds
    the representatives' payloads only.  Every member gets a copy of the
    representative's verdict with its own `chi`."""
    g = af.algebra
    f = g.field
    p = f.p
    algebra_hash = af.content_hash()
    dim_total = p**g.s_even * 2**g.t_odd
    if dim_total > budget:
        raise BudgetExceeded(
            f"regular module dimension {dim_total} exceeds budget {budget}")
    mfrag = mdim_fragment(g, "exhaustive" if f.q**g.s_even <= SCAN_CAP else "random",
                          seed, samples=max(samples, 64))
    chis, exhaustive = _chi_scan_set(g, mfrag, strategy, samples, seed)
    # representative index -> its verdict; a representative comes first in
    # its class, so its verdict is built before any member needs it
    verdicts = {}
    per_chi = []
    for i, (chi, rep) in enumerate(zip(chis, character_classes(g, chis))):
        if rep == i:
            payload = oracle_factors(g, chi, seed, budget, cache, algebra_hash)
            verdicts[i] = chi_verdict(g, chi, payload)
        per_chi.append(dict(verdicts[rep], chi=_chi_list(chi)))
    max_factor = max((max(row["geometric_factor_dims"]["value"]) for row in per_chi),
                     default=0)
    mval = mfrag["value"]["value"]
    status = "agree" if max_factor == mval else "disagree"
    return {
        "format": REPORT_HEADER,
        "conventions": {
            "floor_ceiling": "standard; the odd exponent of a character is "
            "ceil(b1/2) and the odd isotropy entry is floor((t + z1)/2)",
            "factor_dims": "raw over the working field; geometric_dims divide "
            "out the even endomorphism degree",
        },
        "algebra": {
            "hash": algebra_hash,
            "p": p,
            "k": f.k,
            "modulus": list(f.modulus),
            "superdim": [g.s_even, g.t_odd],
            "names": list(g.names),
        },
        "seed": seed,
        "budget": budget,
        "scan": {
            "strategy": strategy,
            "samples": samples,
            "exhaustive": exhaustive,
            "count": len(chis),
        },
        "mdim": mfrag,
        "per_chi": per_chi,
        "conjecture": {
            "max_factor_dim": tagged(max_factor, "oracle"),
            "mdim_value": tagged(mval, "computed"),
            "status": status,
        },
    }


def render_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
