"""Spans and counts around superkw's layer entry points, installed at run time.

Nothing under ``src/`` knows about this module: ``install`` rebinds module
attributes and class methods to recording wrappers.  A function imported by
name elsewhere (``from .gflin import rref``) is a separate binding in every
importing module, so each function is rebound wherever a ``superkw`` module
holds the original object; the modules touched are recorded in
``Tracer.rebound`` so that a missed import shows in the output.

Spans are ``(name, start, end, parent span id, report id)`` tuples kept in
memory and written out once the pass ends.  A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) pairs wrapped with a span; the span name is
# "<module>.<attribute>" with "superkw." dropped
SPANNED_FUNCTIONS = [
    ("superkw.gflin", "rref"),
    ("superkw.gflin", "reduce_vector"),
    ("superkw.gflin", "nullspace"),
    ("superkw.modules", "spin"),
    ("superkw.modules", "_find_proper_submodule"),
    ("superkw.modules", "endomorphism_dims"),
    ("superkw.modules", "submodule_module"),
    ("superkw.modules", "quotient_module"),
    ("superkw.env", "induce"),
    ("superkw.chargeom", "chi_geometry"),
    ("superkw.chargeom", "max_exponents"),
    ("superkw.lsafile", "parse_lsa_path"),
    ("superkw.report", "render_report"),
]

# (module, class, method) triples wrapped with a span
SPANNED_METHODS = [
    ("superkw.gflin", "Field", "matmul"),
    ("superkw.env", "ReducedAlgebra", "straighten"),
    ("superkw.lsa", "LieSuperAlgebra", "validate"),
]

# the splitting entry is reported under the layer's own name, and the two
# subquotient constructors share one
SPAN_NAMES = {
    "modules._find_proper_submodule": "modules.meataxe",
    "modules.submodule_module": "modules.subquotient",
    "modules.quotient_module": "modules.subquotient",
    "lsa.LieSuperAlgebra.validate": "lsa.validate",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self.rebound = defaultdict(list)
        self.report_id = -1
        self.enabled = True
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.report_id]
            spans.append(rec)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers for the derived counts ---------------------------------

    def _observe_spin(self, args, W):
        if 0 < W.dim < args[0].dim:
            self.counts["modules.spin.proper"] += 1

    def _observe_endo(self, args, out):
        if out == (None, None):
            self.counts["modules.endomorphism_dims.unknown"] += 1

    def _observe_induce(self, args, out):
        nbytes = int(out.module.action.nbytes)
        self.maxima["env.induce.action_bytes"] = max(
            self.maxima["env.induce.action_bytes"], nbytes)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed entry point; call after importing superkw.lsafile,
        superkw.report and superkw.classical, which load every layer."""
        observers = {
            "modules.spin": self._observe_spin,
            "modules.endomorphism_dims": self._observe_endo,
            "env.induce": self._observe_induce,
        }
        mods = {n: m for n, m in sys.modules.items()
                if n == "superkw" or n.startswith("superkw.")}
        for modname, attr in SPANNED_FUNCTIONS:
            orig = getattr(mods[modname], attr)
            short = f"{modname[len('superkw.'):]}.{attr}"
            name = SPAN_NAMES.get(short, short)
            wrapped = self._spanned(name, orig, observers.get(name))
            for holder_name, holder in sorted(mods.items()):
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapped)
                        self.rebound[short].append(f"{holder_name}.{key}")
        for modname, cls, meth in SPANNED_METHODS:
            klass = getattr(mods[modname], cls)
            short = f"{modname[len('superkw.'):]}.{cls}.{meth}"
            setattr(klass, meth,
                    self._spanned(SPAN_NAMES.get(short, short), getattr(klass, meth)))
            self.rebound[short].append(f"{modname}.{cls}.{meth}")
        field = mods["superkw.gflin"].Field
        field.mul = self._counted("gflin.Field.mul", field.mul)
        self.rebound["gflin.Field.mul"].append("superkw.gflin.Field.mul")

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus the
        derived counts.  Counts are exact; times are wall seconds."""
        calls = Counter(self.counts)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            if parent >= 0:
                child[parent] += dur
        for sid, (name, start, end, _parent, _rid) in enumerate(self.spans):
            self_s[name] += (end - start) - child[sid]
        return {
            "counts": dict(sorted(calls.items())),
            "maxima": dict(sorted(self.maxima.items())),
            "inclusive_s": dict(sorted(incl.items())),
            "self_s": dict(sorted(self_s.items())),
            "spans": len(self.spans),
        }

    def write_spans(self, path: str, origin: float):
        """One JSON document: the name table and one row per span, times in
        seconds from ``origin``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a - origin, 7), round(b - origin, 7), p, r]
                for n, a, b, p, r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_s", "end_s", "parent", "report"],
                       "rows": rows}, fh, separators=(",", ":"))
