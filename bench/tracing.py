"""Spans and counters at the `wricc` module boundaries, installed from the
benchmark by wrapping public functions and methods, and removed again.

Functions get spans (name, start, end, parent).  Hot methods (wreath and
group multiply, carrier `act`, conjugation, streams) get counts only: a
span per call would cost more than the call.  Spans stay in memory until
`write`.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
from time import perf_counter

# (module, function, span name); the span name's first part is the layer
SPANNED = [
    ("wricc.cli", "main", "cli.main"),
    ("wricc.instances", "parse_instance", "instances.parse_instance"),
    ("wricc.decision", "decide_icc", "decision.decide_icc"),
    ("wricc.witness", "witness", "witness.witness"),
    ("wricc.witness", "verify_finite_certificate", "witness.verify_finite_certificate"),
    ("wricc.witness", "verify_infinite_certificate", "witness.verify_infinite_certificate"),
    ("wricc.oracle", "class_lower_bound", "oracle.class_lower_bound"),
    ("wricc.oracle", "enumerate_class", "oracle.enumerate_class"),
]

PAIR_STRIDE = 97  # keep every 97th wreath multiply's arguments ...
MAX_PAIRS = 4096  # ... up to this many, for the multiply_us timing loop


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, name, value):
        had = name in vars(obj)
        self._undo.append((obj, name, had, vars(obj).get(name)))
        setattr(obj, name, value)

    def replace_function(self, original, replacement):
        """Point every `wricc` module attribute bound to `original` at
        `replacement`, so callers that imported the name see it too."""
        for modname, mod in list(sys.modules.items()):
            if modname == "wricc" or modname.startswith("wricc."):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.set(mod, name, replacement)

    def undo(self):
        while self._undo:
            obj, name, had, old = self._undo.pop()
            if had:
                setattr(obj, name, old)
            else:
                delattr(obj, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = collections.Counter()
        self.pairs = []  # (group, a, b) sampled from WreathProduct.multiply
        self._patches = Patches()

    # ---- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _count_items(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def _wreath_multiply(self, fn):
        counts, pairs = self.counts, self.pairs

        @functools.wraps(fn)
        def wrapper(G, a, b):
            counts["wreath.multiply_calls"] += 1
            if counts["wreath.multiply_calls"] % PAIR_STRIDE == 0 and len(pairs) < MAX_PAIRS:
                pairs.append((G, a, b))
            return fn(G, a, b)

        return wrapper

    def _wreath_conjugate(self, fn):
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(G, x, y):
            counts["wreath.conjugate_calls"] += 1
            if stack and spans[stack[-1]][0] == "witness.verify_finite_certificate":
                counts["witness.finite_verify_conjugations"] += 1
            return fn(G, x, y)

        return wrapper

    def _enumerate_class(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rep = fn(*args, **kwargs)
            counts["oracle.enumerations"] += 1
            counts["oracle.conjugates"] += rep.count
            return rep

        return wrapper

    def _class_lower_bound(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(G, g, target, *args, **kwargs):
            before = counts["oracle.conjugates"]
            result = fn(G, g, target, *args, **kwargs)
            counts["oracle.built_for_target"] += counts["oracle.conjugates"] - before
            counts["oracle.asked"] += target
            return result

        return wrapper

    # ---- install / remove ---------------------------------------------------

    def install(self):
        mods = sys.modules
        p = self._patches
        wreath = mods["wricc.wreath"].WreathProduct
        groups = mods["wricc.groups"]
        p.set(wreath, "multiply", self._wreath_multiply(wreath.multiply))
        p.set(wreath, "conjugate", self._wreath_conjugate(groups.Group.conjugate))
        p.set(groups.Group, "multiply", self._count("groups.multiply_calls", groups.Group.multiply))
        p.set(
            groups.Group,
            "ball_stream",
            self._count_items("groups.ball_stream_items", groups.Group.ball_stream),
        )
        qsets = mods["wricc.qsets"]
        for cls in vars(qsets).values():
            if isinstance(cls, type) and issubclass(cls, qsets.QSet) and "act" in vars(cls):
                if not getattr(cls.act, "__isabstractmethod__", False):
                    p.set(cls, "act", self._count("qsets.act_calls", cls.act))
        fam = mods["wricc.witness"].InfiniteFamilyCertificate
        p.set(fam, "members", self._count_items("witness.members", fam.members))
        extra = {
            "oracle.enumerate_class": self._enumerate_class,
            "oracle.class_lower_bound": self._class_lower_bound,
        }
        for modname, fname, span in SPANNED:
            original = getattr(mods[modname], fname)
            inner = extra[span](original) if span in extra else original
            p.replace_function(original, self._span(span, inner))

    def remove(self):
        self._patches.undo()

    # ---- results ------------------------------------------------------------

    def self_times(self, start=0) -> dict:
        """Span name -> total self time (duration minus child spans) of the
        spans from index `start` on."""
        child = collections.defaultdict(float)
        for name, begin, end, parent in self.spans[start:]:
            if parent is not None:
                child[parent] += end - begin
        out = collections.defaultdict(float)
        for i, (name, begin, end, _) in enumerate(self.spans[start:], start):
            out[name] += end - begin - child[i]
        return dict(out)

    def write(self, path, header: dict, summary: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")
            fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
