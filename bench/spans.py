"""Span tracer for the benchmark's traced passes.

The tracer wraps public functions at each qapery module boundary from
outside the package.  One shared wrapper per original function is bound in
every ``qapery`` module namespace that holds the original (re-exports
included), and in the class for methods, so every call goes through it;
``install`` proves that no binding of an original is left.

Each traced call records a span ``(id, parent id, instance id, name, start,
end)`` in memory.  Self time is a span's duration minus the time its child
spans cover; a child's own bookkeeping is charged to neither, so tracer
cost shows only in ``trace.overhead_s``.  Inclusive time counts only the
outermost span of a name, so nested spans of one name are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

#: (span name, module, attribute, class attributes to wrap or None)
TARGETS = (
    ("laurent.mul", "qapery.laurent", "LaurentPoly", ("__mul__", "__rmul__")),
    ("laurent.add", "qapery.laurent", "LaurentPoly", ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("laurent.divrem", "qapery.laurent", "divrem", None),
    ("laurent.ext_gcd", "qapery.laurent", "ext_gcd", None),
    ("cyclotomic.Modulus", "qapery.cyclotomic", "Modulus", ("__init__",)),
    ("cyclotomic.reduce_mod", "qapery.cyclotomic", "reduce_mod", None),
    ("cyclotomic.inverse_mod", "qapery.cyclotomic", "inverse_mod", None),
    ("qcombinatorics.qbin", "qapery.qcombinatorics", "qbin", None),
    ("qcombinatorics.qbin_pow", "qapery.qcombinatorics", "qbin_pow", None),
    ("sequences.apery_q_krz_binform", "qapery.sequences", "apery_q_krz_binform", None),
    ("checks.run_named_check", "qapery.checks", "run_named_check", None),
)

#: Counters kept at the boundaries, besides calls and times.
COUNTERS = (
    "laurent.mul.coeff_products",
    "laurent.mul.rational_calls",
    "laurent.mul.max_degree",
    "laurent.mul.max_coeff_bits",
    "cyclotomic.reduce_mod.in_degree_max",
    "cyclotomic.reduce_mod.in_terms",
    "qcombinatorics.qbin.misses",
    "qcombinatorics.qbin_pow.misses",
)


def _coeff_bits(c):
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


class Tracer:
    """Records spans and per-name counters while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.instance = -1
        self.spans = []
        self.bindings = 0
        self.originals = {}     # span name -> unwrapped function
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.counters = Counter()
        self._stack = []        # [span id, time covered by child spans]
        self._depth = Counter()
        self._next_id = 0
        self._qc = importlib.import_module("qapery.qcombinatorics")
        self._lp = importlib.import_module("qapery.laurent").LaurentPoly
        self._before = {
            "qcombinatorics.qbin": self._qbin_before,
            "qcombinatorics.qbin_pow": self._qbin_pow_before,
            "cyclotomic.reduce_mod": self._reduce_mod_before,
        }
        self._after = {"laurent.mul": self._mul_after}

    # -- counters measured at the boundary ---------------------------------

    def _qbin_before(self, args):
        n, k = args
        if 0 <= k <= n and (n, k) not in self._qc._QBIN_CACHE:
            self.counters["qcombinatorics.qbin.misses"] += 1

    def _qbin_pow_before(self, args):
        n, k, e = args
        if e and 0 <= k <= n and (n, k, e) not in self._qc._QBIN_POW_CACHE:
            self.counters["qcombinatorics.qbin_pow.misses"] += 1

    def _reduce_mod_before(self, args):
        f = args[0]
        if f:
            c = self.counters
            c["cyclotomic.reduce_mod.in_degree_max"] = max(
                c["cyclotomic.reduce_mod.in_degree_max"], f.degree())
            c["cyclotomic.reduce_mod.in_terms"] += len(f)

    def _mul_after(self, args, result):
        if result is NotImplemented:
            return
        a, b = args
        c = self.counters
        if isinstance(b, self._lp):
            c["laurent.mul.coeff_products"] += len(a) * len(b)
            rational = not (a.has_integer_coefficients() and b.has_integer_coefficients())
        else:
            c["laurent.mul.coeff_products"] += len(a)
            rational = isinstance(b, Fraction) or not a.has_integer_coefficients()
        c["laurent.mul.rational_calls"] += rational
        if result:
            c["laurent.mul.max_degree"] = max(c["laurent.mul.max_degree"], result.degree())
            bits = max(_coeff_bits(v) for _, v in result.terms())
            c["laurent.mul.max_coeff_bits"] = max(c["laurent.mul.max_coeff_bits"], bits)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self
        before = self._before.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            enter = perf_counter()
            if before is not None:
                before(args)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            depth = tracer._depth[name]
            tracer._depth[name] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._depth[name] = depth
                tracer.spans.append((span_id, parent, tracer.instance, name, start, end))
                tracer.calls[name] += 1
                tracer.self_s[name] += end - start - frame[1]
                if depth == 0:
                    tracer.incl_s[name] += end - start
            if after is not None:
                after(args, result)
            if stack:
                stack[-1][1] += perf_counter() - enter
            return result

        return wrapper

    def install(self):
        """Bind a wrapper in place of every binding of each target."""
        modules = [m for key, m in sys.modules.items()
                   if key == "qapery" or key.startswith("qapery.")]
        originals = []
        for name, module_name, attr, methods in TARGETS:
            owner = getattr(importlib.import_module(module_name), attr)
            if methods:
                wrappers = {}
                for method in methods:
                    original = owner.__dict__[method]
                    if original not in wrappers:
                        wrappers[original] = self.wrap(name, original)
                        originals.append(original)
                    setattr(owner, method, wrappers[original])
                    self.bindings += 1
                continue
            wrapper = self.wrap(name, owner)
            originals.append(owner)
            self.originals[name] = owner
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is owner:
                        setattr(module, key, wrapper)
                        self.bindings += 1
        for module in modules:
            for key, value in vars(module).items():
                stale = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
                if any(v is o for v in stale for o in originals):
                    raise RuntimeError("%s.%s still binds an unwrapped target" % (module.__name__, key))

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-name calls, self and inclusive seconds, plus boundary counters."""
        out = {key: self.counters[key] for key in COUNTERS}
        for name, _, _, _ in TARGETS:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".incl_s"] = self.incl_s[name]
        out["checks.self_s"] = self.self_s["checks.run_named_check"]
        return out

    def write_spans(self, path, origin):
        """One JSON array per line: id, parent, instance, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, instance, name, start, end in sorted(self.spans):
                handle.write(json.dumps(
                    [span_id, parent, instance, name, start - origin, end - origin]) + "\n")
