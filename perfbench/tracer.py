"""Span recorder for the traced benchmark run.

The tracer wraps public entry points of ptmpow from outside the package: it
replaces class attributes, and every binding of a module-level function in
every loaded ``ptmpow.*`` module, because ``cli`` and ``campaigns`` import
names directly.  Each call of a wrapped entry point records one span (name,
start, end, parent) in flat arrays; ``summary()`` derives call counts, total
and self time per name from them.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import os
import sys
import time
from array import array


def _cache_len(obj) -> int:
    return len(getattr(obj, "_vals", ()))


def _extend_hook(layer):
    def pre(args, kwargs):
        return _cache_len(args[0])

    def post(args, kwargs, before, result, counters):
        counters[f"{layer}.indices_built"] += _cache_len(args[0]) - before

    return pre, post


def _prefix_hook(layer):
    def pre(args, kwargs):
        return _cache_len(args[0])

    def post(args, kwargs, before, result, counters):
        counters[f"{layer}.prefix.calls"] += 1
        if _cache_len(args[0]) == before:
            counters[f"{layer}.prefix.hits"] += 1

    return pre, post


def _value_prefix_post(args, kwargs, before, result, counters):
    counters["f_polys.value_prefix.terms"] += len(result)


def _store_post(args, kwargs, before, result, counters):
    path = args[3] if len(args) > 3 else kwargs["path"]
    counters["seqcache.bytes_written"] += os.path.getsize(path)


def _load_pre(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _load_post(args, kwargs, before, result, counters):
    counters["seqcache.bytes_read"] += before


_SQRTPOLY_METHODS = ("embed", "subst_sqrt", "from_coeffs", "sign_flip", "__add__", "__sub__",
                     "__mul__", "__pow__", "is_even", "is_odd", "even_part", "odd_half",
                     "divexact_scalar")

# (module, attribute path, span name, (pre, post) hooks or None)
ENTRY_POINTS = [
    ("ptmpow.core_arith", "IntPoly.__mul__", "core_arith.intpoly_mul", None),
    ("ptmpow.core_arith", "IntPoly.__pow__", "core_arith.intpoly_pow", None),
    *[("ptmpow.core_arith", f"SqrtPoly.{m}", "core_arith.sqrtpoly", None) for m in _SQRTPOLY_METHODS],
    ("ptmpow.core_arith", "convolve_nonneg_prefix", "core_arith.convolve_nonneg", None),
    ("ptmpow.f_polys", "FSeries.extend", "f_polys.fseries_extend", None),
    ("ptmpow.f_polys", "FSeries.value_prefix", "f_polys.value_prefix", (None, _value_prefix_post)),
    ("ptmpow.f_polys", "w_poly", "f_polys.w_poly", None),
    ("ptmpow.tm_sequences", "TmCache.extend", "tm_sequences.extend", _extend_hook("tm_sequences")),
    ("ptmpow.tm_sequences", "_T2Cache.extend", "tm_sequences.extend", _extend_hook("tm_sequences")),
    ("ptmpow.tm_sequences", "TmCache.prefix", "tm_sequences.prefix", _prefix_hook("tm_sequences")),
    ("ptmpow.tm_sequences", "_T2Cache.prefix", "tm_sequences.prefix", _prefix_hook("tm_sequences")),
    ("ptmpow.bm_sequences", "BmCache.extend", "bm_sequences.extend", _extend_hook("bm_sequences")),
    ("ptmpow.bm_sequences", "_B1Cache.extend", "bm_sequences.extend", _extend_hook("bm_sequences")),
    ("ptmpow.bm_sequences", "BmCache.prefix", "bm_sequences.prefix", _prefix_hook("bm_sequences")),
    ("ptmpow.bm_sequences", "_B1Cache.prefix", "bm_sequences.prefix", _prefix_hook("bm_sequences")),
    ("ptmpow.bm_sequences", "h_poly", "bm_sequences.h_poly", None),
    ("ptmpow.bm_sequences", "v_operator", "bm_sequences.v_operator", None),
    ("ptmpow.campaigns", "run_campaign", "campaigns.run", None),
    ("ptmpow.seqcache", "cache_store", "seqcache.store", (None, _store_post)),
    ("ptmpow.seqcache", "cache_load", "seqcache.load", (_load_pre, _load_post)),
    ("ptmpow.cli", "main", "cli.main", None),
]

COUNTERS = (
    "tm_sequences.indices_built", "tm_sequences.prefix.calls", "tm_sequences.prefix.hits",
    "bm_sequences.indices_built", "bm_sequences.prefix.calls", "bm_sequences.prefix.hits",
    "bm_sequences.h_poly.memo_hits", "f_polys.value_prefix.terms",
    "seqcache.bytes_written", "seqcache.bytes_read",
)


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []

    def reset(self) -> None:
        """Drop recorded spans and counters, keeping the installed wrappers."""
        for arr in (self.kind, self.parent, self.start, self.end):
            del arr[:]
        for key in self.counters:
            self.counters[key] = 0

    def wrap(self, name: str, fn, hooks=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self._names):
            self._names.append(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns
        pre, post = hooks or (None, None)
        counters = self.counters

        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            idx = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post:
                post(args, kwargs, before, result, counters)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS; names that no longer exist
        are listed in ``missing`` rather than failing the run."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ptmpow" or n.startswith("ptmpow."))]
        for modname, path, span, hooks in ENTRY_POINTS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(span, raw.__func__, hooks))
            else:
                wrapped = self.wrap(span, raw, hooks)
            if owner_name:
                # aliases such as __rmul__ = __mul__ share the wrapper
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        setattr(owner, key, wrapped)
            else:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapped)

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus the counters."""
        n = len(self.start)
        names = self._names
        durs = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        core_child = bytearray(n)
        core_ids = {i for i, nm in enumerate(names) if nm.startswith("core_arith.")}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += durs[i]
                if self.kind[i] in core_ids:
                    core_child[p] = 1
        per = {nm: [0, 0, 0] for nm in names}
        h_id = self._ids.get("bm_sequences.h_poly")
        memo_hits = 0
        for i in range(n):
            k = self.kind[i]
            row = per[names[k]]
            row[0] += 1
            row[1] += durs[i]
            row[2] += durs[i] - child[i]
            if k == h_id and not core_child[i]:
                memo_hits += 1
        counters = dict(self.counters)
        counters["bm_sequences.h_poly.memo_hits"] = memo_hits
        return {
            "spans": n,
            "names": {nm: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                      for nm, (c, t, s) in per.items()},
            "counters": counters,
            "missing": list(self.missing),
        }
