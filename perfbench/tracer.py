"""Spans around the public entry points of each qcurrent layer.

The tracer replaces module attributes with timing wrappers while it is
active and restores every one on exit.  Modules such as `cohom` bind
`rank_of_rows`, `solve`, `normal_order` and `mono_coproduct_terms` by name
at import time, so each wrapper is installed on every qcurrent module that
holds the original function, not only on the defining one.

Functions are grouped into layer metrics.  Only the outermost call of a
group opens a span; a call nested inside an active call of the same group
(the recursion of `normal_order`, or `coproduct` calling
`mono_coproduct_terms`) is counted but not timed again.  A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Dict, List

# (module, function, group)
TARGETS = (
    ("liealg", "build_sl", "liealg.build"),
    ("envelope", "normal_order", "envelope.normal_order"),
    ("envelope", "coproduct", "envelope.coproduct"),
    ("envelope", "mono_coproduct_terms", "envelope.coproduct"),
    ("current", "c_bracket", "current.bracket"),
    ("current", "cobracket", "current.bracket"),
    ("freequant", "fm_word_multiply", "freequant.word_multiply"),
    ("freequant", "fm_coproduct", "freequant.coproduct"),
    ("cohom", "ce_cohomology_dims", "cohom.ce_assembly"),
    ("cohom", "cobar_differential", "cohom.cobar"),
    ("cohom", "bicomplex_dh", "cohom.dh"),
    ("cohom", "bicomplex_dv", "cohom.dv"),
    ("cohom", "solve_correction", "cohom.solver"),
    ("exactnum", "rank_of_rows", "exactnum.rank"),
    ("exactnum", "solve", "exactnum.solve"),
)

# memo caches whose growth over a unit gives a hit ratio: the first argument
# of the function is the object that owns the cache
CACHES = {
    "normal_order": ("_pbw_cache", "envelope.pbw"),
    "fm_word_multiply": ("_fm_cache", "freequant.fm"),
}

PACKAGE = "qcurrent"


class _Group:
    __slots__ = ("calls", "active", "time", "self_time")

    def __init__(self):
        self.calls = 0
        self.active = False
        self.time = 0.0
        self.self_time = 0.0


class Tracer:
    """Context manager: patch on enter, restore on exit.

    Group totals, `counters` and `spans` cover one pass: `reset` starts the
    next.  Spans stay in memory until `write` is called.
    """

    def __init__(self):
        self.trace_id = None
        self._units = 0
        self._patched: List[tuple] = []
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        """Zero the totals and drop the spans of the previous pass."""
        self.spans: List[tuple] = []
        self.groups: Dict[str, _Group] = {g: _Group() for _, _, g in TARGETS}
        self.counters: Dict[str, float] = dict.fromkeys(
            ("rank_rows", "rank_nnz", "rank_sum", "solve_rows", "solve_cols",
             "solve_nnz", "dh_in_solver"), 0)
        self.cache_growth: Dict[str, int] = {c: 0 for _, c in CACHES.values()}
        self.cache_missing = set()
        self._tracked: Dict[tuple, tuple] = {}

    # --- unit boundaries ---------------------------------------------------------

    def begin_unit(self, name: str) -> None:
        """Spans until `end_unit` share the trace id `<n>:<name>`."""
        self._units += 1
        self.trace_id = f"{self._units}:{name}"
        self._tracked = {}

    def end_unit(self) -> None:
        """Add the growth of every cache seen during the unit."""
        for (_, attr, metric), (owner, start) in self._tracked.items():
            cache = getattr(owner, attr, None)
            if cache is None:
                self.cache_missing.add(metric)
            else:
                self.cache_growth[metric] += len(cache) - start
        self._tracked = {}

    def _track_cache(self, owner, attr: str, metric: str) -> None:
        key = (id(owner), attr, metric)
        if key not in self._tracked:
            cache = getattr(owner, attr, None)
            if cache is None:
                self.cache_missing.add(metric)
                return
            self._tracked[key] = (owner, len(cache))

    # --- patching ----------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for mod_name, fn_name, group in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, fn_name, group)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, fn, fn_name: str, group_name: str):
        tracer = self
        stack = self._stack
        cache = CACHES.get(fn_name)
        before = getattr(self, f"_before_{fn_name}", None)
        after = getattr(self, f"_after_{fn_name}", None)

        def wrapper(*args, **kwargs):
            group = tracer.groups[group_name]
            group.calls += 1
            if group.active:
                return fn(*args, **kwargs)
            if cache is not None:
                tracer._track_cache(args[0], *cache)
            attrs = None
            if before is not None:
                args, attrs = before(args)
            spans = tracer.spans
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans)]
            spans.append(None)  # reserve the id so children can point here
            stack.append(frame)
            group.active = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    attrs = after(result, attrs)
                return result
            finally:
                end = perf_counter()
                group.active = False
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                group.time += duration
                group.self_time += duration - frame[0]
                spans[frame[1]] = (frame[1], parent, tracer.trace_id,
                                   group_name, fn_name, start, end, attrs)

        return wrapper

    # --- boundary counts ---------------------------------------------------------

    # a `_before_<fn>` hook returns the (possibly rebuilt) arguments and the
    # span's attributes; an `_after_<fn>` hook adds what the result shows

    def _before_rank_of_rows(self, args):
        rows = args[0] if isinstance(args[0], list) else list(args[0])
        nonempty = [r for r in rows if r]
        cols = set()
        for r in nonempty:
            cols.update(r)
        attrs = {"rows": len(nonempty), "cols": len(cols),
                 "nnz": sum(len(r) for r in nonempty)}
        self.counters["rank_rows"] += attrs["rows"]
        self.counters["rank_nnz"] += attrs["nnz"]
        return (rows,) + args[1:], attrs

    def _after_rank_of_rows(self, result, attrs) -> dict:
        self.counters["rank_sum"] += result
        return {**attrs, "rank": result}

    def _before_solve(self, args):
        a = args[0]
        attrs = {"rows": a.nrows, "cols": a.ncols, "nnz": len(a.entries)}
        self.counters["solve_rows"] += a.nrows
        self.counters["solve_cols"] += a.ncols
        self.counters["solve_nnz"] += attrs["nnz"]
        return args, attrs

    def _after_solve(self, result, attrs) -> dict:
        return {**attrs, "solved": result is not None}

    def _before_bicomplex_dh(self, args):
        if self.groups["cohom.solver"].active:
            self.counters["dh_in_solver"] += 1
        return args, None

    # --- output ------------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming the fields, then
        one array per span, times in seconds from the first span's start."""
        fields = ["id", "parent", "trace", "layer", "fn", "start", "end",
                  "attrs"]
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][5] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": fields}) + "\n")
            for sid, parent, trace_id, group, fn_name, start, end, attrs in spans:
                fh.write(json.dumps([sid, parent, trace_id, group, fn_name,
                                     round(start - t0, 7), round(end - t0, 7),
                                     attrs]) + "\n")
