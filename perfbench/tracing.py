"""Spans around the calls into each hyp321 module's public functions.

The wrappers live in the benchmark, not in the library: ``Tracer.install``
rebinds every wrapped function in every ``hyp321`` module namespace that
holds it (``series_pfq`` in ``matcher`` and ``database``,
``sum_series_numeric`` in ``series``, ``contiguous`` and ``cli``, ...), so
calls between modules are caught as well as calls from the benchmark.  A
direct recursive call (``eval_expr`` and ``substitute`` recurse through
their own module names) is passed through without a span.

Spans are kept in memory as ``[name, start, end, parent, query, error,
note]`` lists and written out as JSON lines at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

#: layer -> wrapped public functions (module hyp321.<layer>)
LAYERS = {
    "matcher": ("identify", "unify", "equivalent", "cull"),
    "thomae": ("distinct_images", "apply_variant"),
    "series": ("sum_series_numeric",),
    "expr": ("eval_expr", "substitute"),
    "parser": ("parse_linexpr",),
    "database": ("seed_db", "verify_entry"),
    "contiguous": ("watson_element", "dixon_element", "whipple_element"),
}

#: exception types of the oracle that get their own error counter
SERIES_ERRORS = ("NoConvergence", "DivergentSeries", "LowerPole")


def _note_unify(result):
    return 1 if result else 0


def _note_equivalent(result):
    return 1 if result is not None else 0


def _note_terms(result):
    return result.terms_used


def _note_samples(result):
    return len(result.samples)


#: per-function summary of a successful result, stored in the span
NOTES: dict[str, Callable] = {
    "matcher.unify": _note_unify,
    "matcher.equivalent": _note_equivalent,
    "series.sum_series_numeric": _note_terms,
    "database.verify_entry": _note_samples,
}

NAME, START, END, PARENT, QUERY, ERROR, NOTE = range(7)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query: Optional[str] = None
        self._installed: list[tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, note = self.spans, self.stack, NOTES.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.query, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every wrapped function in every loaded hyp321 module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "hyp321" or n.startswith("hyp321.")) and m]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"hyp321.{layer}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(f"{layer}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._installed.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process nest and do not overlap, so the part of a span
    covered by children is the sum of its direct children's durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans: list[list]) -> list[bool]:
    """True for spans with no ancestor of the same name."""
    out = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-function calls, time_s, self_s, errors and counters.

    ``time_s`` sums the inclusive time of outermost calls only, so a
    function reached again below itself (eval_expr -> watson_element ->
    eval_expr) is not counted twice; ``self_s`` sums over all calls.
    """
    selfs = self_times(spans)
    outer = _outermost(spans)
    calls: dict[str, int] = defaultdict(int)
    time_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    notes: dict[str, int] = defaultdict(int)
    for s, st, top in zip(spans, selfs, outer):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += st
        if top:
            time_s[name] += s[END] - s[START]
        if s[ERROR] is not None:
            errors[name] += 1
            errors[f"{name}.errors.{s[ERROR]}"] += 1
        if s[NOTE] is not None:
            notes[name] += s[NOTE]
    out: dict[str, float] = {}
    for layer, funcs in LAYERS.items():
        for func in funcs:
            name = f"{layer}.{func}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.time_s"] = time_s[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.errors"] = errors[name]
    out["matcher.unify.hit_ratio"] = (
        notes["matcher.unify"] / calls["matcher.unify"]
        if calls["matcher.unify"] else 0.0)
    out["matcher.equivalent.witness_ratio"] = (
        notes["matcher.equivalent"] / calls["matcher.equivalent"]
        if calls["matcher.equivalent"] else 0.0)
    out["series.sum_series_numeric.terms"] = notes["series.sum_series_numeric"]
    for err in SERIES_ERRORS:
        key = f"series.sum_series_numeric.errors.{err}"
        out[key] = errors[key]
    out["database.verify_entry.samples"] = notes["database.verify_entry"]
    out["trace.spans"] = len(spans)
    return out


def write_jsonl(path: str, spans: list[list]) -> None:
    keys = ("name", "start", "end", "parent", "query", "error", "note")
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            rec = dict(zip(keys, s))
            rec["id"] = i
            fh.write(json.dumps(rec) + "\n")
