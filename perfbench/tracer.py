"""Span tracing around normord's public entry points, for the traced run.

``install`` rebinds each layer's public functions and methods to timing
wrappers.  Nothing in ``src/`` is edited and untraced runs never import this
module, so the library they measure is the unpatched one.

A span is (id, name, start, end, parent, run id).  Calls of the hot names
(polynomial arithmetic, ``Grammar.derive`` and each step of an enumerator)
run millions of times in one pass, so their spans are rolled up in memory:
one record per (name, nearest stored ancestor) carries the number of calls,
the first start, the last end, and the summed duration and self time.
Self time is computed as spans close: a span's duration minus the summed
durations of the spans opened directly inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict

# Generators whose iteration is timed step by step; each step is a span.
COMBINAT_GENERATORS = (
    "permutations",
    "signed_permutations",
    "stirling_permutations",
    "list_partitions",
    "stirling_lists",
)
TRIANGLE_FUNCTIONS = (
    "family_row",
    "assemble",
    "build_triangle",
    "ctilde_xx",
    "e_expand",
    "gamma_expand",
    "rising_factorial",
)
SERIES_FUNCTIONS = ("bessel_polynomial", "catalan_number", "catalan_series", "verify_catalan_egf")
NORMAL_FORM_METHODS = ("specialize", "apply_to", "render", "xi_coefficients")


class Tracer:
    """Stack of open spans plus the closed ones, all kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[tuple] = []
        self.rollups: dict[tuple, list] = {}
        # name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = [[0.0, 0.0]]  # [start, time in child spans]
        self._anchors: list[int | None] = [None]
        self._next_id = 0

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, hot: bool) -> list:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        if not hot:
            self._next_id += 1
            frame.append(self._next_id)
            self._anchors.append(self._next_id)
        return frame

    def _close(self, name: str, hot: bool, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        start = frame[0]
        duration = end - start
        self_s = duration - frame[1]
        self._stack[-1][1] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += self_s
        if hot:
            key = (name, self._anchors[-1])
            roll = self.rollups.get(key)
            if roll is None:
                self.rollups[key] = [1, start, end, duration, self_s]
            else:
                roll[0] += 1
                roll[2] = end
                roll[3] += duration
                roll[4] += self_s
        else:
            self._anchors.pop()
            self.spans.append((frame[2], name, start, end, self._anchors[-1], self.run_id))

    def begin(self) -> None:
        """Open the root span of the traced pass and start recording."""
        self.active = True
        self._root = self._open(hot=False)

    def end(self) -> None:
        """Close the root span and stop recording."""
        self._close("run", False, self._root)
        self.active = False

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn, *, hot: bool = False, count=None):
        """Return ``fn`` timed as span ``name``; ``count(counts, args, result)`` adds work counts."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(hot)
            try:
                result = fn(*args, **kwargs)
                if count is not None and result is not NotImplemented:
                    count(tracer.counts, args, result)
                return result
            finally:
                tracer._close(name, hot, frame)

        return functools.update_wrapper(traced, fn)

    def wrap_generator(self, fn, name_of):
        """Return ``fn`` whose generator times each step as a span and counts items."""
        tracer = self

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            if not tracer.active:
                return items
            return tracer._iterate(name_of(args, kwargs), items)

        return functools.update_wrapper(traced, fn)

    def _iterate(self, name: str, items):
        step = items.__next__
        key = name + ".objects"
        while True:
            frame = self._open(True)
            try:
                item = step()
            except StopIteration:
                return
            finally:
                self._close(name, True, frame)
            self.counts[key] += 1
            yield item

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "totals": {name: list(v) for name, v in self.totals.items()},
            "counts": dict(self.counts),
        }

    def write(self, path: str) -> None:
        """Write every stored and rolled-up span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
            for (name, parent), (calls, start, end, total, self_s) in self.rollups.items():
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "run": self.run_id, "calls": calls, "duration": total,
                                     "self": self_s}) + "\n")


# -- counters -----------------------------------------------------------------


def _count_mul(counts, args, result):
    left, right = args
    counts["poly.mul.term_pairs"] += len(left) * (len(right) if hasattr(right, "terms") else 1)
    counts["poly.mul.terms_out"] += len(result)


def _count_terms(key):
    def count(counts, args, result):
        counts[key] += len(result)
    return count


def _count_stat_polynomial(counts, args, result):
    # Every record adds exactly 1 to one coefficient, so the coefficients sum to the records.
    counts["combinat.stat_polynomial.records"] += sum(c for _, c in result.terms())
    counts["combinat.stat_polynomial.keys"] += len(result)


def _forest_name(args, kwargs):
    flavor = args[0] if args else kwargs["flavor"]
    return f"forests.{flavor}"


# -- installation ---------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Rebind normord's layer entry points to ``tracer``'s wrappers.

    Every ``normord`` module that holds a reference to a wrapped function, as
    ``checks`` and ``cli`` do through ``from .x import name``, gets the wrapper,
    and so does every module-level dict that holds one (the CLI's dispatch
    tables), found by identity rather than by name.
    """
    import normord.checks as checks
    import normord.cli as cli
    import normord.combinat as combinat
    import normord.forests as forests
    import normord.normal_form as normal_form
    import normord.series as series
    import normord.triangles as triangles
    from normord.grammar import Grammar
    from normord.normal_form import NormalForm
    from normord.poly import Polynomial

    modules = [m for n, m in sys.modules.items() if n == "normord" or n.startswith("normord.")]

    def rebind(module, attr, wrapped):
        original = getattr(module, attr)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped

    for attr in COMBINAT_GENERATORS:
        gen = getattr(combinat, attr)
        rebind(combinat, attr, tracer.wrap_generator(gen, lambda a, k, n=attr: f"combinat.{n}"))
    rebind(combinat, "stat_polynomial", tracer.wrap(
        "combinat.stat_polynomial", combinat.stat_polynomial, count=_count_stat_polynomial))
    rebind(forests, "grow_forests", tracer.wrap_generator(forests.grow_forests, _forest_name))
    for attr in TRIANGLE_FUNCTIONS:
        count = _count_terms("triangles.family_row.entries") if attr == "family_row" else None
        rebind(triangles, attr, tracer.wrap(f"triangles.{attr}", getattr(triangles, attr), count=count))
    for attr in SERIES_FUNCTIONS:
        rebind(series, attr, tracer.wrap(f"series.{attr}", getattr(series, attr)))
    rebind(normal_form, "normal_order_power", tracer.wrap(
        "normal_form.normal_order_power", normal_form.normal_order_power))
    rebind(cli, "main", tracer.wrap("cli", cli.main))

    for attr in NORMAL_FORM_METHODS:
        setattr(NormalForm, attr, tracer.wrap(f"normal_form.{attr}", getattr(NormalForm, attr)))
    Grammar.derive = tracer.wrap("grammar.derive", Grammar.derive, hot=True,
                                 count=_count_terms("grammar.derive.terms_out"))
    mul = tracer.wrap("poly.mul", Polynomial.__mul__, hot=True, count=_count_mul)
    add = tracer.wrap("poly.add", Polynomial.__add__, hot=True)
    Polynomial.__mul__ = Polynomial.__rmul__ = mul
    Polynomial.__add__ = Polynomial.__radd__ = add
    Polynomial.render = tracer.wrap("poly.render", Polynomial.render, hot=True)
    Polynomial.subs = tracer.wrap("poly.subs", Polynomial.subs, hot=True)

    for check_id, spec in list(checks.REGISTRY.items()):
        checks.REGISTRY[check_id] = dataclasses.replace(
            spec, runner=tracer.wrap(f"checks.{check_id}", spec.runner))
