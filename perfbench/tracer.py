"""In-process tracer for the circhess layers.

Every public function of the traced modules is replaced, in every circhess
module that binds it, by a wrapper that records a span (name, start, end,
parent).  Matrix construction and multiplication are counted, not spanned.
A separate counting pass wraps the payload operations of each field kind.

A wrapper that misses is a silent lie, so installation fails loudly: every
traced function must be rebound somewhere, and afterwards no circhess module
may still hold the original object.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

# modules whose public functions become spans
SPAN_MODULES = ("linalg", "systems", "recurrence", "families", "bases", "search")
FIELD_KINDS = {"PrimeField": "prime", "QuotientExtension": "ext", "Rationals": "rat"}
FIELD_OPS = ("add", "sub", "mul", "inv", "dot")


class TracerError(RuntimeError):
    """The tracer could not instrument the program as it claims to."""


def _circhess_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "circhess" or name.startswith("circhess."))]


def _rebind(original, replacement) -> int:
    """Replace every module-level binding of `original`; return how many."""
    count = 0
    for mod in _circhess_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def _assert_unbound(original, label: str):
    for mod in _circhess_modules():
        for attr, value in vars(mod).items():
            if value is original:
                raise TracerError(f"{mod.__name__}.{attr} still binds untraced {label}")


class Tracer:
    """Spans for public layer functions plus Matrix counters.

    Use as a context manager; bindings are restored on exit.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent
        self.calls: Counter = Counter()
        self.recurrent = 0
        self._stack: list[int] = []
        self._undo: list = []

    # --- installation -----------------------------------------------------
    def _span_wrapper(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter
        is_recurrence_status = name == "recurrence.recurrence_status"

        def traced(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if is_recurrence_status and out.recurrent:
                self.recurrent += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_function(self, label, fn):
        wrapper = self._span_wrapper(label, fn)
        if _rebind(fn, wrapper) == 0:
            raise TracerError(f"no module binds {label}")
        self._undo.append((fn, wrapper))

    def __enter__(self):
        cli = importlib.import_module("circhess.cli")
        for short in SPAN_MODULES:
            # circhess.search on the package is the re-exported function, so
            # the module must come from the import system, not attribute access
            mod = importlib.import_module(f"circhess.{short}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._wrap_function(f"{short}.{attr}", fn)
        self._wrap_function("cli.main", cli.main)
        for _, wrapper in self._undo:
            _assert_unbound(wrapper.__wrapped__, wrapper.__wrapped__.__qualname__)

        linalg = importlib.import_module("circhess.linalg")
        matrix = linalg.Matrix
        init, mul = matrix.__init__, matrix.__mul__
        calls = self.calls

        def counted_init(m, *args, **kwargs):
            calls["linalg.matrix_new"] += 1
            init(m, *args, **kwargs)

        def counted_mul(m, other):
            if isinstance(other, matrix):
                calls["linalg.matrix_mul"] += 1
            return mul(m, other)

        matrix.__init__, matrix.__mul__ = counted_init, counted_mul
        self._matrix = (matrix, init, mul)
        return self

    def __exit__(self, *exc):
        matrix, init, mul = self._matrix
        matrix.__init__, matrix.__mul__ = init, mul
        for fn, wrapper in reversed(self._undo):
            _rebind(wrapper, fn)
        self._undo.clear()
        return False

    # --- aggregation ----------------------------------------------------------
    def totals(self):
        """Inclusive time per span name, and self time (duration minus the
        time covered by direct children) per span name."""
        if self._stack:
            raise TracerError("aggregating with spans still open")
        inclusive: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            inclusive[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_time: Counter = Counter()
        for (name, t0, t1, _), covered in zip(self.spans, child):
            self_time[name] += (t1 - t0) - covered
        return inclusive, self_time

    def direct_children(self, parent_name: str, child_name: str) -> int:
        spans = self.spans
        return sum(1 for name, _, _, parent in spans
                   if name == child_name and parent >= 0 and spans[parent][0] == parent_name)


class FieldOpCounter:
    """Counts payload operations per field kind while installed.

    Nested calls count too: an extension-field mul is one `ext.mul` plus the
    base-field operations it performs.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self._undo: list = []

    def __enter__(self):
        fields = importlib.import_module("circhess.fields")
        counts = self.counts
        for cls_name, kind in FIELD_KINDS.items():
            cls = getattr(fields, cls_name)
            for op in FIELD_OPS:
                fn = getattr(cls, op)
                key = f"fields.{kind}.{op}"

                def counted(spec, *args, _fn=fn, _key=key):
                    counts[_key] += 1
                    return _fn(spec, *args)

                had_own = op in vars(cls)
                setattr(cls, op, counted)
                self._undo.append((cls, op, fn, had_own))
        return self

    def __exit__(self, *exc):
        for cls, op, fn, had_own in reversed(self._undo):
            if had_own:
                setattr(cls, op, fn)
            else:
                delattr(cls, op)
        self._undo.clear()
        return False
