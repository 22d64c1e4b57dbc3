"""In-memory span recorder for the traced benchmark run.

The traced run wraps calls into each layer's public functions from the
benchmark's own files (the program itself carries no tracing).  A span
is ``[name, start_ns, end_ns, parent, op, main_thread]``; spans stay in
memory and are written out as JSON when the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Spans opened on helper threads (``map_batch``'s
thread pool) have no parent and overlap their caller, so they are kept
in the dump but left out of the self-time sums, which therefore add up
to the op's wall time exactly.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Called as ``hook(tracer, args, result)`` after a wrapped call returns.
Hook = Callable[["Tracer", Tuple[Any, ...], Any], None]


class Tracer:
    """Span and counter recorder; ``op`` tags every span it opens."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, 0, 0, stack[-1] if stack else -1, self.op,
                threading.get_ident() == self._main]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable[..., Any],
             hook: Optional[Hook] = None) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def self_ns(self) -> Dict[str, int]:
        """Summed self time per span name (main-thread spans only)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _op, main in self.spans:
            if main and parent >= 0:
                child[parent] += end - start
        totals: Dict[str, int] = {}
        for index, (name, start, end, _p, _op, main) in enumerate(self.spans):
            if main:
                totals[name] = totals.get(name, 0) + end - start - child[index]
        return totals

    def records(self) -> List[Dict[str, Any]]:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "main_thread")
        return [dict(zip(keys, span)) for span in self.spans]


class Patches:
    """Swap traced wrappers into modules and classes; undo on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str,
             hook: Optional[Hook] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement: Any = type(original)(
                self.tracer.wrap(name, original.__func__, hook))
        else:
            replacement = self.tracer.wrap(name, original, hook)
        self.replace(owner, attr, replacement)

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
