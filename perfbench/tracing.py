"""Outside-in tracing: wrap functions of already imported modules, record
spans and counts in memory, and restore the originals afterwards.

Nothing here knows about orthowall; ``layers.py`` says what to wrap and how
the records reduce to per-layer metrics.  A wrapped function is replaced in
every namespace that holds it, so ``from .x import f`` copies are traced too.

A span is ``(span_id, name, start, end, parent_id, op_id, thread)``.  Spans
of one thread nest through a thread-local stack; the first span a worker
thread opens takes as parent the innermost span open in the main thread,
which is the call that started the worker.  Functions listed as hot are only
counted: they run up to tens of thousands of times per operation, so a span each
would cost more memory and time than the work they do.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans and counts for one traced pass.

    ``hooks`` maps a traced name to ``fn(tracer, args, kwargs, result)``,
    called after a successful call to add counts read off the arguments or
    the result (points sampled, iterations, bytes written).
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans: list[tuple] = []
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[tuple[int, str]] = []
        self._thread_counts: list[defaultdict] = []
        self._register = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._distinct: defaultdict = defaultdict(set)

    # ---- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def _counts(self) -> defaultdict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = defaultdict(float)
            with self._register:
                self._thread_counts.append(counts)
            self._local.counts = counts
        return counts

    def add(self, key: str, amount: float = 1.0) -> None:
        """Add to a count of the calling thread (summed by :meth:`counts`)."""
        self._counts()[key] += amount

    def distinct(self, key: str, value) -> None:
        """Count ``value`` under ``key`` once, however often it is seen."""
        with self._register:
            self._distinct[key].add(value)

    def enclosing(self, name: str):
        """Id of the innermost open span called ``name`` in this thread."""
        for span_id, span_name in reversed(self._stack()):
            if span_name == name:
                return span_id
        return None

    def counts(self) -> dict[str, float]:
        total: defaultdict = defaultdict(float)
        with self._register:
            for counts in self._thread_counts:
                for key, val in counts.items():
                    total[key] += val
            for key, values in self._distinct.items():
                total[key] += len(values)
        return dict(total)

    def span(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op_id,
                               threading.current_thread().name))
            counts = self._counts()
            counts[name + ".calls"] += 1
            counts[name + ".s"] += end - start
        hook = self.hooks.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    # ---- patching --------------------------------------------------------
    def wrap(self, name: str, fn, hot: bool = False):
        if hot:
            key = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._counts()[key] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)
        return traced

    def patch(self, namespaces, original, replacement) -> int:
        """Replace ``original`` by ``replacement`` wherever it appears as an
        attribute of one of ``namespaces`` (modules or classes)."""
        hits = 0
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, replacement)
                    hits += 1
        return hits

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover.

    Children of one span may run in several threads and overlap, so their
    intervals are merged before they are subtracted.
    """
    children: defaultdict = defaultdict(list)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out
