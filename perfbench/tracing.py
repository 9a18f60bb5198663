"""The traced run: spans around calls into each layer's public functions.

:class:`Tracer` replaces layer callables with timing wrappers from the
benchmark's own files; nothing under ``src/`` changes and the program's
``Observability`` stays disabled.  A module that imports a name directly
(``from repro.aggregation.aggregate import rollup_many``) holds its own
binding, so every module whose attribute *is* the original function gets
the wrapper.

Each span records its name, start, end, parent span and the query id of
the client call it ran under (:meth:`Tracer.root`).  Spans stay in memory
until :meth:`Tracer.write`.  A span's self time is its duration minus the
time its child spans cover; children run on the parent's thread, nested
inside it, so that is the sum of the children's durations.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder with attribute-swapping wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        """``(id, name, start, end, parent id or -1, query id)``."""
        self.counters: dict[str, float] = defaultdict(float)
        self.span_extra: dict[int, float] = {}
        """Worker-reported serve ms per ``shard.rpc`` span id."""
        self._ids = itertools.count()
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def root(self, name: str, qid: str, fn, *args):
        """Run one client call as the root span of query ``qid``."""
        self._local.qid = qid
        try:
            return self._span(name, fn, args, {})
        finally:
            self._local.qid = None

    def _span(self, name, fn, args, kwargs, observe=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent,
                 getattr(self._local, "qid", None))
            )
        if observe is not None:
            observe(self, span_id, args, result)
        return result

    # ------------------------------------------------------------------ #
    # wrapping

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.  ``observe``
        gets ``(tracer, span id, args, result)`` after each call."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._span(name, original, args, kwargs, observe)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_bindings(self, module_prefix: str, attr: str, name: str,
                      original, observe=None) -> int:
        """Wrap ``attr`` in every loaded module under ``module_prefix``
        whose binding is ``original``; returns how many were wrapped."""
        wrapped = 0
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith(module_prefix) or module is None:
                continue
            if getattr(module, attr, None) is original:
                self.wrap(module, attr, name, observe)
                wrapped += 1
        return wrapped

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._count_lock:
            self.counters[key] += amount

    def unwrap(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # reduction

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_ms`` and ``self_ms``."""
        child_ms: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
        )
        for span_id, name, start, end, _, _ in self.spans:
            entry = out[name]
            busy = end - start
            entry["calls"] += 1
            entry["busy_ms"] += busy * 1e3
            entry["self_ms"] += max(busy - child_ms[span_id], 0.0) * 1e3
        return dict(out)

    def child_ms(self, parent_name: str) -> dict[int, float]:
        """Milliseconds covered by children, per span of ``parent_name``."""
        ids = {s[0] for s in self.spans if s[1] == parent_name}
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent in ids:
                covered[parent] += (end - start) * 1e3
        return covered

    def queries_sharing_ids(self) -> bool:
        """Every span carries the query id of its root span."""
        root_of: dict[int, tuple] = {s[0]: s for s in self.spans}
        for span in self.spans:
            node = span
            while node[4] >= 0 and node[4] in root_of:
                node = root_of[node[4]]
            if node[5] != span[5]:
                return False
        return True

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        base = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as out:
            for span_id, name, start, end, parent, qid in self.spans:
                out.write(json.dumps({
                    "id": span_id,
                    "name": name,
                    "start_ms": round((start - base) * 1e3, 4),
                    "end_ms": round((end - base) * 1e3, 4),
                    "parent": parent,
                    "query": qid,
                }) + "\n")
