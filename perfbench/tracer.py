"""Outside-in span tracing for the benchmark's traced run.

Nothing inside ``src/`` is instrumented.  :class:`Tracer` wraps public
callables of the program (module functions, class attributes, instance
methods) from the benchmark's own code, records one span per call
(name, start, end, parent, trace id) in memory, and puts every wrapped
attribute back on :meth:`Tracer.restore`.  A span's *self time* is
its duration minus the durations of its direct children, so the self
times of one trace sum to the duration of its root span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

_MISSING = object()


class Tracer:
    """In-memory span recorder plus attribute patcher.

    Wrappers registered with ``root=True`` open a new trace (one id per
    training step or served micro-batch) when no span is open; other
    wrappers record only inside an open trace, so calls made outside a
    traced root (for example by the untraced exact replica) cost one
    branch and leave no span.
    """

    def __init__(self):
        # Rows of [name, start_s, end_s, parent_index, trace_id].
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self._next_trace = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, *, root: bool = False):
        """A callable that records a span around every call of ``fn``."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled or (not stack and not root):
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
                trace_id = spans[parent][4]
            else:
                parent = -1
                trace_id = self._next_trace
                self._next_trace += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, parent, trace_id])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attribute: str, name: str, *,
              root: bool = False) -> None:
        """Replace ``owner.attribute`` by a traced wrapper until restore.

        ``owner`` may be a module, a class (static methods stay static)
        or an instance (the wrapper shadows the class attribute).
        """
        wrapper = self.wrap(name, getattr(owner, attribute), root=root)
        if isinstance(vars(owner).get(attribute), staticmethod):
            wrapper = staticmethod(wrapper)
        self.replace(owner, attribute, wrapper)

    def replace(self, owner, attribute: str, value) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attribute,
                              vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, raw)

    # ------------------------------------------------------------------
    def roots(self, name: str) -> list[int]:
        return [index for index, span in enumerate(self.spans)
                if span[3] == -1 and span[0] == name]

    def self_times(self) -> list[float]:
        """Self time (seconds) of every span, by span index."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def summary(self, root_name: str, within=None) -> dict:
        """Per-name self time and call totals over traces rooted at
        ``root_name`` (only roots inside the ``(first, stop)`` span-index
        ranges of ``within``, when given), plus each root's duration and
        the largest difference between a root's duration and its
        trace's self-time sum (zero up to rounding, by construction)."""
        own = self.self_times()
        roots = {index for index in self.roots(root_name)
                 if within is None
                 or any(first <= index < stop for first, stop in within)}
        trace_ids = {self.spans[index][4] for index in roots}
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        per_trace: dict[int, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span[4] not in trace_ids:
                continue
            self_s[span[0]] += own[index]
            calls[span[0]] += 1
            per_trace[span[4]] += own[index]
        root_s = {self.spans[index][4]: self.spans[index][2]
                  - self.spans[index][1] for index in roots}
        worst = max((abs(per_trace[trace] - duration)
                     for trace, duration in root_s.items()), default=0.0)
        return {"traces": len(roots), "self_s": dict(self_s),
                "calls": dict(calls),
                "root_s": sorted(root_s.values()),
                "max_self_sum_error_s": worst}

    def write(self, path: Path) -> None:
        """Write every span as columns (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent", "trace"],
            "spans": [[code[s[0]], round((s[1] - origin) * 1e6, 1),
                       round((s[2] - origin) * 1e6, 1), s[3], s[4]]
                      for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
