"""In-memory span tracer that wraps a module's public functions in place.

Callers inside the package look these functions up as module attributes at
call time, so replacing the attribute traces every call, nested ones too.
Coarse calls become span records with their parent; hot per-name calls
(`leaf=True`) are folded into per-name statistics and into a per-parent
count, so a traced ablation does not hold a million span objects.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from dataclasses import dataclass, field


@dataclass
class Stat:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: array = field(default_factory=lambda: array("d"))

    def mean_us(self) -> float:
        return 1e6 * self.total_s / self.count if self.count else 0.0

    def p50_us(self) -> float:
        return 1e6 * statistics.median(self.durations) if self.durations else 0.0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.stats: dict[str, Stat] = {}
        self.maxima: dict[str, float] = {}  # largest value seen by `observe`
        self._stack: list[list] = []      # [label, child seconds, span or None]
        self._patched: list[tuple] = []   # (module, attr, original)

    def stat(self, label: str) -> Stat:
        return self.stats.get(label) or Stat()

    def wrap(self, module, attr: str, *, key=None, leaf: bool = False, observe=None) -> None:
        """Replace `module.attr` by a traced version named "<module>.<attr>".

        `key(*args, **kwargs)` may add a suffix such as the model kind;
        `observe(result)` gives a number kept in `maxima` under the label.
        """
        original = getattr(module, attr)
        base = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            label = base if key is None else f"{base}.{key(*args, **kwargs)}"
            span = None
            if not leaf:
                span = {"id": len(tracer.spans), "name": label,
                        "parent": tracer._open_span_id(), "leaf_calls": {}}
                tracer.spans.append(span)
            frame = [label, 0.0, span]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(frame, start, end)
            if observe is not None:
                value = observe(result)
                tracer.maxima[label] = max(value, tracer.maxima.get(label, value))
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def _open_span_id(self):
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]["id"]
        return None

    def _close(self, frame, start: float, end: float) -> None:
        label, child_s, span = frame
        dur = end - start
        st = self.stats.get(label)
        if st is None:
            st = self.stats[label] = Stat()
        st.count += 1
        st.total_s += dur
        st.self_s += dur - child_s
        st.durations.append(dur)
        if self._stack:
            self._stack[-1][1] += dur
        if span is not None:
            span.update(start=start, end=end, self_s=dur - child_s)
        else:
            parent = self._open_span_id()
            if parent is not None:
                calls = self.spans[parent]["leaf_calls"]
                calls[label] = calls.get(label, 0) + 1

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write spans and per-function statistics as JSON."""
        summary = {
            label: {"count": st.count, "total_s": st.total_s, "self_s": st.self_s,
                    "p50_us": st.p50_us()}
            for label, st in sorted(self.stats.items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": summary, "maxima": self.maxima, "spans": self.spans}, fh, indent=1)
