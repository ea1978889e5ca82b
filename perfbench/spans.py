"""Span recording for traced benchmark runs.

A traced run wraps every public call the benchmark makes into the package
in a span: name, start, end, parent span and operation id. Each operation
(one query, one ingest pass, one CLI call) opens one parent span; the calls
it makes are its children. Spans stay in memory and are summarised once,
after the timed loop. Spans inside the package itself are not recorded.

An untraced run uses NullTracer, which calls straight through, so the
end-to-end figures carry no tracing cost. Each operation closes with the
machine-speed scale the run applies to its time (see reference.py), and
every self time is reported on that scale.
"""

from __future__ import annotations

import time
from collections import defaultdict
from statistics import median


class NullTracer:
    enabled = False

    def begin(self, name: str) -> None:
        pass

    def end(self, end: float, scale: float) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # [op_id, name, start, end, parent_index, scale]
        self.spans: list[list] = []
        self._open: int | None = None
        self._ops = 0

    def begin(self, name: str) -> None:
        self._ops += 1
        self.spans.append([self._ops, name, time.perf_counter(), None, None, 1.0])
        self._open = len(self.spans) - 1

    def end(self, end: float, scale: float) -> None:
        if self._open is not None:
            self.spans[self._open][3] = end
            self.spans[self._open][5] = scale
            self._open = None

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        parent = self._open
        op_id = self.spans[parent][0] if parent is not None else None
        self.spans.append([op_id, name, start, end, parent, None])
        return result

    def self_times(self) -> list[tuple[str, str | None, float]]:
        """(span name, parent span name, scaled self seconds) for every
        closed span; self time is the span's duration minus its children's
        durations, scaled by its operation's scale."""
        child_total: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_total[parent] += end - start
        out = []
        for i, (_, name, start, end, parent, scale) in enumerate(self.spans):
            if end is None:
                continue
            parent_name = self.spans[parent][1] if parent is not None else None
            if scale is None:
                scale = self.spans[parent][5] if parent is not None else 1.0
            out.append((name, parent_name, (end - start - child_total[i]) * scale))
        return out

    def layer_medians(self) -> dict[str, float]:
        """Median self seconds per span name."""
        by_name: dict[str, list[float]] = defaultdict(list)
        for name, _, seconds in self.self_times():
            by_name[name].append(seconds)
        return {name: median(v) for name, v in by_name.items()}

    def breakdown(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per operation kind: for each layer, its call count and mean self
        milliseconds per operation. The operation's own self time (benchmark
        glue between calls) appears under its own name."""
        ops: dict[str, int] = defaultdict(int)
        for _, name, _, end, parent, _ in self.spans:
            if parent is None and end is not None:
                ops[name] += 1
        table: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for name, parent_name, seconds in self.self_times():
            kind = parent_name or name
            cell = table[kind][name]
            cell[0] += 1
            cell[1] += seconds
        return {
            kind: {
                name: {"calls": calls, "self_ms_per_op": 1e3 * total / max(1, ops[kind])}
                for name, (calls, total) in sorted(layers.items())
            }
            for kind, layers in sorted(table.items())
        }
