"""In-memory spans recorded around the benchmark's calls into schoolsim.

A span is ``(id, name, parent id, start, end)`` with times from
``time.perf_counter``; every span of one run shares the tracer's trace id
(``<workload>-<seed>``).  Spans are kept in a list while the run goes and
written out once, at the end, as JSON lines.
"""

import json
import time


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.record = [len(t.spans), self.name, t._stack[-1] if t._stack else None, 0.0, 0.0]
        t.spans.append(self.record)
        t._stack.append(self.record[0])
        self.record[3] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record[4] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records nested spans; ``with tracer.span(name): ...`` wraps one call."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []

    def span(self, name: str):
        return _Span(self, name)

    def durations(self, name: str, parent=None) -> list:
        """Durations in seconds of the spans called `name`, optionally only
        the direct children of span id `parent`."""
        return [s[4] - s[3] for s in self.spans
                if s[1] == name and (parent is None or s[2] == parent)]

    def self_times(self) -> list:
        """Per span: its duration minus the time its direct children cover.

        Children of one parent run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] is not None:
                covered[s[2]] += s[4] - s[3]
        return [s[4] - s[3] - c for s, c in zip(self.spans, covered)]

    def write(self, path):
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "trace_id": self.trace_id, "span_id": s[0], "name": s[1],
                    "parent": s[2], "start": s[3], "end": s[4], "self_s": self_s,
                }) + "\n")


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for Tracer in untraced runs: records nothing."""

    _span = _NoSpan()

    def span(self, name: str):
        return self._span
