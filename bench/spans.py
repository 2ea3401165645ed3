"""In-memory spans recorded around trustvet's public functions.

A Tracer replaces a module attribute with a wrapper that records a span
(name, start, end, parent, request id) and hands the arguments and result
to an optional observer, which adds counts. The wrapper goes on the
attribute the caller looks up, so nothing in the package changes. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        # True while the current request is an input's first visit, and what
        # observers collect on first visits (input shares, not repeats)
        self.first_visit = False
        self.first_visit_values: list = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name, observe=None) -> None:
        """Record a span for every call of module.attr.

        name is a string or a function of (args, kwargs) giving one;
        observe(args, kwargs, result) runs after the span closes.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(args, kwargs)):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def count_calls(self, obj, attr: str, counter: str) -> None:
        """Count calls of obj.attr without recording spans (hot paths)."""
        original = getattr(obj, attr)
        counts = self.counts
        own = attr in vars(obj)

        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        setattr(obj, attr, counted)
        self._restore.append((obj, attr, original if own else None))

    def restore(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            if original is None:
                delattr(obj, attr)  # the instance falls back to its class
            else:
                setattr(obj, attr, original)

    # --- reading the spans ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float], int]:
        """Per span name: call count, total time and total self time (s),
        plus the number of spans whose self time came out negative.

        Self time is the span's duration minus the durations of its direct
        children, which run one after another inside it.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        negative = 0
        for index, span in enumerate(self.spans):
            duration = span[END] - span[START]
            own = duration - child_time[index]
            if own < 0:
                negative += 1
            calls[span[NAME]] += 1
            total[span[NAME]] += duration
            self_time[span[NAME]] += own
        return dict(calls), dict(total), dict(self_time), negative

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "request": span[REQUEST],
                }) + "\n")

