"""In-memory spans around the benchmark's calls into qkdlab's layers.

A span records its name, the pass it belongs to (the request identifier),
the span that caused it, start and end.  Self time is the duration minus
the time covered by child spans.  Spans stay in memory until the run ends,
when :meth:`Tracer.write` dumps them as NDJSON.
"""

import contextlib
import json
from collections import Counter
from time import perf_counter


class Tracer:
    """Records spans and counters; one instance per traced run."""

    enabled = True

    def __init__(self):
        self.spans = []          # (name, pass, parent index, start, end, self)
        self.counts = Counter()
        self.current_pass = 0
        self._open = []          # [span index, child seconds]

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1][0] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._open.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1][1] += end - start
            self.spans[index] = (name, self.current_pass, parent, start, end,
                                 end - start - frame[1])

    def count(self, name, amount=1):
        self.counts[name] += amount

    def self_times(self, name):
        return [s[5] for s in self.spans if s[0] == name]

    def busy(self, name):
        return sum(self.self_times(name))

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, pass_index, parent, start, end, own) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "span": index, "name": name, "pass": pass_index,
                    "parent": parent, "start": start, "end": end,
                    "self": own}) + "\n")


class NullTracer:
    """The untraced stand-in: spans and counters cost one call each."""

    enabled = False
    current_pass = 0
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, amount=1):
        pass
