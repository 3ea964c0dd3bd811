"""In-memory span tracer that wraps the package's public functions.

A span records (name, start, end, parent index).  ``Tracer.wrap`` replaces
an attribute of a module or class with a wrapper that opens a span around
each call and, after the span has closed, hands the bound arguments and the
result to an optional ``observe`` callback that adds to the tracer's counts.
Counting outside the span keeps its cost out of the layer's time.
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Spans of this layer are the study's own code; every other span is a
# layer the study calls into.
STUDY_LAYER = "experiments"


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, observe=None):
        """Trace calls to ``owner.attr``; ``name`` may be a function of the
        bound arguments, so one function can feed two layers."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            label = name(arguments) if callable(name) else name
            with self.span(label):
                result = func(*args, **kwargs)
            if observe is not None:
                observe(self.counts, arguments, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def layer_times(self):
        """Per span name, the list of span durations in seconds."""
        out = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def study_self_time(self):
        """Duration of the root span minus the time covered by the spans of
        other layers that it calls directly or through study-layer spans."""
        def is_study(name):
            return name.startswith(STUDY_LAYER + ".")

        root = self.spans[0]
        covered = 0.0
        for name, start, end, parent in self.spans[1:]:
            if not is_study(name) and is_study(self.spans[parent][0]):
                covered += end - start
        return (root[2] - root[1]) - covered
