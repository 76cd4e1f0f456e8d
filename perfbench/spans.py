"""Span tracing installed from outside the program.

``Tracer.install`` replaces public functions of the cocolour modules, and a
few ``Graph`` methods, with wrappers that record a span per call: name,
start, end, parent span and the op it belongs to.  Self time is a span's
duration minus the durations of its direct children, so the self times of
all spans add up to the time spent inside the outermost spans.  Wrappers
return the wrapped function's value and re-raise its exception unchanged;
``uninstall`` puts the original attributes back.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (op, span id, parent id, name, start, end, error)
        self.op = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counters = defaultdict(float)
        self._stack = []  # open spans: [id, name, start, child time]
        self._patches = []

    def reset(self):
        """Drop recorded spans and totals; installed wrappers stay."""
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.errors.clear()
        self.counters.clear()

    def _wrap(self, name, fn, observe):
        clock = self.clock
        stack = self._stack
        spans = self.spans
        calls, self_s, errors = self.calls, self.self_s, self.errors
        counters = self.counters

        def close(frame, error):
            end = clock()
            stack.pop()
            span_id, _, start, child = frame
            duration = end - start
            calls[name] += 1
            self_s[name] += duration - child
            if error is not None:
                errors[name] += 1
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[3] += duration
            spans.append(
                (self.op, span_id, parent and parent[0], name, start, end, error)
            )
            return parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans) + len(stack), name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                parent = close(frame, type(exc).__name__)
                if observe is not None:
                    observe(counters, args, exc, parent and parent[1])
                raise
            parent = close(frame, None)
            if observe is not None:
                observe(counters, args, result, parent and parent[1])
            return result

        return traced

    def install(self, targets):
        """Wrap every (owner, attribute, span name, observe) target."""
        for owner, attr, name, observe in targets:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(name, original.__func__, observe))
            else:
                wrapped = self._wrap(name, original, observe)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the recorded spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            for op, span_id, parent, name, start, end, error in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "op": op,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "error": error,
                        }
                    )
                )
                fh.write("\n")
