"""Spans around the program's public functions, recorded from outside.

A ``Tracer`` replaces module attributes (``kaczsim.engine.run``,
``kaczsim.agents.step``, ...) with wrappers that record one span per call:
name, start, end, parent span and an optional note taken from the call's
arguments or result.  The program looks these functions up through its
module namespaces at call time, so calls made inside the package are
recorded too.  ``close`` puts the original functions back.

Spans stay in memory; ``self_times`` and ``totals`` reduce them, and
``dump`` writes them out as JSON lines when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent index, note]
        self.note_s = 0.0                # time spent computing notes, outside every span
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Record a span named `name` around every call of module.attr.

        `note(args, kwargs, result, exc)` runs after the span has ended and
        its return value is stored on the span.
        """
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                stack.pop()
                if note is not None:
                    self._note(rec, note, args, kwargs, None, exc)
                raise
            rec[END] = clock()
            stack.pop()
            if note is not None:
                self._note(rec, note, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def _note(self, rec, note, args, kwargs, result, exc) -> None:
        t0 = self.clock()
        rec[NOTE] = note(args, kwargs, result, exc)
        self.note_s += self.clock() - t0

    def close(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    # ------------------------------------------------------------ reductions

    def children_s(self) -> list[float]:
        """Per span, the time its direct children cover.  Children of one
        span run one after another, so their durations add up."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        return covered

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and total self time."""
        covered = self.children_s()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, rec in enumerate(self.spans):
            d = rec[END] - rec[START]
            t = out[rec[NAME]]
            t["calls"] += 1
            t["s"] += d
            t["self_s"] += d - covered[i]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [rec[END] - rec[START] for rec in self.spans if rec[NAME] == name]

    def notes(self, name: str) -> list:
        return [rec[NOTE] for rec in self.spans if rec[NAME] == name]

    def dump(self, path) -> None:
        """Write one JSON object per span: id, parent, name, start, end."""
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": rec[PARENT], "name": rec[NAME],
                                     "start": rec[START], "end": rec[END]}) + "\n")
