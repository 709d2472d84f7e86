"""In-memory spans around calls into axsim's public functions.

`Tracer.install` swaps a module attribute for a timing wrapper, so every call
that looks the name up in that module at call time is recorded. The program
itself is not changed. Spans stay in memory until the benchmark writes them.
"""
from __future__ import annotations

import time

NAME, FN, START, END, PARENT, CHILD_S = range(6)
# A replicate begins with one of these calls; the `SKIP` calls belong to the
# experiment as a whole (artifact writes, reloading a log), not to one replicate.
REPLICATE_STARTS = ("random_config", "run_model")
SKIP = ("execute", "atomic_write_text", "load_event_log", "replay")


class Tracer:
    def __init__(self):
        # One record per call: [name, fn, start, end, parent index, child seconds].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str, fn: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, fn, 0.0, 0.0, parent, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[END] = time.perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD_S] += rec[END] - rec[START]

    def install(self, module, attr: str, name: str, on_return=None):
        """Record a span `name` for each call of `module.attr`.

        `on_return(args, kwargs, result)` runs after the span closes, so
        counting costs nothing inside the measured interval.
        """
        fn = getattr(module, attr)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            rec = open_(name, attr)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(rec)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def uninstall(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def self_times(self) -> dict:
        """Seconds per span name, excluding time covered by child spans."""
        out: dict[str, float] = {}
        for rec in self.spans:
            out[rec[NAME]] = out.get(rec[NAME], 0.0) + rec[END] - rec[START] - rec[CHILD_S]
        return out

    def calls(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[NAME] == name)

    def replicate_seconds(self) -> list:
        """Duration of each replicate: the run of sibling spans around one run_model.

        Among the spans that share a parent, a replicate begins at the first
        REPLICATE_STARTS span after the previous replicate's run_model and
        ends with its last span before the next one begins.
        """
        groups: dict[int, list] = {}  # parent -> [[start, end, has run_model], ...]
        for rec in self.spans:
            if rec[FN] in SKIP:
                continue
            gs = groups.setdefault(rec[PARENT], [])
            if not gs or (rec[FN] in REPLICATE_STARTS and gs[-1][2]):
                gs.append([rec[START], rec[END], False])
            g = gs[-1]
            g[1] = rec[END]
            g[2] = g[2] or rec[FN] == "run_model"
        return [end - start for gs in groups.values() for start, end, has_run in gs if has_run]

    def dump(self) -> list:
        """Spans as [name, fn, start offset s, duration s, parent index]."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return [[r[NAME], r[FN], r[START] - t0, r[END] - r[START], r[PARENT]]
                for r in self.spans]
