"""Backward-in-time tracing over recorded graphical logs.

Voter logs keep every arrival (arrow plus update mark at its head), so the
dual of a site is a coalescing random walk. Culture-model logs keep only
accepted arrows with their copied-feature label; tracing the arrows of one
feature yields that feature's ancestral lineage.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

from .core import InvalidInput
from .engine import AXELROD, VOTER
from .events import EventTable, UpdateEvent
from .logio import replay


@dataclass(frozen=True)
class Arrow:
    """One arrow of a hand-built log."""
    time: float
    source: int
    target: int
    label: int | None  # copied feature; None for voter logs


@dataclass(frozen=True)
class ArrowLog:
    """Arrows up to `horizon` as the columns of an event table: time, source,
    target and, in a `labeled` log, the copied feature as the label.

    `arrow_log_from_trajectory` shares the trajectory's table. A sequence of
    `Arrow`s is converted to a table here, with label None as -1 and
    delta_w 0.
    """
    arrows: EventTable = field(hash=False)
    horizon: float
    labeled: bool

    def __post_init__(self):
        if not isinstance(self.arrows, EventTable):
            object.__setattr__(self, "arrows", EventTable.of(
                UpdateEvent(a.time, a.target, a.source, -1 if a.label is None else a.label, 0)
                for a in self.arrows))

    @cached_property
    def _incoming(self) -> dict:
        # Built on first use and kept in the instance __dict__, which the
        # frozen dataclass's eq, hash and repr never read.
        return _incoming_index(self)


@dataclass(frozen=True)
class DualWalkResult:
    start: tuple  # (vertex, time)
    path: tuple  # ((vertex, (t_lo, t_hi)), ...) from start back to time 0
    end_vertex: int

    @classmethod
    def _of(cls, start: tuple, path: tuple, end_vertex: int) -> DualWalkResult:
        """The result as the tracer builds it, without the frozen dataclass's
        per-field `object.__setattr__`. Nothing is checked or copied."""
        res = cls.__new__(cls)
        res.__dict__.update(start=start, path=path, end_vertex=end_vertex)
        return res


@dataclass(frozen=True)
class DualityReport:
    per_vertex: tuple
    mismatches: int

    @property
    def all_true(self) -> bool:
        return self.mismatches == 0


def arrow_log_from_trajectory(traj) -> ArrowLog:
    """The trajectory's arrows, sharing its event table."""
    if traj.model not in (VOTER, AXELROD):
        raise InvalidInput(f"no arrow-log form for model {traj.model!r}")
    return ArrowLog(EventTable.of(traj.events), traj.end_time, labeled=traj.model == AXELROD)


# The index entry of a label no arrow carries; `_trace` only reads it.
_NO_ARROWS = ({}, {})


def _incoming_index(log: ArrowLog) -> dict:
    """Per feature label (None for an unlabeled log), per target vertex: the
    time-sorted times and sources of its incoming arrows."""
    ev = log.arrows
    labels = ev.copied_feature if log.labeled else repeat(None)
    index: dict = {}
    for label, v, t, u in zip(labels, ev.target, ev.time, ev.source):
        times, sources = index.setdefault(label, ({}, {}))
        times.setdefault(v, []).append(t)
        sources.setdefault(v, []).append(u)
    return index


def _trace(times, sources, x: int, t: float) -> DualWalkResult:
    cur, cur_t = x, t
    path = []
    while True:
        ts = times.get(cur)
        i = bisect_left(ts, cur_t) - 1 if ts else -1
        if i < 0:
            path.append((cur, (0.0, cur_t)))
            return DualWalkResult._of((x, t), tuple(path), cur)
        path.append((cur, (ts[i], cur_t)))
        cur_t = ts[i]
        cur = sources[cur][i]


def _checked_index(log: ArrowLog, labeled: bool, t: float, refusal: str) -> dict:
    """The log's incoming index, once the log is labeled or not as the caller
    needs (otherwise InvalidInput `refusal`) and 0 <= t <= its horizon."""
    if log.labeled != labeled:
        raise InvalidInput(refusal)
    if not 0 <= t <= log.horizon:  # also refuses NaN
        raise InvalidInput(f"t={t} outside [0, log horizon {log.horizon}]")
    return log._incoming


def trace_dual_walk(log: ArrowLog, x: int, t: float) -> DualWalkResult:
    """Position at time 0 of the dual walker started from (x, t)."""
    index = _checked_index(log, False, t, "dual walk needs a voter (unlabeled) log")
    times, sources = index.get(None, _NO_ARROWS)
    return _trace(times, sources, x, t)


def trace_lineage(log: ArrowLog, i: int, u: int, t: float) -> DualWalkResult:
    """Endpoint at time 0 of the feature-i lineage started from (u, t)."""
    index = _checked_index(log, True, t, "lineage tracing needs a labeled log")
    times, sources = index.get(i, _NO_ARROWS)
    return _trace(times, sources, u, t)


def check_voter_duality(log: ArrowLog, initial, t: float) -> DualityReport:
    """Pathwise identity: forward state at t equals the initial state at the
    traced dual endpoint, for every vertex."""
    index = _checked_index(log, False, t, "duality check needs a voter log")
    ops = replay(initial, log.arrows, VOTER, upto=t).opinions
    times, sources = index.get(None, _NO_ARROWS)
    per_vertex = []
    for x in range(initial.topology.n_vertices):
        end = _trace(times, sources, x, t).end_vertex
        per_vertex.append(ops[x] == initial.opinions[end])
    return DualityReport(tuple(per_vertex), sum(1 for ok in per_vertex if not ok))
