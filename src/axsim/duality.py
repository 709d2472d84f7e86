"""Backward-in-time tracing over recorded graphical logs.

Voter logs keep every arrival (arrow plus update mark at its head), so the
dual of a site is a coalescing random walk. Culture-model logs keep only
accepted arrows with their copied-feature label; tracing the arrows of one
feature yields that feature's ancestral lineage.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .core import InvalidInput, ModelParams, Topology, random_config
from .engine import AXELROD, VOTER, StopRule, replicate_seeds, run_model


@dataclass(frozen=True)
class Arrow:
    time: float
    source: int
    target: int
    label: int | None  # copied feature; None for voter logs


@dataclass(frozen=True)
class ArrowLog:
    arrows: tuple
    horizon: float
    labeled: bool

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


@dataclass(frozen=True)
class DualityReport:
    per_vertex: tuple
    mismatches: int

    @property
    def all_true(self) -> bool:
        return self.mismatches == 0


@dataclass(frozen=True)
class ConditionalEstimate:
    estimate: float | None  # None when no replicate hit the conditioning event
    std_error: float | None
    hits: int
    successes: int
    replicates: int

    @property
    def defined(self) -> bool:
        return self.hits > 0


def arrow_log_from_trajectory(traj) -> ArrowLog:
    if traj.model == VOTER:
        arrows = tuple(Arrow(e.time, e.source, e.target, None) for e in traj.events)
        return ArrowLog(arrows, traj.end_time, labeled=False)
    if traj.model == AXELROD:
        arrows = tuple(
            Arrow(e.time, e.source, e.target, e.copied_feature) for e in traj.events
        )
        return ArrowLog(arrows, traj.end_time, labeled=True)
    raise InvalidInput(f"no arrow-log form for model {traj.model!r}")


def _incoming_index(log: ArrowLog) -> dict:
    """Per feature label (None for an unlabeled log), per target vertex: the
    time-sorted times and sources of its incoming arrows."""
    index: dict = {}
    for a in log.arrows:
        times, sources = index.setdefault(a.label if log.labeled else None, ({}, {}))
        times.setdefault(a.target, []).append(a.time)
        sources.setdefault(a.target, []).append(a.source)
    return index


def _trace(times, sources, x: int, t: float) -> DualWalkResult:
    cur, cur_t = x, t
    path = []
    while True:
        ts = times.get(cur)
        i = bisect_left(ts, cur_t) - 1 if ts else -1
        if i < 0:
            path.append((cur, (0.0, cur_t)))
            return DualWalkResult((x, t), tuple(path), cur)
        path.append((cur, (ts[i], cur_t)))
        cur_t = ts[i]
        cur = sources[cur][i]


def trace_dual_walk(log: ArrowLog, x: int, t: float) -> DualWalkResult:
    """Position at time 0 of the dual walker started from (x, t)."""
    if log.labeled:
        raise InvalidInput("dual walk needs a voter (unlabeled) log")
    if t > log.horizon:
        raise InvalidInput(f"t={t} beyond log horizon {log.horizon}")
    times, sources = log._incoming.get(None, ({}, {}))
    return _trace(times, sources, x, t)


def trace_lineage(log: ArrowLog, i: int, u: int, t: float) -> DualWalkResult:
    """Endpoint at time 0 of the feature-i lineage started from (u, t)."""
    if not log.labeled:
        raise InvalidInput("lineage tracing needs a labeled log")
    if t > log.horizon:
        raise InvalidInput(f"t={t} beyond log horizon {log.horizon}")
    times, sources = log._incoming.get(i, ({}, {}))
    return _trace(times, sources, u, t)


def check_voter_duality(log: ArrowLog, initial, t: float) -> DualityReport:
    """Pathwise identity: forward state at t equals the initial state at the
    traced dual endpoint, for every vertex."""
    if log.labeled:
        raise InvalidInput("duality check needs a voter log")
    if t > log.horizon:
        raise InvalidInput(f"t={t} beyond log horizon {log.horizon}")
    ops = list(initial.opinions)
    for a in log.arrows:
        if a.time > t:
            break
        ops[a.target] = ops[a.source]
    times, sources = log._incoming.get(None, ({}, {}))
    per_vertex = []
    for x in range(initial.topology.n_vertices):
        end = _trace(times, sources, x, t).end_vertex
        per_vertex.append(ops[x] == initial.opinions[end])
    return DualityReport(tuple(per_vertex), sum(1 for ok in per_vertex if not ok))


def estimate_lemma_0edge_probability(params: ModelParams, N: int, x: int, y: int,
                                     z: int, t: float, replicates: int,
                                     seed: int) -> ConditionalEstimate:
    """Monte Carlo estimate of P(feature-0 of x equals feature-0 of z | the
    feature-0 of y differs from both) at time t on the path {0,...,N}."""
    if not 0 <= x < y < z <= N:
        raise InvalidInput("need 0 <= x < y < z <= N")
    if replicates < 1:
        raise InvalidInput("replicates must be >= 1")
    topo = Topology("path", N + 1)
    stop = StopRule(t_max=t, stop_on_absorption=False)
    hits = 0
    successes = 0
    for r in range(replicates):
        s_init, s_run = replicate_seeds(seed, r)
        cfg = random_config(params, topo, s_init)
        traj = run_model(AXELROD, cfg, stop, s_run)
        fx = traj.final.cultures[x][0]
        fy = traj.final.cultures[y][0]
        fz = traj.final.cultures[z][0]
        if fy != fx and fy != fz:
            hits += 1
            if fx == fz:
                successes += 1
    if hits == 0:
        return ConditionalEstimate(None, None, 0, 0, replicates)
    p = successes / hits
    se = (p * (1 - p) / hits) ** 0.5
    return ConditionalEstimate(p, se, hits, successes, replicates)
