"""Exact continuous-time simulation via per-edge Poisson proposals.

The culture model is driven by the graphical construction: every oriented
edge proposes at rate 1/2 with a uniform feature draw (thinning) and a
uniform tie-break among disagreeing features. Edges whose weight is 0 or F
cannot produce an accepted proposal, so the engine keeps an active-edge set
and only schedules clocks there; skipped proposals are rejected with
probability 1, so the law is unchanged. The voter model and the constrained
voter model run in the same event loop (`run_model`), each through its own
small kernel.

One trajectory uses one RNG stream in a fixed call order, which makes runs
bit-reproducible from the seed. The attached urn (when requested) draws
from a separate substream so trajectories are identical with or without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    Configuration,
    InvalidInput,
    OpinionConfig,
    Topology,
    edge_overlap_count,
)
from .stats import DomainStats, EdgeCensus, census_from_counts, domains_from_census
from .urn import UrnState, urn_coupled_step, urn_init, urn_potentials

AXELROD = "axelrod"
VOTER = "voter"
CVM = "cvm"
MODELS = (AXELROD, VOTER, CVM)


@dataclass(frozen=True)
class GraphicalDraw:
    time: float
    source: int
    target: int
    feature_draw: int  # U, uniform over {0,...,F-1}
    tie_draw: float  # W, uniform over (0,1)


@dataclass(frozen=True)
class UpdateEvent:
    time: float
    target: int
    source: int
    copied_feature: int  # -1 for opinion models
    delta_w: int  # change of total agreement W; flip flag for opinion models


@dataclass(frozen=True)
class StopRule:
    t_max: float | None = None
    max_events: int | None = None
    stop_on_absorption: bool = False

    def __post_init__(self):
        if self.t_max is None and self.max_events is None and not self.stop_on_absorption:
            raise InvalidInput("stop rule needs at least one bound")


@dataclass(frozen=True)
class Snapshot:
    time: float
    census: EdgeCensus
    domains: DomainStats


@dataclass
class Trajectory:
    model: str
    initial: object
    events: list
    snapshots: list
    final: object
    absorbed: bool
    end_time: float
    seed: int
    urn_final: UrnState | None = None
    urn_series: list | None = None  # (event idx, B_0..B_F, w_0, beta, eps)
    urn_b0_violations: int = 0
    urn_potential_violations: int = 0


def propose_and_apply(cfg: Configuration, draw: GraphicalDraw):
    """Apply one graphical draw; returns (configuration, event-or-None).

    Accepted iff the feature draw lands in the agreement set and some
    feature disagrees; the copied feature is the tie-broken element of the
    disagreement set, so acceptance probability equals the shared fraction.
    """
    u, v = draw.source, draw.target
    if not cfg.topology.are_adjacent(u, v):
        raise InvalidInput(f"draw references non-edge ({u},{v})")
    F = cfg.params.F
    if not 0 <= draw.feature_draw < F:
        raise InvalidInput("feature draw out of range")
    if not 0.0 < draw.tie_draw < 1.0:
        raise InvalidInput("tie draw outside (0,1)")
    cu, cv = cfg.cultures[u], cfg.cultures[v]
    disagree = [i for i in range(F) if cu[i] != cv[i]]
    if draw.feature_draw in disagree or not disagree:
        return cfg, None
    k = len(disagree)
    j = min(l for l in range(1, k + 1) if k * draw.tie_draw < l)
    feat = disagree[j - 1]
    new_cultures = list(cfg.cultures)
    cv2 = list(cv)
    cv2[feat] = cu[feat]
    new_cultures[v] = tuple(cv2)
    after = Configuration(cfg.topology, cfg.params, tuple(new_cultures))
    delta = classify_delta_w(cfg, UpdateEvent(draw.time, v, u, feat, -1), after)
    event = UpdateEvent(draw.time, v, u, feat, delta)
    return after, event


def classify_delta_w(before: Configuration, event: UpdateEvent, after: Configuration) -> int:
    """W(after) - W(before) from the at-most-two edges incident to the target."""
    v, u, feat = event.target, event.source, event.copied_feature
    if after.cultures[v][feat] != before.cultures[u][feat]:
        raise InvalidInput("event inconsistent with before/after pair")
    delta = 0
    for z in before.topology.neighbors(v):
        delta += edge_overlap_count(after, v, z) - edge_overlap_count(before, v, z)
    if delta not in (0, 1, 2):
        raise InvalidInput(f"delta_w {delta} outside {{0,1,2}}")
    return delta


def _rng_pair(seed: int):
    ss = np.random.SeedSequence(seed)
    traj_ss, urn_ss = ss.spawn(2)
    return np.random.default_rng(traj_ss), np.random.default_rng(urn_ss)


def replicate_seeds(master_seed: int, r: int) -> tuple[int, int]:
    """Independent (initial-state seed, run seed) of replicate r under master_seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(r,))
    init_seed, run_seed = ss.generate_state(2, np.uint64)
    return int(init_seed), int(run_seed)


class _SnapshotTaker:
    def __init__(self, times, topology: Topology):
        self.times = sorted(times)
        self.topology = topology
        self.out: list[Snapshot] = []

    def flush(self, upto: float, counts) -> float:
        """Record every pending time <= upto; returns the next pending time.

        Left-limit semantics: called before applying any event at `upto`.
        """
        while self.times and self.times[0] <= upto:
            census = census_from_counts(counts)
            self.out.append(Snapshot(self.times.pop(0), census,
                                     domains_from_census(census, self.topology)))
        return self.times[0] if self.times else math.inf


class _ActiveSet:
    """Swap-remove list of active edge indices with O(1) membership updates."""

    def __init__(self, n_edges: int):
        self.items: list[int] = []
        self.pos = [-1] * n_edges

    def set(self, e: int, active: bool):
        p = self.pos[e]
        if active and p < 0:
            self.pos[e] = len(self.items)
            self.items.append(e)
        elif not active and p >= 0:
            last = self.items[-1]
            self.items[p] = last
            self.pos[last] = p
            self.items.pop()
            self.pos[e] = -1


class _Kernel(NamedTuple):
    """One model's dynamics, as closures over its private state."""
    rate: Callable[[], int]  # total proposal rate; 0 means nothing can change
    step: Callable[[float], UpdateEvent | None]  # one proposal at time t; None if thinned
    census: Callable[[], Sequence[int]]  # edge counts w_0..w_F (opinions: disagree, agree)
    absorbed: Callable[[], bool]
    final: Callable[[], object]


def _incidence(topo: Topology):
    """Edge list and, per vertex, the indices of its (at most two) edges."""
    edges = topo.edges()
    incident = [[] for _ in range(topo.n_vertices)]
    for e, (a, b) in enumerate(edges):
        incident[a].append(e)
        incident[b].append(e)
    return edges, incident


def _culture_kernel(initial, rng) -> _Kernel:
    """Both orientations of every active edge propose at rate 1/2."""
    if not isinstance(initial, Configuration):
        raise InvalidInput("culture model takes a Configuration")
    F = initial.params.F
    states = [list(c) for c in initial.cultures]
    edges, incident = _incidence(initial.topology)
    weight = [sum(1 for i in range(F) if states[a][i] == states[b][i]) for a, b in edges]
    counts = [0] * (F + 1)
    active = _ActiveSet(len(edges))
    for e, w in enumerate(weight):
        counts[w] += 1
        active.set(e, 0 < w < F)
    items, integers, uniform = active.items, rng.integers, rng.random

    def step(t):
        e = items[int(integers(len(items)))]
        a, b = edges[e]
        u, v = (a, b) if integers(2) == 0 else (b, a)
        su, sv = states[u], states[v]
        U = int(integers(F))
        if su[U] != sv[U]:
            return None  # proposal thinned away: feature draw in disagreement set
        disagree = [i for i in range(F) if su[i] != sv[i]]
        feat = disagree[int(len(disagree) * uniform())]  # >= 1 on an active edge
        old, new = sv[feat], su[feat]
        delta = 1
        _bump(weight, counts, active, e, 1, F)
        for e2 in incident[v]:
            if e2 == e:
                continue
            za, zb = edges[e2]
            z = zb if za == v else za
            dd = (states[z][feat] == new) - (states[z][feat] == old)
            if dd:
                _bump(weight, counts, active, e2, dd, F)
            delta += dd
        sv[feat] = new
        return UpdateEvent(t, v, u, feat, delta)

    return _Kernel(items.__len__, step, lambda: counts, lambda: not items,
                   lambda: Configuration(initial.topology, initial.params,
                                         tuple(tuple(s) for s in states)))


def _bump(weight, counts, active, e, d, F):
    counts[weight[e]] -= 1
    weight[e] += d
    counts[weight[e]] += 1
    active.set(e, 0 < weight[e] < F)


def _opinions(initial, model: str, alphabet: set) -> list:
    if not isinstance(initial, OpinionConfig):
        raise InvalidInput(f"{model} takes an OpinionConfig")
    if set(initial.alphabet) != alphabet:
        raise InvalidInput(f"{model} initial must use opinions {sorted(alphabet)}")
    return list(initial.opinions)


def _voter_kernel(initial, rng) -> _Kernel:
    """Each vertex mimics a uniform neighbor at rate 1; every arrival is an event."""
    ops = _opinions(initial, VOTER, {0, 1})
    topo = initial.topology
    V, E = topo.n_vertices, topo.n_edges
    agree = sum(1 for a, b in topo.edges() if ops[a] == ops[b])
    nbrs = [topo.neighbors(x) for x in range(V)]
    integers = rng.integers

    def step(t):
        nonlocal agree
        x = int(integers(V))
        nx = nbrs[x]
        y = nx[int(integers(len(nx)))]
        flipped = ops[x] != ops[y]
        if flipped:
            for z in nx:
                agree += 1 if ops[z] == ops[y] else -1
            ops[x] = ops[y]
        return UpdateEvent(t, x, y, -1, int(flipped))

    return _Kernel(lambda: V, step, lambda: (E - agree, agree), lambda: agree == E,
                   lambda: OpinionConfig(topo, tuple(ops), initial.alphabet))


def _cvm_edge_active(ops, a, b) -> bool:
    # Interacting pairs are exactly {0, +1} and {0, -1}.
    return ops[a] != ops[b] and ops[a] + ops[b] != 0


def _cvm_kernel(initial, rng) -> _Kernel:
    """Both orientations of every active edge propose at rate 1/2; extremes never interact."""
    ops = _opinions(initial, CVM, {-1, 0, 1})
    topo = initial.topology
    edges, incident = _incidence(topo)
    E = len(edges)
    agree = sum(1 for a, b in edges if ops[a] == ops[b])
    active = _ActiveSet(E)
    for e, (a, b) in enumerate(edges):
        active.set(e, _cvm_edge_active(ops, a, b))
    items, integers = active.items, rng.integers

    def step(t):
        nonlocal agree
        e = items[int(integers(len(items)))]
        a, b = edges[e]
        y, x = (a, b) if integers(2) == 0 else (b, a)  # x mimics y
        old = ops[x]
        ops[x] = ops[y]
        for e2 in incident[x]:
            za, zb = edges[e2]
            z = zb if za == x else za
            agree += (ops[z] == ops[x]) - (ops[z] == old)
            active.set(e2, _cvm_edge_active(ops, za, zb))
        return UpdateEvent(t, x, y, -1, 1)

    return _Kernel(items.__len__, step, lambda: (E - agree, agree), lambda: not items,
                   lambda: OpinionConfig(topo, tuple(ops), initial.alphabet))


_KERNELS = {AXELROD: _culture_kernel, VOTER: _voter_kernel, CVM: _cvm_kernel}


def run_model(model, initial, stop: StopRule, seed: int, snapshot_times=(),
              attach_urn: bool = False, record_urn_series: bool = False) -> Trajectory:
    """Statistically exact trajectory of the chosen generator.

    Deterministic given seed. `snapshot_times` record the state just
    before each requested time. The model's kernel proposes; this loop draws
    the waiting times and owns the stop rule, snapshots and urn coupling. A
    run stops once the rate is 0, and on absorption only under
    `stop_on_absorption` (the voter model keeps logging arrivals after
    consensus). A run whose rate reached 0 is reported up to `t_max`.
    """
    if model not in _KERNELS:
        raise InvalidInput(f"unknown model {model!r}")
    rng, urn_rng = _rng_pair(seed)
    kernel = _KERNELS[model](initial, rng)
    if attach_urn and model != AXELROD:
        raise InvalidInput("urn coupling is defined for the culture model only")
    rate, step, census, absorbed = kernel.rate, kernel.step, kernel.census, kernel.absorbed
    exponential = rng.exponential
    taker = _SnapshotTaker(snapshot_times, initial.topology)
    next_snap = min(snapshot_times, default=math.inf)

    urn = urn_init(census_from_counts(census())) if attach_urn else None
    urn_series = [] if (attach_urn and record_urn_series) else None
    b0_viol = 0
    pot_viol = 0

    events: list[UpdateEvent] = []
    t = 0.0
    t_max = stop.t_max if stop.t_max is not None else math.inf
    max_events = stop.max_events if stop.max_events is not None else math.inf
    until_absorbed = stop.stop_on_absorption

    while True:
        r = rate()
        if r == 0 or len(events) >= max_events or (until_absorbed and absorbed()):
            break
        dt = exponential(1.0 / r)
        if t + dt > t_max:
            taker.flush(t_max, census())
            t = t_max
            break
        t += dt
        if t >= next_snap:
            next_snap = taker.flush(t, census())
        ev = step(t)
        if ev is None:
            continue
        events.append(ev)
        if urn is not None:
            counts = census()
            urn = urn_coupled_step(urn, ev.delta_w, urn_rng)
            beta, eps = urn_potentials(urn, census_from_counts(counts))
            if urn.boxes[0] > counts[0]:
                b0_viol += 1
            if urn.boxes[0] > 0 and beta < eps:
                pot_viol += 1
            if urn_series is not None:
                urn_series.append((len(events) - 1,) + urn.boxes + (counts[0], beta, eps))

    end_time = t
    if rate() == 0 and stop.t_max is not None and not until_absorbed:
        end_time = stop.t_max  # frozen: the state holds until t_max
    if absorbed():
        taker.flush(math.inf, census())  # the state is constant from here on
    else:
        taker.flush(end_time, census())
    return Trajectory(model, initial, events, taker.out, kernel.final(), absorbed(), end_time,
                      seed, urn_final=urn, urn_series=urn_series,
                      urn_b0_violations=b0_viol, urn_potential_violations=pot_viol)
