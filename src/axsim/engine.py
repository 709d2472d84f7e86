"""Exact continuous-time simulation by rejection-free event selection.

In the culture model an edge whose endpoints share j of the F features
fires at rate j/F: one of its two orientations is chosen uniformly, and the
target copies a uniformly chosen disagreeing feature of the source. This is
the law of the graphical construction in `propose_and_apply`, where each
oriented edge proposes at rate 1/2 and a proposal is kept iff its uniform
feature draw lands in the agreement set; a thinned proposal changes nothing,
so leaving it out keeps the law. The culture kernel never proposes what it
would reject (the n-fold way of Bortz, Kalos and Lebowitz, 1975). It keeps
the edges of weight 1..F-1 in one swap-remove list per weight class and
tracks S = sum_j j*n_j, so the total rate is S/F and a run is absorbed
exactly when S == 0. One step picks class j with probability j*n_j/S, then a
uniform edge in that class, a uniform orientation and a uniform disagreeing
feature; every step is an accepted event. The CVM kernel is the one-class
case: every active edge fires at rate 1. The voter kernel picks a uniform
vertex and a uniform neighbor at total rate V. One event loop (`run_model`)
draws the waiting times and owns the stop rule, snapshots and urn coupling.

Randomness is drawn in blocks. Each run makes one `_Draws` source on its
trajectory Generator, which refills Python lists from `rng.random(n)` and
`rng.standard_exponential(n)`; n doubles from 16 up to 4096 per refill, so
short runs draw little they do not use. An index below k is drawn as
int(u*k) from a uniform double u, which takes 2**53 equally likely values in
[0, 1): each index then has probability within 2**-52 of 1/k (rounding the
product moves a cell boundary by at most one value of u), so the draw is
within total-variation distance k*2**-53 of uniform. The class-and-edge pick
is one such draw with k = S: it selects the class by cumulative j*n_j, and
the remainder divided by j is exactly uniform over the class.

One trajectory uses one Generator in a fixed order of calls, which makes
runs bit-reproducible from the seed. The attached urn draws from a separate
substream, so trajectories are identical with or without it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
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
from .urn import UrnState, urn_coupled_step, urn_init

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


class UpdateEvent(NamedTuple):
    """One accepted event; a tuple, so a run's log is cheap to build and hold."""
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
    final_census: EdgeCensus  # census of `final`, from the engine's running counts
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


def _rng_pair(seed: int, with_urn: bool):
    """Trajectory and urn Generators: the two children of `SeedSequence(seed).spawn(2)`.

    Each child is built directly from its spawn key, the urn's only when it
    is used; the streams are those of the spawned children.
    """
    def child(k):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    return child(0), child(1) if with_urn else None


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


_FIRST_BLOCK, _MAX_BLOCK = 16, 4096  # block sizes of `_Draws`, doubling per refill


class _Draws:
    """Block-drawn uniforms on [0, 1) and Exp(1) variates of one run's Generator."""

    def __init__(self, rng):
        self._rng = rng
        self._u: list[float] = []
        self._e: list[float] = []
        self._nu = self._ne = _FIRST_BLOCK

    def uniform(self) -> float:
        if not self._u:
            self._u = self._rng.random(self._nu).tolist()
            self._nu = min(2 * self._nu, _MAX_BLOCK)
        return self._u.pop()

    def exponential(self) -> float:
        if not self._e:
            self._e = self._rng.standard_exponential(self._ne).tolist()
            self._ne = min(2 * self._ne, _MAX_BLOCK)
        return self._e.pop()


class _Buckets:
    """Edges in swap-remove lists by weight class 1..K; class 0 means absent.

    `total` is S = sum_j j*n_j over the classes, kept as edges move.
    """

    def __init__(self, classes: list[int], n_classes: int):
        """Edge e starts in class `classes[e]`; the list is kept, not copied."""
        self.lists: list[list[int]] = [[] for _ in range(n_classes + 1)]
        self.cls = classes
        self.pos = pos = [0] * len(classes)
        for e, c in enumerate(classes):
            if c:
                items = self.lists[c]
                pos[e] = len(items)
                items.append(e)
        self.total = sum(classes)

    def move(self, e: int, c: int):
        old = self.cls[e]
        if c == old:
            return
        pos = self.pos
        if old:
            items = self.lists[old]
            last = items.pop()
            if last != e:
                pos[last] = pos[e]
                items[pos[e]] = last
        if c:
            items = self.lists[c]
            pos[e] = len(items)
            items.append(e)
        self.cls[e] = c
        self.total += c - old

    def pick(self, u: float) -> int:
        """An edge of class j with probability j*n_j/S, uniform within the class."""
        x = int(u * self.total)  # < S, so some class takes it
        j = 1
        while x >= j * len(self.lists[j]):
            x -= j * len(self.lists[j])
            j += 1
        return self.lists[j][x // j]


class _Kernel(NamedTuple):
    """One model's dynamics, as closures over its private state."""
    rate: Callable[[], float]  # total event rate; 0 means nothing can change
    step: Callable[[float], UpdateEvent]  # one event at time t
    census: Callable[[], Sequence[int]]  # edge counts w_0..w_F (opinions: disagree, agree)
    absorbed: Callable[[], bool]
    final: Callable[[], object]


@lru_cache(maxsize=8)
def _incidence(topo: Topology):
    """Edge tuple and, per vertex, the indices of its (at most two) edges.

    Shared by every run on the same topology, so both are tuples.
    """
    edges = tuple(topo.edges())
    incident = [[] for _ in range(topo.n_vertices)]
    for e, (a, b) in enumerate(edges):
        incident[a].append(e)
        incident[b].append(e)
    return edges, tuple(map(tuple, incident))


def _culture_kernel(initial, uniform) -> _Kernel:
    """An edge of weight j fires at rate j/F; classes 1..F-1 hold the active edges."""
    if not isinstance(initial, Configuration):
        raise InvalidInput("culture model takes a Configuration")
    F = initial.params.F
    states = list(map(list, initial.cultures))
    edges, incident = _incidence(initial.topology)
    weight = [sum(map(operator.eq, states[a], states[b])) for a, b in edges]
    counts = [0] * (F + 1)
    for w in weight:
        counts[w] += 1
    buckets = _Buckets([w if w < F else 0 for w in weight], F - 1)
    pick = buckets.pick

    def step(t):
        e = pick(uniform())
        a, b = edges[e]
        u, v = (a, b) if uniform() < 0.5 else (b, a)
        su, sv = states[u], states[v]
        disagree = [i for i in range(F) if su[i] != sv[i]]
        feat = disagree[int(uniform() * len(disagree))]  # >= 1 on an active edge
        old, new = sv[feat], su[feat]
        delta = 1
        _bump(weight, counts, buckets, e, 1, F)
        for e2 in incident[v]:
            if e2 == e:
                continue
            za, zb = edges[e2]
            z = zb if za == v else za
            dd = (states[z][feat] == new) - (states[z][feat] == old)
            if dd:
                _bump(weight, counts, buckets, e2, dd, F)
            delta += dd
        sv[feat] = new
        return UpdateEvent(t, v, u, feat, delta)

    return _Kernel(lambda: buckets.total / F, step, lambda: counts,
                   lambda: buckets.total == 0,
                   lambda: Configuration(initial.topology, initial.params,
                                         tuple(map(tuple, states))))


def _bump(weight, counts, buckets, e, d, F):
    counts[weight[e]] -= 1
    w = weight[e] = weight[e] + d
    counts[w] += 1
    buckets.move(e, w if w < F else 0)


def _opinions(initial, model: str, alphabet: set) -> list:
    if not isinstance(initial, OpinionConfig):
        raise InvalidInput(f"{model} takes an OpinionConfig")
    if set(initial.alphabet) != alphabet:
        raise InvalidInput(f"{model} initial must use opinions {sorted(alphabet)}")
    return list(initial.opinions)


def _voter_kernel(initial, uniform) -> _Kernel:
    """Each vertex mimics a uniform neighbor at rate 1; every arrival is an event."""
    ops = _opinions(initial, VOTER, {0, 1})
    topo = initial.topology
    V, E = topo.n_vertices, topo.n_edges
    agree = sum(1 for a, b in topo.edges() if ops[a] == ops[b])
    nbrs = [topo.neighbors(x) for x in range(V)]

    def step(t):
        nonlocal agree
        x = int(uniform() * V)
        nx = nbrs[x]
        y = nx[int(uniform() * len(nx))]
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


def _cvm_kernel(initial, uniform) -> _Kernel:
    """Every active edge fires at rate 1 in a uniform orientation; extremes never interact."""
    ops = _opinions(initial, CVM, {-1, 0, 1})
    topo = initial.topology
    edges, incident = _incidence(topo)
    E = len(edges)
    agree = sum(1 for a, b in edges if ops[a] == ops[b])
    buckets = _Buckets([int(_cvm_edge_active(ops, a, b)) for a, b in edges], 1)
    pick = buckets.pick

    def step(t):
        nonlocal agree
        a, b = edges[pick(uniform())]
        y, x = (a, b) if uniform() < 0.5 else (b, a)  # x mimics y
        old = ops[x]
        ops[x] = ops[y]
        for e2 in incident[x]:
            za, zb = edges[e2]
            z = zb if za == x else za
            agree += (ops[z] == ops[x]) - (ops[z] == old)
            buckets.move(e2, int(_cvm_edge_active(ops, za, zb)))
        return UpdateEvent(t, x, y, -1, 1)

    return _Kernel(lambda: buckets.total, step, lambda: (E - agree, agree),
                   lambda: buckets.total == 0,
                   lambda: OpinionConfig(topo, tuple(ops), initial.alphabet))


_KERNELS = {AXELROD: _culture_kernel, VOTER: _voter_kernel, CVM: _cvm_kernel}


def run_model(model, initial, stop: StopRule, seed: int, snapshot_times=(),
              attach_urn: bool = False, record_urn_series: bool = False) -> Trajectory:
    """Statistically exact trajectory of the chosen generator.

    Deterministic given seed. `snapshot_times` record the state just
    before each requested time; under a `t_max` none may lie beyond it. The
    model's kernel makes the events; this loop draws the waiting times and
    owns the stop rule, snapshots and urn coupling. A run stops once the
    rate is 0, and on absorption only under `stop_on_absorption` (the voter
    model keeps logging arrivals after consensus). A run whose rate reached
    0 is reported up to `t_max`.
    """
    if model not in _KERNELS:
        raise InvalidInput(f"unknown model {model!r}")
    if stop.t_max is not None and any(s > stop.t_max for s in snapshot_times):
        raise InvalidInput(f"snapshot times beyond t_max={stop.t_max}")
    rng, urn_rng = _rng_pair(seed, attach_urn)
    draws = _Draws(rng)
    kernel = _KERNELS[model](initial, draws.uniform)
    if attach_urn and model != AXELROD:
        raise InvalidInput("urn coupling is defined for the culture model only")
    rate, step, census, absorbed = kernel.rate, kernel.step, kernel.census, kernel.absorbed
    exponential = draws.exponential
    taker = _SnapshotTaker(snapshot_times, initial.topology)
    next_snap = min(snapshot_times, default=math.inf)

    urn = urn_series = None
    b0_viol = 0
    pot_viol = 0
    if attach_urn:
        start = census_from_counts(census())
        urn = urn_init(start)
        urn_series = [] if record_urn_series else None
        # beta and eps as in `urn_potentials`, from running counts: eps = F*(E - w_0) - W.
        F, E, W = len(urn.boxes) - 1, start.n_edges, start.total_agreement
        beta = sum((F - j) * urn.boxes[j] for j in range(1, F + 1))

    events: list[UpdateEvent] = []
    t = 0.0
    t_max = stop.t_max if stop.t_max is not None else math.inf
    max_events = stop.max_events if stop.max_events is not None else math.inf
    until_absorbed = stop.stop_on_absorption

    while True:
        r = rate()
        if r == 0 or len(events) >= max_events or (until_absorbed and absorbed()):
            break
        t_next = t + exponential() / r
        if t_next > t_max:
            taker.flush(t_max, census())
            t = t_max
            break
        t = t_next
        if t >= next_snap:
            next_snap = taker.flush(t, census())
        ev = step(t)
        events.append(ev)
        if urn is not None:
            W += ev.delta_w
            if ev.delta_w == 2:  # the urn moves on no other event
                urn = urn_coupled_step(urn, 2, urn_rng)
                beta = sum((F - j) * urn.boxes[j] for j in range(1, F + 1))
            w0 = census()[0]
            eps = F * (E - w0) - W
            b0 = urn.boxes[0]
            if b0 > w0:
                b0_viol += 1
            if b0 > 0 and beta < eps:
                pot_viol += 1
            if urn_series is not None:
                urn_series.append((len(events) - 1,) + urn.boxes + (w0, beta, eps))

    end_time = t
    if rate() == 0 and stop.t_max is not None and not until_absorbed:
        end_time = stop.t_max  # frozen: the state holds until t_max
    if absorbed():
        taker.flush(math.inf, census())  # the state is constant from here on
    else:
        taker.flush(end_time, census())
    return Trajectory(model, initial, events, taker.out, kernel.final(), absorbed(), end_time,
                      seed, census_from_counts(census()), urn_final=urn,
                      urn_series=urn_series, urn_b0_violations=b0_viol,
                      urn_potential_violations=pot_viol)
