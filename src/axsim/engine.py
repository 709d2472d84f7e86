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
feature; every step is an accepted event. The CVM runs as this kernel on
its F=q=2 lift (`cvm_lift`), where an active edge fires at rate 1/2, on a
doubled clock: `run_model` doubles the times it hands the loop and halves
those it gets back, which is exact in binary floating point, so each active
edge fires at rate 1. `run_model` alone knows the lift: it also logs the
lift's events as opinion events and projects the lift's census counts and
final state back to opinions. The voter kernel picks a
uniform vertex and a uniform neighbor at total rate V. One event loop
(`_python_loop`) draws the waiting times, owns the stop rule and takes the
raw census counts at the snapshot times it passes; each step appends its
event through the run's `EventTable` appenders. `run_model` builds the
snapshots from those counts.

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

One trajectory uses one Generator in a fixed order of calls, a drawn initial
state first, which makes runs bit-reproducible from the seed. The attached
urn draws from a separate substream, so trajectories are identical with or
without it. The urn moves only on delta_w = 2 events.

The culture and CVM runs go through a compiled copy of the loop and the
culture kernel (`_ckernel`, `_kernel.c`), which makes the same draws in the
same order and so the same trajectory, bit for bit. It is built with the
system C compiler on the first culture run of a process and loaded with
ctypes. Where it cannot be built, the Python kernel runs; it is also the
oracle the compiled loop is tested against. Both culture kernels step the
attached urn after each event, with the same draws from the urn's
substream, and count its violations of B_0 <= w_0 and beta >= eps as they go.
"""
from __future__ import annotations

import math
import numbers
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    Configuration,
    InvalidInput,
    OpinionConfig,
    check_seed,
    cvm_lift,
    cvm_projection,
    edge_overlap_count,
)
from .events import EventTable, UpdateEvent
from .stats import DomainStats, EdgeCensus, census_from_counts, domains_from_census
from .urn import UrnState

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
class StopRule:
    t_max: float | None = None
    max_events: int | None = None
    stop_on_absorption: bool = False

    def __post_init__(self):
        if self.t_max is None and self.max_events is None and not self.stop_on_absorption:
            raise InvalidInput("stop rule needs at least one bound")
        if self.t_max is not None:
            check_times((self.t_max,), "t_max")
            # Stored as a float, so both kernels report the same end time.
            object.__setattr__(self, "t_max", float(self.t_max))
        if self.max_events is not None and not (
                isinstance(self.max_events, numbers.Integral) and self.max_events >= 0):
            raise InvalidInput(f"max_events must be an integer >= 0, got {self.max_events}")


def check_times(times, what: str):
    """Raise InvalidInput unless every time is a finite real number >= 0."""
    for t in times:
        try:
            ok = math.isfinite(t) and t >= 0
        except (OverflowError, TypeError):  # an int beyond the largest float; no number
            ok = False
        if not ok:
            raise InvalidInput(f"{what} must be finite and >= 0, got {t}")


def check_run(model, stop: StopRule, snapshot_times, attach_urn: bool):
    """Raise InvalidInput unless `run_model` takes these arguments."""
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}")
    check_times(snapshot_times, "snapshot times")
    if stop.t_max is not None and any(s > stop.t_max for s in snapshot_times):
        raise InvalidInput(f"snapshot times beyond t_max={stop.t_max}")
    if attach_urn and model != AXELROD:
        raise InvalidInput("urn coupling is defined for the culture model only")


@dataclass(frozen=True)
class Snapshot:
    time: float
    census: EdgeCensus
    domains: DomainStats


@dataclass
class Trajectory:
    model: str
    initial: object
    events: EventTable
    snapshots: list
    final: object
    absorbed: bool
    end_time: float
    seed: int
    final_census: EdgeCensus  # census of `final`, from the engine's running counts
    urn_final: UrnState | None = None
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
    """Trajectory and urn Generators, the children `SeedSequence(seed).spawn(2)`
    gives, each built directly from its spawn key; the urn's only when used."""
    def child(k):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    return child(0), child(1) if with_urn else None


def replicate_seeds(master_seed: int, n: int) -> list[int]:
    """The seeds of replicates 0..n-1: word r of `SeedSequence(master_seed)`'s
    `generate_state(n, np.uint64)` seeds replicate r, whatever n."""
    return np.random.SeedSequence(master_seed).generate_state(n, np.uint64).tolist()


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
        """Edge e starts in class `classes[e]`."""
        self.lists: list[list[int]] = [[] for _ in range(n_classes + 1)]
        self.pos = pos = [0] * len(classes)
        for e, c in enumerate(classes):
            if c:
                items = self.lists[c]
                pos[e] = len(items)
                items.append(e)
        self.total = sum(classes)

    def move(self, e: int, old: int, c: int):
        """Edge e from class `old` to class `c`."""
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
    step: Callable[[float], None]  # appends one event at time t
    census: Callable[[], Sequence[int]]  # edge counts w_0..w_F (opinions: disagree, agree)
    absorbed: Callable[[], bool]
    final: Callable[[], object]
    urn: Callable[[], tuple] | None = None  # the coupled urn's `_Path.urn`, if one is attached


def _culture_kernel(initial: Configuration, uniform, appenders, urn_rng=None) -> _Kernel:
    """An edge of weight j fires at rate j/F; classes 1..F-1 hold the active edges.

    Edge e joins vertices e and e+1, taken mod V on a cycle. The target v of
    an event on edge e has at most one other edge: e-1, with far end v-1,
    where v == e, and e+1, with far end v+1, otherwise; both wrap on a cycle,
    and on a path the edge exists only inside 0..E-1.

    With `urn_rng`, the kernel also steps the coupled urn on that Generator
    after every event (`couple`).
    """
    F = initial.params.F
    flat = initial.state.tolist()
    states = [flat[k:k + F] for k in range(0, len(flat), F)]
    topo = initial.topology
    V, E, cycle = topo.n_vertices, topo.n_edges, topo.kind == "cycle"
    weight = [sum(map(operator.eq, states[e], states[(e + 1) % V])) for e in range(E)]
    counts = [0] * (F + 1)
    for w in weight:
        counts[w] += 1
    buckets = _Buckets([w if w < F else 0 for w in weight], F - 1)
    pick = buckets.pick
    add_time, add_target, add_source, add_feature, add_delta = appenders

    def step(t):
        e = pick(uniform())
        a, b = e, (e + 1) % V
        u, v = (a, b) if uniform() < 0.5 else (b, a)
        su, sv = states[u], states[v]
        disagree = [i for i in range(F) if su[i] != sv[i]]
        feat = disagree[int(uniform() * len(disagree))]  # >= 1 on an active edge
        old, new = sv[feat], su[feat]
        delta = 1
        _bump(weight, counts, buckets, e, 1, F)
        e2, z = (e - 1, v - 1) if v == e else (e + 1, v + 1)
        if cycle:
            e2, z = e2 % E, z % V
        if 0 <= e2 < E:
            dd = (states[z][feat] == new) - (states[z][feat] == old)
            if dd:
                _bump(weight, counts, buckets, e2, dd, F)
            delta += dd
        sv[feat] = new
        add_time(t)
        add_target(v)
        add_source(u)
        add_feature(feat)
        add_delta(delta)
        if couple is not None:
            couple(delta)

    couple = urn = None
    if urn_rng is not None:  # as `urn_init`: B_j = w_j
        boxes, E = list(counts), len(weight)
        W = sum(j * counts[j] for j in range(1, F + 1))
        beta = sum((F - j) * counts[j] for j in range(1, F + 1))
        b0_viol = pot_viol = 0

        def couple(delta):
            """The urn after an event that changed W by delta, as `couple` in
            `_kernel.c`: on delta 2 a ball moves up from a uniformly chosen
            nonempty inner box (`urn_coupled_step`), then the two violations
            are counted, with eps = F*(E - w_0) - W as in `urn_potentials`."""
            nonlocal W, beta, b0_viol, pot_viol
            W += delta
            if delta == 2:
                inner = [j for j in range(1, F) if boxes[j] > 0]
                if inner:
                    j = inner[int(urn_rng.integers(len(inner)))]
                    boxes[j] -= 1
                    boxes[j + 1] += 1
                    beta -= 1
                    if boxes[0] > 0:
                        boxes[0] -= 1
                        boxes[1] += 1
                        beta += F - 1
            w0 = counts[0]
            b0_viol += boxes[0] > w0
            pot_viol += boxes[0] > 0 and beta < F * (E - w0) - W

        def urn():
            return tuple(boxes), b0_viol, pot_viol, beta, W

    return _Kernel(lambda: buckets.total / F, step, lambda: counts,
                   lambda: buckets.total == 0,
                   lambda: Configuration._of(initial.topology, initial.params,
                                             array("q", chain.from_iterable(states))), urn)


def _bump(weight, counts, buckets, e, d, F):
    old = weight[e]
    counts[old] -= 1
    w = weight[e] = old + d
    counts[w] += 1
    buckets.move(e, old if old < F else 0, w if w < F else 0)


def _voter_kernel(initial, uniform, appenders) -> _Kernel:
    """Each vertex mimics a uniform neighbor at rate 1; every arrival is an event."""
    ops = list(initial.opinions)
    topo = initial.topology
    V, E = topo.n_vertices, topo.n_edges
    agree = sum(1 for a, b in topo.edges() if ops[a] == ops[b])
    nbrs = [topo.neighbors(x) for x in range(V)]
    add_time, add_target, add_source, add_feature, add_delta = appenders

    def step(t):
        nonlocal agree
        x = int(uniform() * V)
        nx = nbrs[x]
        y = nx[int(uniform() * len(nx))]
        flipped = int(ops[x] != ops[y])
        if flipped:
            for z in nx:
                agree += 1 if ops[z] == ops[y] else -1
            ops[x] = ops[y]
        add_time(t)
        add_target(x)
        add_source(y)
        add_feature(-1)
        add_delta(flipped)

    return _Kernel(lambda: V, step, lambda: (E - agree, agree), lambda: agree == E,
                   lambda: OpinionConfig(topo, tuple(ops), initial.alphabet))


class _Path(NamedTuple):
    """What a run loop hands back to `run_model`: raw kernel census counts,
    the lift's on a CVM run, and the coupled urn when one is attached."""
    events: EventTable
    t: float  # the time the loop stopped at
    counts: Sequence[int]  # at the end
    snapshots: list  # the counts at each snapshot time the loop passed, in time order
    absorbed: bool
    final: object
    # (B_0..B_F, b_0 > w_0 count, beta < eps count with b_0 > 0, final beta, final W)
    urn: tuple | None


def _python_loop(kernel_of, stop: StopRule, rng, times: list) -> _Path:
    """The loop over a Python kernel, `kernel_of(uniform, appenders)`: the
    voter model's only loop, and the compiled loop's oracle and fallback.
    `times` are the snapshot times, sorted. A culture kernel steps an
    attached urn itself; the loop hands back what the kernel's `urn` reports."""
    draws = _Draws(rng)
    events = EventTable()
    kernel = kernel_of(draws.uniform, events.appenders())
    rate, step, census, absorbed = kernel.rate, kernel.step, kernel.census, kernel.absorbed
    exponential = draws.exponential
    snapshots = []
    pending = times + [math.inf]
    next_snap = pending[0]
    recorded = events.time
    t = 0.0
    t_max = stop.t_max if stop.t_max is not None else math.inf
    max_events = stop.max_events if stop.max_events is not None else math.inf
    until_absorbed = stop.stop_on_absorption

    while True:
        r = rate()
        if r == 0 or len(recorded) >= max_events or (until_absorbed and absorbed()):
            break
        t_next = t + exponential() / r
        if t_next > t_max:
            t = t_max
            break
        t = t_next
        while t >= next_snap:  # left limit: the counts before the event at t
            snapshots.append(tuple(census()))
            next_snap = pending[len(snapshots)]
        step(t)
    return _Path(events, t, tuple(census()), snapshots, absorbed(), kernel.final(),
                 kernel.urn and kernel.urn())


@cache
def _kernel_lib():
    """The compiled culture loop (`_ckernel`), built and loaded on the first
    call in a process; None where it cannot be, and then the Python kernel
    runs. `_ckernel` is imported here, so importing axsim does not pay for it."""
    from . import _ckernel
    return _ckernel.load()


def _check_initial(model, initial):
    if model == AXELROD:
        if not isinstance(initial, Configuration):
            raise InvalidInput("culture model takes a Configuration")
        return
    alphabet = {0, 1} if model == VOTER else {-1, 0, 1}
    if not isinstance(initial, OpinionConfig):
        raise InvalidInput(f"{model} takes an OpinionConfig")
    if set(initial.alphabet) != alphabet:
        raise InvalidInput(f"{model} initial must use opinions {sorted(alphabet)}")


def run_model(model, initial, stop: StopRule, seed: int, snapshot_times=(),
              attach_urn: bool = False) -> Trajectory:
    """Statistically exact trajectory of the chosen generator.

    `initial` is the initial state, or a draw `f(rng) -> state` such as
    `partial(random_config, params, topology)`, which the run calls on its
    own trajectory Generator before the first event (`Trajectory.initial`
    holds what it drew). Deterministic given seed and such a draw.
    `snapshot_times` record the state just before each requested time;
    under a `t_max` none may lie beyond it. The model's kernel makes the
    events; the loop draws the waiting times and owns the stop rule. A run
    stops once the rate is 0, and on absorption only under
    `stop_on_absorption` (the voter model keeps logging arrivals after
    consensus). A culture run that absorbs, and so reaches rate 0, before
    `t_max` is reported up to `t_max`.

    The CVM runs as culture dynamics on its F=q=2 lift, on a doubled clock;
    this function lifts its initial state, doubles the times it hands the
    loop, and maps the lift's events, census, snapshots and final state back
    to the CVM (see the module docstring).
    """
    check_run(model, stop, snapshot_times, attach_urn)
    check_seed(seed)
    rng, urn_rng = _rng_pair(seed, attach_urn)
    if callable(initial):
        initial = initial(rng)
    _check_initial(model, initial)
    times = sorted(snapshot_times)
    if model == VOTER:
        path = _python_loop(partial(_voter_kernel, initial), stop, rng, times)
    else:
        cfg, loop_stop, loop_times = initial, stop, times
        if model == CVM:  # where 2 * t_max overflows, the lift stops at absorption (rate 0)
            cfg, loop_times = cvm_lift(initial), [2 * s for s in times]
            t_max = 2 * stop.t_max if stop.t_max is not None else math.inf
            loop_stop = StopRule(t_max if t_max < math.inf else None, stop.max_events, True)
        lib = _kernel_lib()
        if lib is not None:
            from ._ckernel import compiled_loop
            path = compiled_loop(lib, cfg, loop_stop, rng, loop_times, urn_rng)
        else:
            path = _python_loop(partial(_culture_kernel, cfg, urn_rng=urn_rng),
                                loop_stop, rng, loop_times)

    final, counts, taken, end_time = path.final, path.counts, path.snapshots, path.t
    if model == CVM:  # opinion events and census, (w_0 + w_1, w_2) of the lift's
        ev, n = path.events, len(path.events)
        ev.time = array("d", [t / 2 for t in ev.time])
        ev.copied_feature, ev.delta_w = array("q", [-1]) * n, array("q", [1]) * n
        end_time /= 2
        E = initial.topology.n_edges
        counts, *taken = [(E - c[2], c[2]) for c in (counts, *taken)]
        final = OpinionConfig(initial.topology, cvm_projection(final).opinions, initial.alphabet)
    if path.absorbed and model != VOTER and stop.t_max is not None and not stop.stop_on_absorption:
        end_time = stop.t_max  # the rate is 0: the state holds until t_max
    # The times after the last event see the final state; once absorbed, all of them do.
    upto = math.inf if path.absorbed else end_time
    taken += [counts] * (bisect_right(times, upto) - len(taken))
    snapshots = []
    for s, c in zip(times, taken):
        census = census_from_counts(c)
        snapshots.append(Snapshot(s, census, domains_from_census(census, initial.topology)))
    urn, b0_viol, pot_viol = None, 0, 0
    if path.urn is not None:
        boxes, b0_viol, pot_viol = path.urn[:3]
        urn = UrnState(boxes)
    return Trajectory(model, initial, path.events, snapshots, final, path.absorbed, end_time,
                      seed, census_from_counts(counts), urn_final=urn,
                      urn_b0_violations=b0_viol, urn_potential_violations=pot_viol)
