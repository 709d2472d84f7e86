"""Exact continuous-time simulation by rejection-free event selection.

In the culture model an edge whose endpoints share j of the F features
fires at rate j/F: one of its two orientations is chosen uniformly, and the
target copies a uniformly chosen disagreeing feature of the source. This is
the law of the graphical construction in `propose_and_apply`, where each
oriented edge proposes at rate 1/2 and a proposal is kept iff its uniform
feature draw lands in the agreement set; a thinned proposal changes nothing,
so leaving it out keeps the law. The culture step never proposes what it
would reject (the n-fold way of Bortz, Kalos and Lebowitz, 1975). It keeps
the edges of weight 1..F-1 in one swap-remove list per weight class and
tracks S = sum_j j*n_j, so the total rate is S/F and a run is absorbed
exactly when S == 0. One step picks class j with probability j*n_j/S, then a
uniform edge in that class, a uniform orientation and a uniform disagreeing
feature; every step is an accepted event. The CVM runs as this step on
its F=q=2 lift (`cvm_lift`), where an active edge fires at rate 1/2, on a
doubled clock: `run_model` doubles the times it hands the loop and halves
those it gets back, which is exact in binary floating point, so each active
edge fires at rate 1. `run_model` alone knows the lift: it also logs the
lift's events as opinion events and projects the lift's census counts and
final state back to opinions. The voter step picks a uniform vertex and a
uniform neighbor at total rate V, on one feature, with the census
(disagree, agree). One event loop (`_python_loop`) draws the waiting times,
owns the stop rule and takes the raw census counts at the snapshot times it
passes; each step appends its event to the run's `EventTable`. `run_model`
builds the snapshots from those counts.

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
without it. The urn moves only on delta_w = 2 events. The two Generators are
the seed's children with spawn keys 0 and 1. A replicated experiment derives
every replicate's child words (`generate_state(4, np.uint64)`) at once with
`child_words` and builds each PCG64 from its words (`Seeded`), which skips
the per-run `SeedSequence` and gives the same streams.

Every run goes through a compiled copy of the loop (`_ckernel`,
`_kernel.c`): `axsim_run`, with the culture step for the culture model and
the CVM's lift and the voter step for the voter model. It makes the same
draws in the same order and so the same trajectory, bit for bit. The
library is built with the system C compiler on the first run or replay of a
process and loaded with ctypes. Where it cannot be built, `_python_loop`
runs; it is also the oracle the compiled loop is tested against, and its
twin line for line, with the same arguments and the same `_Path`: it picks
its step from the state's type, updates a copy of the flat `state` that
`Configuration` and `OpinionConfig` both hold, feature i of vertex v at
v*F + i with F the row width (1 for opinions), and hands it back in the
initial's type (`_with`); `_Buckets.bump` and `move` are `bump()` and
`move()` there. Both loops step the attached urn (in Python by
`urn.urn_move`) after each culture event, with the same draws from the
urn's substream, and count its violations of B_0 <= w_0 and beta >= eps as
they go.
"""
from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import (CVM_ALPHABET, VOTER_ALPHABET, Configuration, InvalidInput, OpinionConfig,
                   check_seed, cvm_lift, cvm_projection, edge_overlap_count)
from .events import EventTable, UpdateEvent
from .stats import DomainStats, EdgeCensus, domains_from_census, edge_weights
from .urn import UrnState, urn_move

AXELROD = "axelrod"
VOTER = "voter"
CVM = "cvm"
MODELS = {AXELROD: None, VOTER: VOTER_ALPHABET, CVM: CVM_ALPHABET}  # opinion alphabets


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
            # Stored as a float, so both loops report the same end time.
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


def check_run(model, stop: StopRule, snapshot_times, attach_urn: bool, n_vertices: int):
    """Raise InvalidInput unless `run_model` takes these arguments on a
    lattice of `n_vertices` vertices."""
    if not isinstance(model, str) or model not in MODELS:  # a dict key must hash
        raise InvalidInput(f"unknown model {model!r}")
    check_times(snapshot_times, "snapshot times")
    if stop.t_max is not None and any(s > stop.t_max for s in snapshot_times):
        raise InvalidInput(f"snapshot times beyond t_max={stop.t_max}")
    if attach_urn and model != AXELROD:
        raise InvalidInput("urn coupling is defined for the culture model only")
    # A voter run logs every arrival, at rate V, and goes on after consensus:
    # more than 2**31 expected events would fill 80 GiB of event columns.
    if model == VOTER and stop.max_events is None and not stop.stop_on_absorption:
        expected = n_vertices * stop.t_max  # inf where the product overflows
        if expected > 2 ** 31:
            raise InvalidInput(f"a voter run of {n_vertices} vertices to t_max={stop.t_max} "
                               f"logs about {expected:.3g} events; bound it with max_events or a "
                               "smaller t_max")


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


class Seeded(NamedTuple):
    """A seed with its children's words (`child_words`), from which `run_model`
    builds the seed's Generators: the same streams as from the seed alone."""
    seed: int
    words: bytes


def _rng_pair(seed: int | Seeded, with_urn: bool):
    """Trajectory and urn Generators, the children `SeedSequence(seed).spawn(2)`
    gives; the urn's only when used. `seed` is an int, or a `Seeded`, whose
    words build child k where they hold it."""
    seed, words = seed if isinstance(seed, Seeded) else (seed, b"")

    def child(k):
        if len(words) > 32 * k:
            bits = np.random.PCG64(_seed_words()(np.frombuffer(words, np.uint64, 4, 32 * k)))
        else:
            bits = np.random.SeedSequence(seed, spawn_key=(k,))
        return np.random.default_rng(bits)
    return child(0), child(1) if with_urn else None


@cache
def _seed_words():
    """`SeedWords`, the `ISeedSequence` that hands `PCG64` a child's words.
    It is defined on first use, so importing axsim does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # `PCG64` asks for its 4 np.uint64 words only

    return SeedWords


def replicate_seeds(master_seed: int, n: int) -> list[int]:
    """The seeds of replicates 0..n-1: word r of `SeedSequence(master_seed)`'s
    `generate_state(n, np.uint64)` seeds replicate r, whatever n."""
    return np.random.SeedSequence(master_seed).generate_state(n, np.uint64).tolist()


# numpy's `SeedSequence` hash (O'Neill's seed_seq_fe, as NEP 19 adopted it):
# the start and multiplier of its two hash-constant sequences, and the
# multipliers of its mixer, all mod 2**32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _hash_constants(start: int, mult: int, n: int):
    """The first n values of a hash-constant sequence, as an (n, 1) uint32 column."""
    out = [start]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _M32)
    return np.array(out, np.uint32)[:, None]


# `mix_entropy` hashes 16 values and each spawn key 4 more; `generate_state`
# hashes 8 words per child. Hash call c xors with constant c and multiplies
# by constant c + 1 of its sequence.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 21)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 9)


def child_words(seeds: list[int], keys: int) -> list[bytes]:
    """Item r: for k = 0..keys-1, the 4 words of
    `SeedSequence(seeds[r], spawn_key=(k,)).generate_state(4, np.uint64)` as
    native-order bytes.

    The seeds' hashes are computed at once: the rows of a uint32 array are
    the pool words of every seed, and each step of numpy's `mix_entropy` and
    `generate_state` whose hashes do not depend on one another is one array
    operation. A child of a seed below 2**64 has the entropy [lo, hi, 0, 0,
    k], the seed's 32-bit halves padded to the pool's 4 words and then the
    spawn key, and the hash constants advance alike for every seed.
    """
    s = np.array(seeds, np.uint64)

    def hashmix(v, consts):
        """v hashed by one call per row of consts[:-1]: xor with its constant,
        times the next one."""
        v = v ^ consts[:-1]
        v = v * consts[1:]
        return v ^ (v >> 16)

    def mix(x, y):
        v = x * _MIX_L - y * _MIX_R
        return v ^ (v >> 16)

    entropy = np.zeros((4, len(s)), np.uint32)
    entropy[0], entropy[1] = s & _M32, s >> 32
    pool = hashmix(entropy, _HASH_A[:5])
    for i in range(4):  # word i into the other three, each by its own hash call
        others = [j for j in range(4) if j != i]
        c = 4 + 3 * i
        pool[others] = mix(pool[others], hashmix(pool[i], _HASH_A[c:c + 4]))
    out = np.empty((len(s), keys, 8), np.uint32)
    for k in range(keys):
        child = mix(pool, hashmix(np.uint32(k), _HASH_A[16:]))
        out[:, k] = hashmix(child[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).T
    # numpy joins little-endian pairs of 32-bit words into each 64-bit word.
    words = out.astype("<u4").view("<u8").astype(np.uint64).tobytes()
    size = 32 * keys
    return [words[i:i + size] for i in range(0, len(words), size)]


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
    """Edge weights `weight`, their counts w_0..w_F and the edges of weight
    1..F-1 in swap-remove lists by class (0: absent), as in `_kernel.c`.

    `total` is S = sum_j j*n_j over the classes, kept as edges move.
    """

    def __init__(self, weight: list[int], F: int):
        self.F, self.weight, self.total = F, weight, 0
        self.counts = [0] * (F + 1)
        self.lists: list[list[int]] = [[] for _ in range(F)]
        self.pos = [0] * len(weight)
        for e, w in enumerate(weight):
            self.counts[w] += 1
            self.move(e, 0, w if w < F else 0)

    def bump(self, e: int, d: int):
        """Edge e's weight by d, as `bump` in `_kernel.c`."""
        F, old = self.F, self.weight[e]
        self.counts[old] -= 1
        w = self.weight[e] = old + d
        self.counts[w] += 1
        self.move(e, old if old < F else 0, w if w < F else 0)

    def move(self, e: int, old: int, c: int):
        """Edge e from class `old` to class `c`, as `move` in `_kernel.c`."""
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


class _Path(NamedTuple):
    """What a run loop hands back to `run_model`: raw census counts, the
    lift's on a CVM run, and the coupled urn when one is attached."""
    events: EventTable
    t: float  # the time the loop stopped at
    counts: Sequence[int]  # at the end
    snapshots: list  # the counts at each snapshot time the loop passed, in time order
    absorbed: bool
    final: object
    # (B_0..B_F, b_0 > w_0 count, beta < eps count with b_0 > 0, final beta, final W)
    urn: tuple | None


def _python_loop(cfg, stop: StopRule, rng, times: list, urn_rng) -> _Path:
    """The run loop in Python, `axsim_run` in `_kernel.c` step for step, with
    `compiled_loop`'s arguments after `lib`: the compiled loop's oracle, and
    its fallback where the library cannot be built. `times` are the snapshot
    times, sorted. A `Configuration` runs the culture step, an `OpinionConfig`
    the voter step with F = 1, whose counts are (disagree, agree).

    Edge e joins vertices e and e+1, taken mod V on a cycle. The target v of
    a culture event on edge e has at most one other edge: e-1, with far end
    v-1, where v == e, and e+1, with far end v+1, otherwise; both wrap on a
    cycle, and on a path the edge exists only inside 0..E-1. With `urn_rng`,
    the culture step also steps the coupled urn on that Generator after
    every event (`couple`).
    """
    voter = isinstance(cfg, OpinionConfig)
    topo = cfg.topology
    V, E, cycle = topo.n_vertices, topo.n_edges, topo.kind == "cycle"
    state = cfg.state.tolist()  # feature i of vertex v at v*F + i
    F = len(state) // V
    buckets = _Buckets(edge_weights(cfg).tolist(), F)
    pick, bump, counts = buckets.pick, buckets.bump, buckets.counts
    draws = _Draws(rng)
    uniform, exponential = draws.uniform, draws.exponential
    events = EventTable()
    add_time, add_target, add_source, add_feature, add_delta = events.appenders()

    def culture_step(t):
        """One culture event, as `culture_step` in `_kernel.c`."""
        e = pick(uniform())
        a, b = e, (e + 1) % V
        u, v = (a, b) if uniform() < 0.5 else (b, a)
        su, sv = u * F, v * F
        disagree = [i for i in range(F) if state[su + i] != state[sv + i]]
        feat = disagree[int(uniform() * len(disagree))]  # >= 1 on an active edge
        old, new = state[sv + feat], state[su + feat]
        delta = 1
        bump(e, 1)
        e2, z = (e - 1, v - 1) if v == e else (e + 1, v + 1)
        if cycle:
            e2, z = e2 % E, z % V
        if 0 <= e2 < E:
            zf = state[z * F + feat]
            dd = (zf == new) - (zf == old)
            if dd:
                bump(e2, dd)
            delta += dd
        state[sv + feat] = new
        add_time(t)
        add_target(v)
        add_source(u)
        add_feature(feat)
        add_delta(delta)
        if urn_rng is not None:
            couple(delta)

    nbrs = [topo.neighbors(x) for x in range(V)] if voter else None

    def voter_step(t):
        """One voter event, as `voter_step` in `_kernel.c`: vertex x copies a
        uniform neighbour y, logged with feature -1 and delta 1 where x's
        opinion flipped, else 0."""
        x = int(uniform() * V)
        nx = nbrs[x]
        y = nx[int(uniform() * len(nx))]
        flipped = int(state[x] != state[y])
        if flipped:
            for z in nx:
                d = 1 if state[z] == state[y] else -1
                counts[1] += d
                counts[0] -= d
            state[x] = state[y]
        add_time(t)
        add_target(x)
        add_source(y)
        add_feature(-1)
        add_delta(flipped)

    if urn_rng is not None:  # as `urn_init`: B_j = w_j
        boxes = list(counts)
        W = sum(j * counts[j] for j in range(1, F + 1))
        beta = sum((F - j) * counts[j] for j in range(1, F + 1))
        b0_viol = pot_viol = 0

        def couple(delta):
            """The urn after an event that changed W by delta, as `couple` in
            `_kernel.c`: `urn_move` on delta 2, then the two violations, with
            eps = F*(E - w_0) - W as in `urn_potentials`."""
            nonlocal W, beta, b0_viol, pot_viol
            W += delta
            if delta == 2:
                beta += urn_move(boxes, urn_rng)
            w0 = counts[0]
            b0_viol += boxes[0] > w0
            pot_viol += boxes[0] > 0 and beta < F * (E - w0) - W

    step = voter_step if voter else culture_step
    snapshots = []
    pending = times + [math.inf]
    next_snap = pending[0]
    recorded = events.time
    t = 0.0
    t_max = stop.t_max if stop.t_max is not None else math.inf
    max_events = stop.max_events if stop.max_events is not None else math.inf
    until_absorbed = stop.stop_on_absorption

    while True:
        rate = V if voter else buckets.total / F
        if rate == 0 or len(recorded) >= max_events or (
                until_absorbed and (counts[0] == 0 if voter else buckets.total == 0)):
            break
        t_next = t + exponential() / rate
        if t_next > t_max:
            t = t_max
            break
        t = t_next
        while t >= next_snap:  # left limit: the counts before the event at t
            snapshots.append(tuple(counts))
            next_snap = pending[len(snapshots)]
        step(t)
    absorbed = counts[0] == 0 if voter else buckets.total == 0
    urn = None if urn_rng is None else (tuple(boxes), b0_viol, pot_viol, beta, W)
    return _Path(events, t, tuple(counts), snapshots, absorbed, cfg._with(array("q", state)), urn)


_ckernel = None  # the `_ckernel` module, once `_kernel_lib` has imported it


@cache
def _kernel_lib():
    """The compiled loop and replay (`_ckernel`), built and loaded on the
    first call in a process; None where they cannot be, and then the Python
    run and replay loops run. `_ckernel` is imported here, so importing
    axsim does not pay for it."""
    global _ckernel
    from . import _ckernel
    return _ckernel.load()


def _check_initial(model, initial):
    alphabet = MODELS[model]
    if alphabet is None:
        if not isinstance(initial, Configuration):
            raise InvalidInput("culture model takes a Configuration")
        return
    if not isinstance(initial, OpinionConfig):
        raise InvalidInput(f"{model} takes an OpinionConfig")
    if tuple(initial.alphabet) != alphabet:
        raise InvalidInput(f"{model} initial must use opinions {sorted(alphabet)}")


def run_model(model, initial, stop: StopRule, seed: int | Seeded, snapshot_times=(),
              attach_urn: bool = False) -> Trajectory:
    """Statistically exact trajectory of the chosen generator.

    `initial` is the initial state, or a draw `f(rng) -> state` such as
    `partial(random_config, params, topology)`, which the run calls on its
    own trajectory Generator before the first event (`Trajectory.initial`
    holds what it drew). Deterministic given seed and such a draw. `seed`
    is an integer >= 0, or a `Seeded`, whose words give the same Generators
    as its seed (the trajectory records the seed).
    `snapshot_times` record the state just before each requested time;
    under a `t_max` none may lie beyond it. The model's step makes the
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
    plain = seed.seed if isinstance(seed, Seeded) else seed
    check_seed(plain)
    rng, urn_rng = _rng_pair(seed, attach_urn)
    if callable(initial):
        initial = initial(rng)
    # The vertex count is known only now; `_check_initial` refuses a state of no known type.
    V = initial.topology.n_vertices if isinstance(initial, (Configuration, OpinionConfig)) else 0
    check_run(model, stop, snapshot_times, attach_urn, V)
    _check_initial(model, initial)
    times = sorted(snapshot_times)
    cfg, loop_stop, loop_times = initial, stop, times
    if model == CVM:  # where 2 * t_max overflows, the lift stops at absorption (rate 0)
        cfg, loop_times = cvm_lift(initial), [2 * s for s in times]
        t_max = 2 * stop.t_max if stop.t_max is not None else math.inf
        loop_stop = StopRule(t_max if t_max < math.inf else None, stop.max_events, True)
    lib = _kernel_lib()
    if lib is None:
        path = _python_loop(cfg, loop_stop, rng, loop_times, urn_rng)
    else:
        path = _ckernel.compiled_loop(lib, cfg, loop_stop, rng, loop_times, urn_rng)

    final, counts, taken, end_time = path.final, path.counts, path.snapshots, path.t
    if model == CVM:  # opinion events and census, (w_0 + w_1, w_2) of the lift's
        ev, n = path.events, len(path.events)
        ev.time = array("d", [t / 2 for t in ev.time])
        ev.copied_feature, ev.delta_w = array("q", [-1]) * n, array("q", [1]) * n
        end_time /= 2
        E = initial.topology.n_edges
        counts, *taken = [(E - c[2], c[2]) for c in (counts, *taken)]
        final = cvm_projection(final)
    if path.absorbed and model != VOTER and stop.t_max is not None and not stop.stop_on_absorption:
        end_time = stop.t_max  # the rate is 0: the state holds until t_max
    # The times after the last event see the final state; once absorbed, all of them do.
    upto = math.inf if path.absorbed else end_time
    taken += [counts] * (bisect_right(times, upto) - len(taken))
    snapshots = []
    for s, c in zip(times, taken):
        census = EdgeCensus._of(c)
        snapshots.append(Snapshot(s, census, domains_from_census(census, initial.topology)))
    urn, b0_viol, pot_viol = None, 0, 0
    if path.urn is not None:
        boxes, b0_viol, pot_viol = path.urn[:3]
        urn = UrnState(boxes)
    return Trajectory(model, initial, path.events, snapshots, final, path.absorbed, end_time,
                      plain, EdgeCensus._of(counts), urn_final=urn,
                      urn_b0_violations=b0_viol, urn_potential_violations=pot_viol)
