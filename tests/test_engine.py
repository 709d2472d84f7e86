import math
import re
from collections import Counter
from fractions import Fraction
from functools import cache, partial

import numpy as np
import pytest

from axsim import (
    Configuration,
    ExperimentConfig,
    GraphicalDraw,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    StopRule,
    Topology,
    UpdateEvent,
    classify_delta_w,
    cvm_projection,
    edge_census,
    is_absorbed,
    propose_and_apply,
    random_config,
    random_opinions,
    run_model,
    voter_projection,
)
from axsim.core import cvm_lift
from axsim.engine import Seeded, _Buckets, _rng_pair, child_words, replicate_seeds
from axsim.logio import replay
from axsim.stats import edge_weights


def make_cfg(kind, cultures, F, q):
    topo = Topology(kind, len(cultures))
    return Configuration(topo, ModelParams(F, q), tuple(tuple(c) for c in cultures))


class TestStopRule:
    def test_needs_a_bound(self):
        with pytest.raises(InvalidInput):
            StopRule()
        StopRule(stop_on_absorption=True)

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf, -1.0, -1e-300,
                                       pytest.param(10 ** 400, id="10**400"), "1"])
    def test_rejects_a_t_max_that_hangs_or_runs_backward(self, t_max):
        # A NaN bound is never exceeded, so a voter run would never stop.
        with pytest.raises(InvalidInput, match="t_max"):
            StopRule(t_max=t_max)
        StopRule(t_max=0.0)

    def test_t_max_is_stored_as_a_float(self):
        for t_max in (1, True, np.int64(3), np.float32(0.5), 2 ** 900):
            stop = StopRule(t_max=t_max)
            assert type(stop.t_max) is float and stop.t_max == t_max
        assert StopRule(t_max=2) == StopRule(t_max=2.0)

    @pytest.mark.parametrize("max_events", [-1, -3, 2.5])
    def test_rejects_a_negative_or_fractional_max_events(self, max_events):
        with pytest.raises(InvalidInput, match="max_events"):
            StopRule(max_events=max_events)
        StopRule(max_events=0)


class TestProposeAndApply:
    def test_accepted_copy(self):
        cfg = make_cfg("path", [(0, 0), (0, 1)], 2, 2)
        out, ev = propose_and_apply(cfg, GraphicalDraw(1.0, 0, 1, 0, 0.5))
        assert out.cultures[1] == (0, 0)
        assert ev.copied_feature == 1 and ev.target == 1 and ev.source == 0

    def test_rejected_when_draw_disagrees(self):
        cfg = make_cfg("path", [(0, 0), (0, 1)], 2, 2)
        out, ev = propose_and_apply(cfg, GraphicalDraw(1.0, 0, 1, 1, 0.5))
        assert ev is None and out.cultures == cfg.cultures

    def test_identical_cultures_noop(self):
        cfg = make_cfg("path", [(0, 1), (0, 1)], 2, 2)
        for u in (0, 1):
            out, ev = propose_and_apply(cfg, GraphicalDraw(1.0, 1 - u, u, u, 0.3))
            assert ev is None

    def test_tie_break_picks_ordered_element(self):
        cfg = make_cfg("path", [(0, 0, 0), (0, 1, 2)], 3, 3)
        # disagreement set {1,2}; tie draw below 1/2 picks feature 1
        out, ev = propose_and_apply(cfg, GraphicalDraw(1.0, 0, 1, 0, 0.4))
        assert ev.copied_feature == 1
        out, ev = propose_and_apply(cfg, GraphicalDraw(1.0, 0, 1, 0, 0.9))
        assert ev.copied_feature == 2

    def test_invalid_draw(self):
        cfg = make_cfg("path", [(0, 0), (0, 1), (1, 1)], 2, 2)
        with pytest.raises(InvalidInput):
            propose_and_apply(cfg, GraphicalDraw(1.0, 0, 2, 0, 0.5))

    def test_acceptance_rate_matches_shared_fraction(self):
        # thinning exactness: acceptance probability is j/F on a j-weight edge
        F, j = 4, 3
        cfg = make_cfg("path", [(0, 0, 0, 0), (0, 0, 0, 1)], F, 2)
        rng = np.random.default_rng(77)
        n, accepted = 20000, 0
        for _ in range(n):
            draw = GraphicalDraw(1.0, 0, 1, int(rng.integers(F)),
                                 float(rng.uniform(1e-9, 1 - 1e-9)))
            _, ev = propose_and_apply(cfg, draw)
            accepted += ev is not None
        p = j / F
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(accepted - n * p) <= 3 * sigma


class TestClassifyDeltaW:
    def test_degree_one_target(self):
        before = make_cfg("path", [(0, 1), (0, 0)], 2, 2)
        after, ev = propose_and_apply(before, GraphicalDraw(1.0, 1, 0, 0, 0.5))
        assert ev.delta_w == 1
        assert classify_delta_w(before, ev, after) == 1

    def test_interior_far_neighbor_matches_new_state(self):
        before = make_cfg("path", [(0, 0), (0, 1), (0, 0)], 2, 2)
        after, ev = propose_and_apply(before, GraphicalDraw(1.0, 0, 1, 0, 0.5))
        assert ev.delta_w == 2

    def test_interior_far_neighbor_still_disagrees(self):
        before = make_cfg("path", [(0, 0), (0, 1), (2, 2)], 2, 3)
        after, ev = propose_and_apply(before, GraphicalDraw(1.0, 0, 1, 0, 0.5))
        assert ev.delta_w == 1

    def test_inconsistent_triple(self):
        before = make_cfg("path", [(0, 0), (0, 1)], 2, 2)
        bogus = UpdateEvent(1.0, 1, 0, 1, 1)
        with pytest.raises(InvalidInput):
            classify_delta_w(before, bogus, before)


def first_event_law(cfg):
    """Exact law of the first accepted event and its total rate, from the oracle.

    Every oriented edge proposes at rate 1/2 with a uniform feature draw U and
    a uniform tie draw W. W is taken at the midpoints of L equal intervals,
    L = lcm(1..F), so the tie cells of every disagreement-set size align.
    """
    F = cfg.params.F
    L = math.lcm(*range(1, F + 1))
    rates = Counter()
    for a, b in cfg.topology.edges():
        for u, v in ((a, b), (b, a)):
            for U in range(F):
                for m in range(L):
                    _, ev = propose_and_apply(cfg, GraphicalDraw(1.0, u, v, U, (m + 0.5) / L))
                    if ev is not None:
                        key = (ev.target, ev.source, ev.copied_feature, ev.delta_w)
                        rates[key] += Fraction(1, 2 * F * L)
    total = sum(rates.values())
    return {k: r / total for k, r in rates.items()}, total


class TestExactKernelOracle:
    # F=3, q=3 with edges of weight 1 and 2; the cycle also has a 0-edge.
    CASES = {
        "path3": ("path", [(0, 0, 0), (0, 1, 1), (0, 1, 2)]),
        "path4": ("path", [(0, 0, 0), (0, 0, 1), (1, 2, 1), (1, 2, 2)]),
        "cycle4": ("cycle", [(0, 0, 0), (0, 1, 1), (0, 1, 2), (2, 2, 2)]),
    }
    RUNS = 4000

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_first_event_matches_enumerated_law(self, name):
        kind, cultures = self.CASES[name]
        cfg = make_cfg(kind, cultures, 3, 3)
        law, rate = first_event_law(cfg)
        counts = edge_census(cfg).counts
        assert rate == Fraction(sum(j * c for j, c in enumerate(counts[:-1])), 3)  # S/F
        assert {1, 2} <= {j for j, c in enumerate(counts) if c}
        n = self.RUNS
        hits, time_sum = Counter(), 0.0
        for seed in range(n):
            (ev,) = run_model("axelrod", cfg, StopRule(max_events=1), seed).events
            hits[(ev.target, ev.source, ev.copied_feature, ev.delta_w)] += 1
            time_sum += ev.time
        assert set(hits) <= set(law)
        for key, p in law.items():
            p = float(p)
            assert abs(hits[key] - n * p) <= 3 * math.sqrt(n * p * (1 - p)), (key, hits[key], n * p)
        mean = float(1 / rate)  # Exp(S/F) has standard deviation equal to its mean
        assert abs(time_sum / n - mean) <= 3 * mean / math.sqrt(n)


class TestExactCvmOracle:
    # Active edges are 0/+1 and 0/-1; both cases also hold an inactive +1/-1
    # edge and an agreeing -1/-1 edge.
    CASES = {
        "path5": ("path", (0, 1, -1, -1, 0)),
        "cycle6": ("cycle", (0, 1, 0, -1, -1, 1)),
    }
    RUNS = 4000

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_first_event_matches_constrained_voter_law(self, name):
        kind, ops = self.CASES[name]
        init = OpinionConfig(Topology(kind, len(ops)), ops, (-1, 0, 1))
        active = [(a, b) for a, b in init.topology.edges()
                  if ops[a] != ops[b] and ops[a] + ops[b] != 0]
        assert {ops[a] * ops[b] for a, b in init.topology.edges()} == {-1, 0, 1}
        n_active = len(active)
        # On the lift an active edge has weight 1 of F=2, so rate 1/2 ...
        assert _Buckets(edge_weights(cvm_lift(init)).tolist(), 2).total / 2 == n_active / 2
        # Every active edge fires at rate 1, in a uniform orientation.
        law = {(x, y, -1, 1): 1 / (2 * n_active) for a, b in active for x, y in ((a, b), (b, a))}
        n = self.RUNS
        hits, time_sum = Counter(), 0.0
        for seed in range(n):
            (ev,) = run_model("cvm", init, StopRule(max_events=1), seed).events
            hits[(ev.target, ev.source, ev.copied_feature, ev.delta_w)] += 1
            time_sum += ev.time
            # ... and on the doubled clock the first waiting time is Exp(n_active),
            # the first draw of the trajectory's first block of 16, exactly.
            first = _rng_pair(seed, False)[0].standard_exponential(16)[-1]
            assert ev.time == first / n_active, seed
        assert set(hits) <= set(law)
        for key, p in law.items():
            assert abs(hits[key] - n * p) <= 3 * math.sqrt(n * p * (1 - p)), (key, hits[key], n * p)
        mean = 1 / n_active  # Exp(n_active) has standard deviation equal to its mean
        assert abs(time_sum / n - mean) <= 3 * mean / math.sqrt(n)


def law_at(n: int, src, dst, rate, t: float):
    """Law at time t, from the uniform law on n states, of the chain that
    jumps from state src[k] to dst[k] at rate[k], by uniformization (Jensen
    1953): with L the largest exit rate, it is the Poisson(L*t) mixture of
    the laws after k steps of the chain I + Q/L."""
    src, dst, rate = map(np.concatenate, (src, dst, rate))
    exit_rate = np.bincount(src, rate, n)
    L = exit_rate.max()
    p, law = np.full(n, 1 / n), np.zeros(n)
    k, poisson, left = 0, math.exp(-L * t), 1.0
    while left > 1e-12:
        law += poisson * p
        left -= poisson
        p = p - p * exit_rate / L + np.bincount(dst, p[src] * rate / L, n)
        k += 1
        poisson *= L * t / k
    return law


def census_law(census, law) -> dict:
    """The law of the census, one row per state, under the state law `law`."""
    cells, cell_of = np.unique(census, axis=0, return_inverse=True)
    return {tuple(map(int, c)): float(w) for c, w in zip(cells, np.bincount(cell_of.ravel(), law))}


@cache
def culture_census_law(kind: str, V: int, F: int, q: int, t: float) -> dict:
    """Exact law of the edge census at time t from i.i.d. uniform cultures.

    The generator is built from the model's definition, over all q**(V*F)
    states: an edge whose ends share j of the F features fires at rate j/F,
    in either orientation with probability 1/2, and the target copies a
    uniformly chosen disagreeing feature.
    """
    topo = Topology(kind, V)
    n = q ** (V * F)
    place = q ** np.arange(V * F)[::-1]  # state index = sum of digit * place
    digits = (np.arange(n)[:, None] // place % q).reshape(n, V, F)
    weights = np.stack([(digits[:, a] == digits[:, b]).sum(axis=1) for a, b in topo.edges()], 1)
    src, dst, rate = [], [], []
    for e, (a, b) in enumerate(topo.edges()):
        j = weights[:, e]
        for u, v in ((a, b), (b, a)):
            for i in range(F):
                s = np.flatnonzero((digits[:, u, i] != digits[:, v, i]) & (j > 0))
                src.append(s)
                dst.append(s + (digits[s, u, i] - digits[s, v, i]) * place[v * F + i])
                rate.append(j[s] / (2 * F * (F - j[s])))
    law = law_at(n, src, dst, rate, t)
    return census_law((weights[:, :, None] == np.arange(F + 1)).sum(axis=1), law)


@cache
def opinion_census_law(model: str, kind: str, V: int, t: float) -> dict:
    """Exact law of the census (disagreeing edges, agreeing edges) at time t
    from i.i.d. uniform opinions.

    The generator is built from each model's definition, over all a**V
    states of an a-opinion alphabet, and not from the CVM's lift: in the
    voter model each vertex copies a uniform neighbor at rate 1; in the CVM
    each edge whose ends hold different opinions other than -1 and +1 fires
    at rate 1, and a uniform one of its ends copies the other.
    """
    alphabet = np.array((0, 1) if model == "voter" else (-1, 0, 1))
    topo = Topology(kind, V)
    n = len(alphabet) ** V
    place = len(alphabet) ** np.arange(V)[::-1]
    digits = np.arange(n)[:, None] // place % len(alphabet)
    ops = alphabet[digits]
    src, dst, rate = [], [], []
    for x in range(V):
        nbrs = topo.neighbors(x)
        for y in nbrs:
            live = ops[:, x] != ops[:, y]
            if model == "cvm":
                live &= ops[:, x] != -ops[:, y]
            s = np.flatnonzero(live)
            src.append(s)
            dst.append(s + (digits[s, y] - digits[s, x]) * place[x])
            rate.append(np.full(len(s), 1 / len(nbrs) if model == "voter" else 1 / 2))
    law = law_at(n, src, dst, rate, t)
    agree = sum(ops[:, a] == ops[:, b] for a, b in topo.edges())
    return census_law(np.stack([topo.n_edges - agree, agree], 1), law)


def assert_census_law(hits: Counter, law: dict, n: int):
    """`hits` of n runs lie in the law's support, and every cell within 3 sigma."""
    assert abs(sum(law.values()) - 1) < 1e-9
    assert set(hits) <= {c for c, p in law.items() if p > 0}
    for cell, p in law.items():
        assert abs(hits[cell] - n * p) <= 3 * math.sqrt(n * p * (1 - p)), (
            cell, hits[cell], n * p)


class TestExactLawAtTime:
    """`final_census` at t = 3 against its exact law, on 4-vertex lattices at
    (F, q) = (3, 2), 4,096 states. Most runs make several events, so the
    update of the target's other edge shows, and on the cycle so does the
    wrap-around."""
    F, Q, V, T, RUNS = 3, 2, 4, 3.0, 3000

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_final_census_matches_the_exact_law(self, kind):
        topo, params, n = Topology(kind, self.V), ModelParams(self.F, self.Q), self.RUNS
        hits, several = Counter(), 0
        for seed in replicate_seeds(2718, n):
            traj = run_model("axelrod", partial(random_config, params, topo),
                             StopRule(t_max=self.T), seed)
            hits[traj.final_census.counts] += 1
            several += len(traj.events) >= 2
        assert several >= 0.6 * n
        assert_census_law(hits, culture_census_law(kind, self.V, self.F, self.Q, self.T), n)


def opinion_runs(model: str, kind: str, V: int, t: float, n: int, master: int) -> list:
    """n runs of the opinion model to time t from i.i.d. uniform opinions.

    On the streams these oracles were first held to: run r draws its
    opinions from the first word of `SeedSequence(master, spawn_key=(r,))`
    and runs on the second, through the int-seed `random_opinions` and
    `run_model`, whose streams stay fixed. The draw-then-run path of the
    replicates is held to its exact law by `TestExactLawAtTime`."""
    topo, alphabet = Topology(kind, V), (0, 1) if model == "voter" else (-1, 0, 1)
    runs = []
    for r in range(n):
        words = np.random.SeedSequence(master, spawn_key=(r,)).generate_state(2, np.uint64)
        init_seed, run_seed = map(int, words)
        runs.append(run_model(model, random_opinions(topo, alphabet, init_seed),
                              StopRule(t_max=t), run_seed))
    return runs


class TestExactCvmLawAtTime:
    """The CVM's `final_census` at t = 3 against the exact law of the CVM's
    own generator on 4-vertex lattices, 81 states. Only this oracle sees the
    doubled clock on which `run_model` runs the lift."""
    V, T, RUNS = 4, 3.0, 3000

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_final_census_matches_the_exact_law(self, kind):
        runs = opinion_runs("cvm", kind, self.V, self.T, self.RUNS, 3141)
        assert sum(len(traj.events) >= 2 for traj in runs) >= 0.3 * self.RUNS
        assert_census_law(Counter(traj.final_census.counts for traj in runs),
                          opinion_census_law("cvm", kind, self.V, self.T), self.RUNS)


class TestExactVoterLawAtTime:
    """The voter model's `final_census` at t = 3 against the exact law of its
    generator on 4-vertex lattices, 16 states. Every arrival is an event, so
    the event count is Poisson(V*t) whatever the state; the variance of a
    sample variance of n Poisson(m) counts is about (m + 2*m**2)/n."""
    V, T, RUNS = 4, 3.0, 3000

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_final_census_and_event_count_match_the_exact_laws(self, kind):
        runs = opinion_runs("voter", kind, self.V, self.T, self.RUNS, 1618)
        n, mean = self.RUNS, self.V * self.T
        assert_census_law(Counter(traj.final_census.counts for traj in runs),
                          opinion_census_law("voter", kind, self.V, self.T), n)
        # The mean and variance of the count within 3 sigma of Poisson(V*t)'s.
        k = np.array([len(traj.events) for traj in runs])
        assert abs(k.mean() - mean) <= 3 * math.sqrt(mean / n), k.mean()
        assert abs(k.var(ddof=1) - mean) <= 3 * math.sqrt((mean + 2 * mean ** 2) / n), k.var()


class TestRunModel:
    def test_monocultural_absorbs_immediately(self):
        cfg = make_cfg("path", [(1, 1)] * 5, 2, 2)
        traj = run_model("axelrod", cfg, StopRule(stop_on_absorption=True), 0)
        assert traj.absorbed and traj.events == [] and traj.end_time == 0.0

    def test_single_feature_absorbs_immediately(self):
        cfg = random_config(ModelParams(1, 4), Topology("cycle", 8), 3)
        traj = run_model("axelrod", cfg, StopRule(stop_on_absorption=True), 0)
        assert traj.absorbed and traj.events == []

    def test_two_vertex_symmetry(self):
        # both monocultures equally likely from (0,0),(0,1) by symmetry
        cfg = make_cfg("path", [(0, 0), (0, 1)], 2, 2)
        n, hits = 800, 0
        for seed in range(n):
            traj = run_model("axelrod", cfg, StopRule(stop_on_absorption=True), seed)
            assert traj.absorbed
            hits += traj.final.cultures[0] == (0, 0)
        sigma = (n * 0.25) ** 0.5
        assert abs(hits - n / 2) <= 3 * sigma

    def test_replay_determinism(self):
        cfg = random_config(ModelParams(2, 3), Topology("cycle", 30), 1)
        stop = StopRule(t_max=20.0, stop_on_absorption=True)
        a = run_model("axelrod", cfg, stop, 42, snapshot_times=(1.0, 5.0))
        b = run_model("axelrod", cfg, stop, 42, snapshot_times=(1.0, 5.0))
        assert a.events == b.events
        assert a.final == b.final
        assert a.snapshots == b.snapshots

    def test_model_initial_pairing(self):
        cfg = random_config(ModelParams(2, 2), Topology("path", 5), 0)
        with pytest.raises(InvalidInput):
            run_model("voter", cfg, StopRule(t_max=1.0), 0)
        with pytest.raises(InvalidInput):
            run_model("axelrod", voter_projection(cfg), StopRule(t_max=1.0), 0)

    @pytest.mark.parametrize("model,alphabet", [("voter", (1, 0)), ("cvm", (1, 0, -1)),
                                                ("cvm", (0, -1, 1))])
    def test_a_permuted_alphabet_is_refused(self, model, alphabet):
        """A log stores no alphabet, so a run or replay from a permuted one
        could not reload to its initial state."""
        init = OpinionConfig(Topology("path", len(alphabet)), alphabet, alphabet)
        message = f"^{re.escape(f'{model} initial must use opinions {sorted(alphabet)}')}$"
        with pytest.raises(InvalidInput, match=message):
            run_model(model, init, StopRule(t_max=1.0), 0)
        with pytest.raises(InvalidInput, match=message):
            replay(init, [], model)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None], ids=repr)
    def test_seed_must_be_an_integer_of_at_least_0(self, seed):
        topo, stop = Topology("path", 5), StopRule(t_max=1.0)
        cfg = random_config(ModelParams(2, 2), topo, 0)
        message = f"^seed must be an integer >= 0, got {seed}$"
        with pytest.raises(InvalidInput, match=message):
            run_model("axelrod", cfg, stop, seed)
        with pytest.raises(InvalidInput, match=message):
            run_model("cvm", cvm_projection(cfg), stop, seed)
        with pytest.raises(InvalidInput, match=message):
            random_config(ModelParams(2, 2), topo, seed)
        for ok in (np.int64(3), 2 ** 64 + 1):
            assert run_model("axelrod", random_config(ModelParams(2, 2), topo, ok), stop, ok)

    def test_event_cap_flags_not_absorbed(self):
        cfg = random_config(ModelParams(2, 2), Topology("cycle", 64), 2)
        traj = run_model("axelrod", cfg, StopRule(max_events=5), 0)
        assert len(traj.events) == 5 and not traj.absorbed

    def test_events_replay_to_final(self):
        cfg = random_config(ModelParams(3, 4), Topology("path", 41), 6)
        traj = run_model("axelrod", cfg, StopRule(stop_on_absorption=True), 8)
        assert replay(cfg, traj.events, "axelrod") == traj.final
        assert is_absorbed(traj.final)

    def test_delta_w_range_and_w_monotone(self):
        cfg = random_config(ModelParams(2, 3), Topology("path", 61), 4)
        traj = run_model("axelrod", cfg, StopRule(stop_on_absorption=True), 4)
        assert traj.events
        from axsim import edge_census

        state = cfg
        w = edge_census(state).total_agreement
        for ev in traj.events:
            assert ev.delta_w in (0, 1, 2)
            state = replay(state, [ev], "axelrod")
            w2 = edge_census(state).total_agreement
            assert w2 - w == ev.delta_w
            w = w2

    def test_every_event_bumps_updated_edge(self):
        from axsim.core import edge_overlap_count

        cfg = random_config(ModelParams(2, 2), Topology("cycle", 20), 9)
        traj = run_model("axelrod", cfg, StopRule(t_max=8.0), 10)
        state = cfg
        for ev in traj.events:
            before = edge_overlap_count(state, ev.source, ev.target)
            state = replay(state, [ev], "axelrod")
            after = edge_overlap_count(state, ev.source, ev.target)
            assert after == before + 1

    def test_f2q2_edge_transition_rules(self):
        # updates only fire across weight-1 edges; the updated edge becomes
        # a 2-edge and any far edge moves by -1, 0 stays impossible at F=2
        from axsim.core import edge_overlap_count

        cfg = random_config(ModelParams(2, 2), Topology("cycle", 40), 13)
        traj = run_model("axelrod", cfg, StopRule(t_max=15.0), 14)
        state = cfg
        for ev in traj.events:
            assert edge_overlap_count(state, ev.source, ev.target) == 1
            nxt = replay(state, [ev], "axelrod")
            assert edge_overlap_count(nxt, ev.source, ev.target) == 2
            for z in state.topology.neighbors(ev.target):
                if z == ev.source:
                    continue
                dd = edge_overlap_count(nxt, ev.target, z) - \
                    edge_overlap_count(state, ev.target, z)
                assert dd in (-1, 1)
            state = nxt

    def test_snapshot_left_limit_and_absorbed_tail(self):
        cfg = random_config(ModelParams(2, 4), Topology("path", 31), 3)
        traj = run_model("axelrod", cfg, StopRule(stop_on_absorption=True), 3,
                         snapshot_times=(0.5, 10.0 ** 6))
        times = [s.time for s in traj.snapshots]
        assert times == [0.5, 10.0 ** 6]
        # the far-future snapshot shows the absorbed census
        from axsim import edge_census

        assert traj.snapshots[-1].census == edge_census(traj.final)

    def test_snapshot_beyond_t_max_rejected(self):
        cfg = random_config(ModelParams(2, 4), Topology("path", 11), 3)
        for stop in (StopRule(t_max=1.0), StopRule(t_max=1.0, stop_on_absorption=True)):
            with pytest.raises(InvalidInput):
                run_model("axelrod", cfg, stop, 3, snapshot_times=(0.5, 5.0))
        traj = run_model("axelrod", cfg, StopRule(t_max=1.0), 3, snapshot_times=(0.5, 1.0))
        assert [s.time for s in traj.snapshots] == [0.5, 1.0]

    def test_projection_jumps_are_event_times(self):
        cfg = random_config(ModelParams(2, 2), Topology("cycle", 16), 21)
        traj = run_model("axelrod", cfg, StopRule(t_max=6.0), 22)
        state = cfg
        proj = voter_projection(state).opinions
        for ev in traj.events:
            state = replay(state, [ev], "axelrod")
            nxt = voter_projection(state).opinions
            if nxt != proj:
                assert sum(a != b for a, b in zip(nxt, proj)) == 1
            proj = nxt

    def test_cvm_projection_of_culture_run_is_legal_cvm_path(self):
        cfg = random_config(ModelParams(2, 2), Topology("cycle", 16), 31)
        traj = run_model("axelrod", cfg, StopRule(t_max=6.0), 32)
        state = cfg
        eta = cvm_projection(state).opinions
        for ev in traj.events:
            state = replay(state, [ev], "axelrod")
            nxt = cvm_projection(state).opinions
            changed = [x for x in range(len(eta)) if nxt[x] != eta[x]]
            assert len(changed) <= 1
            if changed:
                x = changed[0]
                eps = nxt[x]
                assert eta[x] != -eps or eps == 0
                assert any(eta[yv] == eps for yv in state.topology.neighbors(x))
            eta = nxt


def _error(make):
    with pytest.raises(InvalidInput) as info:
        make()
    return str(info.value)


class TestOneRunCheck:
    """`run_model` and `ExperimentConfig.validate` share `check_run`, so each
    rule rejects the same arguments with the same message."""

    CASES = {
        "unknown model": dict(model="potts", t_max=1.0),
        "NaN snapshot time": dict(t_max=1.0, snapshot_times=(0.5, math.nan)),
        "negative snapshot time": dict(snapshot_times=(-0.5,)),
        "snapshot time that is no number": dict(snapshot_times=(None,)),
        "snapshot beyond t_max": dict(t_max=1.0, snapshot_times=(0.5, 2.0)),
        "urn on voter": dict(model="voter", t_max=1.0, attach_urn=True),
        "urn on cvm": dict(model="cvm", t_max=1.0, attach_urn=True),
        # 7 vertices: about 7e9 arrivals, and an infinite product at 1e308.
        "voter run that never stops": dict(model="voter", t_max=1e9),
        "voter run to 1e308": dict(model="voter", t_max=1e308),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_rule_same_message(self, name):
        config = ExperimentConfig(kind="simulate", N=6, **self.CASES[name])
        topo = config.make_topology()
        initial = {"voter": OpinionConfig(topo, (0, 1) * 3 + (0,), (0, 1)),
                   "cvm": OpinionConfig(topo, (0, 1, -1) * 2 + (0,), (-1, 0, 1))}.get(
            config.model, random_config(ModelParams(2, 2), topo, 0))
        from_run = _error(lambda: run_model(
            config.model, initial, config.stop_rule(), 0, snapshot_times=config.snapshot_times,
            attach_urn=config.attach_urn))
        assert _error(config.validate) == from_run

    def test_voter_runs_expected_to_log_more_than_2_31_events_are_refused(self):
        """The refusal names max_events; at 2**31 expected events, or with
        max_events or consensus to stop it, a voter run is taken."""
        def voter(**kwargs):  # a cycle of 8 vertices
            return ExperimentConfig(kind="simulate", model="voter", topology="cycle", N=8,
                                    **kwargs)
        voter(t_max=2.0 ** 28).validate()
        assert "max_events" in _error(voter(t_max=math.nextafter(2.0 ** 28, 3e8)).validate)
        voter(t_max=1e308, max_events=10).validate()
        init = OpinionConfig(Topology("cycle", 8), (0, 1) * 4, (0, 1))
        for stop in (StopRule(t_max=1e308, max_events=10),
                     StopRule(t_max=1e308, stop_on_absorption=True)):
            assert run_model("voter", init, stop, 3).end_time < 1e308


def _z(xs, ys) -> float:
    """Two-sample z statistic of the means of xs and ys."""
    (mx, vx), (my, vy) = ((np.mean(v), np.var(v, ddof=1)) for v in (xs, ys))
    return float((mx - my) / math.sqrt(vx / len(xs) + vy / len(ys)))


def disagreeing_edges(opinions, topology) -> int:
    return sum(opinions[a] != opinions[b] for a, b in topology.edges())


class TestProjectionOracles:
    """F=q=2 culture dynamics seen through a projection is the CVM (or, on a
    cycle, the voter model) at half speed: an active edge of the lift fires
    at rate 1/2 where the opinion model's fires at rate 1. So a culture run
    to 2t, projected, has the law of the opinion model run to t."""

    RUNS = 4000
    T = 0.5
    # Both starts hold (1,1) cultures, which the CVM lift never makes.
    STARTS = {
        "path": ((1, 1), (0, 1), (0, 0), (1, 0), (1, 1), (0, 1), (0, 1), (0, 0), (1, 1), (1, 0)),
        "cycle": ((0, 1), (1, 1), (1, 0), (0, 0), (0, 1), (1, 1), (1, 1), (1, 0), (0, 0), (0, 1)),
    }

    def observed(self, model, initial, t, seeds, project):
        """Disagreeing edges, 0-opinions and 1-opinions at time t, one row per run."""
        rows = []
        for seed in seeds:
            ops = project(run_model(model, initial, StopRule(t_max=t), seed).final).opinions
            rows.append((disagreeing_edges(ops, initial.topology), ops.count(0), ops.count(1)))
        return np.array(rows)

    def zs(self, model, kind, project):
        cfg = make_cfg(kind, self.STARTS[kind], 2, 2)
        opinion = project(cfg)
        n = self.RUNS
        lifted = self.observed("axelrod", cfg, 2 * self.T, range(n), project)
        direct = self.observed(model, opinion, self.T, range(n, 2 * n), lambda o: o)
        return [_z(lifted[:, k], direct[:, k]) for k in range(3)]

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_cvm_is_the_projected_culture_model(self, kind):
        zs = self.zs("cvm", kind, cvm_projection)
        assert all(abs(z) <= 3 for z in zs), zs

    def test_voter_is_the_projected_culture_model_on_a_cycle(self):
        zs = self.zs("voter", "cycle", voter_projection)
        assert all(abs(z) <= 3 for z in zs), zs


class TestVoterRun:
    def test_all_arrivals_logged(self):
        topo = Topology("cycle", 10)
        init = OpinionConfig(topo, (0, 1) * 5, (0, 1))
        traj = run_model("voter", init, StopRule(t_max=3.0), 5)
        # arrival count is Poisson(V * t); just require both flips and no-ops
        assert any(ev.delta_w == 0 for ev in traj.events)
        assert any(ev.delta_w == 1 for ev in traj.events)
        assert all(ev.copied_feature == -1 for ev in traj.events)

    def test_consensus_absorbs(self):
        topo = Topology("cycle", 10)
        init = OpinionConfig(topo, (1,) * 10, (0, 1))
        traj = run_model("voter", init, StopRule(stop_on_absorption=True), 0)
        assert traj.absorbed and traj.events == []

    def test_replay_matches_final(self):
        topo = Topology("cycle", 12)
        init = OpinionConfig(topo, tuple([0, 1] * 6), (0, 1))
        traj = run_model("voter", init, StopRule(t_max=4.0), 8)
        assert replay(init, traj.events, "voter") == traj.final

    def test_consensus_keeps_logging_until_t_max(self):
        # Duality needs every arrival up to the horizon, also after consensus.
        topo = Topology("cycle", 10)
        init = OpinionConfig(topo, (1,) * 10, (0, 1))
        traj = run_model("voter", init, StopRule(t_max=3.0), 0)
        assert traj.absorbed and traj.end_time == 3.0
        assert traj.events and all(ev.delta_w == 0 for ev in traj.events)


class TestCvmRun:
    def test_extremes_never_interact(self):
        topo = Topology("path", 2)
        init = OpinionConfig(topo, (1, -1), (-1, 0, 1))
        traj = run_model("cvm", init, StopRule(stop_on_absorption=True), 0)
        assert traj.absorbed and traj.events == []

    def test_absorbing_states_have_no_admissible_pair(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            topo = Topology("path", 21)
            init = OpinionConfig(topo, tuple(int(v) for v in rng.integers(-1, 2, 21)),
                                 (-1, 0, 1))
            traj = run_model("cvm", init, StopRule(stop_on_absorption=True), seed)
            assert traj.absorbed
            ops = traj.final.opinions
            for a, b in topo.edges():
                assert ops[a] == ops[b] or ops[a] + ops[b] == 0

    def test_every_event_is_admissible(self):
        rng = np.random.default_rng(3)
        topo = Topology("cycle", 20)
        init = OpinionConfig(topo, tuple(int(v) for v in rng.integers(-1, 2, 20)),
                             (-1, 0, 1))
        traj = run_model("cvm", init, StopRule(t_max=5.0), 7)
        ops = list(init.opinions)
        for ev in traj.events:
            eps = ops[ev.source]
            assert ops[ev.target] != -eps or eps == 0
            assert ev.source in topo.neighbors(ev.target)
            ops[ev.target] = eps
        assert tuple(ops) == traj.final.opinions

    def test_frozen_run_reports_t_max(self):
        # (0, +1) on one edge freezes after its first event, long before t_max.
        init = OpinionConfig(Topology("path", 2), (0, 1), (-1, 0, 1))
        traj = run_model("cvm", init, StopRule(t_max=50.0), 4)
        assert traj.absorbed and len(traj.events) == 1
        assert traj.events[0].time < 50.0
        assert traj.end_time == 50.0
        stopped = run_model("cvm", init, StopRule(t_max=50.0, stop_on_absorption=True), 4)
        assert stopped.events == traj.events
        assert stopped.end_time == stopped.events[-1].time


class TestChildWords:
    """`child_words` against its oracle, numpy's own `SeedSequence`: the edge
    seeds of 32 and 64 bits and a few thousand drawn ones."""
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1,
             *np.random.default_rng(21).integers(0, 2**64, 3000, np.uint64).tolist()]

    @pytest.mark.parametrize("keys", [1, 2])
    def test_the_words_are_numpys(self, keys):
        words = child_words(self.SEEDS, keys)
        assert len(words) == len(self.SEEDS)
        for seed, got in zip(self.SEEDS, words):
            assert got == b"".join(
                np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64).tobytes()
                for k in range(keys))

    @pytest.mark.parametrize("keys", [1, 2])
    def test_the_generators_are_numpys(self, keys):
        """Both children; with key 0's words only, the urn's is built from its key."""
        for seed, words in zip(self.SEEDS, child_words(self.SEEDS, keys)):
            got, want = _rng_pair(Seeded(seed, words), True), _rng_pair(seed, True)
            for rng, ref in zip(got, want):
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("model,urn", [("axelrod", False), ("axelrod", True),
                                           ("cvm", False), ("voter", False)])
    def test_a_seeded_run_is_the_seeds_run(self, model, urn):
        """Twice with the same words, as a rerun does, and as from the seed alone."""
        topo = Topology("cycle", 30)
        draw = (partial(random_config, ModelParams(2, 4), topo) if model == "axelrod"
                else partial(random_opinions, topo, (-1, 0, 1) if model == "cvm" else (0, 1)))
        seed = self.SEEDS[7]
        seeded = Seeded(seed, child_words([seed], 2)[0])
        runs = [run_model(model, draw, StopRule(t_max=3.0), s, snapshot_times=(1.0,),
                          attach_urn=urn) for s in (seeded, seeded, seed)]
        assert len(runs[0].events) > 0 and runs[0].seed == seed and type(runs[0].seed) is int
        assert repr(runs[0]) == repr(runs[1]) == repr(runs[2])


class TestSeedingAndEvents:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5])
    def test_generators_are_the_spawned_children(self, seed):
        children = np.random.SeedSequence(seed).spawn(2)
        traj, urn = _rng_pair(seed, True)
        for rng, child in zip((traj, urn), children):
            ref = np.random.default_rng(child)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.random(64).tolist() == ref.random(64).tolist()
        traj, urn = _rng_pair(seed, False)
        assert urn is None
        assert traj.random(64).tolist() == np.random.default_rng(children[0]).random(64).tolist()

    def test_update_event_is_an_immutable_value(self):
        ev = UpdateEvent(1.5, 1, 0, 2, 1)
        assert repr(ev) == ("UpdateEvent(time=1.5, target=1, source=0, "
                            "copied_feature=2, delta_w=1)")
        assert ev == UpdateEvent(1.5, 1, 0, 2, 1) and ev != UpdateEvent(1.5, 1, 0, 2, 2)
        assert hash(ev) == hash(UpdateEvent(1.5, 1, 0, 2, 1))
        assert (ev.time, ev.target, ev.source, ev.copied_feature, ev.delta_w) == (1.5, 1, 0, 2, 1)
        with pytest.raises(AttributeError):
            ev.delta_w = 0

    @pytest.mark.parametrize("model", ["axelrod", "voter", "cvm"])
    def test_final_census_is_the_census_of_the_final_state(self, model):
        topo = Topology("cycle", 12)
        if model == "axelrod":
            init = random_config(ModelParams(3, 3), topo, 2)
        else:
            ops = (0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1)
            init = OpinionConfig(topo, ops, (0, 1)) if model == "voter" else cvm_projection(
                random_config(ModelParams(2, 2), topo, 2))
        traj = run_model(model, init, StopRule(t_max=2.0), 9)
        assert traj.final_census == edge_census(traj.final)


PAIR = Configuration(Topology("path", 2), ModelParams(2, 2), ((0, 1), (0, 0)))
# Target 1 copies feature 0 from vertex 0 and also changes its other two
# features, so W moves by +1 - 3 = -2, which no copy step does.
BEFORE = Configuration(Topology("path", 3), ModelParams(3, 3), ((0, 0, 0), (1, 1, 1), (1, 1, 1)))
AFTER = Configuration(Topology("path", 3), ModelParams(3, 3), ((0, 0, 0), (0, 2, 2), (1, 1, 1)))


@pytest.mark.parametrize("call,message", [
    (lambda: propose_and_apply(PAIR, GraphicalDraw(0.1, 0, 1, 2, 0.5)),
     "feature draw out of range"),
    (lambda: propose_and_apply(PAIR, GraphicalDraw(0.1, 0, 1, -1, 0.5)),
     "feature draw out of range"),
    (lambda: propose_and_apply(PAIR, GraphicalDraw(0.1, 0, 1, 0, 1.0)),
     "tie draw outside (0,1)"),
    (lambda: propose_and_apply(PAIR, GraphicalDraw(0.1, 0, 1, 0, 0.0)),
     "tie draw outside (0,1)"),
    (lambda: classify_delta_w(BEFORE, UpdateEvent(0.1, 1, 0, 0, -1), AFTER),
     "delta_w -2 outside {0,1,2}"),
], ids=["feature-2", "feature--1", "tie-1", "tie-0", "delta-w"])
def test_refusal_type_and_message(call, message):
    with pytest.raises(InvalidInput) as info:
        call()
    assert type(info.value) is InvalidInput and str(info.value) == message
