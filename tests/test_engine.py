import math
from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from axsim import (
    Configuration,
    EventTable,
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
    run_model,
    voter_projection,
)
from axsim.core import cvm_lift
from axsim.engine import _culture_kernel, _rng_pair, replicate_seeds
from axsim.logio import replay


def make_cfg(kind, cultures, F, q):
    topo = Topology(kind, len(cultures))
    return Configuration(topo, ModelParams(F, q), tuple(tuple(c) for c in cultures))


class TestStopRule:
    def test_needs_a_bound(self):
        with pytest.raises(InvalidInput):
            StopRule()
        StopRule(stop_on_absorption=True)

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf, -1.0, -1e-300,
                                       pytest.param(10 ** 400, id="10**400")])
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
        lift = _culture_kernel(cvm_lift(init), None, EventTable().appenders())
        assert lift.rate() == n_active / 2
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


@cache
def culture_census_law(kind: str, V: int, F: int, q: int, t: float) -> dict:
    """Exact law of the edge census at time t from i.i.d. uniform cultures.

    The generator is built from the model's definition, over all q**(V*F)
    states: an edge whose ends share j of the F features fires at rate j/F,
    in either orientation with probability 1/2, and the target copies a
    uniformly chosen disagreeing feature. The state law at t comes by
    uniformization (Jensen 1953): with L the largest exit rate, it is the
    Poisson(L*t) mixture of the laws after k steps of the chain I + Q/L.
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
    census = (weights[:, :, None] == np.arange(F + 1)).sum(axis=1)
    cells, cell_of = np.unique(census, axis=0, return_inverse=True)
    return {tuple(map(int, c)): float(w) for c, w in zip(cells, np.bincount(cell_of.ravel(), law))}


class TestExactLawAtTime:
    """`final_census` at t = 3 against its exact law, on 4-vertex lattices at
    (F, q) = (3, 2), 4,096 states. Most runs make several events, so the
    update of the target's other edge shows, and on the cycle so does the
    wrap-around."""
    F, Q, V, T, RUNS = 3, 2, 4, 3.0, 3000

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_final_census_matches_the_exact_law(self, kind):
        law = culture_census_law(kind, self.V, self.F, self.Q, self.T)
        assert abs(sum(law.values()) - 1) < 1e-9
        topo, params, n = Topology(kind, self.V), ModelParams(self.F, self.Q), self.RUNS
        hits, several = Counter(), 0
        for r in range(n):
            init_seed, run_seed = replicate_seeds(2718, r)
            traj = run_model("axelrod", random_config(params, topo, init_seed),
                             StopRule(t_max=self.T), run_seed)
            hits[traj.final_census.counts] += 1
            several += len(traj.events) >= 2
        assert several >= 0.6 * n
        assert set(hits) <= {c for c, p in law.items() if p > 0}
        for cell, p in law.items():
            assert abs(hits[cell] - n * p) <= 3 * math.sqrt(n * p * (1 - p)), (
                cell, hits[cell], n * p)


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
        "snapshot beyond t_max": dict(t_max=1.0, snapshot_times=(0.5, 2.0)),
        "urn on voter": dict(model="voter", t_max=1.0, attach_urn=True),
        "urn on cvm": dict(model="cvm", t_max=1.0, attach_urn=True),
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
