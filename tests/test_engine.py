import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from axsim import (
    Configuration,
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
from axsim.engine import _rng_pair
from axsim.logio import replay


def make_cfg(kind, cultures, F, q):
    topo = Topology(kind, len(cultures))
    return Configuration(topo, ModelParams(F, q), tuple(tuple(c) for c in cultures))


class TestStopRule:
    def test_needs_a_bound(self):
        with pytest.raises(InvalidInput):
            StopRule()
        StopRule(stop_on_absorption=True)


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
