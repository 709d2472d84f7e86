import itertools
import sys

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from axsim import (
    CapacityError,
    InvalidInput,
    ModelParams,
    StopRule,
    Topology,
    UrnState,
    edge_census,
    random_config,
    run_model,
    urn_coupled_step,
    urn_exact_expectation,
    urn_init,
    urn_potentials,
    urn_rounds_run,
)
from axsim.engine import _rng_pair
from axsim.logio import replay
from axsim.stats import census_from_counts
from axsim.urn import urn_move


class TestUrnInit:
    def test_copies_census(self):
        census = census_from_counts((3, 2, 5))
        assert urn_init(census).boxes == (3, 2, 5)
        assert urn_init(census).total == 10

    def test_monocultural_all_in_box_f(self):
        cfg = random_config(ModelParams(2, 2), Topology("path", 5), 0)
        mono = type(cfg)(cfg.topology, cfg.params, ((1, 1),) * 5)
        assert urn_init(edge_census(mono)).boxes == (0, 0, 4)


class TestCoupledStep:
    def test_delta_leq_one_is_noop(self):
        rng = np.random.default_rng(0)
        u = UrnState((1, 1, 0))
        assert urn_coupled_step(u, 0, rng) is u
        assert urn_coupled_step(u, 1, rng) is u

    def test_delta_two_moves_inner_then_black(self):
        rng = np.random.default_rng(0)
        assert urn_coupled_step(UrnState((1, 1, 0)), 2, rng).boxes == (0, 1, 1)

    def test_no_inner_box_no_move(self):
        rng = np.random.default_rng(0)
        u = UrnState((2, 0, 3))
        assert urn_coupled_step(u, 2, rng).boxes == (2, 0, 3)

    @given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
                     st.integers(0, 5)),
           st.integers(0, 2), st.integers(0, 100))
    def test_ball_conservation(self, boxes, delta, seed):
        rng = np.random.default_rng(seed)
        u = UrnState(boxes)
        assert urn_coupled_step(u, delta, rng).total == u.total


class TestUrnMove:
    """The one statement of the coupled urn's move, which `urn_coupled_step`
    and the Python loop's `couple` both call."""

    @pytest.mark.parametrize("F", [1, 2, 3, 4])
    def test_returns_the_change_in_beta(self, F):
        # Every urn of up to 2 balls a box, and three draws each.
        def beta(boxes):
            return sum((F - j) * boxes[j] for j in range(1, F + 1))

        for start in itertools.product(range(3), repeat=F + 1):
            for seed in range(3):
                boxes = list(start)
                change = urn_move(boxes, np.random.default_rng(seed))
                assert change == beta(boxes) - beta(start)
                assert sum(boxes) == sum(start) and min(boxes) >= 0
                moved = any(start[1:F])
                assert (boxes != list(start)) == moved
                assert boxes[0] == start[0] - (moved and start[0] > 0)

    def test_box_zero_step_at_F_2_leaves_beta_unchanged(self):
        # Box 1 -> 2 lowers beta by 1 and box 0 -> 1 raises it by F - 1 = 1:
        # the urn moved, though beta did not change.
        boxes = [1, 1, 0]
        assert urn_move(boxes, np.random.default_rng(0)) == 0
        assert boxes == [0, 1, 1]
        assert urn_coupled_step(UrnState((1, 1, 0)), 2, np.random.default_rng(0)).boxes == (0, 1, 1)


class TestPotentials:
    def test_examples(self):
        census = census_from_counts((1, 1, 0))
        beta, eps = urn_potentials(UrnState((1, 1, 0)), census)
        assert beta == 1 and eps == 1
        beta, _ = urn_potentials(UrnState((0, 0, 5)), census_from_counts((0, 0, 5)))
        assert beta == 0

    def test_epsilon_identity(self):
        # eps = F*(N - w_0) - W for every census
        for seed in range(10):
            cfg = random_config(ModelParams(3, 4), Topology("path", 30), seed)
            census = edge_census(cfg)
            _, eps = urn_potentials(UrnState(census.counts), census)
            F, n = 3, census.n_edges
            assert eps == F * (n - census.counts[0]) - census.total_agreement


def reference_coupling(traj):
    """The coupled urn along a culture run, from public functions alone:
    `urn_coupled_step` on each event's delta_w, drawing from the run's urn
    substream, and both violations recounted per event from the replayed
    state's census by `urn_potentials`. (final urn, b_0 > w_0 count, beta <
    eps count with b_0 > 0)."""
    urn_rng = _rng_pair(traj.seed, True)[1]
    state = traj.initial
    urn = urn_init(edge_census(state))
    b0_viol = pot_viol = 0
    for ev in traj.events:
        urn = urn_coupled_step(urn, ev.delta_w, urn_rng)
        state = replay(state, [ev], "axelrod")
        census = edge_census(state)
        beta, eps = urn_potentials(urn, census)
        b0_viol += urn.boxes[0] > census.counts[0]
        pot_viol += urn.boxes[0] > 0 and beta < eps
    return urn, b0_viol, pot_viol


class TestCoupledInvariants:
    def test_pathwise_domination_along_trajectories(self):
        # B_0 <= w_0 after every event; beta >= eps while box 0 is nonempty
        for seed in range(20):
            cfg = random_config(ModelParams(2, 4), Topology("path", 41), seed)
            traj = run_model("axelrod", cfg, StopRule(stop_on_absorption=True),
                             seed + 1000, attach_urn=True)
            assert traj.urn_b0_violations == 0
            assert traj.urn_potential_violations == 0
            assert reference_coupling(traj) == (traj.urn_final, 0, 0)

    def test_urn_does_not_perturb_trajectory(self):
        for kind in ("path", "cycle"):
            for seed in range(6):
                cfg = random_config(ModelParams(2 + seed % 2, 3), Topology(kind, 24), seed + 5)
                stop = StopRule(stop_on_absorption=True)
                bare = run_model("axelrod", cfg, stop, seed + 9)
                coupled = run_model("axelrod", cfg, stop, seed + 9, attach_urn=True)
                assert bare.events == coupled.events
                assert bare.final == coupled.final
                assert bare.end_time == coupled.end_time

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_reference_coupling(self, kind, seed):
        F = 2 + seed % 3
        moved = False
        for s in (seed, seed + 4):
            cfg = random_config(ModelParams(F, 4), Topology(kind, 16), s)
            for stop in (StopRule(stop_on_absorption=True), StopRule(max_events=5)):
                traj = run_model("axelrod", cfg, stop, s + 50, attach_urn=True)
                assert reference_coupling(traj) == (
                    traj.urn_final, traj.urn_b0_violations, traj.urn_potential_violations)
                moved |= traj.urn_final != urn_init(edge_census(cfg))
        assert moved


class TestRoundsUrn:
    def test_whites_already_done(self):
        rec = urn_rounds_run(UrnState((0, 0, 5)), ModelParams(2, 3), 0)
        assert rec.round_end_steps == (0,)
        assert rec.final.boxes == (0, 0, 5)

    def test_no_whites(self):
        rec = urn_rounds_run(UrnState((7, 0, 0)), ModelParams(2, 3), 0)
        assert rec.final.boxes == (7, 0, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_refuses_a_seed_that_is_no_integer_at_least_0(self, seed):
        with pytest.raises(InvalidInput, match="seed must be an integer >= 0"):
            urn_rounds_run(UrnState((2, 2, 2)), ModelParams(2, 3), seed)

    def test_takes_a_generator_as_it_takes_its_seed(self):
        by_seed = urn_rounds_run(UrnState((3, 2, 1, 2)), ModelParams(3, 5), 7)
        rng = np.random.default_rng(7)
        assert urn_rounds_run(UrnState((3, 2, 1, 2)), ModelParams(3, 5), rng) == by_seed
        assert rng.bit_generator.state != np.random.default_rng(7).bit_generator.state

    def test_terminal_state_only_outer_boxes(self):
        for seed in range(30):
            rec = urn_rounds_run(UrnState((3, 2, 1, 2)), ModelParams(3, 5), seed)
            assert all(b == 0 for b in rec.final.boxes[1:-1])
            assert rec.final.total == 8

    def test_round_length_recurrence(self):
        # T_{k+1} - T_k = (F-1) * B_1(T_k)
        for seed in range(30):
            rec = urn_rounds_run(UrnState((5, 3, 2, 1)), ModelParams(3, 6), seed)
            for k in range(len(rec.round_end_steps) - 1):
                gap = rec.round_end_steps[k + 1] - rec.round_end_steps[k]
                assert gap == (3 - 1) * rec.box1_counts[k]

    def test_round_transition_binomial_mean(self):
        # with box 0 effectively inexhaustible, consecutive round-end box-1
        # counts satisfy B_1(T_{k+1}) ~ Bin((F-1) B_1(T_k), (q-1)^{-1});
        # aggregate z-test on the conditional means
        F, q = 3, 5
        p = 1 / (q - 1)
        resid = 0.0
        var = 0.0
        for seed in range(300):
            rec = urn_rounds_run(UrnState((10 ** 6, 40, 0, 0)), ModelParams(F, q), seed)
            for bk, bk1 in zip(rec.box1_counts, rec.box1_counts[1:]):
                trials = (F - 1) * bk
                resid += bk1 - trials * p
                var += trials * p * (1 - p)
        assert var > 0
        assert abs(resid) <= 3 * var ** 0.5


class TestExactOracle:
    def test_trivial_endpoints(self):
        p = ModelParams(2, 3)
        assert urn_exact_expectation(UrnState((6, 0, 0)), p) == 6
        assert urn_exact_expectation(UrnState((0, 0, 6)), p) == 0

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            urn_exact_expectation(UrnState((100, 0, 0)), ModelParams(2, 3))

    def test_at_the_cap_without_raising_the_recursion_limit(self, monkeypatch):
        # 12 balls and F=4; the value is that of the former recursive expansion.
        def refuse(limit):
            raise AssertionError("recursion limit changed")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert urn_exact_expectation(UrnState((4, 3, 3, 2, 0)), ModelParams(4, 5)) == \
            Fraction(197156866310307, 2 ** 50)

    def test_small_instance_value(self):
        assert urn_exact_expectation(UrnState((1, 1, 0)), ModelParams(2, 3)) == \
            Fraction(1, 2)

    @pytest.mark.parametrize("boxes,F,q", [
        ((1, 1, 0), 2, 3),
        ((2, 1, 1), 2, 3),
        ((1, 1, 1, 0), 3, 4),
    ])
    def test_oracle_matches_simulation(self, boxes, F, q):
        params = ModelParams(F, q)
        exact = float(urn_exact_expectation(UrnState(boxes), params))
        vals = [urn_rounds_run(UrnState(boxes), params, s).final.boxes[0]
                for s in range(4000)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        se = (var / len(vals)) ** 0.5
        assert abs(mean - exact) <= max(3 * se, 1e-9)


@pytest.mark.parametrize("call,message", [
    (lambda: UrnState((1, -1, 0)), "negative ball count"),
    (lambda: urn_coupled_step(UrnState((1, 1, 1)), 3, np.random.default_rng(0)),
     "delta_w 3 outside {0,1,2}"),
    (lambda: urn_coupled_step(UrnState((1, 1, 1)), -1, np.random.default_rng(0)),
     "delta_w -1 outside {0,1,2}"),
    (lambda: urn_potentials(UrnState((1, 1, 1)), census_from_counts((1, 1, 1, 1))),
     "urn and census disagree on F"),
    (lambda: urn_rounds_run(UrnState((1, 1)), ModelParams(2, 3), 0),
     "urn state does not match F"),
    (lambda: urn_exact_expectation(UrnState((1, 1)), ModelParams(2, 3)),
     "urn state does not match F"),
], ids=["negative", "delta-w-3", "delta-w--1", "potentials-F", "rounds-F", "exact-F"])
def test_refusal_type_and_message(call, message):
    with pytest.raises(InvalidInput) as info:
        call()
    assert type(info.value) is InvalidInput and str(info.value) == message
