import itertools

import numpy as np
import pytest
from fractions import Fraction

from axsim import (
    Configuration,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    StopRule,
    Topology,
    UnsupportedTopology,
    binom_pj,
    count_domains,
    domains_equals_w0_plus_1,
    edge_census,
    flip_count,
    random_config,
    run_model,
)
from axsim.core import edge_overlap_count
from axsim.logio import replay
from axsim.stats import (DomainStats, EdgeCensus, census_from_counts, domains_from_census,
                         edge_weights)


def make_cfg(kind, cultures, F, q):
    topo = Topology(kind, len(cultures))
    return Configuration(topo, ModelParams(F, q), tuple(tuple(c) for c in cultures))


class TestEdgeCensus:
    def test_monocultural(self):
        census = edge_census(make_cfg("path", [(1, 1)] * 6, 2, 2))
        assert census.counts == (0, 0, 5)
        assert census.total_agreement == 10

    def test_direct_count(self):
        census = edge_census(make_cfg("path", [(1, 1), (1, 2), (2, 2)], 2, 3))
        assert census.counts[1] == 2 and census.total_agreement == 2

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_counts_each_edge_as_the_per_edge_overlap_does(self, kind):
        for F, q, V in [(1, 2, 3), (2, 2, 4), (2, 4, 501), (3, 12, 30), (5, 3, 7)]:
            for seed in range(5):
                cfg = random_config(ModelParams(F, q), Topology(kind, V), seed)
                want = [0] * (F + 1)
                for u, v in cfg.topology.edges():
                    want[edge_overlap_count(cfg, u, v)] += 1
                census = edge_census(cfg)
                assert census.counts == tuple(want)
                assert all(type(c) is int for c in census.counts)
        # Voter and CVM opinions: an edge agrees (1) or not (0).
        for alphabet, V in [((0, 1), 3), ((0, 1), 40), ((-1, 0, 1), 3), ((-1, 0, 1), 41)]:
            for seed in range(5):
                ops = np.random.default_rng(seed).choice(alphabet, V).tolist()
                cfg = OpinionConfig(Topology(kind, V), tuple(ops), alphabet)
                want = [0, 0]
                for u, v in cfg.topology.edges():
                    want[ops[u] == ops[v]] += 1
                census = edge_census(cfg)
                assert census.counts == tuple(want)
                assert all(type(c) is int for c in census.counts)

    def test_conservation(self):
        for seed in range(10):
            cfg = random_config(ModelParams(3, 4), Topology("cycle", 25), seed)
            census = edge_census(cfg)
            assert sum(census.counts) == 25
            assert census.total_agreement == sum(
                j * c for j, c in enumerate(census.counts))

    def test_initial_law_matches_binomial(self):
        # Pooled over several seeds: w_j(0) within 3 sigma of n * Bin(F, 1/q) pmf.
        F, q, n = 2, 4, 10 ** 4
        seeds = range(5)
        pooled = [0] * (F + 1)
        for seed in seeds:
            cfg = random_config(ModelParams(F, q), Topology("path", n + 1), seed)
            census = edge_census(cfg)
            for j in range(F + 1):
                pooled[j] += census.counts[j]
        total = n * len(list(seeds))
        for j in range(F + 1):
            p = binom_pj(F, q, j)
            sigma = (total * p * (1 - p)) ** 0.5
            assert abs(pooled[j] - total * p) <= 3 * sigma


class TestValuesBuiltWithoutInit:
    """`EdgeCensus._of` and `DomainStats._of`, which the engine builds each
    run's values with, give the public constructors' values."""

    @staticmethod
    def same(fast, public):
        assert type(fast) is type(public)
        assert fast == public and hash(fast) == hash(public) and repr(fast) == repr(public)
        assert vars(fast) == vars(public)

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("F", [1, 2, 3])
    def test_equal_to_the_public_constructors(self, kind, F):
        topo = Topology(kind, 6)
        E = topo.n_edges
        for counts in itertools.product(range(E + 1), repeat=F + 1):
            if sum(counts) != E:
                continue
            census = EdgeCensus._of(counts)
            W = sum(j * c for j, c in enumerate(counts))
            self.same(census, EdgeCensus(counts, W))
            self.same(census_from_counts(np.array(counts)), census)
            removed = E - counts[-1]
            n = removed + 1 if kind == "path" else max(removed, 1)
            domains = domains_from_census(census, topo)
            self.same(domains, DomainStats(n, Fraction(6, n)))
            self.same(DomainStats._of(n, 6), domains)
            assert type(domains.mean_size) is Fraction

    def test_census_of_a_configuration(self):
        cfg = random_config(ModelParams(3, 3), Topology("cycle", 30), 4)
        census = edge_census(cfg)
        self.same(census, EdgeCensus(census.counts, census.total_agreement))
        assert all(type(c) is int for c in census.counts)


class TestDomains:
    def test_examples(self):
        cfg = make_cfg("path", [(0,), (0,), (1,)], 1, 2)
        d = count_domains(cfg)
        assert d.domain_count == 2 and d.mean_size == Fraction(3, 2)
        assert count_domains(make_cfg("path", [(0, 0)] * 4, 2, 2)).domain_count == 1
        cfg = make_cfg("path", [(0, 0), (1, 1), (0, 1)], 2, 2)
        assert count_domains(cfg).domain_count == 3

    def test_cycle_wraparound_merged(self):
        assert count_domains(make_cfg("cycle", [(0, 0)] * 5, 2, 2)).domain_count == 1

    def test_product_identity(self):
        for seed in range(10):
            cfg = random_config(ModelParams(2, 2), Topology("cycle", 17), seed)
            d = count_domains(cfg)
            assert d.domain_count * d.mean_size == 17

    def test_identity_requires_path_and_absorption(self):
        with pytest.raises(UnsupportedTopology):
            domains_equals_w0_plus_1(make_cfg("cycle", [(0, 0)] * 5, 2, 2))
        with pytest.raises(InvalidInput):
            domains_equals_w0_plus_1(make_cfg("path", [(0, 0), (0, 1)], 2, 2))

    def test_identity_across_absorbed_replicates(self):
        for seed in range(25):
            cfg = random_config(ModelParams(2, 3), Topology("path", 31), seed)
            traj = run_model("axelrod", cfg, StopRule(stop_on_absorption=True), seed)
            assert traj.absorbed
            assert domains_equals_w0_plus_1(traj.final)


class TestIncrementalCensus:
    def test_snapshot_census_matches_full_recount(self):
        # engine-side differential counts vs recount of the replayed state
        cfg = random_config(ModelParams(2, 3), Topology("cycle", 30), 7)
        times = (0.5, 1.5, 3.0, 6.0, 12.0)
        traj = run_model("axelrod", cfg, StopRule(t_max=12.5), 7, snapshot_times=times)
        for snap in traj.snapshots:
            state = replay(cfg, traj.events, "axelrod", upto=np.nextafter(snap.time, 0))
            assert snap.census == edge_census(state)
            assert snap.domains == count_domains(state)


class TestFlipCount:
    def test_frozen_configuration_zero(self):
        topo = Topology("cycle", 8)
        init = OpinionConfig(topo, (1,) * 8, (0, 1))
        traj = run_model("voter", init, StopRule(t_max=10.0), 0)
        assert flip_count(traj, 0, [0.0, 5.0, 10.0]) == [0, 0]

    def test_monocultural_culture_run_zero(self):
        cfg = make_cfg("path", [(0, 0)] * 6, 2, 2)
        traj = run_model("axelrod", cfg, StopRule(t_max=5.0), 0)
        assert flip_count(traj, 2, [0.0, 5.0]) == [0]

    def test_window_validation(self):
        topo = Topology("cycle", 8)
        init = OpinionConfig(topo, (0, 1) * 4, (0, 1))
        traj = run_model("voter", init, StopRule(t_max=1.0), 0)
        with pytest.raises(InvalidInput):
            flip_count(traj, 0, [2.0, 1.0])

    @pytest.mark.parametrize("windows", [[0.0, float("nan"), 2.0], [float("nan"), 1.0],
                                         [0.0, 1.0, float("nan")]])
    def test_a_nan_boundary_is_refused(self, windows):
        # sorted() does not move a NaN, so only a pairwise check catches one.
        topo = Topology("cycle", 8)
        init = OpinionConfig(topo, (0, 1) * 4, (0, 1))
        traj = run_model("voter", init, StopRule(t_max=1.0), 0)
        with pytest.raises(InvalidInput):
            flip_count(traj, 0, windows)

    @pytest.mark.parametrize("x", [10 ** 6, 5, -1, 1.5, "a"])
    def test_a_vertex_outside_the_lattice_is_refused(self, x):
        init = OpinionConfig(Topology("path", 5), (0, 1, 0, 1, 1), (0, 1))
        traj = run_model("voter", init, StopRule(t_max=1.0), 0)
        with pytest.raises(InvalidInput, match="vertex"):
            flip_count(traj, x, [0, 1, 3])

    def test_voter_keeps_flipping_in_doubling_windows(self):
        # Finite proxy of voter recurrence, desk-scaled: a fixed vertex flips
        # rarely per window, so pool flips across replicates and require every
        # doubling window to keep seeing activity in aggregate.
        n_reps, windows = 40, [0.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        totals = [0] * (len(windows) - 1)
        rng = np.random.default_rng(11)
        topo = Topology("cycle", 128)
        for r in range(n_reps):
            init = OpinionConfig(topo, tuple(int(v) for v in rng.integers(0, 2, 128)),
                                 (0, 1))
            traj = run_model("voter", init, StopRule(t_max=64.0), 1000 + r)
            counts = flip_count(traj, 0, windows)
            for k, c in enumerate(counts):
                totals[k] += c
        assert all(t >= 1 for t in totals)


def _flip_count_by_scan(traj, x, bounds):
    """Reference: scan every window for each event of x."""
    counts = [0] * (len(bounds) - 1)
    for ev in traj.events:
        if ev.target != x or (traj.model != "axelrod" and ev.delta_w == 0):
            continue
        for k in range(len(counts)):
            if bounds[k] < ev.time <= bounds[k + 1]:
                counts[k] += 1
                break
    return counts


class TestFlipCountBisection:
    @pytest.mark.parametrize("model", ["voter", "cvm", "axelrod"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_window_scan(self, model, seed):
        rng = np.random.default_rng(seed)
        topo = Topology("cycle", 16)
        if model == "axelrod":
            init = random_config(ModelParams(2, 2), topo, seed)
        elif model == "voter":
            init = OpinionConfig(topo, tuple(int(v) for v in rng.integers(0, 2, 16)), (0, 1))
        else:
            init = OpinionConfig(topo, tuple(int(v) for v in rng.integers(-1, 2, 16)),
                                 (-1, 0, 1))
        traj = run_model(model, init, StopRule(t_max=6.0), seed)
        assert traj.events
        times = [ev.time for ev in traj.events]
        # Boundaries on event times (each event then closes a window), a repeated
        # boundary, and windows that start after the first event or end early.
        picks = sorted(rng.choice(times, size=min(6, len(times)), replace=False).tolist())
        for bounds in ([0.0, 1.0, 2.0, 4.0, 6.0],
                       [0.0] + picks + [6.0],
                       [picks[0], picks[0], 3.0, 3.0, 5.0],
                       [picks[-1], 6.0]):
            for x in range(16):
                assert flip_count(traj, x, bounds) == _flip_count_by_scan(traj, x, bounds)

    def test_event_on_a_boundary_counts_in_the_window_it_closes(self):
        topo = Topology("path", 2)
        traj = run_model("voter", OpinionConfig(topo, (0, 1), (0, 1)),
                         StopRule(max_events=1), 3)
        (ev,) = traj.events
        assert flip_count(traj, ev.target, [0.0, ev.time, ev.time + 1]) == [1, 0]
        assert flip_count(traj, ev.target, [ev.time, ev.time + 1]) == [0]


@pytest.mark.parametrize("state,message", [
    ((0, 1, 0), "cannot census tuple"),
    (None, "cannot census NoneType"),
    (census_from_counts((1, 2)), "cannot census EdgeCensus"),
], ids=["tuple", "None", "census"])
@pytest.mark.parametrize("read", [edge_weights, edge_census])
def test_refusal_type_and_message(read, state, message):
    with pytest.raises(InvalidInput) as info:
        read(state)
    assert type(info.value) is InvalidInput and str(info.value) == message
