"""Backward tracing, pathwise duality, and the conditional-probability estimator."""
from functools import partial

import numpy as np
import pytest

from axsim import (
    Arrow,
    ArrowLog,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    StopRule,
    Topology,
    arrow_log_from_trajectory,
    check_voter_duality,
    estimate_lemma_0edge_probability,
    random_config,
    replicate_seeds,
    run_model,
    trace_dual_walk,
    trace_lineage,
)
from axsim import duality


def voter_log(n, t_max, seed, init_seed=0):
    topo = Topology("cycle", n)
    rng = np.random.default_rng(init_seed)
    init = OpinionConfig(topo, tuple(int(v) for v in rng.integers(0, 2, n)), (0, 1))
    traj = run_model("voter", init, StopRule(t_max=t_max, stop_on_absorption=False),
                     seed)
    return init, traj


class TestTraceDualWalk:
    def test_empty_log_stays_put(self):
        log = ArrowLog((), 5.0, labeled=False)
        res = trace_dual_walk(log, 3, 4.0)
        assert res.end_vertex == 3
        assert res.path == ((3, (0.0, 4.0)),)

    def test_single_arrow_redirects(self):
        log = ArrowLog((Arrow(1.0, 2, 3, None),), 5.0, labeled=False)
        assert trace_dual_walk(log, 3, 2.0).end_vertex == 2
        # Started before the arrow: not affected.
        assert trace_dual_walk(log, 3, 0.5).end_vertex == 3
        # Other vertices unaffected.
        assert trace_dual_walk(log, 2, 2.0).end_vertex == 2

    def test_walk_follows_most_recent_arrow_first(self):
        arrows = (Arrow(1.0, 0, 1, None), Arrow(2.0, 2, 1, None))
        log = ArrowLog(arrows, 5.0, labeled=False)
        res = trace_dual_walk(log, 1, 3.0)
        # Jumps at t=2.0 to vertex 2, which has no incoming arrows.
        assert res.end_vertex == 2

    def test_chained_jumps(self):
        arrows = (Arrow(1.0, 0, 2, None), Arrow(2.0, 2, 4, None))
        log = ArrowLog(arrows, 5.0, labeled=False)
        res = trace_dual_walk(log, 4, 3.0)
        assert res.end_vertex == 0
        assert [seg[0] for seg in res.path] == [4, 2, 0]

    def test_coalescence(self):
        # Two walkers that share an arrow target end at the same ancestor.
        arrows = (Arrow(1.0, 0, 1, None), Arrow(2.0, 1, 2, None))
        log = ArrowLog(arrows, 5.0, labeled=False)
        assert trace_dual_walk(log, 1, 3.0).end_vertex == 0
        assert trace_dual_walk(log, 2, 3.0).end_vertex == 0

    def test_rejects_labeled_log_and_bad_time(self):
        log = ArrowLog((), 1.0, labeled=True)
        with pytest.raises(InvalidInput):
            trace_dual_walk(log, 0, 0.5)
        log = ArrowLog((), 1.0, labeled=False)
        with pytest.raises(InvalidInput):
            trace_dual_walk(log, 0, 2.0)


class TestVoterDuality:
    def test_pathwise_identity_many_seeds(self):
        for seed in range(30):
            init, traj = voter_log(16, 5.0, seed, init_seed=seed)
            log = arrow_log_from_trajectory(traj)
            report = check_voter_duality(log, init, 5.0)
            assert report.all_true, f"seed {seed}: {report.mismatches} mismatches"

    def test_pathwise_identity_random_intermediate_times(self):
        rng = np.random.default_rng(99)
        for seed in range(20):
            init, traj = voter_log(12, 6.0, 500 + seed, init_seed=seed)
            log = arrow_log_from_trajectory(traj)
            t = float(rng.uniform(0.0, 6.0))
            assert check_voter_duality(log, init, t).all_true

    def test_rejects_labeled_log(self):
        cfg = random_config(ModelParams(2, 2), Topology("cycle", 8), 1)
        traj = run_model("axelrod", cfg, StopRule(t_max=1.0), 1)
        log = arrow_log_from_trajectory(traj)
        init = OpinionConfig(Topology("cycle", 8), (0,) * 8, (0, 1))
        with pytest.raises(InvalidInput):
            check_voter_duality(log, init, 0.5)


class TestTraceLineage:
    def test_requires_labeled_log(self):
        log = ArrowLog((), 1.0, labeled=False)
        with pytest.raises(InvalidInput):
            trace_lineage(log, 0, 0, 0.5)

    def test_only_matching_labels_redirect(self):
        arrows = (Arrow(1.0, 0, 1, 0), Arrow(2.0, 2, 1, 1))
        log = ArrowLog(arrows, 5.0, labeled=True)
        assert trace_lineage(log, 0, 1, 3.0).end_vertex == 0
        assert trace_lineage(log, 1, 1, 3.0).end_vertex == 2

    def test_lineage_feature_identity(self):
        # Feature i at (u, t) equals feature i of the initial configuration at
        # the lineage endpoint, for every feature and vertex.
        params = ModelParams(3, 3)
        for seed in range(15):
            cfg = random_config(params, Topology("cycle", 10), seed)
            traj = run_model("axelrod", cfg,
                             StopRule(t_max=4.0, stop_on_absorption=False), seed)
            log = arrow_log_from_trajectory(traj)
            for i in range(params.F):
                for u in range(10):
                    end = trace_lineage(log, i, u, traj.end_time).end_vertex
                    assert traj.final.cultures[u][i] == cfg.cultures[end][i]

    def test_lineage_endpoints_weakly_ordered_on_path(self):
        # Same-feature lineages on a path cannot cross.
        params = ModelParams(2, 4)
        for seed in range(20):
            cfg = random_config(params, Topology("path", 33), seed)
            traj = run_model("axelrod", cfg,
                             StopRule(t_max=3.0, stop_on_absorption=False),
                             700 + seed)
            log = arrow_log_from_trajectory(traj)
            for i in range(params.F):
                ends = [trace_lineage(log, i, u, traj.end_time).end_vertex
                        for u in range(33)]
                assert all(a <= b for a, b in zip(ends, ends[1:]))


def scan_lineage(log, i, u, t):
    """Lineage endpoint by a backward scan over the whole log (no index)."""
    for a in reversed(log.arrows):
        if a.time < t and a.target == u and a.copied_feature == i:
            u, t = a.source, a.time
    return u


class TestIncomingIndexCache:
    def test_cached_index_matches_fresh_build(self):
        # Criterion-09 kind of logs: F=2, q=4 on a path of 65 vertices up to t=3.
        params, topo = ModelParams(2, 4), Topology("path", 65)
        for seed in replicate_seeds(808, 4):
            traj = run_model("axelrod", partial(random_config, params, topo),
                             StopRule(t_max=3.0), seed)
            log = arrow_log_from_trajectory(traj)
            for t in (1.5, traj.end_time):
                for i in range(params.F):
                    for u in range(65):
                        cached = trace_lineage(log, i, u, t)
                        fresh = ArrowLog(log.arrows, log.horizon, log.labeled)
                        assert cached == trace_lineage(fresh, i, u, t)
                        assert cached.end_vertex == scan_lineage(log, i, u, t)

    def test_index_built_once_per_log(self, monkeypatch):
        builds = []
        build = duality._incoming_index
        monkeypatch.setattr(duality, "_incoming_index",
                            lambda log: builds.append(log) or build(log))
        init, traj = voter_log(16, 5.0, 3)
        log = arrow_log_from_trajectory(traj)
        assert check_voter_duality(log, init, 5.0).all_true
        for x in range(16):
            trace_dual_walk(log, x, 2.5)
        assert len(builds) == 1
        cfg = random_config(ModelParams(3, 3), Topology("cycle", 10), 2)
        traj = run_model("axelrod", cfg, StopRule(t_max=4.0), 2)
        log = arrow_log_from_trajectory(traj)
        for i in range(3):
            for u in range(10):
                trace_lineage(log, i, u, traj.end_time)
        assert len(builds) == 2
        # The cache is no field: equality and hashing see only the arrows.
        same = ArrowLog(log.arrows, log.horizon, log.labeled)
        assert log == same and hash(log) == hash(same)


class TestConditionalEstimate:
    def test_input_validation(self):
        p = ModelParams(2, 5)
        with pytest.raises(InvalidInput):
            estimate_lemma_0edge_probability(p, 10, 5, 5, 7, 1.0, 10, 0)
        with pytest.raises(InvalidInput):
            estimate_lemma_0edge_probability(p, 10, 1, 5, 11, 1.0, 10, 0)
        with pytest.raises(InvalidInput):
            estimate_lemma_0edge_probability(p, 10, 1, 5, 7, 1.0, 0, 0)

    def test_binary_alphabet_forces_agreement(self):
        # With q=2 the conditioning event forces the outer opinions equal.
        est = estimate_lemma_0edge_probability(ModelParams(2, 2), 20, 5, 10, 15,
                                               1.0, 200, 3)
        assert est.defined
        assert est.estimate == 1.0

    def test_time_zero_matches_closed_form(self):
        # At t=0 the three cultures are independent uniforms:
        # P(x0 == z0 | y0 differs from both) = 1 / (q - 1).
        q, reps = 4, 8000
        est = estimate_lemma_0edge_probability(ModelParams(2, q), 10, 2, 5, 8,
                                               0.0, reps, 17)
        assert est.defined
        target = 1.0 / (q - 1)
        assert abs(est.estimate - target) <= 3 * est.std_error + 1e-12

    def test_counts_are_consistent(self):
        est = estimate_lemma_0edge_probability(ModelParams(2, 5), 12, 3, 6, 9,
                                               0.5, 500, 11)
        assert 0 <= est.successes <= est.hits <= est.replicates == 500
        if est.defined:
            assert est.estimate == pytest.approx(est.successes / est.hits)
