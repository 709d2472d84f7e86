"""Event-log serialization, replay, and CSV artifacts."""
import numpy as np
import pytest

from axsim import (
    Configuration,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    StopRule,
    Topology,
    UpdateEvent,
    count_domains,
    cvm_projection,
    edge_census,
    event_log_text,
    final_stats_row,
    load_event_log,
    random_config,
    replay,
    run_model,
    save_event_log,
    snapshot_csv_text,
)


def axelrod_traj(seed=5, **kw):
    cfg = random_config(ModelParams(2, 3), Topology("cycle", 12), seed)
    return cfg, run_model("axelrod", cfg, StopRule(t_max=4.0, **kw), seed)


class TestEventLogRoundtrip:
    def test_axelrod_bit_exact(self, tmp_path):
        cfg, traj = axelrod_traj()
        path = str(tmp_path / "log.csv")
        save_event_log(traj, path)
        bundle = load_event_log(path)
        assert bundle.model == "axelrod"
        assert bundle.initial == cfg
        assert bundle.end_time == traj.end_time  # repr roundtrip is exact
        assert bundle.absorbed == traj.absorbed
        assert bundle.seed == traj.seed
        assert len(bundle.events) == len(traj.events)
        for a, b in zip(bundle.events, traj.events):
            assert a == b  # includes float times, bit-exact
            assert type(a) is UpdateEvent and a.time.hex() == b.time.hex()

    def test_voter_roundtrip(self, tmp_path):
        topo = Topology("path", 9)
        init = OpinionConfig(topo, (0, 1, 0, 1, 1, 0, 0, 1, 0), (0, 1))
        traj = run_model("voter", init, StopRule(t_max=3.0), 7)
        path = str(tmp_path / "voter.csv")
        save_event_log(traj, path)
        bundle = load_event_log(path)
        assert bundle.initial == init
        assert list(bundle.events) == list(traj.events)

    def test_save_is_rewritable(self, tmp_path):
        _, traj = axelrod_traj()
        path = str(tmp_path / "log.csv")
        save_event_log(traj, path)
        first = open(path).read()
        save_event_log(traj, path)
        assert open(path).read() == first


class TestReplay:
    def test_replay_reproduces_final_culture(self, tmp_path):
        for seed in range(10):
            cfg, traj = axelrod_traj(seed=seed)
            assert replay(cfg, traj.events, "axelrod") == traj.final

    def test_replay_from_reloaded_log(self, tmp_path):
        cfg, traj = axelrod_traj(seed=3)
        path = str(tmp_path / "log.csv")
        save_event_log(traj, path)
        bundle = load_event_log(path)
        assert replay(bundle.initial, bundle.events, bundle.model) == traj.final

    def test_replay_reproduces_final_voter(self):
        rng = np.random.default_rng(2)
        topo = Topology("cycle", 10)
        init = OpinionConfig(topo, tuple(int(v) for v in rng.integers(0, 2, 10)),
                             (0, 1))
        traj = run_model("voter", init, StopRule(t_max=4.0,
                                                 stop_on_absorption=False), 8)
        assert replay(init, traj.events, "voter") == traj.final

    def test_replay_upto_intermediate_time(self):
        cfg, traj = axelrod_traj(seed=9)
        if not traj.events:
            pytest.skip("no events for this seed")
        mid = traj.events[len(traj.events) // 2].time
        partial = replay(cfg, traj.events, "axelrod", upto=mid)
        rest = [e for e in traj.events if e.time > mid]
        assert replay(partial, rest, "axelrod") == traj.final

    def test_culture_replay_model_mismatch(self):
        cfg, traj = axelrod_traj()
        with pytest.raises(InvalidInput):
            replay(cfg, traj.events, "voter")


class TestCsvArtifacts:
    def test_event_log_header_and_meta(self):
        _, traj = axelrod_traj()
        text = event_log_text(traj)
        lines = text.splitlines()
        assert "# model=axelrod" in lines
        assert "# F=2" in lines and "# q=3" in lines
        assert "time,source,target,feature,delta_w" in lines
        assert len([l for l in lines if not l.startswith("#")]) == 1 + len(traj.events)

    def test_snapshot_csv_shape(self):
        cfg = random_config(ModelParams(2, 2), Topology("cycle", 16), 4)
        traj = run_model("axelrod", cfg, StopRule(t_max=6.0), 4,
                         snapshot_times=(1.0, 2.0, 3.0))
        text = snapshot_csv_text(traj)
        lines = text.splitlines()
        assert lines[0] == "t,w_0,w_1,w_2,W,N_t,S_t"
        assert len(lines) == 1 + len(traj.snapshots)
        for line, snap in zip(lines[1:], traj.snapshots):
            cells = line.split(",")
            assert float(cells[0]) == snap.time
            assert [int(c) for c in cells[1:4]] == list(snap.census.counts)

    def test_final_stats_row(self):
        cfg, traj = axelrod_traj(seed=1)
        row = final_stats_row(traj)
        assert row["n_events"] == len(traj.events)
        assert sum(row["w_counts"]) == 12
        assert row["W"] == sum(j * c for j, c in enumerate(row["w_counts"]))

    def test_final_stats_row_with_urn(self):
        cfg = random_config(ModelParams(2, 2), Topology("path", 10), 2)
        traj = run_model("axelrod", cfg, StopRule(t_max=5.0), 2, attach_urn=True)
        row = final_stats_row(traj)
        assert "urn_boxes" in row
        assert row["urn_b0_violations"] == 0
        assert row["urn_potential_violations"] == 0


class TestFinalStatsRowOracle:
    @pytest.mark.parametrize("model,urn", [("axelrod", False), ("axelrod", True),
                                           ("voter", False), ("cvm", False)])
    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("stop", [StopRule(stop_on_absorption=True), StopRule(t_max=0.7)])
    def test_matches_a_recount_of_the_final_state(self, model, urn, kind, stop):
        topo = Topology(kind, 9)
        for seed in range(3):
            cfg = random_config(ModelParams(2, 2 if model != "axelrod" else 3), topo, seed)
            if model == "voter":
                init = OpinionConfig(topo, tuple(c[0] for c in cfg.cultures), (0, 1))
            else:
                init = cvm_projection(cfg) if model == "cvm" else cfg
            traj = run_model(model, init, stop, seed, attach_urn=urn)
            assert traj.absorbed or stop.t_max is not None
            row = final_stats_row(traj)
            census = edge_census(traj.final)
            assert row["w_counts"] == census.counts
            assert row["W"] == census.total_agreement
            assert row["N_domains"] == count_domains(traj.final).domain_count
            assert ("urn_boxes" in row) == urn
