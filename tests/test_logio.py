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

    @pytest.mark.parametrize("event,fault", [
        (UpdateEvent(0.1, 0, 1, 5, 1), "feature outside 0..1"),  # would copy into vertex 2
        (UpdateEvent(0.1, 0, 1, -1, 1), "feature outside 0..1"),  # would overwrite vertex 3
        (UpdateEvent(0.1, 9, 1, 0, 1), "vertex outside 0..3"),
        (UpdateEvent(0.1, 0, -1, 0, 1), "vertex outside 0..3"),
    ], ids=["feature-5", "feature--1", "target-9", "source--1"])
    def test_culture_replay_refuses_rows_outside_the_state(self, event, fault):
        cfg = random_config(ModelParams(2, 3), Topology("path", 4), 1)
        ok = UpdateEvent(0.05, 1, 0, 1, 1)
        with pytest.raises(InvalidInput, match=fault):
            replay(cfg, [ok, event], "axelrod")
        # Only applied rows are checked: a faulty row after `upto` is never read.
        assert replay(cfg, [ok, event], "axelrod", upto=0.05) == replay(cfg, [ok], "axelrod")

    def test_opinion_replay_refuses_vertices_outside_the_state(self):
        init = OpinionConfig(Topology("cycle", 5), (0, 1, 0, 1, 1), (0, 1))
        with pytest.raises(InvalidInput, match="vertex outside 0..4"):
            replay(init, [UpdateEvent(0.1, 5, 4, -1, 1)], "voter")

    @pytest.mark.parametrize("model", ["axelrod", "cvm", "nonsense"])
    def test_opinion_replay_needs_its_own_model(self, model):
        init = OpinionConfig(Topology("path", 4), (0, 1, 1, 0), (0, 1))
        with pytest.raises(InvalidInput):
            replay(init, [UpdateEvent(0.1, 0, 1, -1, 1)], model)
        assert replay(init, [UpdateEvent(0.1, 0, 1, -1, 1)], "voter").opinions == (1, 1, 1, 0)


class TestCsvArtifacts:
    def test_event_log_header_and_meta(self):
        _, traj = axelrod_traj()
        text = event_log_text(traj)
        lines = text.splitlines()
        assert "# model=axelrod" in lines
        assert "# F=2" in lines and "# q=3" in lines
        assert "time,source,target,feature,delta_w" in lines
        assert len([l for l in lines if not l.startswith("#")]) == 1 + len(traj.events)

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


class TestCorruptLogs:
    """A log that is not what `save_event_log` writes fails with InvalidInput
    naming the first faulty line or the missing key."""

    def write(self, tmp_path, edit):
        _, traj = axelrod_traj(seed=2)
        lines = event_log_text(traj).splitlines()
        first_row = lines.index("time,source,target,feature,delta_w") + 1
        assert len(lines) > first_row + 3
        edit(lines, first_row)
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path), first_row + 1  # line number of the first event row

    def test_short_row(self, tmp_path):
        def edit(lines, k):
            lines[k + 2] = lines[k + 2].rsplit(",", 1)[0]
        path, line = self.write(tmp_path, edit)
        with pytest.raises(InvalidInput, match=f"line {line + 2}: 4 fields"):
            load_event_log(path)

    def test_non_numeric_field(self, tmp_path):
        def edit(lines, k):
            t, src, dst, feat, dw = lines[k + 1].split(",")
            lines[k + 1] = ",".join((t, src, "x", feat, dw))
        path, line = self.write(tmp_path, edit)
        with pytest.raises(InvalidInput, match=f"line {line + 1}: non-numeric"):
            load_event_log(path)

    def test_missing_model_key(self, tmp_path):
        path, _ = self.write(tmp_path, lambda lines, k: lines.remove("# model=axelrod"))
        with pytest.raises(InvalidInput, match="no '# model=' line"):
            load_event_log(path)

    def test_row_after_end_time(self, tmp_path):
        def edit(lines, k):
            end = float(next(l for l in lines if l.startswith("# end_time="))[11:])
            lines.append(f"{end + 0.5!r},0,1,0,1")
        path, _ = self.write(tmp_path, edit)
        last = len(open(path).read().splitlines())
        with pytest.raises(InvalidInput, match=fr"line {last}: time .* outside \[0, end_time="):
            load_event_log(path)

    @pytest.mark.parametrize("row,why", [("0.1,0,12,0,1", "vertex"),
                                         ("0.1,0,1,2,1", "feature"),
                                         ("0.1,0,1,0,3", "delta_w"),
                                         ("0.1,0,1,0,99999999999999999999", "delta_w")])
    def test_value_out_of_range(self, tmp_path, row, why):
        path, line = self.write(tmp_path, lambda lines, k: lines.insert(k, row))
        with pytest.raises(InvalidInput, match=f"line {line}: {why}"):
            load_event_log(path)

    def test_missing_row_header(self, tmp_path):
        path, line = self.write(tmp_path, lambda lines, k: lines.pop(k - 1))
        with pytest.raises(InvalidInput, match=f"line {line - 1}: expected the row header"):
            load_event_log(path)

    def test_malformed_initial_state(self, tmp_path):
        def edit(lines, k):
            i = next(j for j, l in enumerate(lines) if l.startswith("# initial="))
            lines[i] = lines[i].replace(";", ",", 1)  # two cultures run together
        path, _ = self.write(tmp_path, edit)
        with pytest.raises(InvalidInput, match="initial"):
            load_event_log(path)
