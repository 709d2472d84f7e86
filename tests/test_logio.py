"""Event-log serialization, replay, and CSV artifacts."""
import math
import os
import re
import sys
import tempfile
from array import array
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    EventTable,
    event_log_text,
    final_stats_row,
    load_event_log,
    random_config,
    random_opinions,
    replay,
    run_model,
    save_event_log,
)
from axsim import logio


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
        first = Path(path).read_text()
        save_event_log(traj, path)
        assert Path(path).read_text() == first


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

    def test_nan_upto_is_refused(self):
        # No event time exceeds NaN, so it would replay every event.
        cfg, traj = axelrod_traj()
        with pytest.raises(InvalidInput, match="upto"):
            replay(cfg, traj.events, "axelrod", upto=math.nan)
        assert traj.events
        assert replay(cfg, traj.events, "axelrod", upto=-1.0) == cfg
        assert replay(cfg, traj.events, "axelrod", upto=math.inf) == traj.final

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


# The full logs of small runs. The first three, as the earlier `str.format`
# writer wrote them: a culture run to absorption, a CVM run and a voter run,
# both to a t_max. The last two start from `random_opinions` draws, so they
# pin its stream too.
PINNED_LOGS = {
    "axelrod": (
        "axelrod", random_config(ModelParams(3, 4), Topology("path", 6), 3),
        StopRule(stop_on_absorption=True), 5,
        "# model=axelrod\n# topology=path\n# size=6\n# F=3\n# q=4\n# seed=5\n"
        "# end_time=6.791767248960495\n# absorbed=1\n"
        "# initial=3,0,0;0,0,3;3,2,0;0,1,1;2,1,1;0,2,2\n"
        "time,source,target,feature,delta_w\n"
        "0.6547300218114566,4,3,0,1\n0.855788721498181,1,0,0,1\n"
        "1.1369730285539674,0,1,2,2\n4.883104829917521,1,2,0,1\n"
        "6.791767248960495,1,2,1,1\n"),
    "cvm": (
        "cvm", OpinionConfig(Topology("cycle", 6), (0, 1, -1, -1, 0, 1), (-1, 0, 1)),
        StopRule(t_max=3.0), 3,
        "# model=cvm\n# topology=cycle\n# size=6\n# seed=3\n# end_time=3.0\n"
        "# absorbed=0\n# initial=0;1;-1;-1;0;1\ntime,source,target,feature,delta_w\n"
        "0.06881387705100406,0,1,-1,1\n0.11130291552769647,2,1,-1,1\n"
        "0.1390782533553739,4,3,-1,1\n0.8610086365115951,4,5,-1,1\n"
        "1.2293972437351082,2,3,-1,1\n2.1401140622041512,0,1,-1,1\n"
        "2.567741269155384,4,3,-1,1\n"),
    "voter": (
        "voter", OpinionConfig(Topology("path", 5), (0, 1, 1, 0, 1)), StopRule(t_max=1.0), 6,
        "# model=voter\n# topology=path\n# size=5\n# seed=6\n# end_time=1.0\n"
        "# absorbed=0\n# initial=0;1;1;0;1\ntime,source,target,feature,delta_w\n"
        "0.11833898085565273,1,2,-1,0\n0.1246178581245623,3,2,-1,1\n"
        "0.4957247206237576,1,0,-1,1\n0.6115893589642334,0,1,-1,0\n"
        "0.7298954852564069,0,1,-1,0\n0.7426728826875105,2,1,-1,1\n"
        "0.8134320057956755,0,1,-1,1\n0.9929114653817903,3,4,-1,1\n"),
    "voter-drawn": (
        "voter", partial(random_opinions, Topology("cycle", 6), (0, 1)), StopRule(t_max=1.0), 3,
        "# model=voter\n# topology=cycle\n# size=6\n# seed=3\n# end_time=1.0\n"
        "# absorbed=0\n# initial=1;1;0;0;0;1\ntime,source,target,feature,delta_w\n"
        "0.10449717232565109,5,4,-1,1\n0.12302784678236733,4,5,-1,0\n"
        "0.4370823937925655,3,2,-1,0\n0.48295831182656823,0,5,-1,0\n"
        "0.5112843374776965,3,4,-1,1\n0.5298012293628148,3,4,-1,0\n"),
    "cvm-drawn": (
        "cvm", partial(random_opinions, Topology("path", 7), (-1, 0, 1)), StopRule(t_max=2.0), 5,
        "# model=cvm\n# topology=path\n# size=7\n# seed=5\n# end_time=2.0\n"
        "# absorbed=1\n# initial=-1;0;1;1;1;-1;0\ntime,source,target,feature,delta_w\n"
        "0.03784082726056145,1,2,-1,1\n0.13705654077399948,1,0,-1,1\n"
        "0.611031159603377,6,5,-1,1\n0.745642170738926,5,4,-1,1\n"
        "1.0730071816446543,2,3,-1,1\n"),
}


@pytest.mark.parametrize("name", PINNED_LOGS)
def test_log_bytes_are_pinned(tmp_path, name):
    model, initial, stop, seed, text = PINNED_LOGS[name]
    traj = run_model(model, initial, stop, seed)
    assert event_log_text(traj) == text
    path = tmp_path / "log.csv"
    save_event_log(traj, str(path))
    assert path.read_bytes() == text.encode()


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


def write_log(tmp_path, edit, newline="\n"):
    """The log of `axelrod_traj(seed=2)` (8 events on a cycle of 12, (F, q) =
    (2, 3), end_time 4.0), its lines edited by `edit(lines, k)` where line
    k is the first event row, joined by `newline`. Returns the path and the
    first row's line number."""
    _, traj = axelrod_traj(seed=2)
    lines = event_log_text(traj).splitlines()
    first_row = lines.index("time,source,target,feature,delta_w") + 1
    assert len(lines) > first_row + 3
    edit(lines, first_row)
    path = tmp_path / "log.csv"
    path.write_text(newline.join(lines) + newline, newline="")
    return str(path), first_row + 1  # line number of the first event row


class TestCorruptLogs:
    """A log that is not what `save_event_log` writes fails with InvalidInput
    naming the first faulty line or the missing key."""

    def write(self, tmp_path, edit):
        return write_log(tmp_path, edit)

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

    @pytest.mark.parametrize("line,fault", [
        ("# model=nonsense", "unknown model 'nonsense'"),
        ("# absorbed=7", "bad '# absorbed=7': expected 0 or 1"),
        ("# absorbed=-1", "bad '# absorbed=-1': expected 0 or 1"),
        ("# seed=-3", "bad '# seed=-3': seed must be an integer >= 0, got -3"),
    ])
    def test_metadata_the_writer_never_writes(self, tmp_path, line, fault):
        key = line.partition("=")[0]

        def edit(lines, k):
            i = next(j for j, l in enumerate(lines) if l.startswith(key + "="))
            lines[i] = line

        path, _ = self.write(tmp_path, edit)
        with pytest.raises(InvalidInput) as info:
            load_event_log(path)
        assert type(info.value) is InvalidInput and str(info.value) == f"{path}: {fault}"

    def test_row_after_end_time(self, tmp_path):
        def edit(lines, k):
            end = float(next(l for l in lines if l.startswith("# end_time="))[11:])
            lines.append(f"{end + 0.5!r},0,1,0,1")
        path, _ = self.write(tmp_path, edit)
        last = len(Path(path).read_text().splitlines())
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


def columns(events) -> tuple:
    """An event table's columns as bytes, so that times compare bit for bit."""
    return tuple(c.tobytes() for c in EventTable.of(events).columns())


def edit_field(row: int, field: int, text: str):
    """An edit for `write_log` that sets field `field` of event row `row`."""
    def edit(lines, k):
        fields = lines[k + row].split(",")
        fields[field] = text
        lines[k + row] = ",".join(fields)
    return edit


def with_underscore(t: float) -> str:
    """`repr(t)` with an underscore between two digits of its fraction."""
    text = repr(t)
    point = text.index(".")
    return text[:point + 2] + "_" + text[point + 2:]


class TestBulkParseParity:
    """Logs read by the one-pass parse load to the columns Python's `int` and
    `float` give, row by row, or fail with the message naming the first
    faulty line, as they did before that parse."""

    @staticmethod
    def events():
        """The events `write_log` writes."""
        return axelrod_traj(seed=2)[1].events

    @pytest.mark.parametrize("field,text,value", [
        (1, "1_0", 10),  # source
        (2, "\u0661", 1),  # target, ARABIC-INDIC DIGIT ONE
        (1, " 3 ", 3),
        (4, "+2", 2),  # delta_w
    ], ids=["underscore", "arabic-indic-digit", "spaces", "plus-sign"])
    def test_int_fields_load_as_python_reads_them(self, tmp_path, field, text, value):
        path, _ = write_log(tmp_path, edit_field(1, field, text))
        expected = [list(e) for e in self.events()]
        expected[1][{1: 2, 2: 1, 4: 4}[field]] = value  # row order -> UpdateEvent order
        assert columns(load_event_log(path).events) == columns([tuple(e) for e in expected])

    @pytest.mark.parametrize("row", [0, 3])
    def test_time_with_an_underscore(self, tmp_path, row):
        t = self.events()[row].time
        path, _ = write_log(tmp_path, edit_field(row, 0, with_underscore(t)))
        assert columns(load_event_log(path).events) == columns(self.events())

    def test_crlf_line_endings(self, tmp_path):
        path, _ = write_log(tmp_path, lambda lines, k: None, newline="\r\n")
        assert b"\r\n" in Path(path).read_bytes()
        assert columns(load_event_log(path).events) == columns(self.events())

    def test_no_newline_after_the_last_row(self, tmp_path):
        path, _ = write_log(tmp_path, lambda lines, k: None)
        Path(path).write_text(Path(path).read_text()[:-1])
        assert columns(load_event_log(path).events) == columns(self.events())

    @pytest.mark.parametrize("brk", ["\x0c", "\x0b", "\x1e", "\x85", "\u2028"])
    def test_line_break_in_the_metadata(self, tmp_path, brk):
        # `str.splitlines` ends the seed line at `brk`, so "# note" is a
        # metadata line of its own and the log loads as written.
        def edit(lines, k):
            i = next(j for j, line in enumerate(lines) if line.startswith("# seed="))
            lines[i] += brk + "# note"
        path, _ = write_log(tmp_path, edit)
        bundle = load_event_log(path)
        assert bundle.seed == 2
        assert columns(bundle.events) == columns(self.events())

    def test_negative_zero_time(self, tmp_path):
        path, _ = write_log(tmp_path, edit_field(0, 0, "-0.0"))
        time = load_event_log(path).events.time
        assert time[0] == 0.0 and math.copysign(1.0, time[0]) == -1.0
        assert time[1:] == self.events().time[1:]

    @pytest.mark.parametrize("edit,at,fault", [
        (lambda lines, k: lines.insert(k + 2, ""), 2, "1 fields, expected 5"),
        (lambda lines, k: lines.insert(k + 2, "   "), 2, "1 fields, expected 5"),
        (lambda lines, k: lines.append(""), 8, "1 fields, expected 5"),
        (lambda lines, k: lines.insert(k + 2, "# a note"), 2, "1 fields, expected 5"),
        (lambda lines, k: lines.insert(k + 2, "#,0,1,0,1"), 2, "non-numeric field"),
        (lambda lines, k: lines.__setitem__(k + 1, lines[k + 1] + ",1"), 1,
         "6 fields, expected 5"),
        (lambda lines, k: lines.__setitem__(k + 1, lines[k + 1].rsplit(",", 1)[0]), 1,
         "4 fields, expected 5"),
        # A form feed ends a line for `str.splitlines`; `loadtxt` reads it as a space.
        (lambda lines, k: lines.__setitem__(k + 1, lines[k + 1] + "\x0c"), 2,
         "1 fields, expected 5"),
        (edit_field(0, 0, "nan"), 0, r"time nan outside \[0, end_time=4.0\]"),
        (edit_field(3, 0, "inf"), 3, r"time inf outside \[0, end_time=4.0\]"),
        (edit_field(2, 0, "1e400"), 2, r"time inf outside"),
        (edit_field(2, 1, "99999999999999999999"), 2, "vertex outside 0..11"),
        (edit_field(2, 2, "-99999999999999999999"), 2, "vertex outside 0..11"),
        (edit_field(2, 3, "1.0"), 2, "non-numeric field"),
        (edit_field(2, 1, "0x1"), 2, "non-numeric field"),
        # `loadtxt` strips a unit separator around a number; Python does not.
        (edit_field(2, 1, "\x1f3"), 2, "non-numeric field"),
        (lambda lines, k: lines.__setitem__(k + 2, lines[k + 2].replace(",", "\x1f,", 1)), 2,
         "non-numeric field"),
    ], ids=["blank-line", "spaces-line", "blank-last-line", "comment-line",
            "comment-row", "6-fields", "4-fields", "form-feed", "nan-first-row",
            "inf", "overflowing-time", "20-digit-vertex", "20-digit-negative-vertex",
            "float-feature", "hex-vertex", "unit-separator-vertex", "unit-separator-time"])
    def test_refused_with_the_row_by_row_message(self, tmp_path, edit, at, fault):
        path, line = write_log(tmp_path, edit)
        with pytest.raises(InvalidInput, match=f"line {line + at}: {fault}"):
            load_event_log(path)

    @pytest.mark.parametrize("old,new,fault", [
        (";0,0", ";0_0,0", None),
        ("0,0", "0,0;", "expected 12 cultures of 2 features"),
        (";0,0", ";;0,0", "expected 12 cultures of 2 features"),
        (";0,0", ";0,0,0", "expected 12 cultures of 2 features"),
        (";0,0", ";0,3", "feature state 3 outside 0..2"),
        (";0,0", ";0,-1", "feature state -1 outside 0..2"),
    ], ids=["underscore", "trailing-semicolon", "empty-culture", "3-features", "state-3",
            "state--1"])
    def test_initial_state(self, tmp_path, old, new, fault):
        def edit(lines, k):
            lines[k - 2] = lines[k - 2].replace(old, new, 1)
        path, _ = write_log(tmp_path, edit)
        if fault is None:
            assert load_event_log(path).initial == axelrod_traj(seed=2)[0]
        else:
            with pytest.raises(InvalidInput, match=fault):
                load_event_log(path)

    def test_a_plain_log_is_read_in_one_pass(self, tmp_path, monkeypatch):
        path, _ = write_log(tmp_path, lambda lines, k: None)

        def per_row(*args):
            raise AssertionError("a plain log was parsed row by row")
        monkeypatch.setattr(logio, "_event", per_row)
        assert columns(load_event_log(path).events) == columns(self.events())


class TestRowTimesMustNotDecrease:
    """Every writer emits rows in nondecreasing time, and backward tracing
    bisects on that order. Logs that break it loaded before this check."""

    def test_swapped_rows(self, tmp_path):
        def edit(lines, k):
            lines[k + 3], lines[k + 4] = lines[k + 4], lines[k + 3]
        path, line = write_log(tmp_path, edit)
        with pytest.raises(InvalidInput,
                           match=f"line {line + 4}: time .* before the previous row's"):
            load_event_log(path)

    def test_reversed_voter_log(self, tmp_path):
        topo = Topology("path", 9)
        init = OpinionConfig(topo, (0, 1, 0, 1, 1, 0, 0, 1, 0), (0, 1))
        traj = run_model("voter", init, StopRule(t_max=3.0), 7)
        lines = event_log_text(traj).splitlines()
        k = lines.index("time,source,target,feature,delta_w") + 1
        lines[k:] = lines[k:][::-1]
        path = tmp_path / "voter.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInput, match=f"line {k + 2}: time .* before the previous row's"):
            load_event_log(str(path))

    def test_nan_after_the_first_row(self, tmp_path):
        # Python's min and max skip a nan that is not first, so this loaded.
        path, line = write_log(tmp_path, edit_field(3, 0, "nan"))
        with pytest.raises(InvalidInput, match=fr"line {line + 3}: time nan outside"):
            load_event_log(path)

    def test_equal_times_load(self, tmp_path):
        def edit(lines, k):
            lines[k + 1] = lines[k].split(",", 1)[0] + "," + lines[k + 1].split(",", 1)[1]
        path, _ = write_log(tmp_path, edit)
        time = load_event_log(path).events.time
        assert time[0] == time[1]


class TestEndTime:
    @pytest.mark.parametrize("end_time,rows", [
        (math.nan, []), (math.inf, []), (-1.0, []), (math.inf, ["0.5,0,1,0,1"]),
        (math.nan, ["0.5,0,1,0,1"]), (-1.0, ["0.5,0,1,0,1"])],
        ids=["nan", "inf", "negative", "inf-rows", "nan-rows", "negative-rows"])
    def test_refused_at_its_line(self, tmp_path, end_time, rows):
        path = log_with_rows(str(tmp_path), rows, end_time)
        with pytest.raises(InvalidInput, match=re.escape(
                f"{path}: the '# end_time=' value must be finite and >= 0, got {end_time}")):
            load_event_log(path)

    @pytest.mark.parametrize("rows", [[], ["0.5,0,1,0,1"]], ids=["no-rows", "rows"])
    def test_a_finite_end_time_loads(self, tmp_path, rows):
        assert load_event_log(log_with_rows(str(tmp_path), rows, 0.5)).end_time == 0.5


def log_with_rows(directory: str, rows: list, end_time: float) -> str:
    """A culture log on a cycle of 12 at (F, q) = (2, 3) with the given row
    texts; returns its path."""
    path = os.path.join(directory, "log.csv")
    head = ["# model=axelrod", "# topology=cycle", "# size=12", "# F=2", "# q=3", "# seed=0",
            f"# end_time={end_time!r}", "# absorbed=0", "# initial=" + ";".join(["0,1"] * 12),
            "time,source,target,feature,delta_w"]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(head + rows) + "\n")
    return path


def outcome(path: str):
    """What loading `path` gives: the bundle's columns as bytes, or the error."""
    try:
        return columns(load_event_log(path).events)
    except InvalidInput as exc:
        return str(exc)


class TestBulkParseProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=20))
    @example([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    @example([-0.0, 0.0, 1e-310, 0.1, 1 / 3, 2.0 ** 53 + 2])
    def test_repr_of_any_finite_double_reads_back_bit_exact(self, times):
        """A row written with `repr` gives the bits `float` gives, in one pass."""
        times = sorted(times)
        with tempfile.TemporaryDirectory() as d, mock.patch.object(logio, "_event"):
            path = log_with_rows(d, [f"{t!r},0,1,0,1" for t in times], sys.float_info.max)
            time = load_event_log(path).events.time
            logio._event.assert_not_called()
        assert time.tobytes() == array("d", map(float, map(repr, times))).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 0.5), st.integers(-1, 12), st.integers(0, 11),
                              st.integers(0, 2), st.integers(0, 3)), max_size=8),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5),
                              st.text("0123456789.-+e_ \t\x1f\x0c\u0661naif#,", max_size=5)),
                    max_size=2))
    def test_one_pass_and_row_by_row_agree(self, rows, edits):
        """Rows with random edits load to the same columns, or fail with the
        same message, as when every row is parsed by Python's `int` and `float`."""
        texts, t = [], 0.0
        for dt, *rest in rows:
            t += dt
            texts.append(",".join(map(repr, [t, *rest])))
        for row, field, text in edits:
            if row < len(texts):
                fields = texts[row].split(",")
                fields[field:field + 1] = [text]
                texts[row] = text if field == 5 else ",".join(fields)
        with tempfile.TemporaryDirectory() as d:
            path = log_with_rows(d, texts, 2.0)
            bulk = outcome(path)
            with mock.patch.object(logio, "_bulk", return_value=None):
                assert outcome(path) == bulk
