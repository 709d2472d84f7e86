"""The columnar event table against the per-event path it replaced."""
import pytest

from axsim import (
    Arrow,
    ArrowLog,
    Configuration,
    EventTable,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    StopRule,
    Topology,
    UpdateEvent,
    arrow_log_from_trajectory,
    check_voter_duality,
    cvm_projection,
    random_config,
    replay,
    run_model,
    trace_dual_walk,
    trace_lineage,
)
from axsim import engine


def run_with_rows(monkeypatch, model, urn, seed):
    """A run, and its events as the loop passed them on, one UpdateEvent each.

    The run is on the Python loop, the one that passes events on through
    the table's appenders; the compiled loop writes the columns itself and is
    held to the same table by `test_kernels.py`.
    """
    passed = [[] for _ in UpdateEvent._fields]  # the values, before the columns store them
    appenders = EventTable.appenders

    def recording_appenders(self):
        def pair(add, seen):
            return lambda value: (seen.append(value), add(value))
        return tuple(map(pair, appenders(self), passed))

    monkeypatch.setattr(EventTable, "appenders", recording_appenders)
    monkeypatch.setattr(engine, "_kernel_lib", lambda: None)
    topo = Topology("cycle", 14)
    cfg = random_config(ModelParams(2, 3 if model == "axelrod" else 2), topo, seed)
    if model == "axelrod":
        init = cfg
    elif model == "voter":
        init = OpinionConfig(topo, tuple(c[0] for c in cfg.cultures), (0, 1))
    else:
        init = cvm_projection(cfg)
    traj = run_model(model, init, StopRule(t_max=3.0), seed, attach_urn=urn)
    monkeypatch.undo()
    return traj, list(map(UpdateEvent, *passed))


@pytest.mark.parametrize("model,urn", [("axelrod", False), ("axelrod", True),
                                       ("voter", False), ("cvm", False)])
@pytest.mark.parametrize("seed", range(3))
def test_table_reads_back_the_events_the_kernel_recorded(monkeypatch, model, urn, seed):
    traj, rows = run_with_rows(monkeypatch, model, urn, seed)
    if model == "cvm":  # the kernel ran the lift on a doubled clock
        assert {e.copied_feature for e in rows} <= {0, 1}
        rows = [UpdateEvent(e.time / 2, e.target, e.source, -1, 1) for e in rows]
    table = traj.events
    assert isinstance(table, EventTable) and len(table) == len(rows) > 0
    assert table == rows and table == tuple(rows) and list(table) == rows
    assert [table[k] for k in range(len(rows))] == rows
    assert table[-1] == rows[-1]
    assert [repr(e) for e in table] == [repr(e) for e in rows]
    assert all(type(e) is UpdateEvent and type(e.time) is float for e in table)
    assert [e.time.hex() for e in table] == [e.time.hex() for e in rows]
    assert table[2:5] == rows[2:5] and isinstance(table[2:5], EventTable)
    assert repr(table) == f"EventTable({rows!r})"
    assert EventTable.of(rows) == table and EventTable.of(table) is table


def test_equality_and_shape():
    rows = [UpdateEvent(0.5, 1, 0, 2, 1), UpdateEvent(0.75, 0, 1, 0, 2)]
    table = EventTable.of(rows)
    assert table == EventTable.of(list(rows)) and table != rows[:1]
    assert table != EventTable.of([rows[0], rows[1]._replace(delta_w=0)])
    assert EventTable() == [] and not EventTable()
    with pytest.raises(TypeError):
        hash(table)
    with pytest.raises(InvalidInput):
        EventTable([0.5, 0.75], [1], [0, 1], [2, 0], [1, 2])


def per_event_replay(initial, events, upto):
    """Reference: apply events one by one, stopping at the first with time > upto."""
    cultures = isinstance(initial, Configuration)
    state = [list(c) for c in initial.cultures] if cultures else list(initial.opinions)
    for e in events:
        if upto is not None and e.time > upto:
            break
        if cultures:
            state[e.target][e.copied_feature] = state[e.source][e.copied_feature]
        else:
            state[e.target] = state[e.source]
    return [tuple(s) for s in state] if cultures else state


class TestReplayUpto:
    @pytest.mark.parametrize("model", ["axelrod", "voter"])
    def test_matches_the_per_event_loop(self, monkeypatch, model):
        traj, rows = run_with_rows(monkeypatch, model, False, 4)
        times = [e.time for e in rows]
        for upto in [None, 0.0, times[0], times[len(times) // 2],
                     times[len(times) // 2] + 1e-9, times[-1], 10.0]:
            state = replay(traj.initial, traj.events, model, upto=upto)
            got = list(state.cultures) if model == "axelrod" else list(state.opinions)
            assert got == per_event_replay(traj.initial, rows, upto)

    def test_stops_at_the_first_later_event(self):
        # Times out of order: the event at 3.0 ends the replay, so the one at
        # 2.0 after it is not applied although its time is <= upto.
        init = OpinionConfig(Topology("path", 4), (0, 1, 0, 1), (0, 1))
        rows = [UpdateEvent(1.0, 0, 1, -1, 1), UpdateEvent(3.0, 2, 1, -1, 1),
                UpdateEvent(2.0, 3, 2, -1, 1)]
        assert replay(init, rows, "voter", upto=2.5).opinions == (1, 1, 0, 1)
        assert per_event_replay(init, rows, 2.5) == [1, 1, 0, 1]
        assert replay(init, rows, "voter").opinions == (1, 1, 1, 1)


class TestHandBuiltArrowLogs:
    """Arrow tuples are converted to columns and trace like the run's own log."""

    @pytest.mark.parametrize("seed", range(3))
    def test_lineages_match(self, seed):
        params, topo = ModelParams(3, 3), Topology("path", 24)
        traj = run_model("axelrod", random_config(params, topo, seed), StopRule(t_max=4.0),
                         seed)
        log = arrow_log_from_trajectory(traj)
        assert log.arrows is traj.events
        hand = ArrowLog(tuple(Arrow(e.time, e.source, e.target, e.copied_feature)
                              for e in traj.events), traj.end_time, labeled=True)
        for t in (traj.end_time / 2, traj.end_time):
            for i in range(params.F):
                for u in range(24):
                    assert trace_lineage(hand, i, u, t) == trace_lineage(log, i, u, t)

    @pytest.mark.parametrize("seed", range(3))
    def test_dual_walks_and_duality_match(self, seed):
        topo = Topology("cycle", 12)
        init = OpinionConfig(topo, tuple((seed + x * x) % 2 for x in range(12)), (0, 1))
        traj = run_model("voter", init, StopRule(t_max=5.0), seed)
        log = arrow_log_from_trajectory(traj)
        hand = ArrowLog(tuple(Arrow(e.time, e.source, e.target, None) for e in traj.events),
                        traj.end_time, labeled=False)
        for t in (2.5, 5.0):
            for x in range(12):
                assert trace_dual_walk(hand, x, t) == trace_dual_walk(log, x, t)
            assert check_voter_duality(hand, init, t) == check_voter_duality(log, init, t)
        assert set(hand.arrows.copied_feature) <= {-1}
