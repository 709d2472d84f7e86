"""The columnar culture state: `Configuration.state` is one row-major int64
array from the draw, through both kernels, to the event log and back.

`Configuration` must behave as the frozen dataclass of per-vertex tuples it
replaced (equality, hash, repr, pickling, no assignment), whichever way a
state was made. The hot paths must not build the per-vertex tuples.
"""
import copy
import dataclasses
import pickle

import pytest

from axsim import (
    AXELROD,
    Configuration,
    ExperimentConfig,
    ModelParams,
    OpinionConfig,
    StopRule,
    Topology,
    random_config,
    run_model,
)
from axsim import engine, experiments
from axsim.logio import event_log_text, load_event_log, replay

PARAMS, TOPO, SEED = ModelParams(3, 12), Topology("cycle", 5), 8
CULTURES = ((8, 3, 2), (11, 2, 3), (7, 9, 7), (10, 0, 4), (6, 5, 4))
# `repr(random_config(PARAMS, TOPO, SEED))` when the state was a tuple of tuples.
REPR = ("Configuration(topology=Topology(kind='cycle', size=5), params=ModelParams(F=3, q=12), "
        "cultures=((8, 3, 2), (11, 2, 3), (7, 9, 7), (10, 0, 4), (6, 5, 4)))")


@pytest.fixture(params=["compiled", "python"])
def kernel(request, monkeypatch):
    """Runs in the test go through the named culture kernel."""
    if request.param == "python":
        monkeypatch.setattr(engine, "_kernel_lib", lambda: None)
    elif engine._kernel_lib() is None:
        pytest.skip("the compiled loop could not be built on this host (no working C compiler)")
    return request.param


def _final(kernel_name, initial, stop):
    with pytest.MonkeyPatch.context() as mp:
        if kernel_name == "python":
            mp.setattr(engine, "_kernel_lib", lambda: None)
        return run_model(AXELROD, initial, stop, SEED).final


def _logged(tmp_path, traj):
    path = tmp_path / "log.csv"
    path.write_text(event_log_text(traj))
    bundle = load_event_log(str(path))
    return bundle, replay(bundle.initial, bundle.events, bundle.model)


def five_ways(tmp_path):
    """One state built from tuples, drawn, as either kernel's final of a run
    with no events, and reloaded from that run's log and replayed."""
    initial = random_config(PARAMS, TOPO, SEED)
    traj = run_model(AXELROD, initial, StopRule(max_events=0), SEED)
    return {
        "tuples": Configuration(TOPO, PARAMS, CULTURES),
        "random_config": initial,
        "compiled": _final("compiled", initial, StopRule(max_events=0)),
        "python": _final("python", initial, StopRule(max_events=0)),
        "replay": _logged(tmp_path, traj)[1],
    }


class TestValueSemantics:
    def test_five_ways_are_one_value(self, tmp_path):
        ways = five_ways(tmp_path)
        assert len(set(ways.values())) == 1
        assert len({hash(c) for c in ways.values()}) == 1
        for name, cfg in ways.items():
            assert cfg == ways["tuples"], name
            assert repr(cfg) == REPR, name
            assert cfg.cultures == CULTURES, name
            assert all(type(v) is int for c in cfg.cultures for v in c), name

    def test_state_is_row_major(self):
        cfg = Configuration(TOPO, PARAMS, CULTURES)
        assert cfg.state.typecode == "q"
        assert cfg.state.tolist() == [v for c in CULTURES for v in c]

    def test_unequal_where_a_field_differs(self):
        cfg = Configuration(TOPO, PARAMS, CULTURES)
        other_state = Configuration(TOPO, PARAMS, ((8, 3, 2),) * 5)
        other_params = Configuration(TOPO, ModelParams(3, 13), CULTURES)
        other_topology = Configuration(Topology("path", 5), PARAMS, CULTURES)
        assert cfg != other_state and cfg != other_params and cfg != other_topology
        assert cfg != CULTURES

    @pytest.mark.parametrize("cached", [False, True])
    def test_pickle_and_deepcopy_round_trip(self, cached):
        cfg = random_config(PARAMS, TOPO, SEED)
        if cached:
            cfg.cultures
        for back in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            assert back == cfg and hash(back) == hash(cfg) and repr(back) == REPR
            assert back.state is not cfg.state

    @pytest.mark.parametrize("name", ["state", "cultures", "topology", "params", "other"])
    def test_assignment_raises_as_on_a_frozen_dataclass(self, name):
        cfg = random_config(PARAMS, TOPO, SEED)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(cfg, name)
        assert repr(cfg) == REPR


def _built_tuples(*configs) -> list:
    """The configurations among `configs` that built their `cultures` cache."""
    return [cfg for cfg in configs if "cultures" in vars(cfg)]


def _spy_runs(monkeypatch) -> list:
    """Every trajectory `experiments` gets from `run_model`, in call order."""
    trajs = []

    def spy(*args, **kwargs):
        trajs.append(run_model(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(experiments, "run_model", spy)
    return trajs


class TestNoTuplesOnHotPaths:
    """The replicate loops and the log round trip never build `cultures`."""

    def test_absorb_replicate_with_the_urn(self, kernel, monkeypatch):
        trajs = _spy_runs(monkeypatch)
        config = ExperimentConfig(kind="simulate", model=AXELROD, F=2, q=4, topology="path",
                                  N=200, replicates=1, attach_urn=True)
        row = experiments._simulate_replicate(config, 0, SEED)
        (traj,) = trajs
        assert row["absorbed"] and traj.urn_final is not None
        assert _built_tuples(traj.initial, traj.final) == []

    def test_lemma5_replicate(self, kernel, monkeypatch):
        trajs = _spy_runs(monkeypatch)
        config = ExperimentConfig(kind="lemma5-estimate", F=2, q=5, N=40, xyz=(10, 20, 30),
                                  t_query=3.0, replicates=1)
        experiments._lemma5_replicate(config, 0, SEED)
        (traj,) = trajs
        assert len(traj.events) > 0
        assert _built_tuples(traj.initial, traj.final) == []

    def test_rounds_replicate(self, monkeypatch):
        drawn = []
        draw = experiments.random_config
        monkeypatch.setattr(experiments, "random_config",
                            lambda *a: drawn.append(draw(*a)) or drawn[-1])
        config = ExperimentConfig(kind="urn-rounds", F=2, q=4, N=500, replicates=1)
        row = experiments._rounds_replicate(config, 0, SEED)
        (initial,) = drawn
        assert sum(row["initial_boxes"]) == 500
        assert _built_tuples(initial) == []

    def test_cvm_run(self, kernel, monkeypatch):
        """Neither the lift nor the lift's final state builds tuples."""
        lifted = []  # the lift, then the lift's final state
        lift, project = engine.cvm_lift, engine.cvm_projection
        monkeypatch.setattr(engine, "cvm_lift", lambda ops: lifted.append(lift(ops)) or lifted[-1])
        monkeypatch.setattr(engine, "cvm_projection", lambda cfg: lifted.append(cfg) or project(cfg))
        init = OpinionConfig(Topology("cycle", 40), (-1, 0, 1, 0) * 10, (-1, 0, 1))
        traj = run_model("cvm", init, StopRule(t_max=5.0), SEED)
        assert len(traj.events) > 0 and len(lifted) == 2
        assert _built_tuples(*lifted) == []

    def test_event_log_round_trip(self, kernel, tmp_path):
        initial = random_config(ModelParams(3, 12), Topology("path", 60), 3)
        traj = run_model(AXELROD, initial, StopRule(stop_on_absorption=True), 4)
        bundle, final = _logged(tmp_path, traj)
        assert len(bundle.events) > 0
        assert _built_tuples(traj.initial, traj.final, bundle.initial, final) == []
        assert bundle.initial == initial and final == traj.final
