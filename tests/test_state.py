"""The flat state: `Configuration.state` and `OpinionConfig.state` are one
row-major int64 array each, from the draw, through both loops, to the event
log and back.

`Configuration` and `OpinionConfig` must behave as the frozen dataclasses of
tuples they replaced (equality, hash, repr, pickling, no assignment),
whichever way a state was made. The hot paths must not build the tuples.
"""
import copy
import dataclasses
import pickle
from functools import partial

import numpy as np
import pytest

from axsim import (
    AXELROD,
    CVM,
    VOTER,
    Configuration,
    ExperimentConfig,
    ModelParams,
    OpinionConfig,
    StopRule,
    Topology,
    random_config,
    random_opinions,
    run_model,
)
from axsim import duality, engine, experiments
from axsim.core import CVM_ALPHABET, VOTER_ALPHABET
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


def _final(kernel_name, initial, stop, model=AXELROD):
    with pytest.MonkeyPatch.context() as mp:
        if kernel_name == "python":
            mp.setattr(engine, "_kernel_lib", lambda: None)
        return run_model(model, initial, stop, SEED).final


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


OPINION_TOPO, OPINION_SEED = Topology("cycle", 6), 1
# Per model: the alphabet and `random_opinions(OPINION_TOPO, alphabet,
# OPINION_SEED)`'s opinions and `repr` when the opinions were a tuple.
OPINIONS = {
    VOTER: (VOTER_ALPHABET, (0, 1, 1, 1, 0, 0),
            "OpinionConfig(topology=Topology(kind='cycle', size=6), "
            "opinions=(0, 1, 1, 1, 0, 0), alphabet=(0, 1))"),
    CVM: (CVM_ALPHABET, (0, 0, 1, 1, -1, -1),
          "OpinionConfig(topology=Topology(kind='cycle', size=6), "
          "opinions=(0, 0, 1, 1, -1, -1), alphabet=(-1, 0, 1))"),
}


def opinion_ways(tmp_path, model):
    """One opinion state built from a tuple, a list and an array, drawn, as
    either loop's final of a run with no events, reloaded from that run's log,
    and replayed."""
    alphabet, opinions, _ = OPINIONS[model]
    drawn = random_opinions(OPINION_TOPO, alphabet, OPINION_SEED)
    stop = StopRule(max_events=0)
    bundle, replayed = _logged(tmp_path, run_model(model, drawn, stop, SEED))
    return {
        "tuple": OpinionConfig(OPINION_TOPO, opinions, alphabet),
        "list": OpinionConfig(OPINION_TOPO, list(opinions), alphabet),
        "ndarray": OpinionConfig(OPINION_TOPO, np.array(opinions), alphabet),
        "random_opinions": drawn,
        "compiled": _final("compiled", drawn, stop, model),
        "python": _final("python", drawn, stop, model),
        "reload": bundle.initial,
        "replay": replayed,
    }


class TestOpinionValueSemantics:
    @pytest.mark.parametrize("model", OPINIONS)
    def test_every_way_is_one_value(self, tmp_path, model):
        _, opinions, pinned = OPINIONS[model]
        ways = opinion_ways(tmp_path, model)
        assert len(set(ways.values())) == 1
        assert len({hash(c) for c in ways.values()}) == 1
        for name, cfg in ways.items():
            assert cfg == ways["tuple"], name
            assert repr(cfg) == pinned, name
            assert type(cfg.opinions) is tuple and cfg.opinions == opinions, name
            assert all(type(o) is int for o in cfg.opinions), name
            assert cfg.state.typecode == "q" and cfg.state.tolist() == list(opinions), name

    def test_every_sequence_is_one_value(self):
        """A list, a range, an array, numpy ints or bytes give the tuple's
        value, hash and repr, and a tuple of Python ints as `opinions`."""
        topo, plain = Topology("path", 3), (-1, 0, 1)
        cfg = OpinionConfig(topo, plain, CVM_ALPHABET)
        for given in ([-1, 0, 1], range(-1, 2), np.array(plain), np.array(plain, np.int8),
                      (np.int64(-1), False, True)):
            other = OpinionConfig(topo, given, CVM_ALPHABET)
            assert other == cfg and hash(other) == hash(cfg) and repr(other) == repr(cfg)
            assert type(other.opinions) is tuple and other.opinions == plain
            assert all(type(o) is int for o in other.opinions)
        traj = run_model(VOTER, OpinionConfig(topo, [0, 1, 0]), StopRule(t_max=1.0), SEED)
        assert type(traj.initial.opinions) is tuple and traj.initial.opinions == (0, 1, 0)
        # Bytes are a sequence of ints here, not the raw int64s `array` reads from them.
        assert OpinionConfig(topo, bytes([0, 1, 0])) == OpinionConfig(topo, (0, 1, 0))

    @pytest.mark.parametrize("model", OPINIONS)
    def test_every_alphabet_sequence_is_one_value(self, model):
        """An alphabet given as a list or an array is held as the tuple of
        Python ints, by the constructor, by `random_opinions` and by a run."""
        alphabet, opinions, pinned = OPINIONS[model]
        ways = []  # per given alphabet: built, drawn, and a run's initial and final
        for given in (alphabet, list(alphabet), np.array(alphabet)):
            built = OpinionConfig(OPINION_TOPO, opinions, given)
            traj = run_model(model, built, StopRule(t_max=1.0), SEED)
            ways.append((built, random_opinions(OPINION_TOPO, given, OPINION_SEED),
                         traj.initial, traj.final))
        for built, drawn, initial, final in ways:
            assert [repr(built), repr(drawn), repr(initial)] == [pinned] * 3
            for cfg in (built, drawn, initial, final):
                assert type(cfg.alphabet) is tuple and cfg.alphabet == alphabet
                assert all(type(a) is int for a in cfg.alphabet)
        for same in zip(*ways):  # one value, hash and repr whichever alphabet was given
            assert len(set(same)) == 1 and len({hash(c) for c in same}) == 1
            assert len({repr(c) for c in same}) == 1

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(OpinionConfig)] == [
            "topology", "state", "alphabet"]

    def test_unequal_where_a_field_differs(self):
        alphabet, opinions, _ = OPINIONS[CVM]
        cfg = OpinionConfig(OPINION_TOPO, opinions, alphabet)
        assert cfg != OpinionConfig(OPINION_TOPO, (0,) * 6, alphabet)
        assert cfg != OpinionConfig(Topology("path", 6), opinions, alphabet)
        assert cfg != OpinionConfig(OPINION_TOPO, opinions, (-1, 0, 1, 2))
        assert cfg != opinions

    @pytest.mark.parametrize("cached", [False, True])
    def test_pickle_and_deepcopy_round_trip(self, cached):
        alphabet, _, pinned = OPINIONS[VOTER]
        cfg = random_opinions(OPINION_TOPO, alphabet, OPINION_SEED)
        if cached:
            cfg.opinions
        for back in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            assert back == cfg and hash(back) == hash(cfg) and repr(back) == pinned
            assert back.state is not cfg.state

    @pytest.mark.parametrize("name", ["state", "opinions", "topology", "alphabet", "other"])
    def test_assignment_raises_as_on_a_frozen_dataclass(self, name):
        alphabet, _, pinned = OPINIONS[VOTER]
        cfg = random_opinions(OPINION_TOPO, alphabet, OPINION_SEED)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(cfg, name)
        assert repr(cfg) == pinned


def _built_tuples(*configs) -> list:
    """The states among `configs` that built their `cultures` or `opinions` cache."""
    return [cfg for cfg in configs if {"cultures", "opinions"} & vars(cfg).keys()]


def _spy_runs(monkeypatch) -> list:
    """Every trajectory `experiments` gets from `run_model`, in call order."""
    trajs = []

    def spy(*args, **kwargs):
        trajs.append(run_model(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(experiments, "run_model", spy)
    return trajs


class TestNoTuplesOnHotPaths:
    """The replicate loops and the log round trips never build `cultures` or
    `opinions`."""

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
        assert _built_tuples(*lifted, traj.final) == []

    def test_event_log_round_trip(self, kernel, tmp_path):
        initial = random_config(ModelParams(3, 12), Topology("path", 60), 3)
        traj = run_model(AXELROD, initial, StopRule(stop_on_absorption=True), 4)
        bundle, final = _logged(tmp_path, traj)
        assert len(bundle.events) > 0
        assert _built_tuples(traj.initial, traj.final, bundle.initial, final) == []
        assert bundle.initial == initial and final == traj.final

    def test_duality_replicate(self, kernel, monkeypatch):
        """Neither the run nor `check_voter_duality`'s replay builds `opinions`."""
        trajs, replayed = _spy_runs(monkeypatch), []
        monkeypatch.setattr(duality, "replay",
                            lambda *a, **k: replayed.append(replay(*a, **k)) or replayed[-1])
        config = ExperimentConfig(kind="duality-check", topology="cycle", N=32, t_query=2.0,
                                  replicates=1)
        row = experiments._duality_replicate(config, 0, SEED)
        (traj,), (final,) = trajs, replayed
        assert row["mismatches"] == 0 and len(traj.events) > 0
        assert final == traj.final
        assert _built_tuples(traj.initial, traj.final, final) == []

    @pytest.mark.parametrize("model", OPINIONS)
    def test_opinion_log_round_trip(self, kernel, tmp_path, model):
        """The log reloads to the run's initial state and replays to its final."""
        draw = partial(random_opinions, Topology("path", 40), OPINIONS[model][0])
        traj = run_model(model, draw, StopRule(t_max=3.0), 4)
        bundle, final = _logged(tmp_path, traj)
        assert len(bundle.events) > 0
        assert _built_tuples(traj.initial, traj.final, bundle.initial, final) == []
        assert bundle.initial == traj.initial and final == traj.final
