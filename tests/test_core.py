import numbers

import numpy as np
import pytest

from hypothesis import given, strategies as st

from axsim import (
    Configuration,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    Topology,
    UnsupportedProjection,
    cvm_projection,
    is_absorbed,
    random_config,
    random_opinions,
    voter_projection,
)
from axsim.core import _check_culture


def make_cfg(kind, cultures, F, q):
    topo = Topology(kind, len(cultures))
    return Configuration(topo, ModelParams(F, q), tuple(tuple(c) for c in cultures))


class TestParams:
    def test_rejects_bad_params(self):
        with pytest.raises(InvalidInput):
            ModelParams(0, 2)
        with pytest.raises(InvalidInput):
            ModelParams(2, 1)

    def test_q_up_to_two_to_the_63(self):
        # States 0..q-1 are drawn as int64 and run in the compiled loop's int64 array.
        with pytest.raises(InvalidInput, match="2\\*\\*63"):
            ModelParams(2, 2 ** 63 + 1)
        cfg = random_config(ModelParams(2, 2 ** 63), Topology("path", 4), 0)
        assert max(max(c) for c in cfg.cultures) < 2 ** 63

    @pytest.mark.parametrize("F,q", [(2.5, 4), (2, 4.0), (2.0, 2), ("2", 4), (None, 3)])
    def test_params_must_be_integers(self, F, q):
        with pytest.raises(InvalidInput, match="^[Fq] must be an integer, got "):
            ModelParams(F, q)

    @pytest.mark.parametrize("kind", ["path", "cycle"])
    @pytest.mark.parametrize("size", [10.5, 10.0, "10", None])
    def test_topology_size_must_be_an_integer(self, kind, size):
        with pytest.raises(InvalidInput, match="^topology size must be an integer, got "):
            Topology(kind, size)

    def test_numpy_ints_and_bools_are_integers(self):
        assert ModelParams(np.int64(2), np.int32(3)) == ModelParams(2, 3)
        assert ModelParams(True, 2).F == 1
        assert Topology("path", np.int64(5)).n_edges == 4

    def test_topology_bounds(self):
        with pytest.raises(InvalidInput):
            Topology("path", 1)
        with pytest.raises(InvalidInput):
            Topology("cycle", 2)
        assert Topology("path", 5).n_edges == 4
        assert Topology("cycle", 5).n_edges == 5


class TestProjections:
    def test_voter_values(self):
        cfg = make_cfg("path", [(0, 0), (0, 1), (1, 0), (1, 1)], 2, 2)
        assert voter_projection(cfg).opinions == (0, 1, 1, 0)

    def test_voter_identifies_opposite_cultures(self):
        # (0,1) and (1,0) share no feature yet project to the same opinion
        cfg = make_cfg("path", [(0, 1), (1, 0)], 2, 2)
        assert voter_projection(cfg).opinions == (1, 1)

    def test_voter_requires_two_by_two(self):
        with pytest.raises(UnsupportedProjection):
            voter_projection(make_cfg("path", [(0, 0, 0), (1, 1, 1)], 3, 2))

    def test_voter_global_state_swap_symmetry(self):
        cfg = make_cfg("path", [(0, 1), (1, 1), (0, 0)], 2, 2)
        swapped = make_cfg("path", [(1, 0), (0, 0), (1, 1)], 2, 2)
        assert voter_projection(cfg).opinions == voter_projection(swapped).opinions

    def test_cvm_mapping(self):
        cfg = make_cfg("path", [(0, 0), (1, 1), (0, 1), (1, 0)], 2, 2)
        assert cvm_projection(cfg).opinions == (0, 0, 1, -1)

    def test_cvm_partition(self):
        cfg = make_cfg("path", [(0, 0), (0, 1), (1, 0), (1, 1)], 2, 2)
        ops = cvm_projection(cfg).opinions
        assert sorted(ops) == [-1, 0, 0, 1]


class TestRandomConfig:
    def test_deterministic(self):
        p, topo = ModelParams(3, 5), Topology("cycle", 20)
        assert random_config(p, topo, 9).cultures == random_config(p, topo, 9).cultures

    def test_python_ints_from_the_seeded_stream(self):
        # Event logs write cultures with repr, which differs for numpy scalars.
        p, topo = ModelParams(3, 5), Topology("path", 7)
        cfg = random_config(p, topo, 4)
        assert all(type(v) is int for c in cfg.cultures for v in c)
        expected = np.random.default_rng(4).integers(0, 5, size=(7, 3))
        assert cfg.cultures == tuple(tuple(int(v) for v in row) for row in expected)

    def test_uniform_frequencies_chi_square(self):
        # chi-square against uniform over 1e4 vertices, 3-sigma on each cell
        q = 4
        cfg = random_config(ModelParams(1, q), Topology("path", 10 ** 4), 123)
        counts = np.bincount([c[0] for c in cfg.cultures], minlength=q)
        n = len(cfg.cultures)
        p = 1 / q
        sigma = (n * p * (1 - p)) ** 0.5
        assert all(abs(c - n * p) <= 3 * sigma for c in counts)


class TestRandomOpinions:
    @pytest.mark.parametrize("alphabet", [(1, 0), (1, 0, -1), (), (0, 2), (0, 1.0), (0.0, 1.0),
                                          (2 ** 63,), (-2 ** 63 - 1, -2 ** 63)], ids=repr)
    def test_refuses_an_alphabet_it_cannot_draw_from(self, alphabet):
        with pytest.raises(InvalidInput,
                           match="^alphabet must be ascending consecutive int64s, got "):
            random_opinions(Topology("path", 5), alphabet, 0)

    @pytest.mark.parametrize("alphabet", [(0, 1), (-1, 0, 1), (2 ** 63 - 2, 2 ** 63 - 1),
                                          (-2 ** 63,)], ids=repr)
    def test_python_ints_from_the_seeded_stream(self, alphabet):
        cfg = random_opinions(Topology("path", 7), alphabet, 4)
        expected = np.random.default_rng(4).integers(alphabet[0], alphabet[-1] + 1, 7)
        assert cfg.opinions == tuple(expected.tolist()) and cfg.alphabet == alphabet
        assert cfg == OpinionConfig(Topology("path", 7), cfg.opinions, alphabet)


class TestAbsorption:
    def test_monocultural(self):
        assert is_absorbed(make_cfg("path", [(1, 1)] * 4, 2, 2))

    def test_weight_one_edge(self):
        assert not is_absorbed(make_cfg("path", [(0, 0), (0, 1)], 2, 2))

    def test_single_feature_always_absorbed(self):
        for seed in range(5):
            cfg = random_config(ModelParams(1, 3), Topology("cycle", 10), seed)
            assert is_absorbed(cfg)


def _error(make):
    try:
        make()
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    return None


def _culture_loop(cultures, params):
    """Reference: the per-culture check, in vertex order."""
    for c in cultures:
        _check_culture(c, params)


def _opinion_loop(opinions, alphabet):
    """Reference: the per-opinion check the bulk test falls back to."""
    for o in opinions:
        if not isinstance(o, numbers.Integral):
            raise InvalidInput(f"opinion {o!r} is not an integer")
        if o not in set(alphabet):
            raise InvalidInput(f"opinion {o} outside alphabet {alphabet}")


class TestBulkValidation:
    GOOD = ((0, 1, 2), (2, 2, 0), (1, 0, 1), (0, 0, 0))

    @pytest.mark.parametrize("vertex,culture", [
        (1, (2, 2)), (3, (0, 0, 0, 1)), (0, ()),  # wrong length
        (2, (1, -1, 1)), (0, (0, 0, -7)),  # a negative state
        (1, (2, 3, 0)), (3, (3, 3, 3)),  # a state equal to q
        (2, (0, 9, 1)), (1, (0.5, 1, 4)),  # above q, and a fault after a non-integer
        (0, (0, float("nan"), 1)),  # passes neither 0 <= v nor v < q
    ])
    def test_culture_faults_match_the_loop(self, vertex, culture):
        params, topo = ModelParams(3, 3), Topology("path", 4)
        cultures = self.GOOD[:vertex] + (culture,) + self.GOOD[vertex + 1:]
        expected = _error(lambda: _culture_loop(cultures, params))
        assert expected is not None and expected[0] is InvalidInput
        assert _error(lambda: Configuration(topo, params, cultures)) == expected

    def test_first_fault_in_vertex_order_is_reported(self):
        params, topo = ModelParams(3, 3), Topology("cycle", 4)
        cultures = ((0, 1, 2), (0, 5, 0), (1, 1), (-1, 0, 0))
        assert _error(lambda: Configuration(topo, params, cultures)) == (
            InvalidInput, "feature state 5 outside 0..2")

    def test_states_are_integers(self):
        # A float state is rejected even where it lies in 0..q-1; numpy
        # integers and bools are integers.
        params, topo = ModelParams(2, 3), Topology("path", 4)
        for cultures, bad in ((((0.5, 1), (0, 1), (2, 2.5), (1, 1)), 0.5),
                              (((0, 1), (2.0, 1), (0, 0), (1, 1)), 2.0)):
            assert _error(lambda: Configuration(topo, params, cultures)) == (
                InvalidInput, f"feature state {bad!r} is not an integer")
        Configuration(topo, params, ((np.int64(2), True), (np.int8(0), 1), (False, 2), (1, 1)))

    def test_float_equal_to_a_present_int_is_refused(self):
        # 0.0 == 0 and hash(0.0) == hash(0): a test on the distinct states misses it.
        assert _error(lambda: Configuration(Topology("path", 3), ModelParams(2, 2),
                                            ((0, 1), (0.0, 1), (1, 0)))) == (
            InvalidInput, "feature state 0.0 is not an integer")

    @pytest.mark.parametrize("alphabet,opinions", [
        ((0, 1), (0, 1, 2, 1)), ((0, 1), (-1, 0, 0, 0)), ((0, 1), (1, 1, 0, 0.5)),
        ((-1, 0, 1), (0, 2, -2, 1)), ((-1, 0, 1), (1, 0, None, 0)),
        ((0, 1), (0.0, 1, 0, 1)), ((-1, 0, 1), (0, 1, 3, -1.0)), ((0, 1), (1, "0", 0, 1)),
    ])
    def test_opinion_faults_match_the_loop(self, alphabet, opinions):
        topo = Topology("cycle", 4)
        expected = _error(lambda: _opinion_loop(opinions, alphabet))
        assert expected is not None and expected[0] is InvalidInput
        assert _error(lambda: OpinionConfig(topo, opinions, alphabet)) == expected

    def test_opinions_are_stored_as_python_ints(self):
        topo = Topology("path", 4)
        with pytest.raises(InvalidInput, match="^opinion 0.0 is not an integer$"):
            OpinionConfig(Topology("path", 3), (0.0, 1, 0))
        for alphabet, opinions in (((0, 1), (np.int64(0), True, np.uint8(1), 0)),
                                   ((-1, 0, 1), (np.int8(-1), False, 1, np.int64(1)))):
            cfg = OpinionConfig(topo, opinions, alphabet)
            assert [type(o) for o in cfg.opinions] == [int] * 4
            assert cfg == OpinionConfig(topo, tuple(map(int, opinions)), alphabet)
            assert repr(cfg) == repr(OpinionConfig(topo, tuple(map(int, opinions)), alphabet))
        plain = (0, 1, 1, 0)
        assert OpinionConfig(topo, plain).opinions is plain  # nothing to convert: kept as given

    @pytest.mark.parametrize("opinions,alphabet", [((2 ** 63, 2 ** 63), (2 ** 63,)),
                                                   ((0, -2 ** 63 - 1), (-2 ** 63 - 1, 0))])
    def test_an_opinion_beyond_int64_is_refused(self, opinions, alphabet):
        topo = Topology("path", 2)
        with pytest.raises(InvalidInput, match="^opinions must fit int64s, got alphabet "):
            OpinionConfig(topo, opinions, alphabet)
        extremes = (-2 ** 63, 2 ** 63 - 1)
        assert OpinionConfig(topo, extremes, extremes).opinions == extremes

    @given(st.integers(1, 4), st.integers(2, 5), st.data())
    def test_accepts_exactly_what_the_loop_accepts(self, F, q, data):
        n = data.draw(st.integers(2, 6))
        cultures = tuple(
            tuple(data.draw(st.lists(st.integers(-1, q), min_size=F - 1, max_size=F + 1)))
            for _ in range(n))
        params, topo = ModelParams(F, q), Topology("path", n)
        assert (_error(lambda: Configuration(topo, params, cultures))
                == _error(lambda: _culture_loop(cultures, params)))
