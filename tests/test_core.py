import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from axsim import (
    Configuration,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    Topology,
    UnsupportedProjection,
    apply_feature_copy,
    cvm_projection,
    cvm_update,
    is_absorbed,
    overlap,
    random_config,
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

    def test_topology_bounds(self):
        with pytest.raises(InvalidInput):
            Topology("path", 1)
        with pytest.raises(InvalidInput):
            Topology("cycle", 2)
        assert Topology("path", 5).n_edges == 4
        assert Topology("cycle", 5).n_edges == 5


class TestOverlap:
    def test_examples(self):
        p = ModelParams(2, 4)
        assert overlap((1, 2), (1, 3), p) == (1, Fraction(1, 2))
        p3 = ModelParams(3, 4)
        assert overlap((1, 2, 3), (1, 2, 3), p3) == (3, Fraction(1))
        assert overlap((1, 1), (2, 2), p) == (0, Fraction(0))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            overlap((1, 2, 3), (1, 2), ModelParams(3, 4))

    @given(st.data())
    def test_symmetric(self, data):
        F = data.draw(st.integers(1, 5))
        q = data.draw(st.integers(2, 6))
        a = tuple(data.draw(st.integers(0, q - 1)) for _ in range(F))
        b = tuple(data.draw(st.integers(0, q - 1)) for _ in range(F))
        p = ModelParams(F, q)
        assert overlap(a, b, p) == overlap(b, a, p)


class TestFeatureCopy:
    def test_copy_changes_one_feature(self):
        cfg = make_cfg("path", [(1, 2), (1, 3)], 2, 4)
        out = apply_feature_copy(cfg, 0, 1, 1)
        assert out.cultures[0] == (1, 3)
        assert out.cultures[1] == (1, 3)

    def test_noop_on_agreement(self):
        cfg = make_cfg("path", [(1, 2), (1, 3)], 2, 4)
        assert apply_feature_copy(cfg, 0, 1, 0).cultures == cfg.cultures

    def test_locality(self):
        cfg = make_cfg("path", [(0, 0), (1, 1), (2, 2)], 2, 3)
        out = apply_feature_copy(cfg, 1, 0, 0)
        assert out.cultures[2] == (2, 2)

    def test_rejects_non_adjacent(self):
        cfg = make_cfg("path", [(0,), (0,), (0,)], 1, 2)
        with pytest.raises(InvalidInput):
            apply_feature_copy(cfg, 0, 2, 0)
        with pytest.raises(InvalidInput):
            apply_feature_copy(cfg, 0, 1, 3)

    @given(st.integers(0, 10 ** 6))
    def test_disagreeing_copy_bumps_overlap(self, seed):
        p = ModelParams(3, 3)
        cfg = random_config(p, Topology("path", 4), seed)
        x, y = 1, 2
        before, _ = overlap(cfg.cultures[x], cfg.cultures[y], p)
        i = next((i for i in range(3) if cfg.cultures[x][i] != cfg.cultures[y][i]), None)
        if i is None:
            return
        out = apply_feature_copy(cfg, x, y, i)
        after, _ = overlap(out.cultures[x], out.cultures[y], p)
        assert after == before + 1


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

    def test_cvm_update(self):
        topo = Topology("path", 3)
        eta = OpinionConfig(topo, (0, 1, -1), (-1, 0, 1))
        assert cvm_update(eta, 0, 1).opinions == (1, 1, -1)
        assert cvm_update(eta, 1, 1).opinions == eta.opinions
        with pytest.raises(InvalidInput):
            cvm_update(eta, 0, 5)


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
    """Reference: the per-culture check the bulk test falls back to."""
    for c in cultures:
        _check_culture(c, params)


def _opinion_loop(opinions, alphabet):
    """Reference: the per-opinion check the bulk test falls back to."""
    for o in opinions:
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

    @pytest.mark.parametrize("alphabet,opinions", [
        ((0, 1), (0, 1, 2, 1)), ((0, 1), (-1, 0, 0, 0)), ((0, 1), (1, 1, 0, 0.5)),
        ((-1, 0, 1), (0, 2, -2, 1)), ((-1, 0, 1), (1, 0, None, 0)),
    ])
    def test_opinion_faults_match_the_loop(self, alphabet, opinions):
        topo = Topology("cycle", 4)
        expected = _error(lambda: _opinion_loop(opinions, alphabet))
        assert expected is not None and expected[0] is InvalidInput
        assert _error(lambda: OpinionConfig(topo, opinions, alphabet)) == expected

    @given(st.integers(1, 4), st.integers(2, 5), st.data())
    def test_accepts_exactly_what_the_loop_accepts(self, F, q, data):
        n = data.draw(st.integers(2, 6))
        cultures = tuple(
            tuple(data.draw(st.lists(st.integers(-1, q), min_size=F - 1, max_size=F + 1)))
            for _ in range(n))
        params, topo = ModelParams(F, q), Topology("path", n)
        assert (_error(lambda: Configuration(topo, params, cultures))
                == _error(lambda: _culture_loop(cultures, params)))
