"""Domain types and pure transition rules for 1D culture/opinion dynamics.

Feature states are stored 0-based ({0,...,q-1}); any 1-based rendering is
an I/O concern. All types here are immutable values.
"""
from __future__ import annotations

import numbers
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np


class InvalidInput(ValueError):
    """An argument violates an operation's precondition."""


class UnsupportedProjection(InvalidInput):
    """Projection requires F = q = 2."""


class UnsupportedTopology(InvalidInput):
    """Operation only defined on a subset of topologies."""


class CapacityError(RuntimeError):
    """Exact enumeration requested above the configured state-space cap."""


def is_int(x) -> bool:
    """Whether x is an integer; an int skips the slower ABC check."""
    return type(x) is int or isinstance(x, numbers.Integral)


def check_int(name: str, value):
    """Raise InvalidInput unless `value` is an integer."""
    if not is_int(value):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")


def _plain(value):
    """A numpy bool, integer or real as the Python bool, int or float; any
    other value as it is."""
    for numpy_type, python_type in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
        if isinstance(value, numpy_type):
            return python_type(value)
    return value


@dataclass(frozen=True)
class ModelParams:
    F: int
    q: int

    def __post_init__(self):
        check_int("F", self.F)
        check_int("q", self.q)
        if self.F < 1:
            raise InvalidInput(f"F must be >= 1, got {self.F}")
        if self.q < 2:
            raise InvalidInput(f"q must be >= 2, got {self.q}")
        if self.q > 2 ** 63:  # states 0..q-1 must fit `Configuration.state`'s int64s
            raise InvalidInput(f"q must be <= 2**63, got {self.q}")


@dataclass(frozen=True)
class Topology:
    kind: str  # "path" | "cycle"
    size: int  # vertex count

    def __post_init__(self):
        if self.kind not in ("path", "cycle"):
            raise InvalidInput(f"unknown topology kind {self.kind!r}")
        check_int("topology size", self.size)
        if self.kind == "path" and self.size < 2:
            raise InvalidInput("path needs at least 2 vertices")
        if self.kind == "cycle" and self.size < 3:
            raise InvalidInput("cycle needs at least 3 vertices")

    @property
    def n_vertices(self) -> int:
        return self.size

    @property
    def n_edges(self) -> int:
        return self.size - 1 if self.kind == "path" else self.size

    def edges(self) -> list[tuple[int, int]]:
        if self.kind == "path":
            return [(i, i + 1) for i in range(self.size - 1)]
        return [(i, (i + 1) % self.size) for i in range(self.size)]

    def neighbors(self, x: int) -> tuple[int, ...]:
        if not 0 <= x < self.size:
            raise InvalidInput(f"vertex {x} out of range")
        if self.kind == "cycle":
            return ((x - 1) % self.size, (x + 1) % self.size)
        out = []
        if x > 0:
            out.append(x - 1)
        if x < self.size - 1:
            out.append(x + 1)
        return tuple(out)

    def are_adjacent(self, x: int, y: int) -> bool:
        return y in self.neighbors(x)


Culture = tuple  # length-F tuple of ints in {0,...,q-1}


def _check_culture(c, params: ModelParams):
    if len(c) != params.F:
        raise InvalidInput(f"culture length {len(c)} != F={params.F}")
    for v in c:
        if not isinstance(v, numbers.Integral):
            raise InvalidInput(f"feature state {v!r} is not an integer")
        if not 0 <= v < params.q:
            raise InvalidInput(f"feature state {v} outside 0..{params.q - 1}")


@dataclass(frozen=True, init=False, repr=False)
class Configuration:
    """A culture per vertex, stored as one row-major int64 array `state`.

    The constructor takes one Culture per vertex and checks it. States the
    program made itself go through `_of`, which checks nothing. `cultures`,
    the per-vertex tuples of Python ints, is built on first use and cached.
    A value: equal, hashed and printed by its topology, params and cultures,
    and never changed (`state` must not be mutated either).
    """
    topology: Topology
    params: ModelParams
    state: array  # V*F values: feature i of vertex v is state[v * F + i]

    def __init__(self, topology: Topology, params: ModelParams, cultures):
        if len(cultures) != topology.n_vertices:
            raise InvalidInput("one culture per vertex required")
        for c in cultures:
            _check_culture(c, params)
        state = array("q", chain.from_iterable(cultures))
        self.__dict__.update(topology=topology, params=params, state=state)

    @classmethod
    def _of(cls, topology: Topology, params: ModelParams, state: array) -> Configuration:
        """The configuration holding `state`, which the program made: V*F
        int64 values in 0..q-1. Nothing is checked or copied."""
        cfg = cls.__new__(cls)
        cfg.__dict__.update(topology=topology, params=params, state=state)
        return cfg

    def _with(self, state: array) -> Configuration:
        """The same lattice and params holding `state`, as `_of` takes it."""
        return self._of(self.topology, self.params, state)

    @cached_property
    def cultures(self) -> tuple:
        """One Culture, a tuple of Python ints, per vertex."""
        return tuple(zip(*[iter(self.state)] * self.params.F))

    def __hash__(self):
        return hash((self.topology, self.params, self.state.tobytes()))

    def __repr__(self):
        return (f"Configuration(topology={self.topology!r}, params={self.params!r}, "
                f"cultures={self.cultures!r})")


VOTER_ALPHABET = (0, 1)
CVM_ALPHABET = (-1, 0, 1)


@dataclass(frozen=True, init=False, repr=False)
class OpinionConfig:
    """An opinion per vertex in `state`, a `Configuration.state` with F = 1, and
    a value as `Configuration` is. The constructor checks each opinion, `_of`
    nothing. `opinions`, a tuple of Python ints, is built on first use and cached."""
    topology: Topology
    state: array  # the opinion of vertex v is state[v]
    alphabet: tuple = VOTER_ALPHABET

    def __init__(self, topology: Topology, opinions, alphabet: tuple = VOTER_ALPHABET):
        if len(opinions) != topology.n_vertices:
            raise InvalidInput("one opinion per vertex required")
        alphabet = tuple(map(_plain, alphabet))  # a list or array as the tuple
        allowed = set(alphabet)
        # Bulk test first; a float equal to an opinion (0.0 == 0) fails only
        # the type test. The loop finds the first fault and words its error.
        plain = {int}.issuperset(map(type, opinions)) and allowed.issuperset(opinions)
        for o in () if plain else opinions:
            if not isinstance(o, numbers.Integral):
                raise InvalidInput(f"opinion {o!r} is not an integer")
            if o not in allowed:
                raise InvalidInput(f"opinion {o} outside alphabet {alphabet}")
        try:  # from an iterator, since `array` would read a bytes object as raw int64s
            state = array("q", iter(opinions))
        except OverflowError:  # only an alphabet beyond int64 lets one through
            raise InvalidInput(f"opinions must fit int64s, got alphabet {alphabet}") from None
        self.__dict__.update(topology=topology, state=state, alphabet=alphabet)
        if plain and type(opinions) is tuple:  # already the `opinions` view: kept as given
            self.__dict__["opinions"] = opinions

    @classmethod
    def _of(cls, topology: Topology, state: array, alphabet: tuple) -> OpinionConfig:
        """The opinions `state`, which the program made. Nothing is checked or copied."""
        cfg = cls.__new__(cls)
        cfg.__dict__.update(topology=topology, state=state, alphabet=alphabet)
        return cfg

    def _with(self, state: array) -> OpinionConfig:
        """The same lattice and alphabet holding `state`, as `_of` takes it."""
        return self._of(self.topology, state, self.alphabet)

    @cached_property
    def opinions(self) -> tuple:
        """The opinions as a tuple of Python ints."""
        return tuple(self.state)

    def __hash__(self):
        return hash((self.topology, self.state.tobytes(), self.alphabet))

    def __repr__(self):
        return (f"OpinionConfig(topology={self.topology!r}, opinions={self.opinions!r}, "
                f"alphabet={self.alphabet!r})")


def voter_projection(cfg: Configuration) -> OpinionConfig:
    """Two-feature two-state configurations collapse to {0,1} opinions.

    Opinion is 0 where the two features agree and 1 where they differ,
    identifying the two cultures with no common feature.
    """
    if cfg.params.F != 2 or cfg.params.q != 2:
        raise UnsupportedProjection("voter projection requires F = q = 2")
    s = cfg.state
    opinions = array("q", map(abs, map(operator.sub, s[::2], s[1::2])))
    return OpinionConfig._of(cfg.topology, opinions, VOTER_ALPHABET)


_CVM_MAP = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): -1}
_CVM_LIFT = {0: (0, 0), 1: (0, 1), -1: (1, 0)}


def cvm_projection(cfg: Configuration) -> OpinionConfig:
    """Map the four F=q=2 cultures onto {-1, 0, +1} opinions.

    The diagonal pair (0,0),(1,1) is the centrist 0; (0,1) is +1 and
    (1,0) is -1 (fixed convention).
    """
    if cfg.params.F != 2 or cfg.params.q != 2:
        raise UnsupportedProjection("cvm projection requires F = q = 2")
    s = cfg.state
    opinions = array("q", map(_CVM_MAP.__getitem__, zip(s[::2], s[1::2])))
    return OpinionConfig._of(cfg.topology, opinions, CVM_ALPHABET)


def cvm_lift(cfg: OpinionConfig) -> Configuration:
    """The F=q=2 configuration that `cvm_projection` maps back to `cfg`.

    Every centrist lifts to (0,0), so a (1,1) culture never arises: the only
    edge that could make one, (0,1)-(1,0), shares no feature and never fires.
    """
    state = array("q", chain.from_iterable(map(_CVM_LIFT.__getitem__, cfg.state)))
    return Configuration._of(cfg.topology, ModelParams(2, 2), state)


def check_seed(seed):
    """Raise InvalidInput unless `seed` is an integer >= 0."""
    if not is_int(seed) or seed < 0:
        raise InvalidInput(f"seed must be an integer >= 0, got {seed}")


def as_generator(seed) -> np.random.Generator:
    """`seed` itself if it is a Generator, else a new one from the integer
    `seed` >= 0 (InvalidInput otherwise), as `np.random.default_rng` builds it."""
    if isinstance(seed, np.random.Generator):
        return seed
    check_seed(seed)
    return np.random.default_rng(seed)


def random_config(params: ModelParams, topology: Topology, seed) -> Configuration:
    """Every feature of every vertex i.i.d. uniform on {0,...,q-1}, drawn
    from `seed`: an integer >= 0, or a Generator, which the draw advances."""
    draw = as_generator(seed).integers(0, params.q, topology.n_vertices * params.F, np.int64)
    return Configuration._of(topology, params, array("q", draw.tobytes()))


def random_opinions(topology: Topology, alphabet: tuple, seed) -> OpinionConfig:
    """Every opinion i.i.d. uniform on `alphabet`, a non-empty run of ascending
    consecutive int64 integers such as `VOTER_ALPHABET` or `CVM_ALPHABET`
    (InvalidInput otherwise), drawn from `seed` as in `random_config`."""
    alphabet = tuple(map(_plain, alphabet))  # a list or array as the tuple
    if not (len(alphabet) and all(map(is_int, alphabet)) and -2 ** 63 <= alphabet[0]
            and alphabet == tuple(range(alphabet[0], alphabet[0] + len(alphabet)))
            and alphabet[-1] < 2 ** 63):
        raise InvalidInput(f"alphabet must be ascending consecutive int64s, got {alphabet!r}")
    draw = as_generator(seed).integers(alphabet[0], alphabet[-1] + 1, topology.n_vertices, np.int64)
    return OpinionConfig._of(topology, array("q", draw.tobytes()), alphabet)


def edge_overlap_count(cfg: Configuration, u: int, v: int) -> int:
    return sum(map(operator.eq, cfg.cultures[u], cfg.cultures[v]))


def is_absorbed(cfg: Configuration) -> bool:
    """True iff every edge overlap is 0 or F (no legal update can fire)."""
    F = cfg.params.F
    for u, v in cfg.topology.edges():
        w = edge_overlap_count(cfg, u, v)
        if 0 < w < F:
            return False
    return True
