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


@dataclass(frozen=True)
class OpinionConfig:
    """An opinion per vertex. Integers of other types (numpy ints, bools) are
    stored as Python ints; anything that is no integer is refused."""
    topology: Topology
    opinions: tuple
    alphabet: tuple = VOTER_ALPHABET

    def __post_init__(self):
        if len(self.opinions) != self.topology.n_vertices:
            raise InvalidInput("one opinion per vertex required")
        allowed = set(self.alphabet)
        # Bulk test first; a float equal to an opinion (0.0 == 0) fails only
        # the type test. The loop finds the first fault and words its error.
        if {int}.issuperset(map(type, self.opinions)) and allowed.issuperset(self.opinions):
            return
        for o in self.opinions:
            if not isinstance(o, numbers.Integral):
                raise InvalidInput(f"opinion {o!r} is not an integer")
            if o not in allowed:
                raise InvalidInput(f"opinion {o} outside alphabet {self.alphabet}")
        object.__setattr__(self, "opinions", tuple(map(int, self.opinions)))


def voter_projection(cfg: Configuration) -> OpinionConfig:
    """Two-feature two-state configurations collapse to {0,1} opinions.

    Opinion is 0 where the two features agree and 1 where they differ,
    identifying the two cultures with no common feature.
    """
    if cfg.params.F != 2 or cfg.params.q != 2:
        raise UnsupportedProjection("voter projection requires F = q = 2")
    s = cfg.state
    return OpinionConfig(cfg.topology, tuple(map(abs, map(operator.sub, s[::2], s[1::2]))),
                         VOTER_ALPHABET)


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
    return OpinionConfig(cfg.topology, tuple(map(_CVM_MAP.__getitem__, zip(s[::2], s[1::2]))),
                         CVM_ALPHABET)


def cvm_lift(cfg: OpinionConfig) -> Configuration:
    """The F=q=2 configuration that `cvm_projection` maps back to `cfg`.

    Every centrist lifts to (0,0), so a (1,1) culture never arises: the only
    edge that could make one, (0,1)-(1,0), shares no feature and never fires.
    """
    state = array("q", chain.from_iterable(map(_CVM_LIFT.__getitem__, cfg.opinions)))
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
    """Every opinion i.i.d. uniform on `alphabet`, consecutive integers such
    as `VOTER_ALPHABET` or `CVM_ALPHABET`, drawn from `seed` as in `random_config`."""
    draw = as_generator(seed).integers(alphabet[0], alphabet[-1] + 1, topology.n_vertices)
    return OpinionConfig(topology, tuple(draw.tolist()), alphabet)


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
