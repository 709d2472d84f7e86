"""Domain types and pure transition rules for 1D culture/opinion dynamics.

Feature states are stored 0-based ({0,...,q-1}); any 1-based rendering is
an I/O concern. All types here are immutable values.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class ModelParams:
    F: int
    q: int

    def __post_init__(self):
        if self.F < 1:
            raise InvalidInput(f"F must be >= 1, got {self.F}")
        if self.q < 2:
            raise InvalidInput(f"q must be >= 2, got {self.q}")


@dataclass(frozen=True)
class Topology:
    kind: str  # "path" | "cycle"
    size: int  # vertex count

    def __post_init__(self):
        if self.kind not in ("path", "cycle"):
            raise InvalidInput(f"unknown topology kind {self.kind!r}")
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
        if not 0 <= v < params.q:
            raise InvalidInput(f"feature state {v} outside 0..{params.q - 1}")


@dataclass(frozen=True)
class Configuration:
    topology: Topology
    params: ModelParams
    cultures: tuple  # one Culture per vertex

    def __post_init__(self):
        if len(self.cultures) != self.topology.n_vertices:
            raise InvalidInput("one culture per vertex required")
        # Bulk test first: every length is F and every distinct state lies in
        # 0..q-1. Only a failing state pays for the per-culture loop, which
        # finds the first fault and words its error.
        F, q = self.params.F, self.params.q
        if set(map(len, self.cultures)) == {F} and all(
                0 <= v < q for v in set(chain.from_iterable(self.cultures))):
            return
        for c in self.cultures:
            _check_culture(c, self.params)


VOTER_ALPHABET = (0, 1)
CVM_ALPHABET = (-1, 0, 1)


@dataclass(frozen=True)
class OpinionConfig:
    topology: Topology
    opinions: tuple
    alphabet: tuple = VOTER_ALPHABET

    def __post_init__(self):
        if len(self.opinions) != self.topology.n_vertices:
            raise InvalidInput("one opinion per vertex required")
        allowed = set(self.alphabet)
        if allowed.issuperset(self.opinions):
            return
        for o in self.opinions:
            if o not in allowed:
                raise InvalidInput(f"opinion {o} outside alphabet {self.alphabet}")


def overlap(a, b, params: ModelParams) -> tuple[int, Fraction]:
    """Number and fraction of features on which two cultures agree."""
    _check_culture(a, params)
    _check_culture(b, params)
    shared = sum(1 for x, y in zip(a, b) if x == y)
    return shared, Fraction(shared, params.F)


def apply_feature_copy(cfg: Configuration, x: int, y: int, i: int) -> Configuration:
    """Vertex x adopts feature i of its neighbor y; everything else unchanged."""
    if not cfg.topology.are_adjacent(x, y):
        raise InvalidInput(f"vertices {x},{y} not adjacent")
    if not 0 <= i < cfg.params.F:
        raise InvalidInput(f"feature index {i} out of range")
    cx = list(cfg.cultures[x])
    cx[i] = cfg.cultures[y][i]
    cultures = cfg.cultures[:x] + (tuple(cx),) + cfg.cultures[x + 1:]
    return Configuration(cfg.topology, cfg.params, cultures)


def voter_projection(cfg: Configuration) -> OpinionConfig:
    """Two-feature two-state configurations collapse to {0,1} opinions.

    Opinion is 0 where the two features agree and 1 where they differ,
    identifying the two cultures with no common feature.
    """
    if cfg.params.F != 2 or cfg.params.q != 2:
        raise UnsupportedProjection("voter projection requires F = q = 2")
    ops = tuple(abs(c[0] - c[1]) for c in cfg.cultures)
    return OpinionConfig(cfg.topology, ops, VOTER_ALPHABET)


_CVM_MAP = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): -1}


def cvm_projection(cfg: Configuration) -> OpinionConfig:
    """Map the four F=q=2 cultures onto {-1, 0, +1} opinions.

    The diagonal pair (0,0),(1,1) is the centrist 0; (0,1) is +1 and
    (1,0) is -1 (fixed convention).
    """
    if cfg.params.F != 2 or cfg.params.q != 2:
        raise UnsupportedProjection("cvm projection requires F = q = 2")
    ops = tuple(_CVM_MAP[c] for c in cfg.cultures)
    return OpinionConfig(cfg.topology, ops, CVM_ALPHABET)


def cvm_update(eta: OpinionConfig, x: int, eps: int) -> OpinionConfig:
    """Set the opinion of x to eps.

    Pure assignment; the engine only invokes it when a neighbor of x
    holds eps and eta(x) != -eps.
    """
    if eps not in CVM_ALPHABET:
        raise InvalidInput(f"opinion {eps} outside {{-1,0,+1}}")
    ops = eta.opinions[:x] + (eps,) + eta.opinions[x + 1:]
    return OpinionConfig(eta.topology, ops, eta.alphabet)


def random_config(params: ModelParams, topology: Topology, seed: int) -> Configuration:
    """Every feature of every vertex i.i.d. uniform on {0,...,q-1}."""
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, params.q, size=(topology.n_vertices, params.F))
    cultures = tuple(map(tuple, arr.tolist()))  # Python ints, as event logs repr them
    return Configuration(topology, params, cultures)


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
