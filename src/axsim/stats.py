"""Observables: edge census, domain counts, flip counts."""
from __future__ import annotations

import numbers
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from .core import (
    Configuration,
    InvalidInput,
    OpinionConfig,
    UnsupportedTopology,
    is_absorbed,
)
from .events import EventTable


@dataclass(frozen=True)
class EdgeCensus:
    counts: tuple  # w_0,...,w_F
    total_agreement: int  # W = sum_j j*w_j

    @classmethod
    def _of(cls, counts: tuple) -> EdgeCensus:
        """The census of `counts`, a tuple of Python ints the program made.
        Nothing is checked or converted, as in `Configuration._of`."""
        census = cls.__new__(cls)
        census.__dict__.update(counts=counts,
                               total_agreement=sum(map(mul, range(len(counts)), counts)))
        return census

    @property
    def n_edges(self) -> int:
        return sum(self.counts)


# Fraction(V, n) for n domains on V vertices; a run's few values recur in every replicate.
_mean_size = lru_cache(maxsize=1024)(Fraction)


@dataclass(frozen=True)
class DomainStats:
    domain_count: int
    mean_size: Fraction

    @classmethod
    def _of(cls, domain_count: int, n_vertices: int) -> DomainStats:
        """`domain_count` domains on `n_vertices` vertices, built as `EdgeCensus._of`."""
        domains = cls.__new__(cls)
        domains.__dict__.update(domain_count=domain_count,
                                mean_size=_mean_size(n_vertices, domain_count))
        return domains


def census_from_counts(counts) -> EdgeCensus:
    return EdgeCensus._of(tuple(map(int, counts)))


def edge_weights(cfg) -> np.ndarray:
    """Edge e's weight, the features its ends e and e+1 (mod V) share, at index
    e. An opinion counts as a culture of one feature: agree 1, disagree 0."""
    if not isinstance(cfg, (Configuration, OpinionConfig)):
        raise InvalidInput(f"cannot census {type(cfg).__name__}")
    # Row v against row v+1, the last row against the first: the edges
    # (v, v+1) of a path, and of a cycle with its closing edge.
    rows = np.frombuffer(cfg.state, np.int64).reshape(cfg.topology.n_vertices, -1)
    return (rows == np.roll(rows, -1, axis=0))[:cfg.topology.n_edges].sum(axis=1)


def edge_census(cfg) -> EdgeCensus:
    """Count j-edges, j = 0..F (0..1 on opinions), from `edge_weights`."""
    F = len(cfg.state) // cfg.topology.n_vertices
    return census_from_counts(np.bincount(edge_weights(cfg), minlength=F + 1))


def count_domains(cfg) -> DomainStats:
    """Connected components after deleting every edge with weight < F."""
    return domains_from_census(edge_census(cfg), cfg.topology)


def domains_from_census(census: EdgeCensus, topology) -> DomainStats:
    # On a path (tree) components = removed + 1; on a cycle removing k >= 1
    # edges leaves k components, and 0 removals leave the single cycle.
    removed = census.n_edges - census.counts[-1]
    n = removed + 1 if topology.kind == "path" else max(removed, 1)
    return DomainStats._of(n, topology.n_vertices)


def domains_equals_w0_plus_1(cfg: Configuration) -> bool:
    """At absorption on a path, N_t = w_0 + 1 (tree identity)."""
    if cfg.topology.kind != "path":
        raise UnsupportedTopology("identity is tree-specific; path only")
    if not is_absorbed(cfg):
        raise InvalidInput("configuration not absorbed")
    census = edge_census(cfg)
    return count_domains(cfg).domain_count == census.counts[0] + 1


def flip_count(traj, x: int, window_boundaries) -> list[int]:
    """Opinion changes of vertex x per window (b_{k}, b_{k+1}].

    Voter/cvm trajectories flag actual changes per event; for the
    two-feature two-state culture model every accepted update of x flips
    its projected opinion. x must be a vertex of the run's lattice.
    """
    V = traj.initial.topology.n_vertices
    if not (isinstance(x, numbers.Integral) and 0 <= x < V):
        raise InvalidInput(f"vertex must be an integer in 0..{V - 1}, got {x!r}")
    bounds = list(window_boundaries)
    if len(bounds) < 2 or not all(a <= b for a, b in zip(bounds, bounds[1:])):  # refuses NaN
        raise InvalidInput("window boundaries must be sorted, length >= 2")
    counts = [0] * (len(bounds) - 1)
    opinions = traj.model != "axelrod"
    ev = EventTable.of(traj.events)
    for target, t, delta_w in zip(ev.target, ev.time, ev.delta_w):
        if target != x or (opinions and delta_w == 0):
            continue  # another vertex, or an arrival that copied an equal opinion
        # The first boundary >= t closes t's window: b_{k} < t <= b_{k+1}.
        k = bisect_left(bounds, t) - 1
        if 0 <= k < len(counts):
            counts[k] += 1
    return counts
