"""Observables: edge census, domain counts, interface density, flip counts."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Configuration,
    InvalidInput,
    OpinionConfig,
    UnsupportedTopology,
    edge_overlap_count,
    is_absorbed,
)


@dataclass(frozen=True)
class EdgeCensus:
    counts: tuple  # w_0,...,w_F
    total_agreement: int  # W = sum_j j*w_j

    @property
    def n_edges(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class DomainStats:
    domain_count: int
    mean_size: Fraction


def census_from_counts(counts) -> EdgeCensus:
    counts = tuple(int(c) for c in counts)
    return EdgeCensus(counts, sum(j * c for j, c in enumerate(counts)))


def edge_census(cfg) -> EdgeCensus:
    """Count j-edges; for opinion configurations weight is agree (1) / disagree (0)."""
    if isinstance(cfg, Configuration):
        F = cfg.params.F
        counts = [0] * (F + 1)
        for u, v in cfg.topology.edges():
            counts[edge_overlap_count(cfg, u, v)] += 1
    elif isinstance(cfg, OpinionConfig):
        counts = [0, 0]
        for u, v in cfg.topology.edges():
            counts[int(cfg.opinions[u] == cfg.opinions[v])] += 1
    else:
        raise InvalidInput(f"cannot census {type(cfg).__name__}")
    return census_from_counts(counts)


def count_domains(cfg) -> DomainStats:
    """Connected components after deleting every edge with weight < F."""
    return domains_from_census(edge_census(cfg), cfg.topology)


def domains_from_census(census: EdgeCensus, topology) -> DomainStats:
    # On a path (tree) components = removed + 1; on a cycle removing k >= 1
    # edges leaves k components, and 0 removals leave the single cycle.
    removed = census.n_edges - census.counts[-1]
    n = removed + 1 if topology.kind == "path" else max(removed, 1)
    return DomainStats(n, Fraction(topology.n_vertices, n))


def domains_equals_w0_plus_1(cfg: Configuration) -> bool:
    """At absorption on a path, N_t = w_0 + 1 (tree identity)."""
    if cfg.topology.kind != "path":
        raise UnsupportedTopology("identity is tree-specific; path only")
    if not is_absorbed(cfg):
        raise InvalidInput("configuration not absorbed")
    census = edge_census(cfg)
    return count_domains(cfg).domain_count == census.counts[0] + 1


def interface_series(traj) -> list[tuple]:
    """Per-snapshot normalized census rows (t, w_0/E, ..., w_F/E)."""
    rows = []
    for snap in traj.snapshots:
        e = snap.census.n_edges
        rows.append((snap.time,) + tuple(c / e for c in snap.census.counts))
    return rows


def flip_count(traj, x: int, window_boundaries) -> list[int]:
    """Opinion changes of vertex x per window (b_{k}, b_{k+1}].

    Voter/cvm trajectories flag actual changes per event; for the
    two-feature two-state culture model every accepted update of x flips
    its projected opinion.
    """
    bounds = list(window_boundaries)
    if sorted(bounds) != bounds or len(bounds) < 2:
        raise InvalidInput("window boundaries must be sorted, length >= 2")
    counts = [0] * (len(bounds) - 1)
    for ev in traj.events:
        if ev.target != x:
            continue
        if traj.model != "axelrod" and ev.delta_w == 0:
            continue  # arrival that copied an equal opinion
        # The first boundary >= t closes t's window: b_{k} < t <= b_{k+1}.
        k = bisect_left(bounds, ev.time) - 1
        if 0 <= k < len(counts):
            counts[k] += 1
    return counts
