"""Replicated, seeded experiment orchestration and artifact emission.

Replicate r has one seed, `replicate_seeds(master_seed, n)[r]`, whose
Generator draws the initial state and then the trajectory. Aggregation runs
in replicate-index order, so results are byte-identical regardless of
worker count.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from time import perf_counter
from typing import Callable, NamedTuple

from . import bounds as bounds_mod
from .core import (CVM_ALPHABET, VOTER_ALPHABET, InvalidInput, ModelParams, Topology, check_seed,
                   random_config, random_opinions)
from .duality import arrow_log_from_trajectory, check_voter_duality
from .engine import (AXELROD, VOTER, StopRule, _rng_pair, check_run, check_times, replicate_seeds,
                     run_model)
from .logio import atomic_write_text, event_log_text, final_stats_row
from .stats import edge_census
from .urn import UrnState, urn_rounds_run


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: str = AXELROD
    F: int = 2
    q: int = 2
    topology: str = "path"
    N: int = 100  # path: edge count (N+1 vertices); cycle: vertex count
    t_max: float | None = None
    max_events: int | None = None
    replicates: int = 1
    master_seed: int = 0
    snapshot_times: tuple = ()
    attach_urn: bool = False
    save_events: bool = False
    output_dir: str | None = None
    workers: int = 1
    theta: float | None = None  # mean-field potential query point
    xyz: tuple = ()  # conditioning vertices x < y < z
    t_query: float | None = None  # query time t

    def validate(self):
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown experiment kind {self.kind!r}")
        reads = KINDS[self.kind].fields + _ALWAYS_READ
        if self.workers < 1:
            raise InvalidInput("workers must be >= 1")
        if "replicates" in reads and self.replicates < 1:
            raise InvalidInput("replicates must be >= 1")
        check_seed(self.master_seed)
        check_times(self.snapshot_times, "snapshot times")
        if self.t_query is not None:
            check_times((self.t_query,), "time t")
        if self.kind == "lemma5-estimate" and self.topology != "path":
            raise InvalidInput("lemma5-estimate runs on a path only")
        # Fields a kind does not read would be recorded in summary.json as if it had.
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                name = "F or q" if f.name in ("F", "q") else f.name
                raise InvalidInput(f"{self.kind} takes no {name}")
        if self.kind == "simulate":
            ModelParams(self.F, self.q)
            self.make_topology()
            check_run(self.model, self.stop_rule(), self.snapshot_times, self.attach_urn)
            if self.model != AXELROD and (self.F, self.q) != (2, 2):
                raise InvalidInput(f"{self.model} takes no F or q")
            if self.max_events is not None and self.snapshot_times:
                # A run cut by its event count may stop before any of them.
                raise InvalidInput("snapshot times cannot be combined with max_events")
        if self.kind == "lemma5-estimate":
            ModelParams(self.F, self.q)
            if len(self.xyz) != 3:
                raise InvalidInput("lemma5-estimate needs x,y,z")
            x, y, z = self.xyz
            if not 0 <= x < y < z <= self.N:
                raise InvalidInput("need 0 <= x < y < z <= N")
            if self.t_query is None:
                raise InvalidInput("lemma5-estimate needs a time t")
        if self.kind == "duality-check" and self.t_query is None:
            raise InvalidInput("duality-check needs a time t")

    def make_topology(self) -> Topology:
        size = self.N + 1 if self.topology == "path" else self.N
        return Topology(self.topology, size)

    def stop_rule(self) -> StopRule:
        if self.t_max is None and self.max_events is None:
            return StopRule(stop_on_absorption=True)
        return StopRule(self.t_max, self.max_events, stop_on_absorption=self.t_max is None)


@dataclass
class ExperimentSummary:
    kind: str
    config: dict
    aggregates: dict
    checks: dict
    outputs: list = field(default_factory=list)


def _mean_se(values):
    n = len(values)
    m = sum(values) / n
    if n == 1:
        return m, None
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var / n)


def _initial_draw(model: str, config: ExperimentConfig):
    """The draw `f(rng)` of an i.i.d. uniform initial state. It looks its function up
    when called, so a wrapper installed on or removed from the name takes effect."""
    topo = config.make_topology()
    if model == AXELROD:
        params = ModelParams(config.F, config.q)
        return lambda rng: random_config(params, topo, rng)
    alphabet = VOTER_ALPHABET if model == VOTER else CVM_ALPHABET
    return lambda rng: random_opinions(topo, alphabet, rng)


def _simulate_replicate(config: ExperimentConfig, r: int, seed: int) -> dict:
    traj = run_model(config.model, _initial_draw(config.model, config), config.stop_rule(), seed,
                     snapshot_times=config.snapshot_times, attach_urn=config.attach_urn)
    row = final_stats_row(traj)
    row["replicate"] = r
    row["seed"] = seed
    row["snapshots"] = [
        (s.time, s.census.counts, s.census.total_agreement, s.domains.domain_count)
        for s in traj.snapshots
    ]
    if config.save_events:
        row["event_log"] = event_log_text(traj)
    return row


def _rounds_replicate(config: ExperimentConfig, r: int, seed: int) -> dict:
    rng = _rng_pair(seed, False)[0]  # a run's Generator: the census, then the rounds
    params = ModelParams(config.F, config.q)
    census = edge_census(random_config(params, config.make_topology(), rng))
    rec = urn_rounds_run(UrnState(census.counts), params, rng)
    return {
        "replicate": r,
        "initial_boxes": census.counts,
        "round_end_steps": rec.round_end_steps,
        "box1_counts": rec.box1_counts,
        "final_b0": rec.final.boxes[0],
    }


def _duality_replicate(config: ExperimentConfig, r: int, seed: int) -> dict:
    # The pathwise duality identity is a voter-model property: the initial
    # state is a random binary opinion profile (validate rejects a model, F or q).
    traj = run_model(VOTER, _initial_draw(VOTER, config), StopRule(t_max=config.t_query), seed)
    report = check_voter_duality(arrow_log_from_trajectory(traj), traj.initial, config.t_query)
    return {"replicate": r, "mismatches": report.mismatches,
            "n_vertices": len(report.per_vertex)}


def _lemma5_replicate(config: ExperimentConfig, r: int, seed: int) -> tuple[bool, bool]:
    """(hit, success) at time t on the path {0,...,N}: feature 0 of y differs
    from those of x and z, and those of x and z agree."""
    draw = _initial_draw(AXELROD, config)
    final = run_model(AXELROD, draw, StopRule(t_max=config.t_query), seed).final
    fx, fy, fz = (final.state[v * config.F] for v in config.xyz)
    hit = fy != fx and fy != fz
    return hit, hit and fx == fz


# Serial seconds of replicate work below which a process pool does not pay.
# On a 2-core host (Python 3.11.7, fork start) a 2-worker pool finished 20
# busy-wait tasks of 2.5 to 10 ms about 30 ms later than half their serial
# time, so it wins only on more than twice that.
POOL_BREAK_EVEN_S = 0.06


def _map_replicates(fn, config: ExperimentConfig):
    """fn(config, r, seed) for every replicate r and its seed, in replicate order.

    Replicate 0 runs here and is timed; the rest go to a process pool, one
    contiguous task per worker, only when that time, times the replicates
    left, exceeds POOL_BREAK_EVEN_S.
    """
    n = config.replicates
    seeds = replicate_seeds(config.master_seed, n)
    workers = min(config.workers, n, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(config, r, seed) for r, seed in enumerate(seeds)]
    start = perf_counter()
    rows = [fn(config, 0, seeds[0])]
    if (perf_counter() - start) * (n - 1) <= POOL_BREAK_EVEN_S:
        return rows + [fn(config, r, seeds[r]) for r in range(1, n)]
    from concurrent.futures import ProcessPoolExecutor  # imported only when a pool starts
    with ProcessPoolExecutor(max_workers=workers) as pool:
        rows += pool.map(fn, [config] * (n - 1), range(1, n), seeds[1:],
                         chunksize=-(-(n - 1) // workers))
    return rows


def _emit(summary: ExperimentSummary, config: ExperimentConfig, extra_files: dict):
    if config.output_dir is None:
        return
    os.makedirs(config.output_dir, exist_ok=True)
    # Outputs are recorded as basenames so summary.json is byte-identical
    # across runs that only differ in where they write.
    for name, text in extra_files.items():
        atomic_write_text(os.path.join(config.output_dir, name), text)
        summary.outputs.append(name)
    summary.outputs.append("summary.json")
    atomic_write_text(os.path.join(config.output_dir, "summary.json"),
                      json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n")


def _simulate(config: ExperimentConfig) -> tuple[dict, dict, dict]:
    rows = _map_replicates(_simulate_replicate, config)
    n_edges = config.make_topology().n_edges
    absorbed = [row for row in rows if row["absorbed"]]
    agg = {
        "replicates": config.replicates,
        "n_absorbed": len(absorbed),
        "n_not_absorbed": config.replicates - len(absorbed),
        "n_edges": n_edges,
    }
    checks = {}
    if absorbed:
        nd, nd_se = _mean_se([row["N_domains"] / n_edges for row in absorbed])
        w0, w0_se = _mean_se([row["w_counts"][0] / n_edges for row in absorbed])
        agg.update(mean_domains_per_edge=nd, se_domains_per_edge=nd_se, mean_w0_per_edge=w0,
                   se_w0_per_edge=w0_se)
        if config.attach_urn:
            b0, b0_se = _mean_se([row["urn_boxes"][0] / n_edges for row in absorbed])
            agg.update(mean_b0_per_edge=b0, se_b0_per_edge=b0_se)
            agg["urn_b0_violations"] = sum(r["urn_b0_violations"] for r in rows)
            agg["urn_potential_violations"] = sum(r["urn_potential_violations"] for r in rows)
            checks["urn_pathwise_b0_le_w0"] = agg["urn_b0_violations"] == 0
            checks["urn_pathwise_beta_ge_eps"] = agg["urn_potential_violations"] == 0
            removed_mean = _mean_se(
                [(n_edges - row["w_counts"][-1]) / n_edges for row in absorbed])[0]
            checks["chain_b0_le_w0_le_domains"] = b0 <= w0 + 1e-12 <= removed_mean + 1e-12
        if config.model == AXELROD and config.F != config.q:
            b = bounds_mod.theorem2_bound(config.F, config.q)
            agg["theorem2_lower_bound"] = b.lower_bound_density
            margin = 3 * nd_se if nd_se is not None else 0.0
            agg["bound_margin_3se"] = margin
            checks["mean_domains_ge_bound_minus_3se"] = (
                nd >= b.lower_bound_density - margin)
    files = {"aggregate.csv": _aggregate_csv(rows, config)}
    if config.snapshot_times:
        files["snapshots_mean.csv"] = _snapshot_mean_csv(rows, n_edges)
    if config.save_events:
        for row in rows:
            files[f"events_{row['replicate']:05d}.csv"] = row.pop("event_log")
    return agg, checks, files


def _aggregate_csv(rows, config: ExperimentConfig) -> str:
    urn = config.attach_urn
    header = "replicate,seed,absorbed,end_time,n_events,N_domains,W," + ",".join(
        f"w_{j}" for j in range(len(rows[0]["w_counts"])))
    if urn:
        header += "," + ",".join(f"B_{j}" for j in range(len(rows[0]["urn_boxes"])))
    lines = [header]
    for row in rows:
        line = (f"{row['replicate']},{row['seed']},{int(row['absorbed'])},"
                f"{row['end_time']!r},{row['n_events']},{row['N_domains']},{row['W']},"
                + ",".join(str(c) for c in row["w_counts"]))
        if urn:
            line += "," + ",".join(str(b) for b in row["urn_boxes"])
        lines.append(line)
    return "\n".join(lines) + "\n"


def _snapshot_mean_csv(rows, n_edges: int) -> str:
    depth = min(len(row["snapshots"]) for row in rows)
    width = len(rows[0]["w_counts"])  # F + 1 for the culture model, 2 for opinions
    lines = ["t," + ",".join(f"mean_w_{j}_frac" for j in range(width))
             + ",mean_W,mean_N_domains"]
    for k in range(depth):
        t = rows[0]["snapshots"][k][0]
        counts = [row["snapshots"][k][1] for row in rows]
        mean_fracs = [sum(c[j] for c in counts) / (len(counts) * n_edges)
                      for j in range(width)]
        mean_w = sum(row["snapshots"][k][2] for row in rows) / len(rows)
        mean_nd = sum(row["snapshots"][k][3] for row in rows) / len(rows)
        lines.append(f"{t!r}," + ",".join(repr(v) for v in mean_fracs)
                     + f",{mean_w!r},{mean_nd!r}")
    return "\n".join(lines) + "\n"


def _urn_rounds(config: ExperimentConfig) -> tuple[dict, dict, dict]:
    rows = _map_replicates(_rounds_replicate, config)
    n_edges = config.make_topology().n_edges
    b0, b0_se = _mean_se([row["final_b0"] / n_edges for row in rows])
    agg = {"replicates": config.replicates, "n_edges": n_edges,
           "mean_final_b0_per_edge": b0, "se_final_b0_per_edge": b0_se}
    checks = {}
    if config.F < config.q:
        rexp = bounds_mod.rounds_expectations(n_edges, config.F, config.q)
        agg["closed_form_limit"] = rexp.closed_form_limit
        margin = 3 * b0_se if b0_se is not None else 0.0
        checks["mean_b0_ge_limit_minus_3se"] = b0 >= rexp.closed_form_limit - margin
    return agg, checks, {"urn_rounds.json": json.dumps(rows, indent=2, sort_keys=True) + "\n"}


def _duality_check(config: ExperimentConfig) -> tuple[dict, dict, dict]:
    rows = _map_replicates(_duality_replicate, config)
    total_mismatch = sum(row["mismatches"] for row in rows)
    agg = {"replicates": config.replicates, "total_mismatches": total_mismatch,
           "all_true_logs": sum(1 for row in rows if row["mismatches"] == 0)}
    checks = {"pathwise_duality_all_true": total_mismatch == 0}
    files = {"duality_report.json": json.dumps(
        {"replicates": rows, "total_mismatches": total_mismatch},
        indent=2, sort_keys=True) + "\n"}
    return agg, checks, files


@dataclass(frozen=True)
class ConditionalEstimate:
    estimate: float | None  # None when no replicate hit the conditioning event
    std_error: float | None
    hits: int
    successes: int
    replicates: int

    @property
    def defined(self) -> bool:
        return self.hits > 0


def _conditional_estimate(config: ExperimentConfig) -> ConditionalEstimate:
    rows = _map_replicates(_lemma5_replicate, config)
    hits = sum(hit for hit, _ in rows)
    successes = sum(success for _, success in rows)
    if hits == 0:
        return ConditionalEstimate(None, None, 0, 0, config.replicates)
    p = successes / hits
    se = (p * (1 - p) / hits) ** 0.5
    return ConditionalEstimate(p, se, hits, successes, config.replicates)


def estimate_lemma_0edge_probability(params: ModelParams, N: int, x: int, y: int,
                                     z: int, t: float, replicates: int,
                                     seed: int) -> ConditionalEstimate:
    """Monte Carlo estimate of P(feature-0 of x equals feature-0 of z | the
    feature-0 of y differs from both) at time t on the path {0,...,N}."""
    config = ExperimentConfig(kind="lemma5-estimate", F=params.F, q=params.q, N=N,
                              xyz=(x, y, z), t_query=t, replicates=replicates,
                              master_seed=seed)
    config.validate()
    return _conditional_estimate(config)


def _lemma5(config: ExperimentConfig) -> tuple[dict, dict, dict]:
    est = _conditional_estimate(config)
    target = 1.0 / (config.q - 1)
    agg = {"estimate": est.estimate, "std_error": est.std_error, "hits": est.hits,
           "successes": est.successes, "replicates": est.replicates,
           "target": target, "defined": est.defined}
    checks = {}
    if est.defined and est.std_error is not None:
        checks["within_3se_of_target"] = abs(est.estimate - target) <= max(
            3 * est.std_error, 1e-12)
    return agg, checks, {"lemma5_estimate.json": json.dumps(agg, indent=2, sort_keys=True) + "\n"}


def _bounds_query(config: ExperimentConfig) -> tuple[dict, dict, dict]:
    agg = {}
    if config.theta is not None:
        agg["theta"] = config.theta
        agg["psi"] = bounds_mod.psi_mean_field(config.theta)
    else:
        b = bounds_mod.theorem2_bound(config.F, config.q)
        agg.update({"F": config.F, "q": config.q,
                    "lower_bound_density": b.lower_bound_density,
                    "domain_length_upper": b.domain_length_upper,
                    "in_hypothesis": b.in_hypothesis})
    return agg, {}, {"bounds.json": json.dumps(agg, indent=2, sort_keys=True) + "\n"}


def _table1(config: ExperimentConfig) -> tuple[dict, dict, dict]:
    table = bounds_mod.table1_generate()
    agg = {"fs": table.fs, "qs": table.qs, "cells": table.cells}
    return agg, {}, {"table1.csv": table.render_csv()}


def _config_dict(config: ExperimentConfig) -> dict:
    # Scheduling/placement knobs do not affect results and are excluded so
    # reruns are byte-identical regardless of worker count or target dir.
    return {k: v for k, v in asdict(config).items() if k not in ("workers", "output_dir")}


class Kind(NamedTuple):
    run: Callable  # config -> (aggregates, checks, {file name: text})
    fields: tuple  # the ExperimentConfig fields it reads, besides _ALWAYS_READ
    help: str


# Every experiment kind, in the CLI's order. A kind's fields are also its CLI flags, in order.
KINDS = {
    "simulate": Kind(_simulate, ("model", "F", "q", "topology", "N", "replicates", "t_max",
                                 "max_events", "snapshot_times", "attach_urn", "save_events"),
                     "replicated trajectories with aggregation"),
    "bounds": Kind(_bounds_query, ("F", "q", "theta"), "single bound / psi query"),
    "table1": Kind(_table1, (), "full reference table (CSV + text)"),
    "urn-rounds": Kind(_urn_rounds, ("F", "q", "N", "replicates"),
                       "standalone rounds-urn replicates"),
    "duality-check": Kind(_duality_check, ("topology", "N", "t_query", "replicates"),
                          "pathwise voter duality over seeds"),
    "lemma5-estimate": Kind(_lemma5, ("F", "q", "N", "xyz", "t_query", "replicates"),
                            "conditional feature-agreement probability on a path"),
}
_ALWAYS_READ = ("kind", "master_seed", "workers", "output_dir")


def execute(config: ExperimentConfig) -> ExperimentSummary:
    """Run one experiment; deterministic given the master seed."""
    config.validate()
    aggregates, checks, files = KINDS[config.kind].run(config)
    summary = ExperimentSummary(config.kind, _config_dict(config), aggregates, checks)
    _emit(summary, config, files)
    return summary
