"""Replicated, seeded experiment orchestration and artifact emission.

Replicate r always draws from a stream derived from (master_seed, r), and
aggregation runs in replicate-index order, so results are byte-identical
regardless of worker count.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from . import bounds as bounds_mod
from .core import InvalidInput, ModelParams, OpinionConfig, Topology, random_config
from .duality import (
    arrow_log_from_trajectory,
    check_voter_duality,
    estimate_lemma_0edge_probability,
)
from .engine import AXELROD, MODELS, VOTER, StopRule, replicate_seeds, run_model
from .logio import atomic_write_text, event_log_text, final_stats_row
from .stats import edge_census
from .urn import UrnState, urn_rounds_run

EXPERIMENT_KINDS = ("simulate", "bounds", "urn-rounds", "duality-check",
                    "lemma5-estimate", "table1")


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
    theta: float | None = None  # bounds query
    xyz: tuple = ()  # lemma5 conditioning vertices
    t_query: float | None = None  # lemma5 / duality time

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidInput(f"unknown experiment kind {self.kind!r}")
        if self.workers < 1:
            raise InvalidInput("workers must be >= 1")
        if self.kind == "simulate" and self.model not in MODELS:
            raise InvalidInput(f"unknown model {self.model!r}")
        if self.kind == "simulate":
            ModelParams(self.F, self.q)
            self.make_topology()
            StopRule(self.t_max, self.max_events,
                     stop_on_absorption=self.t_max is None and self.max_events is None)
            if self.replicates < 1:
                raise InvalidInput("replicates must be >= 1")
            if self.t_max is not None and any(s > self.t_max for s in self.snapshot_times):
                raise InvalidInput(f"snapshot times beyond t_max={self.t_max}")
            if self.max_events is not None and self.snapshot_times:
                # A run cut by its event count may stop before any of them.
                raise InvalidInput("snapshot times cannot be combined with max_events")
            if self.attach_urn and self.model != AXELROD:
                raise InvalidInput("urn coupling applies to the culture model only")
        if self.kind == "lemma5-estimate":
            if len(self.xyz) != 3:
                raise InvalidInput("lemma5-estimate needs x,y,z")
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
    if n == 0:
        return None, None
    m = sum(values) / n
    if n == 1:
        return m, None
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var / n)


def _random_initial(model: str, config: ExperimentConfig, seed: int):
    topo = config.make_topology()
    if model == AXELROD:
        return random_config(ModelParams(config.F, config.q), topo, seed)
    rng = np.random.default_rng(seed)
    if model == VOTER:
        ops = tuple(int(v) for v in rng.integers(0, 2, size=topo.n_vertices))
        return OpinionConfig(topo, ops, (0, 1))
    ops = tuple(int(v) for v in rng.integers(-1, 2, size=topo.n_vertices))
    return OpinionConfig(topo, ops, (-1, 0, 1))


def _simulate_replicate(config: ExperimentConfig, r: int) -> dict:
    init_seed, run_seed = replicate_seeds(config.master_seed, r)
    initial = _random_initial(config.model, config, init_seed)
    traj = run_model(config.model, initial, config.stop_rule(), run_seed,
                     snapshot_times=config.snapshot_times,
                     attach_urn=config.attach_urn)
    row = final_stats_row(traj)
    row["replicate"] = r
    row["seed"] = run_seed
    row["snapshots"] = [
        (s.time, s.census.counts, s.census.total_agreement, s.domains.domain_count)
        for s in traj.snapshots
    ]
    if config.save_events:
        row["event_log"] = event_log_text(traj)
    return row


def _rounds_replicate(config: ExperimentConfig, r: int) -> dict:
    init_seed, run_seed = replicate_seeds(config.master_seed, r)
    params = ModelParams(config.F, config.q)
    census = edge_census(random_config(params, config.make_topology(), init_seed))
    rec = urn_rounds_run(UrnState(census.counts), params, run_seed)
    return {
        "replicate": r,
        "initial_boxes": census.counts,
        "round_end_steps": rec.round_end_steps,
        "box1_counts": rec.box1_counts,
        "final_b0": rec.final.boxes[0],
    }


def _duality_replicate(config: ExperimentConfig, r: int) -> dict:
    # The pathwise duality identity is a voter-model property; the initial
    # state is a random binary opinion profile regardless of config.model.
    init_seed, run_seed = replicate_seeds(config.master_seed, r)
    initial = _random_initial(VOTER, config, init_seed)
    traj = run_model(VOTER, initial, StopRule(t_max=config.t_query), run_seed)
    report = check_voter_duality(arrow_log_from_trajectory(traj), initial, config.t_query)
    return {"replicate": r, "mismatches": report.mismatches,
            "n_vertices": len(report.per_vertex)}


# Serial seconds of replicate work below which a process pool does not pay.
# On a 2-core host (Python 3.11.7, fork start) a 2-worker pool finished 20
# busy-wait tasks of 2.5 to 10 ms about 30 ms later than half their serial
# time, so it wins only on more than twice that.
POOL_BREAK_EVEN_S = 0.06
MAX_CHUNK = 16  # replicates per pool task; larger chunks add little on short runs


def _chunksize(n: int, workers: int) -> int:
    """At most MAX_CHUNK, with a chunk count that is a multiple of `workers`
    where possible, so the workers' shares differ by at most one chunk."""
    rounds = -(-n // (workers * MAX_CHUNK))
    return -(-n // (workers * rounds))


def _map_replicates(fn, config: ExperimentConfig):
    """fn(config, r) for every replicate r, in replicate order.

    Replicate 0 runs here and is timed; the rest go to a process pool only
    when that time, times the replicates left, exceeds POOL_BREAK_EVEN_S.
    """
    n = config.replicates
    workers = min(config.workers, n, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(config, r) for r in range(n)]
    start = perf_counter()
    rows = [fn(config, 0)]
    if (perf_counter() - start) * (n - 1) <= POOL_BREAK_EVEN_S:
        return rows + [fn(config, r) for r in range(1, n)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        rows += pool.map(fn, [config] * (n - 1), range(1, n),
                         chunksize=_chunksize(n - 1, workers))
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


def _simulate(config: ExperimentConfig) -> ExperimentSummary:
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
        agg["mean_domains_per_edge"] = nd
        agg["se_domains_per_edge"] = nd_se
        agg["mean_w0_per_edge"] = w0
        agg["se_w0_per_edge"] = w0_se
        if config.attach_urn:
            b0, b0_se = _mean_se([row["urn_boxes"][0] / n_edges for row in absorbed])
            agg["mean_b0_per_edge"] = b0
            agg["se_b0_per_edge"] = b0_se
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
    summary = ExperimentSummary("simulate", _config_dict(config), agg, checks)
    _emit(summary, config, files)
    return summary


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


def _urn_rounds(config: ExperimentConfig) -> ExperimentSummary:
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
    files = {"urn_rounds.json": json.dumps(rows, indent=2, sort_keys=True) + "\n"}
    summary = ExperimentSummary("urn-rounds", _config_dict(config), agg, checks)
    _emit(summary, config, files)
    return summary


def _duality_check(config: ExperimentConfig) -> ExperimentSummary:
    rows = _map_replicates(_duality_replicate, config)
    total_mismatch = sum(row["mismatches"] for row in rows)
    agg = {"replicates": config.replicates, "total_mismatches": total_mismatch,
           "all_true_logs": sum(1 for row in rows if row["mismatches"] == 0)}
    checks = {"pathwise_duality_all_true": total_mismatch == 0}
    files = {"duality_report.json": json.dumps(
        {"replicates": rows, "total_mismatches": total_mismatch},
        indent=2, sort_keys=True) + "\n"}
    summary = ExperimentSummary("duality-check", _config_dict(config), agg, checks)
    _emit(summary, config, files)
    return summary


def _lemma5(config: ExperimentConfig) -> ExperimentSummary:
    x, y, z = config.xyz
    est = estimate_lemma_0edge_probability(
        ModelParams(config.F, config.q), config.N, x, y, z, config.t_query,
        config.replicates, config.master_seed)
    target = 1.0 / (config.q - 1)
    agg = {"estimate": est.estimate, "std_error": est.std_error, "hits": est.hits,
           "successes": est.successes, "replicates": est.replicates,
           "target": target, "defined": est.defined}
    checks = {}
    if est.defined and est.std_error is not None:
        checks["within_3se_of_target"] = abs(est.estimate - target) <= max(
            3 * est.std_error, 1e-12)
    files = {"lemma5_estimate.json": json.dumps(agg, indent=2, sort_keys=True) + "\n"}
    summary = ExperimentSummary("lemma5-estimate", _config_dict(config), agg, checks)
    _emit(summary, config, files)
    return summary


def _bounds_query(config: ExperimentConfig) -> ExperimentSummary:
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
    summary = ExperimentSummary("bounds", _config_dict(config), agg, {})
    _emit(summary, config, {"bounds.json": json.dumps(agg, indent=2, sort_keys=True) + "\n"})
    return summary


def _table1(config: ExperimentConfig) -> ExperimentSummary:
    table = bounds_mod.table1_generate()
    agg = {"fs": table.fs, "qs": table.qs, "cells": table.cells}
    summary = ExperimentSummary("table1", _config_dict(config), agg, {})
    _emit(summary, config, {"table1.csv": table.render_csv()})
    return summary


def _config_dict(config: ExperimentConfig) -> dict:
    # Scheduling/placement knobs do not affect results and are excluded so
    # reruns are byte-identical regardless of worker count or target dir.
    d = asdict(config)
    d.pop("workers")
    d.pop("output_dir")
    return d


def execute(config: ExperimentConfig) -> ExperimentSummary:
    """Run one experiment; deterministic given the master seed."""
    config.validate()
    dispatch = {
        "simulate": _simulate,
        "urn-rounds": _urn_rounds,
        "duality-check": _duality_check,
        "lemma5-estimate": _lemma5,
        "bounds": _bounds_query,
        "table1": _table1,
    }
    return dispatch[config.kind](config)
