"""Replicated, seeded experiment orchestration and artifact emission.

Replicate r has one seed, `replicate_seeds(master_seed, n)[r]`, whose
Generator draws the initial state and then the trajectory; it is built from
the seed's child words, derived for all replicates at once. Aggregation runs
in replicate-index order, so results are byte-identical regardless of
worker count.
"""
from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, partial
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as bounds_mod
from .core import (InvalidInput, ModelParams, Topology, check_int, check_seed, is_int,
                   random_config, random_opinions)
from .duality import arrow_log_from_trajectory, check_voter_duality
from .engine import (AXELROD, MODELS, VOTER, Seeded, StopRule, _rng_pair, check_run,
                     check_times, child_words, replicate_seeds, run_model)
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

    def __post_init__(self):
        # Stored as Python numbers, which the json and csv writers can print;
        # a list or 1-D array for a tuple field as a tuple of them.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple) and (
                    isinstance(value, list) or isinstance(value, np.ndarray) and value.ndim == 1):
                value = tuple(value)
            plain = tuple(map(_plain, value)) if isinstance(value, tuple) else _plain(value)
            object.__setattr__(self, f.name, plain)

    def validate(self):
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown experiment kind {self.kind!r}")
        reads = KINDS[self.kind].fields + _ALWAYS_READ
        for name in ("workers", "replicates", "N"):
            if name in reads:
                check_int(name, getattr(self, name))
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
        defaults = {f.name: f.default for f in fields(self)}
        for name, default in defaults.items():
            if name not in reads and getattr(self, name) != default:
                name = "F or q" if name in ("F", "q") else name
                raise InvalidInput(f"{self.kind} takes no {name}")
        moved_F_or_q = (self.F, self.q) != (defaults["F"], defaults["q"])
        if self.kind == "simulate":
            ModelParams(self.F, self.q)
            self.make_topology()
            check_run(self.model, self.stop_rule(), self.snapshot_times, self.attach_urn)
            if self.model != AXELROD and moved_F_or_q:
                raise InvalidInput(f"{self.model} takes no F or q")
            if self.max_events is not None and self.snapshot_times:
                # A run cut by its event count may stop before any of them.
                raise InvalidInput("snapshot times cannot be combined with max_events")
        if self.kind == "lemma5-estimate":
            ModelParams(self.F, self.q)
            if len(self.xyz) != 3:
                raise InvalidInput("lemma5-estimate needs x,y,z")
            if not all(map(is_int, self.xyz)):
                raise InvalidInput(f"x, y and z must be integers, got {self.xyz}")
            x, y, z = self.xyz
            if not 0 <= x < y < z <= self.N:
                raise InvalidInput("need 0 <= x < y < z <= N")
            if self.t_query is None:
                raise InvalidInput("lemma5-estimate needs a time t")
        if self.kind == "bounds" and self.theta is not None:
            if not isinstance(self.theta, numbers.Real):
                raise InvalidInput(f"theta must be a real number, got {self.theta!r}")
            if moved_F_or_q:  # the theta query reads neither
                raise InvalidInput("bounds with theta takes no F or q")
        if self.kind == "duality-check" and self.t_query is None:
            raise InvalidInput("duality-check needs a time t")

    def make_topology(self) -> Topology:
        size = self.N + 1 if self.topology == "path" else self.N
        return Topology(self.topology, size)

    def stop_rule(self) -> StopRule:
        if self.t_max is None and self.max_events is None:
            return StopRule(stop_on_absorption=True)
        return StopRule(self.t_max, self.max_events, stop_on_absorption=self.t_max is None)

    @cached_property
    def setup(self) -> Setup:
        """What its replicates share, built on first use and kept with the config,
        so a pool's workers receive it pickled with the config."""
        model = VOTER if self.kind == "duality-check" else self.model
        topo = self.make_topology()
        draw = (partial(_draw_culture, ModelParams(self.F, self.q), topo) if model == AXELROD
                else partial(_draw_opinions, MODELS[model], topo))
        stop = self.stop_rule() if self.t_query is None else StopRule(t_max=self.t_query)
        return Setup(model, draw, stop, tuple(sorted(self.snapshot_times)))


def _plain(value):
    """A numpy bool, integer or real as the Python bool, int or float; any
    other value as it is."""
    for numpy_type, python_type in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
        if isinstance(value, numpy_type):
            return python_type(value)
    return value


class Setup(NamedTuple):
    """An experiment's replicates share these; `ExperimentConfig.setup` builds them."""
    model: str  # the model its replicates run
    draw: Callable  # f(rng) -> an i.i.d. uniform initial state
    stop: StopRule  # simulate's stop rule, or t_max = t_query
    times: tuple  # the snapshot times, sorted


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


# The draws of `Setup`. Each looks its function up when called, so a wrapper
# installed on or removed from the name takes effect.
def _draw_culture(params, topo, rng):
    return random_config(params, topo, rng)


def _draw_opinions(alphabet, topo, rng):
    return random_opinions(topo, alphabet, rng)


def _simulate_replicate(config: ExperimentConfig, r: int, seed: int | Seeded) -> dict:
    setup = config.setup
    traj = run_model(setup.model, setup.draw, setup.stop, seed, snapshot_times=setup.times,
                     attach_urn=config.attach_urn)
    row = final_stats_row(traj)
    row["replicate"] = r
    row["seed"] = traj.seed
    row["snapshots"] = [
        (s.time, s.census.counts, s.census.total_agreement, s.domains.domain_count)
        for s in traj.snapshots
    ]
    if config.save_events:
        row["event_log"] = event_log_text(traj)
    return row


def _rounds_replicate(config: ExperimentConfig, r: int, seed: int | Seeded) -> dict:
    rng = _rng_pair(seed, False)[0]  # a run's Generator: the census, then the rounds
    census = edge_census(config.setup.draw(rng))
    rec = urn_rounds_run(UrnState(census.counts), ModelParams(config.F, config.q), rng)
    return {
        "replicate": r,
        "initial_boxes": census.counts,
        "round_end_steps": rec.round_end_steps,
        "box1_counts": rec.box1_counts,
        "final_b0": rec.final.boxes[0],
    }


def _duality_replicate(config: ExperimentConfig, r: int, seed: int | Seeded) -> dict:
    # The pathwise duality identity is a voter-model property: the initial
    # state is a random binary opinion profile (validate rejects a model, F or q).
    setup = config.setup
    traj = run_model(setup.model, setup.draw, setup.stop, seed)
    report = check_voter_duality(arrow_log_from_trajectory(traj), traj.initial, config.t_query)
    return {"replicate": r, "mismatches": report.mismatches,
            "n_vertices": len(report.per_vertex)}


def _lemma5_replicate(config: ExperimentConfig, r: int,
                      seed: int | Seeded) -> tuple[bool, bool]:
    """(hit, success) at time t on the path {0,...,N}: feature 0 of y differs
    from those of x and z, and those of x and z agree."""
    setup = config.setup
    final = run_model(setup.model, setup.draw, setup.stop, seed).final
    fx, fy, fz = (final.state[v * config.F] for v in config.xyz)
    hit = fy != fx and fy != fz
    return hit, hit and fx == fz


# Serial seconds of replicate work below which a process pool does not pay.
# On a 2-core host (Python 3.11.7, fork start) a 2-worker pool finished 20
# busy-wait tasks of 2.5 to 10 ms about 30 ms later than half their serial
# time, so it wins only on more than twice that.
POOL_BREAK_EVEN_S = 0.06


def _map_replicates(fn, config: ExperimentConfig):
    """fn(config, r, seed) for every replicate r and its `Seeded` seed, in
    replicate order; the seeds carry their children's words, key 1's too
    when the urn is attached.

    The shared setup is built first; then replicate 0 runs here and is
    timed. Replicates 1..n-1 split into contiguous tasks, at most one per
    worker. When they make two tasks or more and replicate 0's time, times
    their number, exceeds POOL_BREAK_EVEN_S, a pool of one worker per task
    but the first runs the others while this process runs the first.
    """
    n = config.replicates
    seeds = replicate_seeds(config.master_seed, n)
    seeds = list(map(Seeded, seeds, child_words(seeds, 1 + config.attach_urn)))
    chunk = max(1, -(-(n - 1) // min(config.workers, n, os.cpu_count() or 1)))
    tasks = -(-(n - 1) // chunk)
    if tasks <= 1:
        return [fn(config, r, seed) for r, seed in enumerate(seeds)]
    config.setup  # built before the clock starts, so replicate 0 takes a steady time
    start = perf_counter()
    rows = [fn(config, 0, seeds[0])]
    if (perf_counter() - start) * (n - 1) <= POOL_BREAK_EVEN_S:
        return rows + [fn(config, r, seeds[r]) for r in range(1, n)]
    from concurrent.futures import ProcessPoolExecutor  # imported only when a pool starts
    mine = chunk + 1  # replicate 0 and the first task
    with ProcessPoolExecutor(max_workers=tasks - 1) as pool:
        # This process waits for a no-op sent ahead of the tasks, so that the
        # pool's threads here send the tasks while it is idle: busy with its
        # own share, it would hand them the GIL once a switch interval (5 ms).
        ahead = pool.submit(int)
        theirs = pool.map(fn, [config] * (n - mine), range(mine, n), seeds[mine:],
                          chunksize=chunk)
        ahead.result()
        rows += [fn(config, r, seeds[r]) for r in range(1, mine)]
        rows += theirs
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


def _lemma5(config: ExperimentConfig) -> tuple[dict, dict, dict]:
    """Monte Carlo estimate of P(feature 0 of x equals feature 0 of z | feature 0
    of y differs from both) at time t on the path {0,...,N}."""
    rows = _map_replicates(_lemma5_replicate, config)
    hits = sum(hit for hit, _ in rows)
    successes = sum(success for _, success in rows)
    target = 1.0 / (config.q - 1)
    p = se = None  # undefined when no replicate hit the conditioning event
    checks = {}
    if hits:
        p = successes / hits
        se = (p * (1 - p) / hits) ** 0.5
        checks["within_3se_of_target"] = abs(p - target) <= max(3 * se, 1e-12)
    agg = {"estimate": p, "std_error": se, "hits": hits, "successes": successes,
           "replicates": config.replicates, "target": target, "defined": hits > 0}
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
