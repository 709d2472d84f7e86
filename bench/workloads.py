"""The three benchmark workloads.

A workload turns a unit seed into axsim inputs, runs them through the public
API (`run`, the timed part) and checks what came out (`check`, untimed).
Checks use invariants and statistical bounds only, never a digest of the
outputs, so a change that alters the random stream but keeps the law still
passes. Each check is one operation of `fail_frac`.
"""
from __future__ import annotations

import csv
import glob
import json
import os
import random

from axsim import core, duality, engine, experiments, logio, stats


class Ops:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def _execute(kwargs: dict, seed: int, workers: int, outdir: str):
    experiments.execute(experiments.ExperimentConfig(
        master_seed=seed, workers=workers, output_dir=outdir, **kwargs))


def _summary(outdir: str, ops: Ops) -> dict:
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    ops.check(all(summary["checks"].values()), f"{outdir}: checks {summary['checks']}")
    return summary


def _rows(outdir: str) -> list[dict]:
    with open(os.path.join(outdir, "aggregate.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    workers = 1
    # (subdirectory, ExperimentConfig fields) for each `execute` call of a unit.
    calls: tuple = ()

    def run(self, seed: int, workers: int, outdir: str):
        for sub, kwargs in self.calls:
            _execute(kwargs, seed, workers, os.path.join(outdir, sub))

    def check(self, seed: int, outdir: str, out, ops: Ops) -> int:
        """Check the unit's outputs; returns the accepted events it produced."""
        events = 0
        for sub, _ in self.calls:
            _summary(os.path.join(outdir, sub), ops)
            events += sum(int(r["n_events"]) for r in _rows(os.path.join(outdir, sub)))
        return events


class Absorb(Workload):
    """Theorem-2 runs to absorption with the coupled urn (README command)."""
    name = "absorb"
    calls = tuple(
        (f"F{F}q{q}", dict(kind="simulate", model="axelrod", F=F, q=q, topology="path",
                           N=200, replicates=50, attach_urn=True))
        for F, q in ((2, 4), (3, 12)))

    def check(self, seed, outdir, out, ops):
        events = 0
        for sub, _ in self.calls:
            d = os.path.join(outdir, sub)
            agg = _summary(d, ops)["aggregates"]
            ops.check(agg["urn_b0_violations"] == 0 and agg["urn_potential_violations"] == 0,
                      f"{d}: urn violations {agg}")
            for r in _rows(d):
                w0 = int(r["w_0"])
                ops.check(r["absorbed"] == "1" and int(r["N_domains"]) == w0 + 1
                          and int(r["B_0"]) <= w0, f"{d}: replicate {r}")
                events += int(r["n_events"])
        return events


class ShortRuns(Workload):
    """Many short lemma-5 runs: per-replicate overhead and the process pool."""
    name = "short-runs"
    workers = 2
    calls = (("lemma5", dict(kind="simulate", model="axelrod", F=2, q=5, topology="path",
                             N=40, t_max=3.0, snapshot_times=(1.0, 2.0),
                             replicates=1000)),)


class BigPath(Workload):
    """One run to absorption on a long path, its event log written, reloaded and replayed."""
    calls = (("path", dict(kind="simulate", model="axelrod", F=3, q=12, topology="path",
                           N=20_000, replicates=1, save_events=True)),)

    def run(self, seed, workers, outdir):
        super().run(seed, workers, outdir)
        (path,) = glob.glob(os.path.join(outdir, "path", "events_*.csv"))
        bundle = logio.load_event_log(path)
        return bundle, logio.replay(bundle.initial, bundle.events, bundle.model)

    def check(self, seed, outdir, out, ops):
        bundle, final = out
        d = os.path.join(outdir, "path")
        _summary(d, ops)
        (row,) = _rows(d)
        census = stats.edge_census(final)
        w = [int(row[f"w_{j}"]) for j in range(len(census.counts))]
        ops.check(bundle.absorbed and row["absorbed"] == "1"
                  and len(bundle.events) == int(row["n_events"])
                  and list(census.counts) == w
                  and stats.count_domains(final).domain_count == int(row["N_domains"]),
                  f"{d}: replay of the reloaded log disagrees with {row}")
        return int(row["n_events"])


class Dual(Workload):
    """Voter duality check plus per-feature lineage tracing on culture logs."""
    calls = (("voter", dict(kind="duality-check", topology="cycle", N=32, t_query=10.0,
                            replicates=20)),)
    # Culture logs traced for every vertex and feature (criterion-09 kind of run).
    F, Q, VERTICES, T, LOGS = 2, 2, 257, 10.0, 20

    def run(self, seed, workers, outdir):
        super().run(seed, workers, outdir)
        params = core.ModelParams(self.F, self.Q)
        topo = core.Topology("path", self.VERTICES)
        stop = engine.StopRule(t_max=self.T)
        rng = random.Random(seed)
        ends, events = [], 0
        for _ in range(self.LOGS):
            cfg = core.random_config(params, topo, rng.getrandbits(32))
            traj = engine.run_model(engine.AXELROD, cfg, stop, rng.getrandbits(32))
            log = duality.arrow_log_from_trajectory(traj)
            ends.append([[duality.trace_lineage(log, i, u, traj.end_time).end_vertex
                          for u in range(self.VERTICES)] for i in range(self.F)])
            events += len(traj.events)
        return ends, events

    def check(self, seed, outdir, out, ops):
        ends, events = out
        d = os.path.join(outdir, "voter")
        _summary(d, ops)
        with open(os.path.join(d, "duality_report.json")) as fh:
            mismatches = json.load(fh)["total_mismatches"]
        ops.check(mismatches == 0, f"{d}: {mismatches} duality mismatches")
        for k, per_feature in enumerate(ends):
            ops.check(all(a <= b for e in per_feature for a, b in zip(e, e[1:])),
                      f"culture log {k}: lineage endpoints cross")
        return events


class Logs(Workload):
    """Every consumer of a recorded log: a long path's event log written,
    reloaded and replayed, then voter duality and culture lineage tracing.

    One workload rather than two leaves time, within the benchmark's budget,
    for longer runs, which the host's bursts of speed call for.
    """
    name = "logs"
    parts = (BigPath(), Dual())
    calls = BigPath.calls + Dual.calls

    def run(self, seed, workers, outdir):
        return [part.run(seed, workers, outdir) for part in self.parts]

    def check(self, seed, outdir, out, ops):
        return sum(part.check(seed, outdir, o, ops) for part, o in zip(self.parts, out))


WORKLOADS = {w.name: w for w in (Absorb(), ShortRuns(), Logs())}
