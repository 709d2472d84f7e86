"""Event-log and CSV artifacts.

The event log is a CSV with '#'-prefixed metadata lines (model, topology,
parameters, seed, initial state) followed by one row per event:
time,source,target,feature,delta_w. Times are written with repr so reimport
is bit-exact and replay reproduces the final configuration.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .core import (
    Configuration,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    Topology,
    CVM_ALPHABET,
    VOTER_ALPHABET,
)
from .engine import AXELROD, CVM, VOTER, UpdateEvent
# `edge_census` and `count_domains` stay importable from here by name: the
# benchmark's tracer wraps them as the census layer.
from .stats import count_domains, domains_from_census, edge_census


@dataclass(frozen=True)
class LogBundle:
    model: str
    initial: object
    events: tuple
    end_time: float
    absorbed: bool
    seed: int


def atomic_write_text(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _initial_line(initial) -> str:
    if isinstance(initial, Configuration):
        return ";".join(",".join(str(v) for v in c) for c in initial.cultures)
    return ";".join(str(o) for o in initial.opinions)


def event_log_text(traj) -> str:
    lines = [
        f"# model={traj.model}",
        f"# topology={traj.initial.topology.kind}",
        f"# size={traj.initial.topology.size}",
    ]
    if isinstance(traj.initial, Configuration):
        lines.append(f"# F={traj.initial.params.F}")
        lines.append(f"# q={traj.initial.params.q}")
    lines += [
        f"# seed={traj.seed}",
        f"# end_time={traj.end_time!r}",
        f"# absorbed={int(traj.absorbed)}",
        f"# initial={_initial_line(traj.initial)}",
        "time,source,target,feature,delta_w",
    ]
    for e in traj.events:
        lines.append(f"{e.time!r},{e.source},{e.target},{e.copied_feature},{e.delta_w}")
    return "\n".join(lines) + "\n"


def save_event_log(traj, path: str):
    atomic_write_text(path, event_log_text(traj))


def load_event_log(path: str) -> LogBundle:
    meta = {}
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                k, _, v = line[1:].strip().partition("=")
                meta[k.strip()] = v
                continue
            if line.startswith("time,"):
                continue
            t, src, dst, feat, dw = line.split(",")
            events.append(UpdateEvent(float(t), int(dst), int(src), int(feat), int(dw)))
    model = meta["model"]
    topo = Topology(meta["topology"], int(meta["size"]))
    if model == AXELROD:
        params = ModelParams(int(meta["F"]), int(meta["q"]))
        cultures = tuple(
            tuple(int(v) for v in chunk.split(",")) for chunk in meta["initial"].split(";")
        )
        initial = Configuration(topo, params, cultures)
    else:
        alphabet = VOTER_ALPHABET if model == VOTER else CVM_ALPHABET
        opinions = tuple(int(v) for v in meta["initial"].split(";"))
        initial = OpinionConfig(topo, opinions, alphabet)
    return LogBundle(model, initial, tuple(events), float(meta["end_time"]),
                     bool(int(meta["absorbed"])), int(meta["seed"]))


def replay(initial, events, model: str, upto: float | None = None):
    """Re-apply a recorded event sequence; returns the resulting state."""
    if isinstance(initial, Configuration):
        if model != AXELROD:
            raise InvalidInput("culture replay needs the culture model")
        states = [list(c) for c in initial.cultures]
        for e in events:
            if upto is not None and e.time > upto:
                break
            states[e.target][e.copied_feature] = states[e.source][e.copied_feature]
        return Configuration(initial.topology, initial.params,
                             tuple(tuple(s) for s in states))
    ops = list(initial.opinions)
    for e in events:
        if upto is not None and e.time > upto:
            break
        ops[e.target] = ops[e.source]
    return OpinionConfig(initial.topology, tuple(ops), initial.alphabet)


def snapshot_csv_text(traj) -> str:
    if isinstance(traj.initial, Configuration):
        F = traj.initial.params.F
    else:
        F = 1
    header = "t," + ",".join(f"w_{j}" for j in range(F + 1)) + ",W,N_t,S_t"
    lines = [header]
    for s in traj.snapshots:
        lines.append(
            f"{s.time!r},"
            + ",".join(str(c) for c in s.census.counts)
            + f",{s.census.total_agreement},{s.domains.domain_count},{float(s.domains.mean_size)!r}"
        )
    return "\n".join(lines) + "\n"


def save_snapshot_csv(traj, path: str):
    atomic_write_text(path, snapshot_csv_text(traj))


def final_stats_row(traj) -> dict:
    census = traj.final_census
    domains = domains_from_census(census, traj.final.topology)
    row = {
        "absorbed": traj.absorbed,
        "end_time": traj.end_time,
        "n_events": len(traj.events),
        "w_counts": census.counts,
        "W": census.total_agreement,
        "N_domains": domains.domain_count,
    }
    if traj.urn_final is not None:
        row["urn_boxes"] = traj.urn_final.boxes
        row["urn_b0_violations"] = traj.urn_b0_violations
        row["urn_potential_violations"] = traj.urn_potential_violations
    return row
