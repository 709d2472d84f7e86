"""Event-log and CSV artifacts.

The event log is a CSV with '#'-prefixed metadata lines (model, topology,
parameters, seed, initial state) followed by one row per event:
time,source,target,feature,delta_w. Times are written with repr so reimport
is bit-exact and replay reproduces the final configuration. Rows are written
from, and parsed into, the columns of an `EventTable`.
"""
from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

import numpy as np

from .core import (
    Configuration,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    Topology,
    CVM_ALPHABET,
    VOTER_ALPHABET,
)
from .engine import AXELROD, MODELS, VOTER, _check_initial
from .events import EventTable
# `edge_census` and `count_domains` stay importable from here by name: the
# benchmark's tracer wraps them as the census layer.
from .stats import count_domains, domains_from_census, edge_census

_HEADER = "time,source,target,feature,delta_w"


@dataclass(frozen=True)
class LogBundle:
    model: str
    initial: object
    events: EventTable = field(hash=False)
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
        # Each distinct state is formatted once; a culture is F values.
        state = initial.state
        text = {v: str(v) for v in set(state)}
        values = map(text.__getitem__, state)
        return ";".join(map(",".join, zip(*[values] * initial.params.F)))
    return ";".join(map(str, initial.opinions))


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
        _HEADER,
    ]
    ev = EventTable.of(traj.events)
    rows = map("{!r},{},{},{},{}".format, ev.time.tolist(), ev.source.tolist(),
               ev.target.tolist(), ev.copied_feature.tolist(), ev.delta_w.tolist())
    return "\n".join(chain(lines, rows)) + "\n"


def save_event_log(traj, path: str):
    atomic_write_text(path, event_log_text(traj))


def _row_fault(row: str, n_vertices: int, features: range, end_time: float) -> str | None:
    """Why `row` is no event row of its log, or None; the per-row form of the
    column checks in `load_event_log`."""
    fields = row.split(",")
    if len(fields) != 5:
        return f"{len(fields)} fields, expected 5 ({_HEADER})"
    try:
        t = float(fields[0])
        source, target, feature, delta_w = map(int, fields[1:])
    except ValueError:
        return f"non-numeric field in {row!r}"
    if not 0 <= t <= end_time:
        return f"time {t!r} outside [0, end_time={end_time!r}]"
    if not (0 <= source < n_vertices and 0 <= target < n_vertices):
        return f"vertex outside 0..{n_vertices - 1}"
    if feature not in features:
        return f"feature {feature} outside {features.start}..{features.stop - 1}"
    if not 0 <= delta_w <= 2:
        return f"delta_w {delta_w} outside 0..2"
    return None


def _columns(rows: list, n_vertices: int, features: range,
             end_time: float) -> EventTable | None:
    """Event rows parsed in bulk into columns; None if any row is faulty."""
    if not rows:
        return EventTable()
    if set(map(str.count, rows, repeat(","))) != {4}:
        return None
    fields = ",".join(rows).split(",")
    try:
        table = EventTable(map(float, fields[0::5]), map(int, fields[2::5]),
                           map(int, fields[1::5]), map(int, fields[3::5]),
                           map(int, fields[4::5]))
    except (ValueError, OverflowError):
        return None
    ok = (0 <= min(table.time) and max(table.time) <= end_time
          and 0 <= min(table.source) and max(table.source) < n_vertices
          and 0 <= min(table.target) and max(table.target) < n_vertices
          and features.start <= min(table.copied_feature)
          and max(table.copied_feature) < features.stop
          and 0 <= min(table.delta_w) and max(table.delta_w) <= 2)
    return table if ok else None


def _meta(meta: dict, key: str, parse, path: str):
    if key not in meta:
        raise InvalidInput(f"{path}: no '# {key}=' line")
    try:
        return parse(meta[key])
    except ValueError as exc:
        raise InvalidInput(f"{path}: bad '# {key}={meta[key]}': {exc}") from exc


def _state(text: str, n_vertices: int, params: ModelParams) -> array:
    """The '# initial=' value as a `Configuration.state`."""
    chunks = text.split(";")
    if len(chunks) != n_vertices or set(map(str.count, chunks, repeat(","))) != {params.F - 1}:
        raise ValueError(f"expected {n_vertices} cultures of {params.F} features")
    tokens = text.replace(";", ",").split(",")
    value = {tok: int(tok) for tok in set(tokens)}  # each distinct state parsed once
    values = list(map(value.__getitem__, tokens))
    if not all(0 <= v < params.q for v in value.values()):
        bad = next(v for v in values if not 0 <= v < params.q)
        raise InvalidInput(f"feature state {bad} outside 0..{params.q - 1}")
    return array("q", values)


def load_event_log(path: str) -> LogBundle:
    """Read an event log written by `save_event_log`.

    A log that is not of that form raises InvalidInput naming the missing
    metadata key or the first faulty line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = {}
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        key, _, value = lines[k][1:].strip().partition("=")
        meta[key.strip()] = value
        k += 1
    model = _meta(meta, "model", str, path)
    if model not in MODELS:
        raise InvalidInput(f"{path}: unknown model {model!r}")
    topo = Topology(_meta(meta, "topology", str, path), _meta(meta, "size", int, path))
    end_time = _meta(meta, "end_time", float, path)
    if model == AXELROD:
        params = ModelParams(_meta(meta, "F", int, path), _meta(meta, "q", int, path))
        state = _meta(meta, "initial", lambda v: _state(v, topo.n_vertices, params), path)
        initial = Configuration._of(topo, params, state)
        features = range(params.F)
    else:
        alphabet = VOTER_ALPHABET if model == VOTER else CVM_ALPHABET
        opinions = _meta(meta, "initial", lambda v: tuple(map(int, v.split(";"))), path)
        initial = OpinionConfig(topo, opinions, alphabet)
        features = range(-1, 0)
    if k == len(lines) or lines[k] != _HEADER:
        raise InvalidInput(f"{path}, line {k + 1}: expected the row header {_HEADER!r}")
    rows = lines[k + 1:]
    events = _columns(rows, topo.n_vertices, features, end_time)
    if events is None:
        for n, row in enumerate(rows, start=k + 2):
            fault = _row_fault(row, topo.n_vertices, features, end_time)
            if fault:
                raise InvalidInput(f"{path}, line {n}: {fault}")
    return LogBundle(model, initial, events, end_time,
                     bool(_meta(meta, "absorbed", int, path)), _meta(meta, "seed", int, path))


def _within(column, n: int, stop: int) -> bool:
    """Whether the first n values of an int64 column lie in 0..stop-1. The
    numpy view, which pins the column's size, ends with this frame."""
    values = np.frombuffer(column, np.int64)[:n]
    return not n or bool(values.min() >= 0 and values.max() < stop)


def replay(initial, events, model: str, upto: float | None = None):
    """Re-apply recorded events, up to the first one with time > upto;
    returns the resulting state. The state must be one `model` runs on, and
    each applied event must name vertices, and on a culture state a
    feature, of that state; otherwise InvalidInput."""
    if model not in MODELS:
        raise InvalidInput(f"unknown model {model!r}")
    _check_initial(model, initial)
    ev = EventTable.of(events)
    n = len(ev)
    if upto is not None:
        n = next((k for k, t in enumerate(ev.time) if t > upto), n)
    V = initial.topology.n_vertices
    if not (_within(ev.target, n, V) and _within(ev.source, n, V)):
        raise InvalidInput(f"replayed event names a vertex outside 0..{V - 1}")
    if model == AXELROD:
        F = initial.params.F
        if not _within(ev.copied_feature, n, F):
            raise InvalidInput(f"replayed event names a feature outside 0..{F - 1}")
        state = initial.state.tolist()
        for v, u, i in islice(zip(ev.target, ev.source, ev.copied_feature), n):
            state[v * F + i] = state[u * F + i]
        return Configuration._of(initial.topology, initial.params, array("q", state))
    ops = list(initial.opinions)
    for v, u in islice(zip(ev.target, ev.source), n):
        ops[v] = ops[u]
    return OpinionConfig(initial.topology, tuple(ops), initial.alphabet)


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
