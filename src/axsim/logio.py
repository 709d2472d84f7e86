"""Event-log and CSV artifacts.

The event log is a CSV with '#'-prefixed metadata lines (model, topology,
parameters, seed, initial state) followed by one row per event:
time,source,target,feature,delta_w, in nondecreasing time. Times are written
with repr so reimport is bit-exact and replay reproduces the final
configuration. Rows are written from the columns of an `EventTable`.

The compiled library writes the rows and the '# initial=' value, and reads
them back in one pass each, through the C functions behind `repr`, `float`
and `int`; the Python writers are its oracles and its fallback. Text those
readers refuse, since Python might read it otherwise, or that fails a check
by column, is parsed row by row with Python's `int` and `float`, which
names the first faulty line.
"""
from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

import numpy as np

from . import engine
from .core import (
    Configuration,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    Topology,
    check_seed,
)
from .engine import AXELROD, MODELS, _check_initial, check_times
from .events import EventTable, UpdateEvent
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
    state = initial.state
    F = len(state) // initial.topology.n_vertices  # a vertex's row is its F values (one opinion)
    lib = engine._kernel_lib()
    if lib is not None:
        from . import _ckernel
        return _ckernel.state_line(lib, state, F)
    text = {v: str(v) for v in set(state)}  # each distinct value is formatted once
    return ";".join(map(",".join, zip(*[map(text.__getitem__, state)] * F)))


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
    lib = engine._kernel_lib()
    if lib is not None:
        from . import _ckernel
        return _ckernel.log_rows(lib, "\n".join(lines) + "\n", ev)
    rows = map("%r,%d,%d,%d,%d".__mod__, zip(ev.time.tolist(), ev.source.tolist(),
                                            ev.target.tolist(), ev.copied_feature.tolist(),
                                            ev.delta_w.tolist()))
    return "\n".join(chain(lines, rows)) + "\n"


def save_event_log(traj, path: str):
    atomic_write_text(path, event_log_text(traj))


# Line breaks of `str.splitlines` besides "\n" ("\r" and "\r\n" are "\n" once
# read in text mode).
_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _bulk(text: str, state: tuple | None = None):
    """`text` read in one pass by the compiled readers: event rows, each
    ending in "\n", as an `EventTable`, or with `state`, (vertices, F), a
    '# initial=' value as a state array. They take times `float` reads with
    no space or underscore to strip, and ints of ASCII digits with an
    optional sign that fit int64, and read them as `float` and `int` do, bit
    for bit. None where the library does not build or the text holds
    anything else, which the caller parses as Python does."""
    lib = engine._kernel_lib()
    if lib is None:
        return None
    from . import _ckernel
    data = text.encode()
    return _ckernel.parse_rows(lib, data) if state is None else _ckernel.parse_state(
        lib, data, *state)


def _event(row: str, n_vertices: int, features: range, end_time: float,
           after: float) -> UpdateEvent:
    """`row` as an event of its log, whose previous row is at time `after`;
    otherwise ValueError naming the fault."""
    fields = row.split(",")
    if len(fields) != 5:
        raise ValueError(f"{len(fields)} fields, expected 5 ({_HEADER})")
    try:
        t = float(fields[0])
        source, target, feature, delta_w = map(int, fields[1:])
    except ValueError:
        raise ValueError(f"non-numeric field in {row!r}") from None
    if not 0 <= t <= end_time:
        raise ValueError(f"time {t!r} outside [0, end_time={end_time!r}]")
    if not (0 <= source < n_vertices and 0 <= target < n_vertices):
        raise ValueError(f"vertex outside 0..{n_vertices - 1}")
    if feature not in features:
        raise ValueError(f"feature {feature} outside {features.start}..{features.stop - 1}")
    if not 0 <= delta_w <= 2:
        raise ValueError(f"delta_w {delta_w} outside 0..2")
    if t < after:
        raise ValueError(f"time {t!r} before the previous row's {after!r}")
    return UpdateEvent(t, target, source, feature, delta_w)


def _events(body: str, line: int, path: str, n_vertices: int, features: range,
            end_time: float) -> EventTable:
    """The event rows of `body`, the first on line `line` of the log.

    Rows are parsed in bulk and checked by column; where that fails they are
    parsed one by one, which names the first faulty line.
    """
    table = _bulk(body)
    if table is not None:
        t = np.frombuffer(table.time, np.float64)
        v, u, feature, delta_w = (np.frombuffer(c, np.int64) for c in table.columns()[1:])
        if not len(t) or (0 <= t.min() and t.max() <= end_time and (t[:-1] <= t[1:]).all()
                          and 0 <= min(u.min(), v.min()) and max(u.max(), v.max()) < n_vertices
                          and features.start <= feature.min() and feature.max() < features.stop
                          and 0 <= delta_w.min() and delta_w.max() <= 2):
            return table
    events = []
    for n, row in enumerate(body.splitlines(), start=line):
        try:
            events.append(_event(row, n_vertices, features, end_time,
                                 events[-1].time if events else 0.0))
        except ValueError as exc:
            raise InvalidInput(f"{path}, line {n}: {exc}") from None
    return EventTable.of(events)


def _meta(meta: dict, key: str, parse, path: str):
    if key not in meta:
        raise InvalidInput(f"{path}: no '# {key}=' line")
    try:
        return parse(meta[key])
    except ValueError as exc:
        raise InvalidInput(f"{path}: bad '# {key}={meta[key]}': {exc}") from exc


def _absorbed(value: str) -> bool:
    if int(value) not in (0, 1):
        raise ValueError("expected 0 or 1")
    return int(value) == 1


def _seed(value: str) -> int:
    check_seed(seed := int(value))  # its InvalidInput is a ValueError, which `_meta` words
    return seed


def _state(text: str, n_vertices: int, params: ModelParams) -> array:
    """The '# initial=' value as a `Configuration.state`."""
    state = _bulk(text, (n_vertices, params.F))
    if state is not None:
        values = np.frombuffer(state, np.int64)
        if 0 <= values.min() and values.max() < params.q:
            return state
    # Python's `int` reads what the bulk pass did not take, and words the fault.
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


def _opinions(text: str, n_vertices: int):
    """The '# initial=' value of an opinion log, for `OpinionConfig` to check."""
    state = _bulk(text, (n_vertices, 1))
    return list(map(int, text.split(";"))) if state is None else state


def load_event_log(path: str) -> LogBundle:
    """Read an event log written by `save_event_log`.

    A log that is not of that form raises InvalidInput naming the missing
    metadata key or the first faulty line. Row times must not decrease.
    """
    with open(path) as fh:
        text = fh.read()
    if not text.endswith("\n") or any(c in text for c in _BREAKS):
        text = "\n".join(text.splitlines() + [""])  # the same lines, each ending in "\n"
    meta = {}
    k = pos = 0  # line k starts at text[pos]
    while text.startswith("#", pos):
        end = text.index("\n", pos)
        key, _, value = text[pos + 1:end].strip().partition("=")
        meta[key.strip()] = value
        k, pos = k + 1, end + 1
    model = _meta(meta, "model", str, path)
    if model not in MODELS:
        raise InvalidInput(f"{path}: unknown model {model!r}")
    topo = Topology(_meta(meta, "topology", str, path), _meta(meta, "size", int, path))
    end_time = _meta(meta, "end_time", float, path)
    check_times((end_time,), f"{path}: the '# end_time=' value")
    if model == AXELROD:
        params = ModelParams(_meta(meta, "F", int, path), _meta(meta, "q", int, path))
        state = _meta(meta, "initial", lambda v: _state(v, topo.n_vertices, params), path)
        initial = Configuration._of(topo, params, state)
        features = range(params.F)
    else:
        opinions = _meta(meta, "initial", lambda v: _opinions(v, topo.n_vertices), path)
        initial = OpinionConfig(topo, opinions, MODELS[model])
        features = range(-1, 0)
    end = text.find("\n", pos)
    if end < 0 or text[pos:end] != _HEADER:
        raise InvalidInput(f"{path}, line {k + 1}: expected the row header {_HEADER!r}")
    events = _events(text[end + 1:], k + 2, path, topo.n_vertices, features, end_time)
    return LogBundle(model, initial, events, end_time,
                     _meta(meta, "absorbed", _absorbed, path), _meta(meta, "seed", _seed, path))


def _within(column, n: int, stop: int) -> bool:
    """Whether the first n values of an int64 column lie in 0..stop-1. The
    numpy view, which pins the column's size, ends with this frame."""
    values = np.frombuffer(column, np.int64)[:n]
    return not n or bool(values.min() >= 0 and values.max() < stop)


def replay(initial, events, model: str, upto: float | None = None):
    """Re-apply recorded events, up to the first one with time > upto;
    returns the resulting state. `upto` None replays every event; NaN, and
    an upto that is no real number, are refused. The state must be one
    `model` runs on, and each applied event must name vertices, and on a
    culture state a feature, of that state; otherwise InvalidInput. The
    events are applied to a copy of `initial.state`, F values a vertex (1
    on opinions), by the compiled loop's `axsim_replay` where it builds,
    else in Python, and `initial._with` makes it the result."""
    if not isinstance(model, str) or model not in MODELS:  # a dict key must hash
        raise InvalidInput(f"unknown model {model!r}")
    _check_initial(model, initial)
    ev = EventTable.of(events)
    n = len(ev)
    if upto is not None:
        try:
            try:
                cut = float(upto)
            except OverflowError:  # an int beyond the largest float
                cut = math.inf if upto > 0 else -math.inf
            if cut > upto:  # rounded up: a time exceeds upto just when it exceeds the float below
                cut = math.nextafter(cut, -math.inf)
        except (TypeError, ValueError):  # no number, or a string that float() reads
            cut = math.nan
        if math.isnan(cut):
            raise InvalidInput(f"upto must be a time or None, got {upto!r}")
        later = np.frombuffer(ev.time, np.float64) > cut  # rows in file order, sorted or not
        n = int(later.argmax()) if later.any() else n
    V = initial.topology.n_vertices
    if not (_within(ev.target, n, V) and _within(ev.source, n, V)):
        raise InvalidInput(f"replayed event names a vertex outside 0..{V - 1}")
    culture, state = model == AXELROD, initial.state[:]
    F = len(state) // V  # 1 on opinions, whose one feature is 0
    if culture and not _within(ev.copied_feature, n, F):
        raise InvalidInput(f"replayed event names a feature outside 0..{F - 1}")
    lib = engine._kernel_lib()
    if lib is not None:
        from . import _ckernel
        _ckernel.replay(lib, state, F, ev, n, culture)
    else:
        features = ev.copied_feature if culture else repeat(0)
        for v, u, i in islice(zip(ev.target, ev.source, features), n):
            state[v * F + i] = state[u * F + i]
    return initial._with(state)


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
