"""The compiled run loop and replay: build, load and call `_kernel.c`.

`engine` imports this module on the first run or replay of a process,
through `engine._kernel_lib`. `load` builds the C file with the system
compiler into `__pycache__` next to it, unless that build exists already,
and loads it with ctypes. `compiled_loop` runs one culture or voter
trajectory through the one loop, `axsim_run`; it takes the arguments of its
twin `engine._python_loop` and hands back the same `_Path` for the same
Generator, bit for bit. `replay` re-applies logged events. `log_rows`,
`state_line`, `parse_rows` and `parse_state` write and read an event log's
text through `lib.with_gil`, the same library loaded with `ctypes.PyDLL`,
since those functions call CPython's C API.
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import os
import zlib
from array import array

import numpy as np

from .core import OpinionConfig
from .engine import StopRule, _Path
from .events import EventTable


def _fields(ctype, names: str) -> list:
    return [(name, ctype) for name in names.split()]


class _Run(ctypes.Structure):
    """`struct axsim_run` of `_kernel.c`, field for field."""
    _fields_ = (_fields(ctypes.c_void_p, "bitgen")
                + _fields(ctypes.c_int64, "F n_edges cycle voter")
                + _fields(ctypes.c_void_p, "state")
                + _fields(ctypes.c_double, "t_max")
                + _fields(ctypes.c_int64, "max_events until_absorbed")
                + _fields(ctypes.c_void_p, "snap_time") + _fields(ctypes.c_int64, "n_snap")
                + _fields(ctypes.c_void_p, "snap_counts counts ev_time ev_target ev_source"
                                           " ev_feature ev_delta")
                + _fields(ctypes.c_int64, "cap n_events n_snap_done")
                + _fields(ctypes.c_double, "t") + _fields(ctypes.c_int64, "total")
                + _fields(ctypes.c_void_p, "work urn_bitgen urn_boxes")
                + _fields(ctypes.c_int64, "urn_b0_viol urn_pot_viol urn_beta urn_W"))


_KERNEL_C = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_CC = ("cc",)
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_DONE, _FULL = 0, 1  # return codes of the run loop; negative: out of memory
_FIRST_CAP = 256  # events the columns first make room for
_FIRST_TIMES, _FIRST_INTS = (array(code, bytes(8 * _FIRST_CAP)) for code in "dq")


def build_path(source: bytes) -> str:
    """The build's file name: keyed on the source, numpy's version and the command.

    CRC-32s, not a cryptographic hash: `hashlib` would load OpenSSL, about
    3.5 MB of resident memory, into every process that runs the model.
    """
    command = "\0".join((np.__version__, *_CC, *_CFLAGS)).encode()
    return os.path.join(os.path.dirname(_KERNEL_C), "__pycache__",
                        f"_kernel.{zlib.crc32(source):08x}{zlib.crc32(command):08x}.so")


def build_command(out: str) -> list:
    """The compiler command that builds `_kernel.c` into the library `out`."""
    npyrandom = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
    return [*_CC, *_CFLAGS, "-I", np.get_include(), "-o", out, _KERNEL_C, npyrandom]


def load():
    """The library built from `_kernel.c`, building it first where needed;
    None where it cannot be built or loaded."""
    try:
        with open(_KERNEL_C, "rb") as fh:
            path = build_path(fh.read())
    except OSError:  # an install without the source
        return None
    if not os.path.exists(path):
        import subprocess  # only a build needs it

        # A private name renamed into place: concurrent builds never load a partial file.
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            subprocess.run(build_command(tmp), check=True, capture_output=True, timeout=300)
            os.replace(tmp, path)
        except (OSError, subprocess.SubprocessError):
            with contextlib.suppress(OSError):
                os.remove(tmp)
            return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    lib.axsim_run.argtypes = lib.axsim_free.argtypes = [ctypes.POINTER(_Run)]
    lib.axsim_run.restype, lib.axsim_free.restype = ctypes.c_int64, None
    lib.axsim_replay.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                                 ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
    lib.axsim_replay.restype = None
    lib.with_gil = text = ctypes.PyDLL(path)
    text.axsim_log_rows.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
                                    *[ctypes.c_void_p] * 5]
    text.axsim_state_line.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
    text.axsim_log_rows.restype = text.axsim_state_line.restype = ctypes.py_object
    text.axsim_parse_rows.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
                                      *[ctypes.c_void_p] * 5]
    text.axsim_parse_state.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
                                       ctypes.c_int64, ctypes.c_void_p]
    text.axsim_parse_rows.restype = text.axsim_parse_state.restype = ctypes.c_int64
    return lib


# The bitgen_t a Generator's `bit_generator.capsule` holds, which the C loop draws from.
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _address(buf: array) -> int:
    return buf.buffer_info()[0]


def _bitgen(rng) -> int:
    return _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")


def compiled_loop(lib, cfg, stop: StopRule, rng, times: list, urn_rng) -> _Path:
    """`_python_loop(cfg, stop, rng, times, urn_rng)` in C: the culture step
    for a `Configuration`, the voter step for an `OpinionConfig`. It runs on
    a copy of `cfg.state`, F values a vertex, which `cfg._with` makes the
    final state."""
    voter = isinstance(cfg, OpinionConfig)
    topo, state = cfg.topology, cfg.state[:]
    F = len(state) // topo.n_vertices  # 1 on opinions: counts are (disagree, agree)
    snap_time = array("d", times)
    snap_counts = array("q", bytes(8 * len(times) * (F + 1)))
    counts = array("q", bytes(8 * (F + 1)))
    columns = (_FIRST_TIMES[:], _FIRST_INTS[:], _FIRST_INTS[:], _FIRST_INTS[:], _FIRST_INTS[:])
    events = EventTable._of(columns)
    run = _Run(_bitgen(rng), F, topo.n_edges, topo.kind == "cycle", voter, _address(state),
               math.inf if stop.t_max is None else stop.t_max,
               min(stop.max_events if stop.max_events is not None else 2 ** 62, 2 ** 62),
               stop.stop_on_absorption, _address(snap_time), len(times),
               _address(snap_counts), _address(counts), *map(_address, columns), _FIRST_CAP)
    if urn_rng is not None:
        urn_boxes = array("q", bytes(8 * (F + 1)))
        run.urn_bitgen, run.urn_boxes = _bitgen(urn_rng), _address(urn_boxes)
    try:
        while (status := lib.axsim_run(run)) == _FULL:
            # The columns grow by a quarter, so a long run returns here often
            # enough for Ctrl-C to act, and their slack stays small.
            room = bytes(8 * (run.cap // 4 + _FIRST_CAP))
            for col in columns:
                col.frombytes(room)
            run.cap = len(events)
            run.ev_time, run.ev_target, run.ev_source, run.ev_feature, run.ev_delta = map(
                _address, columns)
        if status != _DONE:
            raise MemoryError("compiled run loop ran out of memory")
    except BaseException:  # a finished or failed run has freed its work area itself
        lib.axsim_free(run)
        raise
    for col in columns:
        del col[run.n_events:]
    width = F + 1
    snapshots = [tuple(snap_counts[k * width:(k + 1) * width]) for k in range(run.n_snap_done)]
    absorbed = counts[0] == 0 if voter else run.total == 0
    urn = None if urn_rng is None else (tuple(urn_boxes), run.urn_b0_viol, run.urn_pot_viol,
                                        run.urn_beta, run.urn_W)
    return _Path(events, run.t, tuple(counts), snapshots, absorbed, cfg._with(state), urn)


def replay(lib, state: array, F: int, events: EventTable, n: int, features: bool):
    """The first n events re-applied to `state` in place, as `logio.replay`'s
    loop: feature `copied_feature` of each event's vertices, or the one
    opinion where `features` is false. The caller has checked every index."""
    lib.axsim_replay(_address(state), F, n, _address(events.target), _address(events.source),
                     _address(events.copied_feature) if features else None)


def log_rows(lib, head: str, events: EventTable) -> str:
    """`head`, then a "%r,%d,%d,%d,%d" row of time, source, target,
    copied_feature and delta_w per event, each ending in "\n"."""
    data = head.encode("ascii")  # the str is written as ASCII
    return lib.with_gil.axsim_log_rows(
        data, len(data), len(events), *map(_address, (events.time, events.source, events.target,
                                                      events.copied_feature, events.delta_w)))


def state_line(lib, state: array, F: int) -> str:
    """`str` of each value of `state`, "," between the F values of a vertex
    and ";" between vertices."""
    return lib.with_gil.axsim_state_line(_address(state), len(state), F)


def parse_rows(lib, data: bytes) -> EventTable | None:
    """The event rows of `data`, each ending in b"\n", as `log_rows` writes
    them; None where the text is otherwise."""
    n = data.count(b"\n")
    columns = (array("d", bytes(8 * n)), *(array("q", bytes(8 * n)) for _ in range(4)))
    time, target, source, feature, delta_w = map(_address, columns)
    if lib.with_gil.axsim_parse_rows(data, len(data), n, time, source, target, feature,
                                     delta_w):
        return None
    return EventTable._of(columns)


def parse_state(lib, data: bytes, n_vertices: int, F: int) -> array | None:
    """The state `state_line` writes as `data`, of F values a vertex; None
    where the text is otherwise."""
    state = array("q", bytes(8 * n_vertices * F))
    return None if lib.with_gil.axsim_parse_state(data, len(data), len(state), F,
                                                  _address(state)) else state
