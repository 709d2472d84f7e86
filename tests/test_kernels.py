"""The compiled loops against the Python ones, and how they are built.

`run_model` runs the culture model, the CVM and the voter model through the
compiled loops wherever they build, and `replay` re-applies logged events
there. The Python run and replay loops are their oracles: both must give
the same trajectory, bit for bit, for every seed, stop rule, snapshot set and
urn, and the same replayed state.
"""
import ast
import ctypes
import dataclasses
import hashlib
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from array import array
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from axsim import (
    Configuration,
    ExperimentConfig,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    StopRule,
    Topology,
    EventTable,
    UpdateEvent,
    edge_census,
    event_log_text,
    execute,
    load_event_log,
    random_config,
    random_opinions,
    replay,
    run_model,
)
from axsim import _ckernel, engine, logio
from test_events import per_event_replay


@pytest.fixture(scope="module")
def lib():
    lib = engine._kernel_lib()
    if lib is None:
        pytest.skip("the compiled loop could not be built on this host (no working C compiler)")
    return lib


def run_on(lib, *args, **kwargs):
    """`run_model` with the loader returning `lib`; None selects the Python loop.

    With a library, the run must also have gone through the compiled loop
    and not fallen back."""
    compiled_loop = _ckernel.compiled_loop
    used = []

    def spy(*a, **k):
        path = compiled_loop(*a, **k)
        used.append(path is not None)
        return path

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_kernel_lib", lambda: lib)
        mp.setattr(_ckernel, "compiled_loop", spy)
        traj = run_model(*args, **kwargs)
    assert used == ([True] if lib is not None else [])
    return traj


def fingerprint(traj) -> tuple:
    """The trajectory's `repr` with its events as their columns' bytes, which
    fix the events' `repr` and compare much faster on runs of many events."""
    return (repr(dataclasses.replace(traj, events=None)),
            [col.tobytes() for col in traj.events.columns()])


CASES = [(1, 2), (2, 2), (2, 4), (3, 12), (7, 12), "cvm"]
SEEDS = range(8)
VERTICES = 13
T_SHORT, T_LONG = 1.5, 1e4  # T_LONG: every grid run freezes well before it


def initial(case, kind: str, seed: int, size: int = VERTICES):
    topo = Topology(kind, size)
    if case == "cvm":
        ops = np.random.default_rng(seed).integers(-1, 2, size=size).tolist()
        return "cvm", OpinionConfig(topo, tuple(ops), (-1, 0, 1))
    return "axelrod", random_config(ModelParams(*case), topo, 1000 + seed)


STOPS = {
    "t_max": StopRule(t_max=T_SHORT),
    "max_events": StopRule(max_events=7),
    "absorption": StopRule(stop_on_absorption=True),
    "frozen": StopRule(t_max=T_LONG),
}
URNS = (False, True)  # attach_urn


# The smallest lattices hit every case of the target's other edge: none on
# the path of 2, and wrap-arounds at both ends on the cycle of 3.
@pytest.mark.parametrize("kind,size", [("path", VERTICES), ("cycle", VERTICES),
                                       ("path", 2), ("cycle", 3)],
                         ids=["path", "cycle", "path2", "cycle3"])
@pytest.mark.parametrize("case", CASES, ids=str)
def test_same_trajectory_on_both_kernels(lib, case, kind, size):
    frozen = 0
    for seed in SEEDS:
        model, init = initial(case, kind, seed, size)
        for stop_name, stop in STOPS.items():
            plain = run_on(lib, model, init, stop, seed)
            times = [e.time for e in plain.events]
            # One snapshot at an event time, which sees the state before that event.
            at_event = (times[len(times) // 2],) if times else ()
            limit = stop.t_max if stop.t_max is not None else 3.0
            for snaps in ((), (0.0, 0.4, limit) + at_event):
                for urn in URNS if model == "axelrod" else URNS[:1]:
                    kwargs = dict(snapshot_times=snaps, attach_urn=urn)
                    got = run_on(lib, model, init, stop, seed, **kwargs)
                    want = run_on(None, model, init, stop, seed, **kwargs)
                    assert repr(got) == repr(want), (model, case, kind, size, seed,
                                                     stop_name, snaps, urn)
            if stop_name == "frozen":
                assert plain.absorbed and plain.end_time == T_LONG
                frozen += bool(plain.events)
    assert frozen or case == (1, 2)  # with F=1 nothing ever fires


def drawn(case, kind: str, size: int = VERTICES):
    """(model, draw) of an i.i.d. uniform initial state that the run draws itself."""
    topo = Topology(kind, size)
    if case == "cvm":
        return "cvm", partial(random_opinions, topo, (-1, 0, 1))
    return "axelrod", partial(random_config, ModelParams(*case), topo)


@pytest.mark.parametrize("kind,size", [("path", VERTICES), ("cycle", 3)], ids=["path", "cycle3"])
@pytest.mark.parametrize("case", CASES, ids=str)
def test_drawn_initial_runs_are_the_same_on_both_kernels(lib, case, kind, size):
    """The initial state is the trajectory Generator's first draws, and the
    compiled loop goes on from the bitgen where numpy's draw left it. Equal
    arguments, the draw included, give equal trajectories."""
    model, draw = drawn(case, kind, size)
    for seed in SEEDS[:4]:
        for stop in STOPS.values():
            for urn in URNS if model == "axelrod" else URNS[:1]:
                kwargs = dict(snapshot_times=(0.0, 0.4), attach_urn=urn)
                got = run_on(lib, model, draw, stop, seed, **kwargs)
                assert repr(got) == repr(run_on(None, model, draw, stop, seed, **kwargs))
                assert repr(got) == repr(run_on(lib, model, draw, stop, seed, **kwargs))
                assert got.initial == draw(engine._rng_pair(seed, False)[0])


# A path end has one neighbour; on the smallest cycle both neighbours wrap.
VOTER_LATTICES = [("path", 2), ("path", 9), ("cycle", 3), ("cycle", 9)]


def voter_initial(kind: str, size: int, seed: int) -> OpinionConfig:
    ops = np.random.default_rng(seed).integers(0, 2, size=size).tolist()
    return OpinionConfig(Topology(kind, size), tuple(ops), (0, 1))


@pytest.mark.parametrize("kind,size", VOTER_LATTICES, ids=str)
def test_same_voter_trajectory_on_both_kernels(lib, kind, size):
    """Given and drawn initial opinions, every stop rule, with and without
    snapshots. A voter run never freezes: under the long t_max it logs tens
    of thousands of arrivals, and the event columns grow many times."""
    draw = partial(random_opinions, Topology(kind, size), (0, 1))
    for seed, stop in itertools.product(SEEDS[:3], STOPS.values()):
        for init in (voter_initial(kind, size, seed), draw):
            plain = run_on(lib, "voter", init, stop, seed)
            times = plain.events.time
            at_event = (times[len(times) // 2],) if times else ()
            limit = stop.t_max if stop.t_max is not None else 3.0
            for snaps in ((), (0.0, 0.4, limit) + at_event):
                got = run_on(lib, "voter", init, stop, seed, snapshot_times=snaps)
                want = run_on(None, "voter", init, stop, seed, snapshot_times=snaps)
                assert fingerprint(got) == fingerprint(want), (kind, size, seed, stop, snaps)
            if stop.t_max == T_LONG:
                assert len(plain.events) > 20 * _ckernel._FIRST_CAP


def test_int_t_max_gives_the_same_trajectory(lib):
    """An int `t_max` is stored as the float bound, so both loops end at 1.0."""
    for kind, size, seed in (("path", 60, 0), ("path", 2, 3), ("cycle", 3, 1)):
        cfg = random_config(ModelParams(3, 12), Topology(kind, size), seed)
        runs = [run_on(loop, "axelrod", cfg, StopRule(t_max=t), seed, snapshot_times=(0.5,))
                for loop in (lib, None) for t in (1, 1.0)]
        assert len({repr(traj) for traj in runs}) == 1, (kind, size)
        assert repr(runs[0].end_time) == "1.0"


def test_long_runs_grow_the_columns_and_classes_alike(lib):
    """Thousands of events: the columns are refilled many times and the
    weight classes fill and empty far from their initial sizes."""
    cfg = random_config(ModelParams(3, 3), Topology("path", 400), 7)
    # The urn's state must survive every refill too.
    kwargs = dict(snapshot_times=(1.0, 5.0, 20.0), attach_urn=True)
    got = run_on(lib, "axelrod", cfg, StopRule(stop_on_absorption=True), 11, **kwargs)
    want = run_on(None, "axelrod", cfg, StopRule(stop_on_absorption=True), 11, **kwargs)
    assert len(got.events) > 20 * _ckernel._FIRST_CAP
    assert repr(got) == repr(want)


def gray_config(F: int, kind: str, size: int) -> Configuration:
    """F binary features along the F-bit Gray code, which wraps every 2**F
    vertices: neighbours differ in one feature, so every edge starts in
    class F-1, the last weight-class list, and that list starts full."""
    codes = [i % 2 ** F ^ i % 2 ** F >> 1 for i in range(size)]
    cultures = [tuple(c >> (F - 1 - b) & 1 for b in range(F)) for c in codes]
    return Configuration(Topology(kind, size), ModelParams(F, 2), cultures)


# Sizes are multiples of 2**F, so the code wraps on a path and on a cycle.
FULL_CLASS = [(2, "path", 8), (2, "cycle", 8), (3, "path", 16), (3, "cycle", 16)]


@pytest.mark.parametrize("F,kind,size", FULL_CLASS, ids=str)
def test_runs_from_a_full_class_are_the_same_on_both_kernels(lib, F, kind, size):
    cfg = gray_config(F, kind, size)
    assert edge_census(cfg).counts[F - 1] == cfg.topology.n_edges
    for seed, stop, urn in itertools.product(SEEDS, STOPS.values(), URNS):
        kwargs = dict(snapshot_times=(0.0, 0.4), attach_urn=urn)
        got = run_on(lib, "axelrod", cfg, stop, seed, **kwargs)
        assert repr(got) == repr(run_on(None, "axelrod", cfg, stop, seed, **kwargs))


# The `repr` of this run when the loops still ran the lift at twice its
# rate. Here 2 * t_max overflows, so the lift runs with no bound on its
# doubled clock; the run must not change.
CVM_AT_1E308 = (
    "Trajectory(model='cvm', initial=OpinionConfig(topology=Topology(kind='path', size=5), "
    "opinions=(0, 1, -1, -1, 0), alphabet=(-1, 0, 1)), events=EventTable(["
    "UpdateEvent(time=0.3273650109057283, target=3, source=4, copied_feature=-1, delta_w=1), "
    "UpdateEvent(time=0.36087479418684903, target=2, source=3, copied_feature=-1, delta_w=1), "
    "UpdateEvent(time=0.45460289653877783, target=1, source=0, copied_feature=-1, delta_w=1)]), "
    "snapshots=[Snapshot(time=0.25, census=EdgeCensus(counts=(3, 1), total_agreement=1), "
    "domains=DomainStats(domain_count=4, mean_size=Fraction(5, 4))), "
    "Snapshot(time=1e+308, census=EdgeCensus(counts=(0, 4), total_agreement=4), "
    "domains=DomainStats(domain_count=1, mean_size=Fraction(5, 1)))], "
    "final=OpinionConfig(topology=Topology(kind='path', size=5), opinions=(0, 0, 0, 0, 0), "
    "alphabet=(-1, 0, 1)), absorbed=True, end_time=1e+308, seed=5, "
    "final_census=EdgeCensus(counts=(0, 4), total_agreement=4), urn_final=None, "
    "urn_b0_violations=0, urn_potential_violations=0)")


@pytest.mark.parametrize("loop", ["compiled", "python"])
def test_cvm_run_whose_doubled_t_max_overflows(request, loop):
    lib = request.getfixturevalue("lib") if loop == "compiled" else None
    init = OpinionConfig(Topology("path", 5), (0, 1, -1, -1, 0), (-1, 0, 1))
    traj = run_on(lib, "cvm", init, StopRule(t_max=1e308), 5, snapshot_times=(0.25, 1e308))
    assert repr(traj) == CVM_AT_1E308


@pytest.mark.parametrize("loop", ["compiled", "python"])
def test_urn_potential_and_agreement_match_the_final_state(request, loop):
    """The running beta and W each loop keeps for the potential check equal
    their values recounted from the final boxes and state. `Trajectory`
    carries neither, so a drifting beta that only over-estimates (and so
    never adds a violation) shows only here."""
    lib = request.getfixturevalue("lib") if loop == "compiled" else None
    run = engine._python_loop if lib is None else partial(_ckernel.compiled_loop, lib)
    checked = 0
    for case in [c for c in CASES if c != "cvm"]:
        F = case[0]
        for kind in ("path", "cycle"):
            for seed in SEEDS:
                _, cfg = initial(case, kind, seed)
                for stop in STOPS.values():
                    rng, urn_rng = engine._rng_pair(seed, True)
                    path = run(cfg, stop, rng, [], urn_rng)
                    boxes, _, _, beta, W = path.urn
                    assert beta == sum((F - j) * boxes[j] for j in range(1, F + 1))
                    assert W == edge_census(path.final).total_agreement
                    checked += any(d == 2 for d in path.events.delta_w)
    assert checked > 100  # most runs moved the urn


LOOP_GRID = ([(case, kind, size) for case in CASES
              for kind, size in (("path", VERTICES), ("cycle", VERTICES), ("path", 2), ("cycle", 3))]
             + [("voter", kind, size) for kind, size in VOTER_LATTICES])


@pytest.mark.parametrize("case,kind,size", LOOP_GRID, ids=str)
def test_both_loops_hand_back_the_same_path(lib, case, kind, size):
    """`_python_loop` and `compiled_loop` take the same arguments and hand back
    equal `_Path`s, field for field, on the culture model, the CVM's lift and
    the voter model, with and without snapshots and the urn. This holds what
    `run_model` drops or rewrites too: the raw stop time of a run that
    absorbed under a t_max, the snapshots before padding, and the urn's beta
    and W."""
    loops = (partial(_ckernel.compiled_loop, lib), engine._python_loop)
    early = 0
    for seed, stop in itertools.product(SEEDS[:1] if case == "voter" else SEEDS[:4],
                                        STOPS.values()):
        if case == "voter":
            cfg = voter_initial(kind, size, seed)
        else:
            cfg = initial(case, kind, seed, size)[1]
        if case == "cvm":  # the lift, with the stop rule `run_model` hands the loops
            cfg = engine.cvm_lift(cfg)
            stop = StopRule(stop.t_max and 2 * stop.t_max, stop.max_events, True)
        plain = loops[0](cfg, stop, engine._rng_pair(seed, False)[0], [], None)
        times = plain.events.time
        limit = stop.t_max if stop.t_max is not None else 3.0
        at_event = [times[len(times) // 2]] if times else []
        for snaps in ([], sorted([0.0, 0.4, limit] + at_event)):
            for urn in URNS if isinstance(cfg, Configuration) else URNS[:1]:
                paths = []
                for loop in loops:
                    rng, urn_rng = engine._rng_pair(seed, urn)
                    paths.append(loop(cfg, stop, rng, snaps, urn_rng))
                got, want = paths
                where = (case, kind, size, seed, stop, snaps, urn)
                assert [c.tobytes() for c in got.events.columns()] == [
                    c.tobytes() for c in want.events.columns()], where
                for name in engine._Path._fields[1:]:
                    assert repr(getattr(got, name)) == repr(getattr(want, name)), (name, where)
                assert (got.urn is not None) == urn
                early += got.absorbed and stop.t_max is not None and got.t < stop.t_max
    assert early or case == "voter"  # a voter run never absorbs


def _c_struct_fields(source: str, name: str) -> list:
    """(field, ctypes type) of `struct name` in C source, in order: a
    pointer is c_void_p, a double c_double and an int64_t c_int64."""
    body = re.search(r"struct %s \{(.*?)\};" % name, source, re.S).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    kinds = {"double": ctypes.c_double, "int64_t": ctypes.c_int64}
    out = []
    for decl in filter(None, (d.strip() for d in body.split(";"))):
        base = re.match(r"(?:const\s+)?(\w+)", decl)
        for declarator in decl[base.end():].split(","):
            field = declarator.strip()
            if field.startswith("*"):
                out.append((field.lstrip("* "), ctypes.c_void_p))
            else:
                out.append((field, kinds[base.group(1)]))
    return out


def test_run_struct_matches_its_ctypes_mirror():
    """`_Run` must mirror `struct axsim_run` field for field: a field out of
    step fails here by name instead of corrupting a run. Every field must
    also be read or written as `r->field` in the loop, so a field that only
    Python sets fails here too."""
    with open(_ckernel._KERNEL_C) as fh:
        source = fh.read()
    fields = _c_struct_fields(source, "axsim_run")
    assert fields == list(_ckernel._Run._fields_)
    assert len(fields) > 20
    used = set(re.findall(r"\br->(\w+)", source))
    assert [name for name, _ in fields if name not in used] == []


def _defined_names(module) -> set:
    """The classes and functions `module` defines at any depth, by name, and
    each class's own functions as `Class.name` too."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def test_twins_cited_in_engine_exist():
    """Every `name` the comments of `_kernel.c` cite as in engine.py, as in
    "`a` and `b` in engine.py" or "in engine.py (`a`, `b`)", is a class or
    function engine.py defines, and every `engine.name` that `_ckernel.py`
    cites is an attribute of `engine`: a renamed twin fails here by name."""
    with open(_ckernel._KERNEL_C) as fh:
        source = fh.read()
    comments = " ".join(re.sub(r"\s+", " ", re.sub(r"\n\s*\*", " ", c))
                        for c in re.findall(r"/\*(.*?)\*/", source, re.S))
    cited = re.findall(r"((?:`[\w.]+`(?:'s|,| and| or| of)? )+)in engine\.py", comments)
    cited += re.findall(r"in engine\.py \(([^)]*)\)", comments)
    names = {name for group in cited for name in re.findall(r"`([\w.]+)`", group)}
    assert {"_python_loop", "culture_step", "voter_step", "couple", "_Buckets.bump"} <= names
    assert sorted(names - _defined_names(engine)) == []
    with open(_ckernel.__file__) as fh:
        attributes = set(re.findall(r"`engine\.(\w+)`", fh.read()))
    assert "_python_loop" in attributes
    assert [name for name in sorted(attributes) if not hasattr(engine, name)] == []


SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer", "-shared", "-fPIC", "-ffp-contract=off")


# Rows of each grid run's log that the grid writes and reloads: all those of
# every run but the 17 longest, which make 97% of the grid's events (voter
# runs to t = 10,000 on up to 9 vertices, of up to 90,000 events each).
LOG_ROWS = 1000


def grid_digest() -> str:
    """sha256 over the `fingerprint` of a grid of runs on the loop
    `run_model` picks, over the `repr` of each run's `replay` in full and
    cut at its middle event, and over each run's event log text, cut to its
    first `LOG_ROWS` events, and the columns and initial state that text
    reloads to: the both-kernel grid's lattices,
    cases and stop rules from given and drawn initial states, a long run with
    thousands of events, runs that start with the first or the last
    weight-class list full, the exact-law lattices, and voter runs on the
    voter grid's lattices under every stop rule, with and without snapshots."""
    with tempfile.TemporaryDirectory() as d, open(os.path.join(d, "log.csv"), "w+b") as log:
        return _grid_digest(log)


def _grid_digest(log) -> str:
    """`grid_digest`, with each run's log written to the open file `log`
    and reloaded from it (one file rewritten in place: opening one per run
    would take about as long as the rest of the grid)."""
    digest = hashlib.sha256()

    def add(*args, **kwargs):
        traj = run_model(*args, **kwargs)
        digest.update(repr(fingerprint(traj)).encode())
        times = traj.events.time
        for upto in (None, times[len(times) // 2]) if times else (None,):
            digest.update(repr(replay(traj.initial, traj.events, traj.model, upto)).encode())
        text = event_log_text(dataclasses.replace(traj, events=traj.events[:LOG_ROWS])).encode()
        log.seek(0)
        log.write(text)
        log.truncate()
        log.flush()
        bundle = load_event_log(log.name)
        digest.update(b"".join([text, bundle.initial.state.tobytes(),
                                *(col.tobytes() for col in bundle.events.columns())]))

    lattices = (("path", VERTICES), ("cycle", VERTICES), ("path", 2), ("cycle", 3))
    for case, (kind, size), seed in itertools.product(CASES, lattices, SEEDS[:2]):
        model, init = initial(case, kind, seed, size)
        for start, stop in itertools.product((init, drawn(case, kind, size)[1]), STOPS.values()):
            limit = stop.t_max if stop.t_max is not None else 3.0
            for snaps, urn in itertools.product(((), (0.0, 0.4, limit)), URNS):
                if model == "axelrod" or not urn:
                    add(model, start, stop, seed, snapshot_times=snaps, attach_urn=urn)
    add("axelrod", random_config(ModelParams(3, 3), Topology("path", 400), 7),
        StopRule(stop_on_absorption=True), 11, snapshot_times=(1.0, 5.0), attach_urn=True)
    for (F, kind, size), seed, stop, urn in itertools.product(FULL_CLASS, SEEDS[:2],
                                                             STOPS.values(), URNS):
        add("axelrod", gray_config(F, kind, size), stop, seed, snapshot_times=(0.0, 0.4),
            attach_urn=urn)
    for kind, seed in itertools.product(("path", "cycle"), range(40)):
        add(*drawn((3, 2), kind, 4), StopRule(t_max=3.0), seed, snapshot_times=(1.0,))
        add(*drawn("cvm", kind, 4), StopRule(t_max=3.0), seed, snapshot_times=(1.0,))
    for (kind, size), seed, stop in itertools.product(VOTER_LATTICES, SEEDS[:2], STOPS.values()):
        limit = stop.t_max if stop.t_max is not None else 3.0
        for snaps in ((), (0.0, 0.4, limit)):
            add("voter", voter_initial(kind, size, seed), stop, seed, snapshot_times=snaps)
    return digest.hexdigest()


def _sanitizer_runtimes() -> list:
    """The paths of libasan and libubsan as the C compiler reports them; a
    library it cannot find comes back as its bare name."""
    names = []
    for name in ("libasan.so", "libubsan.so"):
        out = subprocess.run([*_ckernel._CC, f"-print-file-name={name}"], capture_output=True,
                             text=True, timeout=60).stdout.strip()
        if not os.path.isabs(out) or not os.path.exists(out):
            pytest.skip(f"{name} not found by {_ckernel._CC[0]}")
        names.append(out)
    return names


def test_grid_is_clean_under_address_and_undefined_behaviour_sanitizers(lib):
    """The compiled loops and replay write through raw pointers into arrays
    Python owns.
    Built with ASan and UBSan and run with their runtimes preloaded and
    Python's allocator off (so each array is a heap block ASan can bound),
    the grid must report nothing and give the plain build's digest."""
    if shutil.which(_ckernel._CC[0]) is None:
        pytest.skip("no C compiler on this host")
    preload = _sanitizer_runtimes()
    probe = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.dirname(os.path.abspath(__file__))!r}]\n"
        "from axsim import _ckernel, engine\n"
        f"_ckernel._CFLAGS = {SANITIZE!r}\n"
        "import test_kernels\n"
        "lib = engine._kernel_lib()\n"
        "source = open(_ckernel._KERNEL_C, 'rb').read()\n"
        "print(lib is not None and lib._name == _ckernel.build_path(source))\n"
        "print(test_kernels.grid_digest())\n"
    )
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = {**os.environ, "PYTHONPATH": src, "LD_PRELOAD": " ".join(preload),
           "PYTHONMALLOC": "malloc", "ASAN_OPTIONS": "detect_leaks=0"}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=600, env=env)
    assert proc.returncode == 0 and "Sanitizer" not in proc.stderr, proc.stderr[-4000:]
    sanitized, digest = proc.stdout.split()
    assert sanitized == "True"  # the sanitized build ran, not a fallback
    assert digest == grid_digest()


def test_voter_runs_stay_in_python(lib):
    """Named when voter runs had no compiled loop; it now compares the
    compiled voter loop, which `run_on` checks the run went through, with
    its oracle, the Python voter kernel."""
    init = OpinionConfig(Topology("cycle", 9), (0, 1) * 4 + (0,), (0, 1))
    assert repr(run_on(lib, "voter", init, StopRule(t_max=3.0), 2)) == repr(
        run_on(None, "voter", init, StopRule(t_max=3.0), 2))


def replay_on(lib, *args, **kwargs):
    """`replay` with the loader returning `lib`, as `run_on` runs a model;
    with a library the events must go through the compiled replay."""
    compiled = _ckernel.replay
    used = []

    def spy(*a, **k):
        used.append(True)
        return compiled(*a, **k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_kernel_lib", lambda: lib)
        mp.setattr(_ckernel, "replay", spy)
        try:
            return replay(*args, **kwargs)
        finally:
            assert not used or lib is not None


@pytest.mark.parametrize("case", [(3, 12), "cvm", "voter"], ids=str)
def test_replay_is_the_same_on_both_loops(lib, case):
    """In full and cut before, at and after events, on logs of every kind."""
    cut = 0
    for kind, seed in itertools.product(("path", "cycle"), SEEDS):
        if case == "voter":
            model, init = "voter", voter_initial(kind, VERTICES, seed)
        else:
            model, init = initial(case, kind, seed)
        traj = run_model(model, init, StopRule(t_max=10.0), seed)
        times = traj.events.time
        mid = times[len(times) // 2] if times else 1.0
        for upto in (None, -1.0, 0.0, mid, math.nextafter(mid, 0), traj.end_time, math.inf):
            got = replay_on(lib, init, traj.events, model, upto)
            assert repr(got) == repr(replay_on(None, init, traj.events, model, upto))
            cut += upto == mid and got != traj.final
        assert replay_on(lib, init, traj.events, model) == traj.final
    assert cut >= len(SEEDS)  # most cuts stop short of the final state


def test_replay_refusals_are_the_same_on_both_loops(lib):
    cfg = random_config(ModelParams(2, 3), Topology("path", 4), 1)
    ops = OpinionConfig(Topology("cycle", 5), (0, 1, 0, 1, 1), (0, 1))
    ok = UpdateEvent(0.05, 1, 0, 1, 1)
    cases = [
        (cfg, [ok, UpdateEvent(0.1, 0, 1, 2, 1)], "axelrod", None),
        (cfg, [ok, UpdateEvent(0.1, 0, 1, -1, 1)], "axelrod", None),
        (cfg, [ok, UpdateEvent(0.1, 4, 1, 0, 1)], "axelrod", None),
        (cfg, [ok], "axelrod", math.nan),
        (cfg, [ok], "voter", None),
        (ops, [UpdateEvent(0.1, 5, 4, -1, 1)], "voter", None),
        (ops, [UpdateEvent(0.1, 0, -1, -1, 1)], "cvm", None),
        (ops, [UpdateEvent(0.1, 0, -1, -1, 1)], "voter", None),
        (cfg, [ok], "axelrod", "a"),
        (cfg, [ok], "axelrod", b"x"),
        (cfg, [ok], "axelrod", "0.1"),
        (cfg, [], "axelrod", "a"),
        (ops, [], "voter", 1j),
    ]
    for args in cases:
        messages = []
        for loop in (lib, None):
            with pytest.raises(InvalidInput) as err:
                replay_on(loop, *args)
            messages.append(str(err.value))
        assert messages[0] == messages[1], args


def test_replay_cuts_at_the_first_later_row_on_both_loops(lib):
    """The first row with time > upto ends the replay, on rows out of time
    order too, and upto is compared exactly: ints between two floats near
    2**60, where floats lie 256 apart, and ints beyond the largest float."""
    init = OpinionConfig(Topology("path", 5), (0, 1, 0, 1, 1), (0, 1))
    big = float(2 ** 60)
    rows = [UpdateEvent(1.0, 0, 1, -1, 1), UpdateEvent(3.0, 2, 1, -1, 1),
            UpdateEvent(2.0, 3, 2, -1, 1), UpdateEvent(big, 4, 3, -1, 1),
            UpdateEvent(math.inf, 1, 2, -1, 1)]
    for upto in (2.5, 0, 3, 2 ** 60 - 1, 2 ** 60, 2 ** 60 + 1, 10 ** 400, -10 ** 400,
                 math.inf, -math.inf):
        want = per_event_replay(init, rows, upto)
        for loop in (lib, None):
            assert list(replay_on(loop, init, rows, "voter", upto).opinions) == want, upto


def on_python(fn, *args):
    """`fn(*args)` with the loader returning None: the Python writers and readers."""
    with mock.patch.object(engine, "_kernel_lib", return_value=None):
        return fn(*args)


def log_of(events):
    """A trajectory as `event_log_text` reads one, with these events."""
    return SimpleNamespace(model="axelrod", initial=random_config(ModelParams(2, 3),
                                                                  Topology("path", 4), 1),
                           seed=1, end_time=1.0, absorbed=False, events=events)


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
SPECIAL_TIMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 sys.float_info.max, -sys.float_info.max, 2.2250738585072014e-308, 1e16, 1e-5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), INT64, INT64,
                          INT64, INT64), max_size=30))
@example([(t, 2 ** 63 - 1, -2 ** 63, -1, 0) for t in SPECIAL_TIMES])
@example([(1.5, -2 ** 63, 2 ** 63 - 1, 10 ** 18, -10 ** 18)])
@example([])
def test_compiled_rows_equal_the_percent_pass(lib, rows):
    """`axsim_log_rows` writes what the `%` pass writes, byte for byte: every
    double's `repr` (drawn finite ones, both zeros, both infinities, nan, the
    smallest subnormal and the largest double) and every int64."""
    traj = log_of(EventTable.of(rows))
    text = event_log_text(traj)
    assert type(text) is str and text.isascii()
    assert text == on_python(event_log_text, traj)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(2, 6), st.data())
def test_compiled_state_line_equals_pythons(lib, F, V, data):
    """`axsim_state_line` writes `_initial_line`'s text on states of F
    values a vertex, int64 ends and negative values included."""
    values = data.draw(st.lists(INT64, min_size=V * F, max_size=V * F))
    state = SimpleNamespace(state=array("q", values), topology=Topology("path", V))
    assert logio._initial_line(state) == on_python(logio._initial_line, state)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), INT64, INT64, INT64, INT64), max_size=30))
@example([(t, 2 ** 63 - 1, -2 ** 63, -1, 0) for t in SPECIAL_TIMES])
def test_compiled_reader_reads_back_what_the_writer_wrote(lib, rows):
    """Every double by its `repr` (so nan too, and the sign of zero) and
    every int64, at both ends."""
    events = EventTable.of(rows)
    got = _ckernel.parse_rows(lib, _ckernel.log_rows(lib, "", events).encode())
    assert list(map(repr, got.time)) == list(map(repr, events.time))
    assert [c.tobytes() for c in got.columns()[1:]] == [c.tobytes() for c in events.columns()[1:]]


@pytest.mark.parametrize("text,value", [
    ("9223372036854775807", 2 ** 63 - 1), ("-9223372036854775808", -2 ** 63),
    ("+007", 7), ("-0", 0),
    ("9223372036854775808", None), ("-9223372036854775809", None),
    ("18446744073709551617", None),  # 2**64 + 1, which wraps to 1 in uint64
    ("-18446744073709551615", None), ("", None), ("-", None), ("1-", None), ("1_0", None),
    (" 1", None), ("\u0661", None)])
def test_compiled_readers_take_only_int64_digit_strings(lib, text, value):
    """What they refuse, the caller parses with Python's `int`."""
    data = text.encode()
    row = _ckernel.parse_rows(lib, b"0.5,1,%s,0,1\n" % data)
    state = _ckernel.parse_state(lib, b"0,%s;1,2" % data, 2, 2)
    if value is None:
        assert row is None and state is None
    else:
        assert list(row.target) == [value] and list(state) == [0, value, 1, 2]


@pytest.mark.parametrize("case", [(3, 12), (1, 2), "cvm", "voter"], ids=str)
def test_logs_are_the_same_on_both_writers_and_readers(lib, case, tmp_path):
    """Culture, voter and CVM (-1) logs: the compiled and the Python writers
    give the same text, and a log read without the library loads to the same
    columns and initial state as with it."""
    path = str(tmp_path / "log.csv")
    for kind, seed in itertools.product(("path", "cycle"), SEEDS[:4]):
        if case == "voter":
            model, init = "voter", voter_initial(kind, VERTICES, seed)
        else:
            model, init = initial(case, kind, seed)
        traj = run_model(model, init, StopRule(t_max=10.0), seed)
        text = event_log_text(traj)
        assert text == on_python(event_log_text, traj)
        assert logio._initial_line(init) == on_python(logio._initial_line, init)
        with open(path, "w") as fh:
            fh.write(text)
        got, want = load_event_log(path), on_python(load_event_log, path)
        assert got.initial == want.initial == init
        assert got.initial.state.tobytes() == want.initial.state.tobytes()
        assert [c.tobytes() for c in got.events.columns()] == [
            c.tobytes() for c in want.events.columns()]
        assert got.events == traj.events


def test_import_neither_builds_nor_loads_the_library():
    probe = (
        "import ctypes, subprocess\n"
        "loads, runs = [], []\n"
        "cdll_init, run = ctypes.CDLL.__init__, subprocess.run\n"
        "def spy_init(self, name, *a, **k):\n"
        "    loads.append(str(name))\n"
        "    cdll_init(self, name, *a, **k)\n"
        "ctypes.CDLL.__init__ = spy_init\n"
        "subprocess.run = lambda *a, **k: (runs.append(a), run(*a, **k))[1]\n"
        "import sys, axsim\n"
        "from axsim import engine\n"
        "print(any('_kernel' in n for n in loads), len(runs),"
        " engine._kernel_lib.cache_info().currsize, 'axsim._ckernel' in sys.modules)\n"
        "cfg = axsim.random_config(axsim.ModelParams(2, 3), axsim.Topology('path', 6), 1)\n"
        "axsim.run_model('axelrod', cfg, axsim.StopRule(t_max=1.0), 1)\n"
        "print(engine._kernel_lib() is not None and any('_kernel' in n for n in loads))\n"
    )
    src = os.path.dirname(os.path.dirname(engine.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src}).stdout.split("\n")
    # At import: nothing loaded, no compiler run, no load tried, no wrapper imported.
    assert out[0] == "False 0 0 False"
    if engine._kernel_lib() is not None:
        assert out[1] == "True"  # the first culture run loads it


def test_failing_compiler_falls_back_to_the_python_kernel(tmp_path, monkeypatch):
    cfg = random_config(ModelParams(3, 4), Topology("cycle", 20), 5)
    stop = StopRule(stop_on_absorption=True)
    want = run_on(None, "axelrod", cfg, stop, 8, attach_urn=True)
    tries = tmp_path / "tries"
    script = tmp_path / "cc.py"
    script.write_text("import sys\nopen(sys.argv[1], 'a').write('x')\nsys.exit(1)\n")
    # A new command is a new build key, so the build is attempted even where one exists.
    monkeypatch.setattr(_ckernel, "_CC", (sys.executable, str(script), str(tries)))
    engine._kernel_lib.cache_clear()
    try:
        runs = [run_model("axelrod", cfg, stop, 8, attach_urn=True) for _ in range(2)]
        assert engine._kernel_lib() is None
    finally:
        engine._kernel_lib.cache_clear()
    assert all(repr(traj) == repr(want) for traj in runs)
    assert tries.read_text() == "x"  # tried once in this process


def test_build_file_is_keyed_on_the_source(lib):
    with open(_ckernel._KERNEL_C, "rb") as fh:
        source = fh.read()
    assert lib._name == _ckernel.build_path(source)
    assert _ckernel.build_path(source + b"\n") != _ckernel.build_path(source)
    assert _ckernel.build_path(source) == _ckernel.build_path(bytes(source))


def test_numpy_prototypes_match_numpys_header(tmp_path):
    """`_kernel.c` declares the numpy functions it calls by hand, since
    `numpy/random/distributions.h` needs Python.h. Compiled against that
    header, a signature numpy changed fails here by name rather than
    silently changing the trajectories."""
    if shutil.which(_ckernel._CC[0]) is None:
        pytest.skip("no C compiler on this host")
    python_include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(python_include, "Python.h")):
        pytest.skip("no Python.h on this host")
    with open(_ckernel._KERNEL_C) as fh:
        prototypes = re.findall(r"^void random_\w+\([^)]*\);", fh.read(), re.M)
    names = sorted(re.match(r"void (\w+)", p).group(1) for p in prototypes)
    assert names == ["random_bounded_uint64_fill", "random_standard_exponential_fill",
                     "random_standard_uniform_fill"]
    check = tmp_path / "prototypes.c"
    check.write_text("#include \"numpy/random/distributions.h\"\n" + "\n".join(prototypes) + "\n")
    proc = subprocess.run([*_ckernel._CC, "-Wall", "-Werror", "-fsyntax-only", "-I", python_include,
                           "-I", np.get_include(), str(check)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cpython_prototypes_match_pythons_header(tmp_path):
    """`_kernel.c` declares the CPython functions its log text functions
    call by hand, as it does numpy's, so the build needs no Python include
    path. Compiled against Python.h, a declaration that differs fails here,
    and so does the value it passes for `Py_DTSF_ADD_DOT_0`."""
    if shutil.which(_ckernel._CC[0]) is None:
        pytest.skip("no C compiler on this host")
    python_include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(python_include, "Python.h")):
        pytest.skip("no Python.h on this host")
    with open(_ckernel._KERNEL_C) as fh:
        source = fh.read()
    declarations, flag = re.search(r"^/\* From Python\.h.*?\*/\n(.*?)"
                                   r"^enum \{ DTSF_ADD_DOT_0 = (\w+) \};", source,
                                   re.M | re.S).groups()
    names = sorted(re.findall(r"\b(Py\w+)\(", declarations))
    assert names == ["PyErr_Clear", "PyMem_Free", "PyOS_double_to_string",
                     "PyOS_string_to_double", "PyUnicode_AsUTF8AndSize", "PyUnicode_New",
                     "PyUnicode_Resize", "Py_DecRef"]
    assert set(re.findall(r"\b(Py[A-Z]\w*|Py_[A-Z]\w*)\(", source)) == set(names)
    check = tmp_path / "prototypes.c"
    check.write_text("#include \"Python.h\"\n" + declarations
                     + f"_Static_assert(Py_DTSF_ADD_DOT_0 == {flag}, \"Py_DTSF_ADD_DOT_0\");\n")
    proc = subprocess.run([*_ckernel._CC, "-Wall", "-Werror", "-fsyntax-only", "-I", python_include,
                           str(check)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_kernel_builds_without_warnings(tmp_path):
    """The whole of `_kernel.c`, built as `load` builds it, draws no warning
    from -Wall -Wextra."""
    if shutil.which(_ckernel._CC[0]) is None:
        pytest.skip("no C compiler on this host")
    proc = subprocess.run([*_ckernel.build_command(str(tmp_path / "kernel.so")),
                           "-Wall", "-Wextra", "-Werror"], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def tree(root):
    out = {}
    for d, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(d, name), "rb") as fh:
                out[os.path.relpath(os.path.join(d, name), root)] = fh.read()
    return out


@pytest.mark.parametrize("kwargs", [
    dict(model="axelrod", F=3, q=4, N=30, t_max=6.0, snapshot_times=(0.5, 2.0),
         attach_urn=True, save_events=True, replicates=4),
    dict(model="axelrod", F=2, q=3, N=25, attach_urn=True, replicates=3),
    dict(model="cvm", topology="cycle", N=24, t_max=4.0, snapshot_times=(1.0,),
         save_events=True, replicates=3),
    dict(model="voter", topology="cycle", N=20, t_max=3.0, snapshot_times=(1.0,),
         save_events=True, replicates=3),
], ids=["axelrod-urn-events", "axelrod-absorbed", "cvm-events", "voter-events"])
def test_artifacts_do_not_depend_on_the_kernel(lib, tmp_path, monkeypatch, kwargs):
    trees = []
    for name, loader in (("compiled", lambda: lib), ("python", lambda: None)):
        monkeypatch.setattr(engine, "_kernel_lib", loader)
        execute(ExperimentConfig(kind="simulate", master_seed=17,
                                 output_dir=str(tmp_path / name), **kwargs))
        trees.append(tree(tmp_path / name))
    assert trees[0] == trees[1] and len(trees[0]) >= 2
