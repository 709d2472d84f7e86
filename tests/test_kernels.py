"""The compiled culture loop against the Python kernel, and how it is built.

`run_model` runs the culture model and the CVM through the compiled loop
wherever it builds. The Python kernel is its oracle: both must give the same
trajectory, bit for bit, for every seed, stop rule, snapshot set and urn.
"""
import ctypes
import hashlib
import itertools
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from functools import partial

import numpy as np
import pytest

from axsim import (
    ExperimentConfig,
    ModelParams,
    OpinionConfig,
    StopRule,
    Topology,
    edge_census,
    execute,
    random_config,
    random_opinions,
    run_model,
)
from axsim import _ckernel, engine


@pytest.fixture(scope="module")
def lib():
    lib = engine._kernel_lib()
    if lib is None:
        pytest.skip("the compiled loop could not be built on this host (no working C compiler)")
    return lib


def run_on(lib, *args, **kwargs):
    """`run_model` with the loader returning `lib`; None selects the Python kernel.

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
    assert used == ([True] if lib is not None and args[0] != "voter" else [])
    return traj


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


def test_int_t_max_gives_the_same_trajectory(lib):
    """An int `t_max` is stored as the float bound, so both kernels end at 1.0."""
    for kind, size, seed in (("path", 60, 0), ("path", 2, 3), ("cycle", 3, 1)):
        cfg = random_config(ModelParams(3, 12), Topology(kind, size), seed)
        runs = [run_on(loop, "axelrod", cfg, StopRule(t_max=t), seed, snapshot_times=(0.5,))
                for loop in (lib, None) for t in (1, 1.0)]
        assert len({repr(traj) for traj in runs}) == 1, (kind, size)
        assert repr(runs[0].end_time) == "1.0"


def test_long_runs_grow_the_columns_and_classes_alike(lib):
    """Thousands of events: the columns are refilled many times and the
    weight classes outgrow the room they started with."""
    cfg = random_config(ModelParams(3, 3), Topology("path", 400), 7)
    # The urn's state must survive every refill too.
    kwargs = dict(snapshot_times=(1.0, 5.0, 20.0), attach_urn=True)
    got = run_on(lib, "axelrod", cfg, StopRule(stop_on_absorption=True), 11, **kwargs)
    want = run_on(None, "axelrod", cfg, StopRule(stop_on_absorption=True), 11, **kwargs)
    assert len(got.events) > 20 * _ckernel._FIRST_CAP
    assert repr(got) == repr(want)


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
    checked = 0
    for case in [c for c in CASES if c != "cvm"]:
        F = case[0]
        for kind in ("path", "cycle"):
            for seed in SEEDS:
                _, cfg = initial(case, kind, seed)
                for stop in STOPS.values():
                    rng, urn_rng = engine._rng_pair(seed, True)
                    if lib is None:
                        kernel = partial(engine._culture_kernel, cfg, urn_rng=urn_rng)
                        path = engine._python_loop(kernel, stop, rng, [])
                    else:
                        path = _ckernel.compiled_loop(lib, cfg, stop, rng, [], urn_rng)
                    boxes, _, _, beta, W = path.urn
                    assert beta == sum((F - j) * boxes[j] for j in range(1, F + 1))
                    assert W == edge_census(path.final).total_agreement
                    checked += any(d == 2 for d in path.events.delta_w)
    assert checked > 100  # most runs moved the urn


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


SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer", "-shared", "-fPIC", "-ffp-contract=off")


def grid_digest() -> str:
    """sha256 over the `repr` of a grid of culture and CVM runs on the kernel
    `run_model` picks: the both-kernel grid's lattices, cases and stop rules
    from given and drawn initial states, a run whose weight classes outgrow
    their first room, and the exact-law lattices."""
    digest = hashlib.sha256()

    def add(*args, **kwargs):
        digest.update(repr(run_model(*args, **kwargs)).encode())

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
    for kind, seed in itertools.product(("path", "cycle"), range(40)):
        add(*drawn((3, 2), kind, 4), StopRule(t_max=3.0), seed, snapshot_times=(1.0,))
        add(*drawn("cvm", kind, 4), StopRule(t_max=3.0), seed, snapshot_times=(1.0,))
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
    """The compiled loop writes through raw pointers into arrays Python owns.
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
    init = OpinionConfig(Topology("cycle", 9), (0, 1) * 4 + (0,), (0, 1))
    assert repr(run_on(lib, "voter", init, StopRule(t_max=3.0), 2)) == repr(
        run_on(None, "voter", init, StopRule(t_max=3.0), 2))


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
], ids=["axelrod-urn-events", "axelrod-absorbed", "cvm-events"])
def test_artifacts_do_not_depend_on_the_kernel(lib, tmp_path, monkeypatch, kwargs):
    trees = []
    for name, loader in (("compiled", lambda: lib), ("python", lambda: None)):
        monkeypatch.setattr(engine, "_kernel_lib", loader)
        execute(ExperimentConfig(kind="simulate", master_seed=17,
                                 output_dir=str(tmp_path / name), **kwargs))
        trees.append(tree(tmp_path / name))
    assert trees[0] == trees[1] and len(trees[0]) >= 2
