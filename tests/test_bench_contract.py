"""The benchmark's contract with the program.

`bench/run.py` traces names of the package (`logio.edge_census`,
`experiments.random_config`, ...) and its set-up probe, `bench/probe.py`,
enters through the CLI flags. A rename in `src/` that breaks either would
otherwise show only when the benchmark runs. Both run here on a copy of
`src/` and `bench/`, so nothing is written into the repository.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

from axsim import engine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("absorb", "short-runs", "logs")
# Each workload's first call as the CLI arguments the set-up probe passes.
PROBE_ARGV = (
    "import json, sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import run, workloads\n"
    "print(json.dumps({name: run.cli_argv(wl.calls[0][1], 1, wl.workers, sys.argv[3])\n"
    "                  for name, wl in workloads.WORKLOADS.items()}))\n"
)


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """`src/` and `bench/` side by side in a temporary directory. The
    compiled loop is built first, so the copy takes the build along."""
    engine._kernel_lib()
    root = tmp_path_factory.mktemp("bench")
    for name in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, name), root / name)
    return root


def _python(root, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_reports_every_layer(tree, workload):
    out = _python(tree, tree / "bench" / "run.py", "--workload", workload, "--seed", 1,
                  "--seconds", 0.01, "--trace", 1)
    report = json.loads(out.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [layer["name"] for layer in json.load(fh)["per_layer"]]
    assert [name for name in names if name not in report["metrics"]] == []


def test_set_up_probe_parses_each_workload(tree):
    argvs = json.loads(_python(tree, "-c", PROBE_ARGV, tree / "bench", tree / "src",
                               tree / "probe-out"))
    assert sorted(argvs) == sorted(WORKLOADS)
    for argv in argvs.values():
        float(_python(tree, tree / "bench" / "probe.py", tree / "src", *argv))
