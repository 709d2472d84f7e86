"""Experiment orchestration: snapshot tables, summary checks, the worker pool."""
import concurrent.futures
import csv
import dataclasses
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import weakref
from functools import cached_property, partial

import numpy as np
import pytest

from axsim import (ExperimentConfig, InvalidInput, ModelParams, StopRule, execute,
                   random_config, random_opinions, run_model)
from axsim import engine, experiments


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSnapshotMeans:
    @pytest.mark.parametrize("model,F,width", [("voter", 2, 2), ("cvm", 2, 2), ("axelrod", 3, 4)])
    def test_one_column_per_census_count(self, model, F, width, tmp_path):
        q = 4 if model == "axelrod" else 2  # the opinion models take no F or q
        execute(ExperimentConfig(kind="simulate", model=model, F=F, q=q, topology="cycle",
                                 N=20, t_max=3.0, snapshot_times=(1.0, 2.0), replicates=2,
                                 output_dir=str(tmp_path)))
        header, *rows = read_csv(tmp_path / "snapshots_mean.csv")
        assert header == (["t"] + [f"mean_w_{j}_frac" for j in range(width)]
                          + ["mean_W", "mean_N_domains"])
        assert [float(r[0]) for r in rows] == [1.0, 2.0]
        for r in rows:
            assert sum(float(v) for v in r[1:1 + width]) == pytest.approx(1.0)


class TestSnapshotsBeyondTmax:
    def test_rejected_by_validate(self):
        config = ExperimentConfig(kind="simulate", N=10, t_max=1.0, snapshot_times=(0.5, 5.0))
        with pytest.raises(InvalidInput):
            config.validate()
        ExperimentConfig(kind="simulate", N=10, t_max=1.0, snapshot_times=(0.5, 1.0)).validate()


class TestSnapshotsWithMaxEvents:
    @pytest.mark.parametrize("t_max", [None, 5.0])
    def test_rejected_by_validate(self, t_max):
        config = ExperimentConfig(kind="simulate", N=10, t_max=t_max, max_events=3,
                                  snapshot_times=(1.0,))
        with pytest.raises(InvalidInput):
            config.validate()
        ExperimentConfig(kind="simulate", N=10, t_max=t_max, max_events=3).validate()


# An int beyond the largest float: `math.isfinite` raises OverflowError on it.
TOO_BIG = pytest.param(10 ** 400, id="10**400")


class TestTimeBounds:
    """Times that would hang a run (NaN), run it backward or never end it fail fast."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, TOO_BIG])
    def test_simulate(self, bad):
        for config in (dict(t_max=bad), dict(t_max=2.0, snapshot_times=(bad, 0.5)),
                       dict(model="voter", t_max=bad)):
            with pytest.raises(InvalidInput):
                ExperimentConfig(kind="simulate", N=10, **config).validate()
        with pytest.raises(InvalidInput):
            ExperimentConfig(kind="simulate", N=10, max_events=-3).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -2.0, TOO_BIG, "2"])
    def test_query_time(self, bad):
        duality = dict(kind="duality-check", topology="cycle", N=8, replicates=1)
        lemma5 = dict(kind="lemma5-estimate", N=10, xyz=(2, 5, 8), replicates=2)
        for config in (duality, lemma5):
            ExperimentConfig(**config, t_query=0.5).validate()
            with pytest.raises(InvalidInput, match="time t"):
                ExperimentConfig(**config, t_query=bad).validate()


class TestFieldsAKindIgnores:
    """A field the kind never reads is rejected, not recorded in summary.json."""

    BASES = {
        "duality-check": dict(topology="cycle", N=8, t_query=1.0, replicates=3),
        "urn-rounds": dict(F=2, q=3, N=10),
        "lemma5-estimate": dict(N=10, xyz=(2, 5, 8), t_query=0.5, replicates=2),
        "bounds": dict(F=2, q=3),
        "table1": dict(),
    }

    @pytest.mark.parametrize("kind", sorted(BASES))
    @pytest.mark.parametrize("model", ["voter", "cvm"])
    def test_model_only_for_simulate(self, kind, model):
        ExperimentConfig(kind=kind, **self.BASES[kind]).validate()
        with pytest.raises(InvalidInput, match="takes no model"):
            ExperimentConfig(kind=kind, model=model, **self.BASES[kind]).validate()

    @pytest.mark.parametrize("kind", sorted(BASES))
    @pytest.mark.parametrize("field", [dict(attach_urn=True), dict(snapshot_times=(1.0,)),
                                       dict(t_max=2.0), dict(max_events=5),
                                       dict(save_events=True)], ids=lambda f: next(iter(f)))
    def test_run_fields_only_for_simulate(self, kind, field):
        with pytest.raises(InvalidInput, match=f"{kind} takes no {next(iter(field))}"):
            ExperimentConfig(kind=kind, **self.BASES[kind], **field).validate()

    def test_urn_rounds_with_run_fields_does_not_run(self, tmp_path):
        with pytest.raises(InvalidInput, match="urn-rounds takes no"):
            execute(ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10, attach_urn=True,
                                     snapshot_times=(1.0,), t_max=2.0, save_events=True,
                                     max_events=5, output_dir=str(tmp_path)))
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("Fq", [dict(F=3), dict(q=7), dict(F=3, q=7)], ids=["F", "q", "F-q"])
    def test_duality_check_takes_no_F_or_q(self, Fq):
        with pytest.raises(InvalidInput, match="no F or q"):
            ExperimentConfig(kind="duality-check", **self.BASES["duality-check"], **Fq).validate()

    @pytest.mark.parametrize("model", ["voter", "cvm"])
    @pytest.mark.parametrize("Fq", [dict(F=3), dict(q=9), dict(F=3, q=9)], ids=["F", "q", "F-q"])
    def test_opinion_models_take_no_F_or_q(self, model, Fq):
        base = dict(kind="simulate", model=model, N=8, t_max=1.0)
        ExperimentConfig(**base, F=2, q=2).validate()
        with pytest.raises(InvalidInput, match=f"^{model} takes no F or q$"):
            ExperimentConfig(**base, **Fq).validate()

    @pytest.mark.parametrize("Fq", [dict(F=3), dict(q=7), dict(F=3, q=7)], ids=["F", "q", "F-q"])
    def test_bounds_with_theta_takes_no_F_or_q(self, Fq):
        # The theta query reads neither, yet summary.json would record them.
        ExperimentConfig(kind="bounds", theta=0.5, F=2, q=2).validate()
        with pytest.raises(InvalidInput, match="^bounds with theta takes no F or q$"):
            ExperimentConfig(kind="bounds", theta=0.5, **Fq).validate()
        ExperimentConfig(kind="bounds", **Fq).validate()

    @pytest.mark.parametrize("theta", ["x", "0.5", 1j, [0.5]], ids=repr)
    def test_bounds_theta_must_be_a_real_number(self, theta):
        with pytest.raises(InvalidInput, match="theta must be a real number"):
            execute(ExperimentConfig(kind="bounds", theta=theta))
        execute(ExperimentConfig(kind="bounds", theta=np.float64(0.5)))

    def test_duality_check_with_a_model_F_and_q_does_not_run(self, tmp_path):
        with pytest.raises(InvalidInput):
            execute(ExperimentConfig(kind="duality-check", model="cvm", F=3, q=7,
                                     topology="cycle", N=8, t_query=1.0, replicates=3,
                                     output_dir=str(tmp_path)))
        assert not any(tmp_path.iterdir())


class TestNonIntegers:
    """A count, size, vertex or parameter that is no integer is refused
    before anything runs or is written."""

    @pytest.mark.parametrize("config,message", [
        (dict(kind="simulate", N=10.5, t_max=1.0), "N must be an integer, got 10.5"),
        (dict(kind="simulate", N=10, t_max=1.0, replicates=2.5),
         "replicates must be an integer, got 2.5"),
        (dict(kind="simulate", N=10, t_max=1.0, F=2.0), "F must be an integer, got 2.0"),
        (dict(kind="simulate", N=10, t_max=1.0, workers=2.5),
         "workers must be an integer, got 2.5"),
        (dict(kind="urn-rounds", F=2, q=3, N=7.5), "N must be an integer, got 7.5"),
        (dict(kind="urn-rounds", F=2, q=3.0, N=7), "q must be an integer, got 3.0"),
        (dict(kind="duality-check", topology="cycle", N=8.5, t_query=1.0),
         "N must be an integer, got 8.5"),
        (dict(kind="lemma5-estimate", N=100, xyz=(10.5, 20, 30), t_query=1.0),
         "x, y and z must be integers, got (10.5, 20, 30)"),
    ])
    def test_refused(self, tmp_path, config, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            execute(ExperimentConfig(output_dir=str(tmp_path), **config))
        assert not any(tmp_path.iterdir())

    def test_numpy_ints_pass(self):
        ExperimentConfig(kind="simulate", N=np.int64(10), t_max=1.0, replicates=np.int32(2),
                         workers=np.int64(1)).validate()
        ExperimentConfig(kind="lemma5-estimate", N=np.int64(10), t_query=0.5,
                         xyz=tuple(np.arange(2, 9, 3))).validate()


class TestNumpyNumbers:
    """numpy numbers are stored as Python numbers when the config is built,
    so the artifacts are those of the same config with Python numbers."""

    SIMULATE = dict(kind="simulate", N=10, t_max=1.0, snapshot_times=(0.5,), replicates=2)
    LEMMA5 = dict(kind="lemma5-estimate", N=10, xyz=(2, 5, 8), t_query=0.5, replicates=3)

    @pytest.mark.parametrize("base,numpy_fields", [
        (SIMULATE, dict(N=np.int64(10))),
        (SIMULATE, dict(t_max=np.float32(1.0))),
        (SIMULATE, dict(master_seed=np.uint64(3))),
        (SIMULATE, dict(replicates=np.int32(2))),
        (SIMULATE, dict(attach_urn=np.True_)),
        (SIMULATE, dict(snapshot_times=(np.float32(0.5),))),
        (SIMULATE, dict(F=np.int8(3), q=np.uint16(4), workers=np.int64(1))),
        (LEMMA5, dict(xyz=tuple(np.arange(2, 9, 3)), t_query=np.float64(0.5))),
        (dict(kind="bounds"), dict(theta=np.float32(0.5))),
    ], ids=lambda v: "-".join(v) if "kind" not in v else v["kind"])
    def test_same_artifacts_as_python_numbers(self, tmp_path, base, numpy_fields):
        python_fields = {k: _python(v) for k, v in numpy_fields.items()}
        trees = []
        for name, values in (("numpy", numpy_fields), ("python", python_fields)):
            config = ExperimentConfig(**{**base, **values}, output_dir=str(tmp_path / name))
            assert repr({k: getattr(config, k) for k in values}) == repr(python_fields)
            execute(config)
            trees.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert trees[0] == trees[1]
        if base["kind"] == "simulate":
            assert {"summary.json", "aggregate.csv", "snapshots_mean.csv"} <= set(trees[0])

    @pytest.mark.parametrize("base,name,value", [
        (SIMULATE, "snapshot_times", np.array([0.5])),
        (SIMULATE, "snapshot_times", np.array([0.5], np.float32)),
        (SIMULATE, "snapshot_times", [0.5]),
        (LEMMA5, "xyz", np.arange(2, 9, 3)),
        (LEMMA5, "xyz", [np.int64(2), 5, 8]),
    ], ids=["simulate-array", "simulate-float32-array", "simulate-list", "lemma5-array",
            "lemma5-list"])
    def test_a_list_or_array_for_a_tuple_field(self, tmp_path, base, name, value):
        """Stored as the tuple of Python numbers it holds, so it writes the
        files of its tuple twin; an array once ran and then failed in
        `json.dumps`."""
        trees = []
        for given in (value, base[name]):
            out = tmp_path / str(len(trees))
            config = ExperimentConfig(**{**base, name: given}, output_dir=str(out))
            assert repr(getattr(config, name)) == repr(base[name])
            execute(config)
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert trees[0] == trees[1] and "summary.json" in trees[0]


def _python(value):
    """The Python number, or tuple of numbers, that a numpy value stands for."""
    return tuple(map(_python, value)) if isinstance(value, tuple) else value.item()


class TestLemma5Topology:
    def test_only_a_path_is_accepted(self):
        # The estimate is defined on the path {0,...,N}; a cycle would be
        # recorded in summary.json but not run.
        config = dict(kind="lemma5-estimate", N=10, xyz=(2, 5, 8), t_query=0.5, replicates=2)
        ExperimentConfig(**config).validate()
        with pytest.raises(InvalidInput, match="path"):
            ExperimentConfig(**config, topology="cycle").validate()


# A valid config of each kind, and for each field besides the four every kind
# reads, a value away from its default.
VALID = {**TestFieldsAKindIgnores.BASES, "simulate": dict(N=10, t_max=1.0)}
AWAY = dict(model="voter", F=3, q=7, topology="cycle", N=12, t_max=2.0, max_events=5,
            replicates=2, snapshot_times=(1.0,), attach_urn=True, save_events=True, theta=0.5,
            xyz=(1, 2, 3), t_query=1.0)


class TestKindsTable:
    """`experiments.KINDS` alone decides which fields each kind reads."""

    def test_every_field_and_kind_is_covered(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert names - set(AWAY) == {"kind", "master_seed", "workers", "output_dir"}
        assert set(VALID) == set(experiments.KINDS)
        for kind, row in experiments.KINDS.items():
            assert set(row.fields) <= set(AWAY)
            ExperimentConfig(kind=kind, **VALID[kind]).validate()

    @pytest.mark.parametrize("kind,field", [(kind, field) for kind, row in experiments.KINDS.items()
                                            for field in AWAY if field not in row.fields])
    def test_a_field_outside_the_row_is_refused(self, kind, field):
        if (kind, field) == ("lemma5-estimate", "topology"):
            message = "lemma5-estimate runs on a path only"
        else:
            message = f"{kind} takes no {'F or q' if field in ('F', 'q') else field}"
        config = ExperimentConfig(kind=kind, **{**VALID[kind], field: AWAY[field]})
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            config.validate()


class TestChainCheck:
    def test_urn_attached_cycle_run(self):
        summary = execute(ExperimentConfig(kind="simulate", F=2, q=3, topology="cycle",
                                           N=12, replicates=20, master_seed=3,
                                           attach_urn=True))
        assert summary.aggregates["n_absorbed"] == 20
        assert summary.checks["chain_b0_le_w0_le_domains"] is True
        assert summary.checks["urn_pathwise_b0_le_w0"] is True


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size,
    the replicates it is given and their chunk size."""
    sizes: list = []
    tasks: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = concurrent.futures.Future()
        done.set_result(fn(*args))
        return done

    def map(self, fn, configs, rs, seeds, chunksize=1):
        self.tasks.append((list(rs), chunksize))
        return map(fn, configs, self.tasks[-1][0], seeds)


def _patch_pool(monkeypatch, cpus=4, replicate_s=1.0):
    """Fake pool and CPU count, and a clock on which each reading is
    `replicate_s` after the previous one, so replicate 0 seems to take that long."""
    # `_map_replicates` imports the pool from `concurrent.futures` only when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "tasks", [])
    clock = itertools.count(0.0, replicate_s)
    monkeypatch.setattr(experiments, "perf_counter", lambda: next(clock))


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(InvalidInput):
            execute(ExperimentConfig(kind="urn-rounds", N=10, workers=workers))

    @pytest.mark.parametrize("workers,replicates,cpus,tasks", [
        (64, 3, 4, 2), (64, 10, 4, 3), (2, 10, 4, 2), (1, 10, 4, None), (8, 2, 4, None),
        (8, 1, 4, None), (8, 10, None, None)])
    def test_pool_capped(self, monkeypatch, workers, replicates, cpus, tasks):
        # This process runs the first task; the pool has one worker per other task.
        _patch_pool(monkeypatch, cpus)
        config = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10,
                                  replicates=replicates, workers=workers)
        rows = experiments._map_replicates(experiments._rounds_replicate, config)
        assert _RecordingPool.sizes == ([] if tasks is None else [tasks - 1])
        serial = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10, replicates=replicates)
        assert json.dumps(rows) == json.dumps(
            experiments._map_replicates(experiments._rounds_replicate, serial))

    @pytest.mark.parametrize("replicate_s,pooled", [
        (experiments.POOL_BREAK_EVEN_S / 19 * 0.99, False),
        (experiments.POOL_BREAK_EVEN_S / 19 * 1.01, True)])
    def test_pool_only_when_it_pays(self, monkeypatch, replicate_s, pooled):
        # Replicate 0 runs in the parent and is timed; the other 19 make two
        # tasks of 10 and 9, and the second goes to a pool of one worker only
        # if 19 times replicate 0's duration exceeds the break-even time.
        _patch_pool(monkeypatch, cpus=2, replicate_s=replicate_s)
        config = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10, replicates=20,
                                  workers=2)
        rows = experiments._map_replicates(experiments._rounds_replicate, config)
        assert _RecordingPool.sizes == ([1] if pooled else [])
        assert _RecordingPool.tasks == ([(list(range(11, 20)), 10)] if pooled else [])
        assert [row["replicate"] for row in rows] == list(range(20))
        serial = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10, replicates=20)
        assert json.dumps(rows) == json.dumps(
            experiments._map_replicates(experiments._rounds_replicate, serial))

    @pytest.mark.parametrize("n", [1, 2, 3, 19, 31, 32, 33, 100, 999, 4099])
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_shares_differ_by_at_most_one_chunk(self, monkeypatch, n, workers):
        # Replicates 1..n-1 make at most one contiguous task per worker. This
        # process runs the first, with replicate 0, after the pool, of one
        # worker per other task, has the others, and before it reads the
        # pool's rows (the stand-in runs them then); a single task runs here.
        _patch_pool(monkeypatch, cpus=8)
        config = ExperimentConfig(kind="urn-rounds", replicates=n, workers=workers)
        calls = []
        rows = experiments._map_replicates(
            lambda config, r, seed: calls.append((r, len(_RecordingPool.tasks))) or r, config)
        assert rows == list(range(n))
        if n <= 2:
            assert calls == [(r, 0) for r in range(n)]
            assert _RecordingPool.sizes == _RecordingPool.tasks == []
            return
        assert calls == [(0, 0)] + [(r, 1) for r in range(1, n)]
        workers = min(workers, n)
        [(pooled, size)] = _RecordingPool.tasks
        assert pooled == list(range(size + 1, n))
        chunks = -(-(n - 1) // size)
        assert _RecordingPool.sizes == [chunks - 1] and 2 <= chunks <= workers
        shares = [min(size, n - 1 - k * size) for k in range(chunks)]
        assert sum(shares) == n - 1 and min(shares) >= 1  # no worker idles
        assert max(shares) - min(shares) <= size
        assert size == -(-(n - 1) // workers)  # no chunk exceeds an even share

    def test_the_setup_is_built_before_the_clock_starts(self, monkeypatch):
        """Replicate 0's time, which decides on the pool, leaves out the
        setup: a setup that takes a second, on the clock `_map_replicates`
        reads, and replicates that take no time start no pool."""
        _patch_pool(monkeypatch, cpus=2)
        now = [0.0]
        monkeypatch.setattr(experiments, "perf_counter", lambda: now[0])
        build = ExperimentConfig.setup.func

        def slow(config):
            now[0] += 1.0
            return build(config)

        setup = cached_property(slow)
        setup.__set_name__(ExperimentConfig, "setup")
        monkeypatch.setattr(ExperimentConfig, "setup", setup)
        config = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10, replicates=20, workers=2)
        rows = experiments._map_replicates(
            lambda config, r, seed: (config.setup.model, r, seed.seed), config)
        assert now == [1.0] and _RecordingPool.sizes == _RecordingPool.tasks == []
        seeds = experiments.replicate_seeds(0, 20)
        assert rows == [("axelrod", r, seeds[r]) for r in range(20)]


class TestLemma5Workers:
    def test_replicates_go_through_the_pool(self, monkeypatch, tmp_path):
        # 40 replicates at 2 workers: replicates 1..39 make two tasks of 20
        # and 19. Replicate 0 and the first task run here, and the second in a
        # pool of one worker; the artifacts and the estimate equal the serial run's.
        kwargs = dict(kind="lemma5-estimate", F=2, q=5, N=20, xyz=(5, 10, 15), t_query=1.0,
                      replicates=40, master_seed=6)
        serial = execute(ExperimentConfig(output_dir=str(tmp_path / "w1"), **kwargs))
        _patch_pool(monkeypatch, cpus=2)
        pooled = execute(ExperimentConfig(output_dir=str(tmp_path / "w2"), workers=2, **kwargs))
        assert _RecordingPool.sizes == [1]
        assert _RecordingPool.tasks == [(list(range(21, 40)), 20)]
        assert pooled == serial
        for name in serial.outputs:
            assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()
        # Without an output directory the kind gives the same numbers.
        est = execute(ExperimentConfig(**kwargs)).aggregates
        assert serial.aggregates["hits"] == est["hits"] > 0
        assert serial.aggregates["estimate"] == est["estimate"]


# The artifacts of two lemma5-estimate runs, pinned byte for byte: one with
# 21 hits, and one in which no replicate hits the conditioning event.
LEMMA5_HIT = '''\
{
  "defined": true,
  "estimate": 0.2857142857142857,
  "hits": 21,
  "replicates": 40,
  "std_error": 0.0985807941917649,
  "successes": 6,
  "target": 0.25
}
'''
LEMMA5_HIT_SUMMARY = '''\
{
  "aggregates": {
    "defined": true,
    "estimate": 0.2857142857142857,
    "hits": 21,
    "replicates": 40,
    "std_error": 0.0985807941917649,
    "successes": 6,
    "target": 0.25
  },
  "checks": {
    "within_3se_of_target": true
  },
  "config": {
    "F": 2,
    "N": 20,
    "attach_urn": false,
    "kind": "lemma5-estimate",
    "master_seed": 6,
    "max_events": null,
    "model": "axelrod",
    "q": 5,
    "replicates": 40,
    "save_events": false,
    "snapshot_times": [],
    "t_max": null,
    "t_query": 1.0,
    "theta": null,
    "topology": "path",
    "xyz": [
      5,
      10,
      15
    ]
  },
  "kind": "lemma5-estimate",
  "outputs": [
    "lemma5_estimate.json",
    "summary.json"
  ]
}
'''
LEMMA5_NO_HIT = '''\
{
  "defined": false,
  "estimate": null,
  "hits": 0,
  "replicates": 3,
  "std_error": null,
  "successes": 0,
  "target": 0.25
}
'''
LEMMA5_NO_HIT_SUMMARY = '''\
{
  "aggregates": {
    "defined": false,
    "estimate": null,
    "hits": 0,
    "replicates": 3,
    "std_error": null,
    "successes": 0,
    "target": 0.25
  },
  "checks": {},
  "config": {
    "F": 2,
    "N": 20,
    "attach_urn": false,
    "kind": "lemma5-estimate",
    "master_seed": 13,
    "max_events": null,
    "model": "axelrod",
    "q": 5,
    "replicates": 3,
    "save_events": false,
    "snapshot_times": [],
    "t_max": null,
    "t_query": 1.0,
    "theta": null,
    "topology": "path",
    "xyz": [
      5,
      10,
      15
    ]
  },
  "kind": "lemma5-estimate",
  "outputs": [
    "lemma5_estimate.json",
    "summary.json"
  ]
}
'''


class TestLemma5Artifacts:
    @pytest.mark.parametrize("replicates,seed,estimate,summary", [
        (40, 6, LEMMA5_HIT, LEMMA5_HIT_SUMMARY),
        (3, 13, LEMMA5_NO_HIT, LEMMA5_NO_HIT_SUMMARY)])
    def test_pinned_bytes(self, replicates, seed, estimate, summary, tmp_path):
        execute(ExperimentConfig(kind="lemma5-estimate", F=2, q=5, N=20, xyz=(5, 10, 15),
                                 t_query=1.0, replicates=replicates, master_seed=seed,
                                 output_dir=str(tmp_path)))
        assert (tmp_path / "lemma5_estimate.json").read_text() == estimate
        assert (tmp_path / "summary.json").read_text() == summary


class TestRealPool:
    def test_a_forked_worker_gives_the_serial_artifacts(self, monkeypatch, tmp_path):
        """A real pool of one worker runs the second task on the config it
        receives pickled, with the setup replicate 0 built; every artifact
        equals the serial run's."""
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(experiments, "POOL_BREAK_EVEN_S", 0.0)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        kwargs = dict(kind="simulate", F=2, q=5, N=40, t_max=3.0, snapshot_times=(2.0, 1.0),
                      attach_urn=True, save_events=True, replicates=9, master_seed=5)
        for workers in (1, 2):
            execute(ExperimentConfig(workers=workers, output_dir=str(tmp_path / f"w{workers}"),
                                     **kwargs))
        assert started == [1]
        names = sorted(os.listdir(tmp_path / "w1"))
        assert names == sorted(os.listdir(tmp_path / "w2")) and len(names) == 12
        for name in names:
            assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()


class TestSetup:
    def test_built_once_and_pickled_with_the_config(self):
        config = ExperimentConfig(kind="simulate", F=2, q=5, N=40, t_max=3.0,
                                  snapshot_times=(2.0, 0.5, 1.0))
        setup = config.setup
        assert config.setup is setup
        assert setup.times == (0.5, 1.0, 2.0) and setup.stop == config.stop_rule()
        back = pickle.loads(pickle.dumps(config))
        assert back == config and back.setup._replace(draw=None) == setup._replace(draw=None)
        assert back.setup.draw(np.random.default_rng(3)) == setup.draw(np.random.default_rng(3))

    @pytest.mark.parametrize("kind,model,stop", [
        ("simulate", "voter", StopRule(t_max=2.0)),
        ("duality-check", "voter", StopRule(t_max=1.5)),
        ("lemma5-estimate", "axelrod", StopRule(t_max=1.5)),
        ("urn-rounds", "axelrod", StopRule(stop_on_absorption=True))])
    def test_each_kind_runs_its_model(self, kind, model, stop):
        kwargs = {"simulate": dict(model="voter", t_max=2.0),
                  "duality-check": dict(t_query=1.5),
                  "lemma5-estimate": dict(xyz=(1, 2, 3), t_query=1.5)}.get(kind, {})
        config = ExperimentConfig(kind=kind, N=10, **kwargs)
        config.validate()
        assert (config.setup.model, config.setup.stop) == (model, stop)

    def test_no_state_outlives_its_config(self):
        """Nothing keeps a finished experiment's config, or what its
        replicates shared, alive: a cache keyed on the config would."""
        refs = []
        for seed, kwargs in itertools.product(range(6), TestOneSeedPerReplicate.KINDS.values()):
            config = ExperimentConfig(master_seed=seed, replicates=3, **kwargs)
            execute(config)
            assert "setup" in vars(config)  # its replicates shared one
            refs.append(weakref.ref(config))
        del config
        assert [ref() for ref in refs] == [None] * len(refs)


class TestOneSeedPerReplicate:
    KINDS = {
        "simulate": dict(kind="simulate", F=2, q=3, topology="cycle", N=12, t_max=2.0),
        "simulate-urn": dict(kind="simulate", F=2, q=3, N=12, attach_urn=True),
        "voter": dict(kind="simulate", model="voter", topology="cycle", N=12, t_max=2.0),
        "cvm": dict(kind="simulate", model="cvm", N=12, t_max=2.0),
        "urn-rounds": dict(kind="urn-rounds", F=2, q=4, N=12),
        "duality-check": dict(kind="duality-check", topology="cycle", N=12, t_query=2.0),
        "lemma5-estimate": dict(kind="lemma5-estimate", F=2, q=5, N=12, xyz=(2, 5, 8),
                                t_query=1.0),
    }

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_one_generator_per_replicate(self, name, monkeypatch):
        """Each replicate builds one Generator (two with the urn), and the
        experiment one SeedSequence for all its replicate seeds."""
        built, words = [], []
        default_rng, seeds = np.random.default_rng, experiments.replicate_seeds
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: (
            built.append(seed) if not isinstance(seed, np.random.Generator) else None,
            default_rng(seed))[1])
        monkeypatch.setattr(experiments, "replicate_seeds",
                            lambda master, n: words.append(n) or seeds(master, n))
        execute(ExperimentConfig(replicates=5, master_seed=9, **self.KINDS[name]))
        assert words == [5]
        assert len(built) == (10 if name == "simulate-urn" else 5)

    def test_word_r_seeds_replicate_r_whatever_the_count(self):
        for master in (0, 9, 2 ** 64 - 1):
            words = np.random.SeedSequence(master).generate_state(50, np.uint64).tolist()
            for n in (1, 2, 7, 50):
                assert experiments.replicate_seeds(master, n) == words[:n]
            assert len(set(words)) == 50 and all(type(w) is int for w in words)

    @pytest.mark.parametrize("loop", ["compiled", "python"])
    @pytest.mark.parametrize("model", ["axelrod", "cvm"])
    def test_an_aggregate_row_seed_reruns_its_replicate(self, loop, model, tmp_path,
                                                        monkeypatch):
        """`run_model(model, draw, stop, seed)` with a row's seed alone gives
        that row's event count and census."""
        if loop == "python":
            monkeypatch.setattr(engine, "_kernel_lib", lambda: None)
        elif engine._kernel_lib() is None:
            pytest.skip("the compiled loop could not be built on this host")
        config = ExperimentConfig(kind="simulate", model=model, F=2, q=2 if model == "cvm" else 4,
                                  N=30, t_max=5.0, replicates=6, master_seed=21,
                                  attach_urn=model == "axelrod", output_dir=str(tmp_path))
        execute(config)
        topo = config.make_topology()
        draw = (partial(random_config, ModelParams(2, 4), topo) if model == "axelrod"
                else partial(random_opinions, topo, (-1, 0, 1)))
        rows = read_csv(tmp_path / "aggregate.csv")
        header = rows[0]
        for row in rows[1:]:
            row = dict(zip(header, row))
            traj = run_model(model, draw, config.stop_rule(), int(row["seed"]))
            assert len(traj.events) == int(row["n_events"]) > 0
            assert list(traj.final_census.counts) == [
                int(row[f"w_{j}"]) for j in range(len(traj.final_census.counts))]


def test_importing_the_cli_leaves_the_pool_unloaded():
    """`concurrent.futures` is imported only when a pool starts, and
    `numpy.random` only when a run builds a Generator: neither is loaded by
    importing the CLI and validating a `simulate` config."""
    probe = ("import sys, axsim.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
             "axsim.cli.ExperimentConfig(kind='simulate', N=40, t_max=3.0,\n"
             "                           snapshot_times=(1.0, 2.0), replicates=9).validate()\n"
             "print('numpy.random' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split("\n") == ["[]", "False", ""]
