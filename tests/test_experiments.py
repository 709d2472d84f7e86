"""Experiment orchestration: snapshot tables, summary checks, the worker pool."""
import concurrent.futures
import csv
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from axsim import (ExperimentConfig, InvalidInput, ModelParams, execute, random_config,
                   random_opinions, run_model)
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

    def test_duality_check_with_a_model_F_and_q_does_not_run(self, tmp_path):
        with pytest.raises(InvalidInput):
            execute(ExperimentConfig(kind="duality-check", model="cvm", F=3, q=7,
                                     topology="cycle", N=8, t_query=1.0, replicates=3,
                                     output_dir=str(tmp_path)))
        assert not any(tmp_path.iterdir())


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

    @pytest.mark.parametrize("workers,replicates,cpus,size", [
        (64, 3, 4, 3), (64, 10, 4, 4), (2, 10, 4, 2), (1, 10, 4, None),
        (8, 1, 4, None), (8, 10, None, None)])
    def test_pool_capped(self, monkeypatch, workers, replicates, cpus, size):
        _patch_pool(monkeypatch, cpus)
        config = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10,
                                  replicates=replicates, workers=workers)
        rows = experiments._map_replicates(experiments._rounds_replicate, config)
        assert _RecordingPool.sizes == ([] if size is None else [size])
        serial = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10, replicates=replicates)
        assert json.dumps(rows) == json.dumps(
            experiments._map_replicates(experiments._rounds_replicate, serial))

    @pytest.mark.parametrize("replicate_s,pooled", [
        (experiments.POOL_BREAK_EVEN_S / 19 * 0.99, False),
        (experiments.POOL_BREAK_EVEN_S / 19 * 1.01, True)])
    def test_pool_only_when_it_pays(self, monkeypatch, replicate_s, pooled):
        # Replicate 0 runs in the parent and is timed; the other 19 go to the
        # pool only if 19 times its duration exceeds the break-even time.
        _patch_pool(monkeypatch, cpus=2, replicate_s=replicate_s)
        config = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10, replicates=20,
                                  workers=2)
        rows = experiments._map_replicates(experiments._rounds_replicate, config)
        assert _RecordingPool.sizes == ([2] if pooled else [])
        assert _RecordingPool.tasks == ([(list(range(1, 20)), 10)] if pooled else [])
        assert [row["replicate"] for row in rows] == list(range(20))
        serial = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10, replicates=20)
        assert json.dumps(rows) == json.dumps(
            experiments._map_replicates(experiments._rounds_replicate, serial))

    @pytest.mark.parametrize("n", [1, 2, 3, 19, 31, 32, 33, 100, 999, 4099])
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_shares_differ_by_at_most_one_chunk(self, monkeypatch, n, workers):
        # Replicates 1..n-1 go to the pool as at most one contiguous task per worker.
        _patch_pool(monkeypatch, cpus=8)
        config = ExperimentConfig(kind="urn-rounds", replicates=n, workers=workers)
        rows = experiments._map_replicates(lambda config, r, seed: r, config)
        assert rows == list(range(n))
        if n == 1:
            assert _RecordingPool.tasks == []
            return
        workers = min(workers, n)
        assert _RecordingPool.sizes == [workers]
        [(pooled, size)] = _RecordingPool.tasks
        assert pooled == list(range(1, n))
        chunks = -(-(n - 1) // size)
        shares = [min(size, n - 1 - k * size) for k in range(chunks)] + [0] * (workers - chunks)
        assert chunks <= workers and sum(shares) == n - 1
        assert max(shares) - min(shares) <= size
        assert size == -(-(n - 1) // workers)  # no chunk exceeds an even share


class TestLemma5Workers:
    def test_replicates_go_through_the_pool(self, monkeypatch, tmp_path):
        # 40 replicates at 2 workers: replicate 0 here, 1..39 to the pool in
        # one task of 20 per worker; the artifacts and the estimate equal the serial run's.
        kwargs = dict(kind="lemma5-estimate", F=2, q=5, N=20, xyz=(5, 10, 15), t_query=1.0,
                      replicates=40, master_seed=6)
        serial = execute(ExperimentConfig(output_dir=str(tmp_path / "w1"), **kwargs))
        _patch_pool(monkeypatch, cpus=2)
        pooled = execute(ExperimentConfig(output_dir=str(tmp_path / "w2"), workers=2, **kwargs))
        assert _RecordingPool.sizes == [2]
        assert _RecordingPool.tasks == [(list(range(1, 40)), 20)]
        assert pooled == serial
        for name in serial.outputs:
            assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()
        est = experiments.estimate_lemma_0edge_probability(
            experiments.ModelParams(2, 5), 20, 5, 10, 15, 1.0, 40, 6)
        assert serial.aggregates["hits"] == est.hits > 0
        assert serial.aggregates["estimate"] == est.estimate


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
    """`concurrent.futures` is imported only when a pool starts."""
    probe = ("import sys, axsim.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n")
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
