"""Experiment orchestration: snapshot tables, summary checks, the worker pool."""
import csv
import json

import pytest

from axsim import ExperimentConfig, InvalidInput, execute
from axsim import experiments


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSnapshotMeans:
    @pytest.mark.parametrize("model,F,width", [("voter", 2, 2), ("cvm", 2, 2), ("axelrod", 3, 4)])
    def test_one_column_per_census_count(self, model, F, width, tmp_path):
        execute(ExperimentConfig(kind="simulate", model=model, F=F, q=4, topology="cycle",
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


class TestChainCheck:
    def test_urn_attached_cycle_run(self):
        summary = execute(ExperimentConfig(kind="simulate", F=2, q=3, topology="cycle",
                                           N=12, replicates=20, master_seed=3,
                                           attach_urn=True))
        assert summary.aggregates["n_absorbed"] == 20
        assert summary.checks["chain_b0_le_w0_le_domains"] is True
        assert summary.checks["urn_pathwise_b0_le_w0"] is True


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(InvalidInput):
            execute(ExperimentConfig(kind="urn-rounds", N=10, workers=workers))

    @pytest.mark.parametrize("workers,replicates,cpus,size", [
        (64, 3, 4, 3), (64, 10, 4, 4), (2, 10, 4, 2), (1, 10, 4, None),
        (8, 1, 4, None), (8, 10, None, None)])
    def test_pool_capped(self, monkeypatch, workers, replicates, cpus, size):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        config = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10,
                                  replicates=replicates, workers=workers)
        rows = experiments._map_replicates(experiments._rounds_replicate, config)
        assert _RecordingPool.sizes == ([] if size is None else [size])
        serial = ExperimentConfig(kind="urn-rounds", F=2, q=3, N=10, replicates=replicates)
        assert json.dumps(rows) == json.dumps(
            experiments._map_replicates(experiments._rounds_replicate, serial))
