"""Command-line interface: subcommands, config files, and rerun determinism."""
import argparse
import json
import os
import re
import shlex
from dataclasses import asdict

import pytest

from axsim import ExperimentConfig
from axsim.cli import build_parser, main
from axsim.experiments import KINDS

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_bounds_query(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--F", "2", "--q", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregates"]["lower_bound_density"] == pytest.approx(0.375)
        assert payload["aggregates"]["domain_length_upper"] == pytest.approx(8 / 3)

    def test_table1_text(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        assert "2.6667" in out
        assert "neg." in out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 9  # header + F=2..9

    def test_table1_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "csv")
        assert code == 0
        payload = json.loads(out)
        assert "cells" in payload["aggregates"]
        assert payload["aggregates"]["fs"] == list(range(2, 10))

    def test_simulate_smoke(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "axelrod", "--F", "2", "--q", "2",
            "--topology", "cycle", "--N", "16", "--t-max", "2.0",
            "--replicates", "3", "--seed", "5", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregates"]["replicates"] == 3
        assert os.path.exists(tmp_path / "aggregate.csv")
        assert os.path.exists(tmp_path / "summary.json")

    def test_urn_rounds_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "urn-rounds", "--F", "2", "--q", "3",
                               "--N", "20", "--replicates", "20", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregates"]["replicates"] == 20

    def test_duality_check_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "duality-check", "--topology", "cycle",
                               "--N", "12", "--t", "3.0", "--replicates", "10",
                               "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"]["pathwise_duality_all_true"] is True
        assert payload["aggregates"]["total_mismatches"] == 0

    def test_lemma5_binary_alphabet(self, capsys):
        code, out, _ = run_cli(capsys, "lemma5-estimate", "--F", "2", "--q", "2",
                               "--N", "10", "--x", "2", "--y", "5", "--z", "8",
                               "--t", "0.5", "--replicates", "50", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregates"]["estimate"] == 1.0


class TestValidation:
    def test_missing_subcommand_raises(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_parameters_return_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--model", "axelrod",
                               "--F", "0", "--q", "2", "--N", "8",
                               "--t-max", "1.0")
        assert code == 2
        assert "error" in err

    def test_bad_replicates_return_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--model", "axelrod",
                               "--F", "2", "--q", "2", "--N", "8",
                               "--t-max", "1.0", "--replicates", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("urn-rounds", "--F", "2", "--q", "4", "--N", "10"),
        ("duality-check", "--N", "10", "--t", "1.0"),
        ("lemma5-estimate", "--N", "10", "--x", "2", "--y", "5", "--z", "8", "--t", "0.5"),
    ])
    def test_zero_replicates_return_2_for_every_replicated_kind(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--replicates", "0", "--out", str(out))
        assert code == 2
        assert "replicates must be >= 1" in err and stdout == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--F", "2", "--q", "3", "--N", "5", "--t-max", "1"),
        ("urn-rounds", "--F", "2", "--q", "4", "--N", "10"),
        ("duality-check", "--N", "10", "--t", "1.0"),
        ("lemma5-estimate", "--N", "10", "--x", "2", "--y", "5", "--z", "8", "--t", "0.5"),
    ])
    def test_negative_seed_returns_2_for_every_replicated_kind(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--seed", "-1", "--out", str(out))
        assert code == 2
        assert "seed must be an integer >= 0" in err and stdout == "" and not out.exists()

    @pytest.mark.parametrize("model", ["voter", "cvm"])
    def test_opinion_model_with_F_or_q_returns_2(self, capsys, tmp_path, model):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "simulate", "--model", model, "--F", "3", "--q", "9",
                                    "--N", "8", "--t-max", "1", "--out", str(out))
        assert code == 2
        assert f"{model} takes no F or q" in err and stdout == "" and not out.exists()

    def test_q_beyond_int64_returns_2(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "simulate", "--F", "2", "--q", str(10 ** 20),
                                    "--N", "5", "--t-max", "1", "--out", str(out))
        assert code == 2
        assert "q must be <= 2**63" in err and stdout == "" and not out.exists()
        code, _, _ = run_cli(capsys, "simulate", "--F", "2", "--q", str(2 ** 63), "--N", "5",
                             "--t-max", "1", "--attach-urn")
        assert code == 0

    def test_snapshot_beyond_t_max_returns_2(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--N", "10", "--t-max", "1",
                               "--snapshots", "5", "--replicates", "2", "--out", str(out))
        assert code == 2
        assert "t_max" in err and not out.exists()

    def test_snapshots_with_max_events_return_2(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--N", "10", "--max-events", "3",
                               "--snapshots", "100", "--replicates", "2", "--out", str(out))
        assert code == 2
        assert "max_events" in err and not out.exists()


class TestConfigFile:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("F = 2\nq = 4\n# comment line\n")
        code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["aggregates"]["q"] == 4

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("F=2\nq=4\n")
        code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg),
                               "--q", "8")
        assert code == 0
        assert json.loads(out)["aggregates"]["q"] == 8

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("replicats=5\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--t-max", "1.0"])
        assert exc.value.code == 2
        assert "replicats" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "absent" / "x.cfg"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(missing)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {missing}" in err and "Traceback" not in err

    def test_key_of_another_subcommand_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("theta=0.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--t-max", "1.0"])
        assert exc.value.code == 2
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize("value,urn", [("no", False), ("yes", True)])
    def test_boolean_and_list_keys(self, capsys, tmp_path, value, urn):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"attach_urn={value}\nF=2\nq=4\nN=10\nreplicates=2\n"
                       "snapshots=0.5,1.0\n")
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
        assert code == 0
        config = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
        assert config["attach_urn"] is urn
        assert config["snapshot_times"] == [0.5, 1.0]
        header = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()[0]
        assert ("B_0" in header) is urn


class TestDefaults:
    def test_unset_flags_keep_experiment_defaults(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "table1", "--out", str(tmp_path))
        assert code == 0
        expected = asdict(ExperimentConfig(kind="table1"))
        del expected["workers"], expected["output_dir"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"] == json.loads(json.dumps(expected))


def readme_cli_commands():
    """Every `axsim ...` line of README's CLI section, continuations joined."""
    with open(README) as fh:
        text = fh.read()
    section = re.search(r"^## CLI\n(.*?)(?=^## )", text, re.S | re.M).group(1)
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in map(str.strip, lines) if line.startswith("axsim ")]


class TestReadmeCommands:
    def test_every_readme_command_parses(self):
        commands = readme_cli_commands()
        assert len(commands) >= 10
        parser = build_parser()
        seen = set()
        for argv in commands:
            try:
                seen.add(parser.parse_args(argv[1:]).command)
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        assert seen == {"simulate", "bounds", "table1", "urn-rounds", "duality-check",
                        "lemma5-estimate"}


# Each ExperimentConfig field's flags, by name.
FIELD_FLAGS = {"model": ["--model"], "F": ["--F"], "q": ["--q"], "topology": ["--topology"],
               "N": ["--N"], "replicates": ["--replicates"], "t_max": ["--t-max"],
               "max_events": ["--max-events"], "snapshot_times": ["--snapshots"],
               "attach_urn": ["--attach-urn"], "save_events": ["--save-events"],
               "theta": ["--theta"], "xyz": ["--x", "--y", "--z"], "t_query": ["--t"]}


class TestKindsTable:
    def test_each_subcommand_takes_its_rows_fields_and_the_common_flags(self):
        (subparsers,) = (a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == list(KINDS)
        for kind, row in KINDS.items():
            flags = [opt for a in subparsers.choices[kind]._actions for opt in a.option_strings]
            expected = (["-h", "--help", "--config", "--seed", "--out", "--workers"]
                        + [flag for field in row.fields for flag in FIELD_FLAGS[field]]
                        + (["--format"] if kind == "table1" else []))  # output format only
            assert flags == expected, kind


class TestDeterminism:
    def _simulate(self, capsys, out_dir, workers):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "axelrod", "--F", "2", "--q", "3",
            "--topology", "cycle", "--N", "24", "--t-max", "3.0",
            "--snapshots", "1.0,2.0", "--replicates", "8", "--seed", "11",
            "--workers", str(workers), "--out", str(out_dir))
        assert code == 0
        return out

    def test_rerun_and_worker_count_byte_identical(self, capsys, tmp_path):
        dirs = [tmp_path / name for name in ("a", "b", "c")]
        outs = [self._simulate(capsys, dirs[0], 1),
                self._simulate(capsys, dirs[1], 1),
                self._simulate(capsys, dirs[2], 2)]
        assert outs[0] == outs[1] == outs[2]
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1])) == sorted(os.listdir(dirs[2]))
        for name in names:
            ref = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == ref
            assert (dirs[2] / name).read_bytes() == ref
