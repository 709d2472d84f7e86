"""Command-line experiment harness.

One subcommand per experiment kind in `experiments.KINDS`, with one flag per
field the kind reads. A flat key=value config file can seed any flag of the
subcommand; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import sys

from .bounds import Table1
from .core import InvalidInput
from .engine import MODELS
from .experiments import _ALWAYS_READ, KINDS, ExperimentConfig, execute


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _config_argv(parser: argparse.ArgumentParser, command: str, path: str) -> list:
    """The config file's key=value lines as the equivalent flags of `command`.

    A switch takes 1, true or yes, or 0, false or no, in any case. A file
    that cannot be read, a key that is not a flag of the subcommand, or a
    switch with another value is an error (exit code 2).
    """
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[command]
    actions = {opt: a for a in sub._actions for opt in a.option_strings}
    try:
        pairs = _parse_config_file(path)
    except OSError as exc:
        sub.error(f"cannot read config file {path}: {exc.strerror}")
    argv = []
    for key, val in pairs.items():
        flag = "--" + key.replace("_", "-")
        action = actions.get(flag)
        if action is None or action.dest in ("config", "help"):
            sub.error(f"config key {key!r} is not a flag of {command}")
        if action.nargs != 0:
            argv.append(f"{flag}={val}")
        elif val.lower() in ("1", "true", "yes"):
            argv.append(flag)
        elif val.lower() not in ("0", "false", "no"):
            sub.error(f"config key {key!r} takes yes or no, got {val!r}")
    return argv


def _snapshot_times(spec: str) -> tuple:
    return tuple(float(s) for s in spec.split(",") if s.strip())


# ExperimentConfig field -> {flag: argparse keywords}. Each flag stores into the
# field it sets, bar --x/--y/--z, which join into xyz. Every flag defaults to
# None, so a flag left unset keeps the field's default.
_FLAGS = {
    "master_seed": {"--seed": dict(type=int, metavar="SEED")},
    "output_dir": {"--out": dict(metavar="OUT", help="output directory")},
    "workers": {"--workers": dict(type=int)},
    "model": {"--model": dict(choices=tuple(MODELS))},
    "F": {"--F": dict(type=int)},
    "q": {"--q": dict(type=int)},
    "topology": {"--topology": dict(choices=("path", "cycle"))},
    "N": {"--N": dict(type=int, help="path: edge count; cycle: vertex count")},
    "replicates": {"--replicates": dict(type=int)},
    "t_max": {"--t-max": dict(type=float)},
    "max_events": {"--max-events": dict(type=int)},
    "snapshot_times": {"--snapshots": dict(type=_snapshot_times, metavar="SNAPSHOTS",
                                           help="comma-separated sample times")},
    "attach_urn": {"--attach-urn": dict(action="store_true")},
    "save_events": {"--save-events": dict(action="store_true")},
    "theta": {"--theta": dict(type=float)},
    "xyz": {flag: dict(type=int, dest=flag[2:]) for flag in ("--x", "--y", "--z")},
    "t_query": {"--t": dict(type=float, metavar="T")},
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="axsim")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, kind in KINDS.items():
        p = sub.add_parser(name, help=kind.help)
        p.add_argument("--config", help="key=value file supplying flag defaults")
        for field in _ALWAYS_READ[1:] + kind.fields:  # kind is the subcommand
            for flag, kwargs in _FLAGS[field].items():
                p.add_argument(flag, **{"dest": field, "default": None, **kwargs})
        if name == "table1":
            p.add_argument("--format", choices=("text", "csv"), default="text")
    return ap


def _experiment_config(args) -> ExperimentConfig:
    """ExperimentConfig from the options actually given; the rest keep its defaults."""
    given = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "config", "format")}
    given["xyz"] = tuple(given.pop(k) for k in ("x", "y", "z") if k in given)  # () is the default
    return ExperimentConfig(kind=args.command, **given)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # The config file's flags go ahead of the explicit ones, which win.
        args = parser.parse_args(argv[:1] + _config_argv(parser, args.command, args.config)
                                 + argv[1:])
    try:
        summary = execute(_experiment_config(args))
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "table1" and getattr(args, "format", "text") == "text":
        print(Table1(**summary.aggregates).render_text())
    else:
        print(json.dumps({"aggregates": summary.aggregates, "checks": summary.checks},
                         indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
