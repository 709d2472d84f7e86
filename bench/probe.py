"""Set-up probe: start the axsim CLI and stop where the first replicate would start.

Usage: python3 bench/probe.py SRC_DIR CLI_ARGS...

Imports axsim from SRC_DIR, parses CLI_ARGS with the real CLI and validates
the resulting configuration, then prints time.monotonic() (a clock shared by
all processes on the machine) and exits without running the experiment.
"""
import sys
import time


class _Reached(Exception):
    """Carries the time at which the validated configuration was handed over."""


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from axsim import cli, experiments

    def stop(config):
        config.validate()
        raise _Reached(time.monotonic())

    cli.execute = experiments.execute = stop
    try:
        cli.main(sys.argv[2:])
    except _Reached as reached:
        print(repr(reached.args[0]), flush=True)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
