"""``python -m repro`` — the one front door.

Subcommands:

* ``experiments`` — regenerate the paper's tables and figures
  (``python -m repro experiments fig5 table4 --seed 1 --workers 4``);
* ``chaos`` — the seeded chaos soak (``python -m repro chaos --seed 0
  --workers 4``);
* ``fuzz`` — generative scenario fuzzing with a resumable corpus and
  ddmin-shrunken repro files (``python -m repro fuzz --seed 0
  --count 50 --workers 4``; ``--repro FILE`` replays a repro);
* ``fleet`` — the fleet failover smoke gate: a seeded multi-machine
  run with one whole-machine crash, checked for conservation
  violations and serial-vs-parallel byte-identity
  (``python -m repro fleet --scheme piso --seed 0``);
* ``lint`` — simlint, the simulator's own static analysis
  (``python -m repro lint --effects``).

The simulating subcommands share ``--seed``-style determinism and
``--workers`` for the parallel sweep executor (1 = in-process, 0 =
auto-size), but ``fleet`` needs at least 2: its identity check compares
worker-process runs with the serial one.  For back-compatibility, bare
section names (``python -m repro pmake8 fig5``) still work and mean
``experiments``.
"""

from __future__ import annotations

import sys
from typing import List

USAGE = __doc__


def main(argv: List[str]) -> int:
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    command, rest = (argv[0], argv[1:]) if argv else ("experiments", [])
    if command == "experiments":
        from repro.experiments.runner import main as experiments_main

        return experiments_main(rest)
    if command == "chaos":
        from repro.chaos.soak import main as chaos_main

        return chaos_main(rest)
    if command == "fuzz":
        from repro.fuzz.__main__ import main as fuzz_main

        return fuzz_main(rest)
    if command == "fleet":
        from repro.fleet.__main__ import main as fleet_main

        return fleet_main(rest)
    if command == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(rest)
    # Bare section names (the pre-subcommand CLI) mean "experiments".
    from repro.experiments.runner import main as experiments_main

    return experiments_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
