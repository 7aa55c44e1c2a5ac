"""Replayable chaos soak: antagonists x faults x invariants.

This package closes the robustness loop.  :mod:`repro.antagonists`
supplies hostile software, :mod:`repro.faults` supplies dying hardware;
chaos composes seeded random mixes of both into a plan
(:func:`generate_plan`) on one fixed machine and soaks a victim SPU
under it (:func:`run_soak`).  A plan is a fuzz scenario with
``harness="chaos"``, so :func:`repro.fuzz.run_scenario` runs it,
:func:`repro.fuzz.shrink_scenario` shrinks it, and ``python -m repro
fuzz --repro FILE`` replays the repro file a failing soak writes.

``python -m repro chaos`` is the CI entry point: a bounded multi-seed
soak that exits non-zero (and writes the repro file) on any violation.
"""

from repro.chaos.plan import generate_plan
from repro.chaos.soak import run_soak

__all__ = ["generate_plan", "run_soak"]
