"""simlint — static analysis for the simulator's own rules.

Four checker families guard the properties the rest of the repo can
only test end-to-end:

* **determinism** (SL1xx) — no wall clocks, process entropy, hash-order
  iteration, or address-derived keys inside the simulated world;
* **event safety** (SL2xx) — SPU ledgers mutate only through the
  accounting API; every ordering carries a deterministic tie-break;
* **typed units** (SL3xx) — the ``_us``/``_ms``/``nbytes``/``npages``
  suffix conventions of :mod:`repro.sim.units` are internally
  consistent;
* **hot path** (SL4xx) — the PR-3-optimised modules keep ``__slots__``
  and allocation-free dispatch loops.

Entry points: :func:`repro.lint.framework.run_lint` (library),
``python -m repro lint`` (CLI).  An intentional exception is excused
at its site with an inline ``# simlint: disable=`` comment carrying
its justification.  The runtime companion is :mod:`repro.sanitizer`
(SIMSAN).
"""

from repro.lint.finding import Finding, Rule
from repro.lint.framework import (
    Checker,
    FileContext,
    HOT_MODULES,
    LintError,
    SIM_SCOPE,
    all_rules,
    register,
    run_lint,
)

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "HOT_MODULES",
    "LintError",
    "Rule",
    "SIM_SCOPE",
    "all_rules",
    "register",
    "run_lint",
]
