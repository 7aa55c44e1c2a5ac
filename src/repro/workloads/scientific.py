"""Compute-intensive scientific/engineering applications (Section 4.3).

* **Ocean** — a SPLASH-2-style parallel application: N processes
  iterate over barrier-separated phases, so one slow process drags the
  gang (which is why CPU interference hurts it disproportionately on a
  stock SMP kernel).
* **Flashlite** and **VCS** — long-running single-process simulators
  with "kernel time only at the start-up phase": one big compute after
  a short startup burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.kernel.locks import Barrier
from repro.kernel.syscalls import Behavior, BarrierWait, Compute, SetWorkingSet
from repro.sim.units import msecs


@dataclass(frozen=True)
class OceanParams:
    """A gang of ``nprocs`` iterating ``phases`` barrier-separated steps."""

    nprocs: int = 4
    phases: int = 20
    phase_ms: float = 100.0
    ws_pages: int = 0
    touches_per_ms: float = 4.0


def ocean_processes(params: OceanParams) -> List[Behavior]:
    """Behaviours for one Ocean gang (spawn each in the same SPU)."""
    barrier = Barrier(params.nprocs, name="ocean")

    def worker() -> Behavior:
        phase = Compute(msecs(params.phase_ms))
        arrive = BarrierWait(barrier)
        if params.ws_pages:
            yield SetWorkingSet(params.ws_pages, touches_per_ms=params.touches_per_ms)
        for _ in range(params.phases):
            yield phase
            yield arrive

    return [worker() for _ in range(params.nprocs)]


@dataclass(frozen=True)
class SimulatorParams:
    """A single-process compute job (Flashlite, VCS)."""

    total_ms: float
    startup_ms: float = 50.0
    ws_pages: int = 0
    touches_per_ms: float = 4.0


def simulator_process(params: SimulatorParams) -> Behavior:
    """One Flashlite/VCS-style job: startup burst, then pure compute."""
    if params.ws_pages:
        yield SetWorkingSet(params.ws_pages, touches_per_ms=params.touches_per_ms)
    yield Compute(msecs(params.startup_ms))
    yield Compute(msecs(params.total_ms))
