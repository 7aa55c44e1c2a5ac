"""Discrete-event simulation substrate.

The engine (:class:`~repro.sim.engine.Engine`) provides the simulated
clock, event queue, and deterministic randomness that every other
subsystem builds on.  Nothing in this package knows about CPUs, memory,
or disks.
"""

from repro.sim.engine import Engine, EventHandle, PeriodicTimer, SimulationError
from repro.sim import units

__all__ = [
    "Engine",
    "EventHandle",
    "PeriodicTimer",
    "SimulationError",
    "units",
]
