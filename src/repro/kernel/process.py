"""The simulated process."""

from __future__ import annotations

import enum
from array import array
from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

from repro.cpu.priorities import ProcessPriority
from repro.kernel.syscalls import Behavior
from repro.mem.workingset import WorkingSetModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.scheduler import Processor
    from repro.sim.engine import EventHandle


class ProcessState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    EXITED = "exited"


class CheckpointLog:
    """The ``(label, time)`` markers a process's Checkpoint ops recorded.

    Two columns rather than a list of tuples: ``labels`` holds
    references to the ops' label strings and ``times`` an
    ``array('q')`` of simulated µs, so a marker costs about 16 bytes
    instead of a tuple and an int object.  Iterating yields the pairs
    in record order.  The kernel appends to both columns directly;
    nothing else writes them.
    """

    __slots__ = ("labels", "times")

    def __init__(self) -> None:
        self.labels: List[str] = []
        self.times = array("q")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return zip(self.labels, self.times)


class Process:
    """One process: a behaviour generator plus scheduling/memory state."""

    # Simulations create and churn thousands of processes; slots keep
    # them compact and attribute access cheap.  ``_ws_rng`` is assigned
    # by the kernel when the process first gets a working-set model.
    __slots__ = (
        "pid", "spu_id", "behavior", "name", "default_base_priority",
        "priority", "state", "parent", "children", "waiting_for_children",
        "pending_compute", "cpu", "slice_started", "slice_handle",
        "last_cpu_id", "slice_warmup", "working_set", "resident",
        "paged_out", "gang", "spinning", "runnable_since",
        "dispatch_retry_pending", "kill_reason", "created", "finished",
        "cpu_time_us", "fault_count", "checkpoints", "_ws_rng",
    )

    def __init__(
        self,
        pid: int,
        spu_id: int,
        behavior: Behavior,
        name: str = "",
        base_priority: int = 20,
        created: int = 0,
        parent: Optional[int] = None,
    ):
        self.pid = pid
        self.spu_id = spu_id
        self.behavior = behavior
        self.name = name or f"proc{pid}"
        self.default_base_priority = base_priority
        self.priority = ProcessPriority(base=base_priority, now=created)
        self.state = ProcessState.NEW
        self.parent = parent
        self.children: Set[int] = set()
        self.waiting_for_children = False

        # --- CPU execution state -------------------------------------------
        #: Remaining CPU time of the current Compute op.
        self.pending_compute = 0
        self.cpu: Optional["Processor"] = None
        self.slice_started = -1
        self.slice_handle: Optional["EventHandle"] = None
        #: CPU the process last ran on (for cache-affinity cost).
        self.last_cpu_id: Optional[int] = None
        #: Cache warm-up portion of the current slice; no compute
        #: progress is made during it.
        self.slice_warmup = 0

        # --- memory state -------------------------------------------------
        self.working_set: Optional[WorkingSetModel] = None
        #: Anonymous pages currently resident.
        self.resident = 0
        #: Working-set pages stolen from this process and sitting on
        #: swap; re-touching them needs a disk read (unlike first-touch
        #: zero-fill faults, which cost no I/O).
        self.paged_out = 0

        #: Gang this process belongs to, if co-scheduled (see
        #: repro.kernel.gang).
        self.gang = None
        #: Set while busy-waiting at a spin barrier.
        self.spinning = False
        #: When the process last became runnable (for gang anti-
        #: starvation aging).
        self.runnable_since = -1
        #: A live dispatch-retry event exists (time-shared CPUs only).
        self.dispatch_retry_pending = False

        #: Why the kernel forcibly terminated this process (``"oom"``,
        #: escalation), or None for a voluntary exit.
        self.kill_reason: Optional[str] = None

        # --- metrics -------------------------------------------------------
        self.created = created
        self.finished = -1
        self.cpu_time_us = 0
        self.fault_count = 0
        #: (label, time) markers recorded by Checkpoint ops.
        self.checkpoints = CheckpointLog()

    # --- derived ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state is not ProcessState.EXITED

    @property
    def response_us(self) -> int:
        """Creation-to-exit wall time; valid only after exit."""
        if self.finished < 0:
            raise ValueError(f"process {self.pid} has not exited")
        return self.finished - self.created

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Process {self.pid} {self.name!r} spu={self.spu_id}"
            f" {self.state.value}>"
        )
