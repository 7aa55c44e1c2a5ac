# simlint: skip-file  (host-side tool: reads os.environ by design)
"""SIMSAN — the runtime invariant sanitizer.

The static linter (:mod:`repro.lint`) proves the *code* follows the
determinism and accounting rules; SIMSAN checks that the *numbers* do,
while a simulation runs.  It hooks the engine's dispatch loop and
re-derives the kernel's conservation laws after every event:

* **monotonic virtual time** — the clock never moves backwards;
* **ledger sanity**, **page conservation** and **CPU conservation** —
  the laws it shares with the invariant watchdog, stated once in
  :mod:`repro.faults.laws`;
* **disk-bandwidth conservation** — per drive, the sectors charged to
  SPU ledgers equal the sectors moved by successful completions, and
  no charge is negative;
* **cache index** — the buffer cache's per-SPU LRU dicts and its dirty
  index agree with its blocks;
* **link index** — every network link's per-SPU FIFOs hold only their
  SPU's packets, in arrival order, and add up to its queue depth;
* **run queue** — the CPU scheduler's waiting count equals the
  processes in its run queues, and each queued process sits once, in
  its own SPU's queue;
* **memory settled** — while the memory-sharing daemon would skip its
  pass (no denials pending, no page count moved since its last full
  pass), every active user SPU's memory ``entitled`` is already the
  contract's share of the user pool and its ``allowed`` is already
  ``max(entitled, used)``: the skipped pass had nothing to change.

This complements the periodic :class:`repro.faults.invariants.InvariantWatchdog`:
the watchdog checks the shared laws every clock tick and *records*
violations; SIMSAN checks at event granularity and *raises* at the
first corrupt event, so the failing event is still on the stack.

Enable it with ``REPRO_SIMSAN=1`` (any of ``1/true/yes/on``); the
kernel installs it at :meth:`~repro.kernel.kernel.Kernel.boot`.  Code
that must force it on or off for the kernels it boots wraps them in
:func:`switched`.  Tests can also install it directly::

    from repro.sanitizer import SimSanitizer
    san = SimSanitizer(kernel)
    san.install()
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from repro.disk.drive import SpuBandwidthLedger
from repro.faults.laws import breaches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from repro.kernel.kernel import Kernel

#: Environment switch; truthy values enable the sanitizer at boot.
ENV_ENABLE = "REPRO_SIMSAN"

_TRUTHY = ("1", "true", "yes", "on")


class SanitizerError(AssertionError):
    """An invariant broke; the message names the law, time, and books."""


class SimSanitizer:
    """Re-derives the kernel's conservation laws after events.

    One instance watches one kernel.  :meth:`install` hooks the
    engine's post-event callback; :meth:`check` is also callable
    directly (the kernel runs it once more when :meth:`Kernel.run`
    returns, so state changed outside any event is checked too).
    """

    __slots__ = ("kernel", "checks_run", "events_seen", "_last_now")

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.checks_run = 0
        self.events_seen = 0
        self._last_now = kernel.engine.now

    # --- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        self.kernel.engine.set_sanitizer(self._after_event)

    # --- the hook ----------------------------------------------------------

    def _after_event(self) -> None:
        self.events_seen += 1
        now = self.kernel.engine.now
        if now < self._last_now:
            self._fail(
                "monotonic-time",
                f"clock moved backwards: {self._last_now}us -> {now}us",
            )
        self._last_now = now
        self.check()

    # --- the laws ----------------------------------------------------------

    def check(self) -> None:
        """Run the full invariant suite once, raising on the first breach."""
        self.checks_run += 1
        kernel = self.kernel

        # Ledger sanity, page and CPU conservation: the laws the
        # watchdog shares (repro.faults.laws).
        for law, detail in breaches(kernel):
            self._fail(law, detail)

        # Disk-bandwidth conservation, per drive with a real ledger.
        for drive in kernel.drives:
            ledger = drive.ledger
            if not isinstance(ledger, SpuBandwidthLedger):
                continue
            charged_sectors = 0
            for spu_id, nsectors in ledger.total_charged.items():
                if nsectors < 0:
                    self._fail(
                        "disk-conservation",
                        f"disk {drive.disk_id}: SPU {spu_id} charged"
                        f" {nsectors} sectors < 0",
                    )
                charged_sectors += nsectors
            if charged_sectors != drive.stats.ok_sectors:
                self._fail(
                    "disk-conservation",
                    f"disk {drive.disk_id}: {charged_sectors} sectors charged"
                    f" != {drive.stats.ok_sectors} moved by successful requests",
                )

        # Buffer-cache index: the cache re-derives it from its blocks.
        drift = kernel.fs.cache.index_drift()
        if drift is not None:
            self._fail("cache-index", drift)

        # Link index: each NIC's per-SPU FIFOs, re-derived likewise.
        for link in kernel.links:
            drift = link.index_drift()
            if drift is not None:
                self._fail("link-index", drift)

        # Run queue: the waiting count the dispatch path trusts,
        # re-derived from the queues.
        sched = kernel.cpusched
        if sched is not None:
            drift = sched.index_drift()
            if drift is not None:
                self._fail("runqueue", drift)

        # Memory settled: a pass the daemon skips must be a no-op, so
        # re-derive what it would set and check it already holds.
        daemon = kernel.memdaemon
        if daemon is not None and daemon.settled:
            users = kernel.registry.active_user_spus()
            want = kernel.config.contract.entitlements(
                kernel.memory.user_pool(), users
            )
            for spu in users:
                levels = spu.memory()
                if levels.entitled != want[spu.spu_id]:
                    self._fail(
                        "memory-settled",
                        f"SPU {spu.spu_id}: entitled {levels.entitled}"
                        f" (want {want[spu.spu_id]})",
                    )
                cap = max(levels.entitled, levels.used)
                if levels.allowed != cap:
                    self._fail(
                        "memory-settled",
                        f"SPU {spu.spu_id}: allowed {levels.allowed}"
                        f" (want {cap})",
                    )

    def _fail(self, law: str, detail: str) -> None:
        raise SanitizerError(
            f"SIMSAN [t={self.kernel.engine.now}us] {law}: {detail}"
        )


def enabled() -> bool:
    """Whether ``REPRO_SIMSAN`` asks for the sanitizer."""
    return os.environ.get(ENV_ENABLE, "").strip().lower() in _TRUTHY


@contextmanager
def switched(on: Optional[bool]) -> Iterator[None]:
    """Force SIMSAN on (True) or off (False) for kernels booted in the block.

    ``None`` leaves the choice to the environment.  The switch is the
    ``REPRO_SIMSAN`` variable the kernel reads at boot, so it reaches
    every kernel built inside the block, including a fleet's lazily
    built machines; the variable's previous value comes back on exit.
    """
    if on is None:
        yield
        return
    before = os.environ.get(ENV_ENABLE)
    if on:
        os.environ[ENV_ENABLE] = "1"
    else:
        os.environ.pop(ENV_ENABLE, None)
    try:
        yield
    finally:
        if before is None:
            os.environ.pop(ENV_ENABLE, None)
        else:
            os.environ[ENV_ENABLE] = before


def maybe_install(kernel: "Kernel") -> Optional[SimSanitizer]:
    """Install a sanitizer on ``kernel`` if the environment asks for one."""
    if not enabled():
        return None
    sanitizer = SimSanitizer(kernel)
    sanitizer.install()
    return sanitizer
