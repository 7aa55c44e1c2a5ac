# simlint: skip-file  (host-side tool: reads os.environ by design)
"""SIMSAN — the runtime invariant sanitizer.

The static linter (:mod:`repro.lint`) proves the *code* follows the
determinism and accounting rules; SIMSAN checks that the *numbers* do,
while a simulation runs.  It hooks the engine's dispatch loop and
re-derives the kernel's conservation laws after events:

* **monotonic virtual time** — the clock never moves backwards (checked
  after *every* event, regardless of stride);
* **ledger sanity** — every SPU's (entitled, allowed, used) triple
  satisfies ``0 <= entitled <= allowed`` and ``0 <= used <= allowed``
  for every resource;
* **page conservation** — pages charged to SPUs plus the free list
  equals the machine total;
* **CPU conservation** — per-CPU busy time and per-SPU charged time are
  two views of the same microseconds, so their sums must agree, and
  neither may exceed the capacity the online CPUs actually offered;
* **disk-bandwidth conservation** — per drive, the sectors charged to
  SPU ledgers equal the sectors moved by successful completions;
* **cache index** — the buffer cache's per-SPU LRU dicts and its dirty
  index agree with its blocks;
* **no negative counters** anywhere in the above.

This complements the periodic :class:`repro.faults.invariants.InvariantWatchdog`:
the watchdog samples every clock tick and *records* violations; SIMSAN
checks at event granularity and *raises* at the first corrupt event, so
the failing event is still on the stack.

Enable it with ``REPRO_SIMSAN=1`` (any of ``1/true/yes/on``); the
kernel installs it at :meth:`~repro.kernel.kernel.Kernel.boot`.
``REPRO_SIMSAN_EVERY=N`` runs the full suite every N events instead of
every event (the time check always runs), which keeps the chaos soak
affordable on big runs.  Tests and tools can also install it directly::

    from repro.sanitizer import SimSanitizer
    san = SimSanitizer(kernel)
    san.install()
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.disk.drive import SpuBandwidthLedger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from repro.kernel.kernel import Kernel

#: Environment switch; truthy values enable the sanitizer at boot.
ENV_ENABLE = "REPRO_SIMSAN"
#: Full-suite stride (default 1 = every event).
ENV_EVERY = "REPRO_SIMSAN_EVERY"

_TRUTHY = ("1", "true", "yes", "on")


class SanitizerError(AssertionError):
    """An invariant broke; the message names the law, time, and books."""


class SimSanitizer:
    """Re-derives the kernel's conservation laws after events.

    One instance watches one kernel.  :meth:`install` hooks the
    engine's post-event callback; :meth:`check` is also callable
    directly (the kernel runs it once more when :meth:`Kernel.run`
    returns, so a violation in the final events cannot slip out).
    """

    __slots__ = ("kernel", "every", "checks_run", "events_seen", "_countdown", "_last_now")

    def __init__(self, kernel: "Kernel", every: int = 1):
        if every < 1:
            raise ValueError(f"check stride must be >= 1, got {every}")
        self.kernel = kernel
        self.every = every
        self.checks_run = 0
        self.events_seen = 0
        self._countdown = every
        self._last_now = kernel.engine.now

    # --- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        self.kernel.engine.set_sanitizer(self._after_event)

    def uninstall(self) -> None:
        self.kernel.engine.set_sanitizer(None)

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
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.every
            self.check()

    # --- the laws ----------------------------------------------------------

    def check(self) -> None:
        """Run the full invariant suite once, raising on the first breach."""
        self.checks_run += 1
        kernel = self.kernel
        now = kernel.engine.now

        # Ledger sanity: the three-level model, re-derived from state
        # rather than trusted to the mutation-time checks.
        for spu in kernel.registry.all_spus():
            for resource, levels in spu.levels.items():
                if not 0 <= levels.entitled <= levels.allowed:
                    self._fail(
                        "ledger-sanity",
                        f"SPU {spu.spu_id} {resource.name}: entitled"
                        f" {levels.entitled} outside [0, allowed={levels.allowed}]",
                    )
                if not 0 <= levels.used <= levels.allowed:
                    self._fail(
                        "ledger-sanity",
                        f"SPU {spu.spu_id} {resource.name}: used"
                        f" {levels.used} outside [0, allowed={levels.allowed}]",
                    )

        # Page conservation.
        charged = sum(s.memory().used for s in kernel.registry.all_spus())
        free = kernel.memory.free_pages
        total = kernel.memory.total_pages
        if free < 0:
            self._fail("page-conservation", f"free list is negative ({free})")
        if charged + free != total:
            self._fail(
                "page-conservation",
                f"{charged} charged + {free} free != {total} total pages",
            )

        # CPU conservation: busy-per-CPU and charged-per-SPU are the
        # same microseconds, booked twice in _charge_slice.
        busy = 0
        for cpu_id, us in kernel.cpu_busy_us.items():
            if us < 0:
                self._fail("cpu-conservation", f"cpu {cpu_id} busy {us}us < 0")
            busy += us
        account = kernel.cpu_account.as_dict()
        charged_us = 0
        for spu_id, us in account.items():
            if us < 0:
                self._fail("cpu-conservation", f"SPU {spu_id} charged {us}us < 0")
            charged_us += us
        if busy != charged_us:
            self._fail(
                "cpu-conservation",
                f"per-CPU busy {busy}us != per-SPU charged {charged_us}us",
            )
        capacity = kernel.cpu_capacity_us(now)
        if busy > capacity:
            self._fail(
                "cpu-conservation",
                f"busy {busy}us exceeds offered capacity {capacity}us",
            )

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

    def _fail(self, law: str, detail: str) -> None:
        raise SanitizerError(
            f"SIMSAN [t={self.kernel.engine.now}us] {law}: {detail}"
        )


def enabled() -> bool:
    """Whether ``REPRO_SIMSAN`` asks for the sanitizer."""
    return os.environ.get(ENV_ENABLE, "").strip().lower() in _TRUTHY


def check_stride() -> int:
    """The configured full-suite stride (``REPRO_SIMSAN_EVERY``, >= 1)."""
    raw = os.environ.get(ENV_EVERY, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"{ENV_EVERY} must be an integer, got {raw!r}") from None


def maybe_install(kernel: "Kernel") -> Optional[SimSanitizer]:
    """Install a sanitizer on ``kernel`` if the environment asks for one."""
    if not enabled():
        return None
    sanitizer = SimSanitizer(kernel, every=check_stride())
    sanitizer.install()
    return sanitizer
