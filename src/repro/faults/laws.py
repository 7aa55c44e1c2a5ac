"""The conservation laws that SIMSAN and the invariant watchdog share.

Each law is stated once, here, and both checkers read it:
:class:`repro.sanitizer.SimSanitizer` raises on the first breach at
event granularity, and :class:`repro.faults.invariants.InvariantWatchdog`
records every breach once per clock tick.  Laws that only one checker
needs stay with that checker.

* **ledger sanity** — every SPU's (entitled, allowed, used) triple
  satisfies ``0 <= entitled <= allowed`` and ``0 <= used <= allowed``
  for every resource;
* **page conservation** — the pool holds at least one page and no
  negative free count, and pages charged to SPUs plus the free list
  equal the machine's (current, post-decommission) total;
* **CPU conservation** — per-CPU busy time and per-SPU charged time
  are two views of the same microseconds, so neither has a negative
  counter and their sums agree, and busy time never exceeds the
  capacity the online CPUs actually offered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports SIMSAN)
    from repro.kernel.kernel import Kernel


def breaches(kernel: "Kernel") -> Iterator[Tuple[str, str]]:
    """Yield ``(law, detail)`` for each broken shared law, in law order."""
    spus = kernel.registry.all_spus()

    # Ledger sanity: the three-level model, re-derived from state
    # rather than trusted to the mutation-time checks.
    for spu in spus:
        for resource, levels in spu.levels.items():
            if not 0 <= levels.entitled <= levels.allowed:
                yield (
                    "ledger-sanity",
                    f"SPU {spu.spu_id} {resource.name}: entitled"
                    f" {levels.entitled} outside [0, allowed={levels.allowed}]",
                )
            if not 0 <= levels.used <= levels.allowed:
                yield (
                    "ledger-sanity",
                    f"SPU {spu.spu_id} {resource.name}: used"
                    f" {levels.used} outside [0, allowed={levels.allowed}]",
                )

    # Page conservation.
    charged = sum(s.memory().used for s in spus)
    free = kernel.memory.free_pages
    total = kernel.memory.total_pages
    if free < 0 or total < 1:
        yield "page-conservation", f"pool out of range: {free} free of {total} pages"
    if charged + free != total:
        yield (
            "page-conservation",
            f"{charged} charged + {free} free != {total} total pages",
        )

    # CPU conservation: busy-per-CPU and charged-per-SPU are the same
    # microseconds, booked twice in _charge_slice.
    busy_us = 0
    for cpu_id, us in kernel.cpu_busy_us.items():
        if us < 0:
            yield "cpu-conservation", f"cpu {cpu_id} busy {us}us < 0"
        busy_us += us
    charged_us = 0
    for spu_id, us in kernel.cpu_account.as_dict().items():
        if us < 0:
            yield "cpu-conservation", f"SPU {spu_id} charged {us}us < 0"
        charged_us += us
    if busy_us != charged_us:
        yield (
            "cpu-conservation",
            f"per-CPU busy {busy_us}us != per-SPU charged {charged_us}us",
        )
    capacity_us = kernel.cpu_capacity_us(kernel.engine.now)
    if busy_us > capacity_us:
        yield (
            "cpu-conservation",
            f"busy {busy_us}us exceeds offered capacity {capacity_us}us",
        )
