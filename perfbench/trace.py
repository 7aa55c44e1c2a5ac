"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public functions of each ``repro`` layer
where their callers look them up: the class attribute for a method,
and every ``repro`` module namespace that holds the object for a
module-level function (``build``, ``to_records``, ``service_time`` are
imported by name into their callers).  :meth:`Tracer.uninstall` puts
every original object back.

Each probe feeds one :class:`Aggregate` (calls, inclusive seconds, self
seconds, and probe-specific counters).  Self time comes from a frame
stack: a wrapped call's self time is its duration minus the durations
of the wrapped calls made inside it, so the self times of every
aggregate in a pass add up to the pass span exactly.  A call made
directly inside another call of the *same* aggregate (a subclass
method calling ``super()``, ``oom_kill`` calling ``kill``) is part of
the outer call: its self time is kept, but it is not counted again.

Count-only probes (``timed=False``) skip the stack, so their time stays
in the caller's self time; they serve functions whose call count
matters but whose body is either trivial (engine scheduling) or
already inside a timed caller (the buffer cache's eviction scan inside
``insert``).

Coarse boundaries (the pass, each cell, ``api.build``, ``Engine.run``,
``Executor.run``) also keep full span records: name, start, end,
parent span index and pass id, in seconds since the tracer was made.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Aggregate:
    """Exact totals for one probe name."""

    __slots__ = ("layer", "calls", "incl_s", "self_s", "extra")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.extra: Dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.extra.get(key, 0):
            self.extra[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {"layer": self.layer, "calls": self.calls,
                "incl_s": self.incl_s, "self_s": self.self_s,
                "extra": dict(self.extra)}


#: ``observe(agg, args, kwargs, result)`` runs after an outermost call.
Observer = Callable[[Aggregate, tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_events(agg, args, kwargs, result):
    agg.add("events", result)


def _count_step(agg, args, kwargs, result):
    agg.add("events", 1 if result else 0)


def _count_useful(agg, args, kwargs, result):
    if result is not None:
        agg.add("useful", 1)


def _count_insert(agg, args, kwargs, result):
    if result is None:
        agg.add("failed", 1)
    agg.peak("blocks_max", args[0].size())


def _count_alloc_one(agg, args, kwargs, result):
    agg.add("requested", 1)
    agg.add("granted", 1 if result else 0)


def _count_alloc_n(agg, args, kwargs, result):
    agg.add("requested", _arg(args, kwargs, 2, "n"))
    agg.add("granted", result)


def _count_pages(agg, args, kwargs, result):
    agg.add("pages", result)


def _count_flush(agg, args, kwargs, result):
    agg.add("blocks", len(args[1]))
    agg.add("flushes", result)


def _count_submit(agg, args, kwargs, result):
    agg.add("sectors", _arg(args, kwargs, 1, "request").nsectors)
    agg.peak("queue_depth_max", args[0].queue_depth())


def _count_bytes(agg, args, kwargs, result):
    agg.add("bytes", _arg(args, kwargs, 2, "nbytes"))


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``target`` is ``"module:Qual.name"``."""

    target: str
    agg: str
    timed: bool = True
    span: bool = False
    observe: Optional[Observer] = None


def _probes(targets: str, agg: str, **kw) -> List[Probe]:
    """One probe per whitespace-separated target, all feeding ``agg``."""
    return [Probe(t, agg, **kw) for t in targets.split()]


_ENGINE = "repro.sim.engine:Engine"
_CACHE = "repro.fs.buffercache:BufferCache"
_SCHED = "repro.cpu.scheduler:CpuScheduler"
_STRIDE = "repro.cpu.stride:StrideCpuScheduler"
_MEM = "repro.mem.manager:MemoryManager"
_DISK_SCHED = "repro.disk.schedulers"
_NET_SCHED = "repro.net.schedulers"

#: Every traced function, by layer.  Two private targets are the only
#: seam for their counters (the eviction scan, the writeback
#: batch); a target that no longer exists is skipped and reported.
PROBES: Tuple[Probe, ...] = tuple(
    [
        Probe(f"{_ENGINE}.run", "sim.run", span=True, observe=_count_events),
        Probe(f"{_ENGINE}.step", "sim.step", observe=_count_step),
        *_probes(" ".join(f"{_ENGINE}.{m}" for m in
                          ("at", "after", "call_at", "call_after", "every")),
                 "sim.schedule", timed=False),
        Probe("repro.api.spec:build", "api.build", span=True),
        Probe("repro.metrics.export:to_records", "metrics.to_records"),
        *_probes("repro.kernel.kernel:Kernel.__init__"
                 " repro.kernel.kernel:Kernel.boot", "kernel.init"),
        Probe("repro.kernel.kernel:Kernel.spawn", "kernel.spawn"),
        *_probes("repro.kernel.kernel:Kernel.kill"
                 " repro.kernel.kernel:Kernel.oom_kill", "kernel.kill"),
        *_probes(f"{_SCHED}.pick {_STRIDE}.pick", "cpu.pick",
                 observe=_count_useful),
        *_probes(f"{_SCHED}.enqueue {_SCHED}.dequeue {_STRIDE}.enqueue",
                 "cpu.queue"),
        *_probes(f"{_SCHED}.revocations {_STRIDE}.revocations",
                 "cpu.revocations"),
        Probe("repro.cpu.partition:CpuPartition.tick", "cpu.partition_tick"),
        *_probes(f"{_SCHED}.find_cpu_for {_SCHED}.release {_SCHED}.on_usage"
                 f" {_SCHED}.rotate_time_shared {_SCHED}.waiting"
                 f" {_STRIDE}.on_usage", "cpu.other"),
        *_probes("repro.cpu.priorities:ProcessPriority.charge"
                 " repro.cpu.priorities:ProcessPriority.effective",
                 "cpu.priority"),
        *_probes(" ".join(f"repro.core.resources:ResourceLevels.{m}" for m in
                          ("acquire", "release", "can_use")), "core.levels"),
        *_probes(" ".join(f"repro.core.accounting:DecayedCounter.{m}" for m in
                          ("add", "value", "reset")), "core.counter"),
        Probe("repro.core.accounting:CpuTimeAccount.charge", "core.account"),
        Probe(f"{_MEM}.try_allocate", "mem.alloc", observe=_count_alloc_one),
        Probe(f"{_MEM}.try_allocate_n", "mem.alloc", observe=_count_alloc_n),
        *_probes(f"{_MEM}.free {_MEM}.free_n", "mem.free"),
        Probe(f"{_MEM}.transfer", "mem.transfer"),
        *_probes(f"{_MEM}.under_pressure {_MEM}.victim_spu {_MEM}.used_by"
                 f" {_MEM}.take_denials", "mem.other"),
        Probe("repro.mem.pageout:PageoutDaemon.scan", "mem.pageout",
              observe=_count_pages),
        Probe("repro.mem.sharing:MemorySharingDaemon.rebalance",
              "mem.rebalance"),
        *_probes(" ".join(f"repro.mem.workingset:WorkingSetModel.{m}" for m in
                          ("miss_fraction", "time_to_next_fault",
                           "pages_per_fault")), "mem.workingset"),
        Probe("repro.fs.filesystem:FileSystem.read", "fs.read"),
        Probe("repro.fs.filesystem:FileSystem.write", "fs.write"),
        *_probes("repro.fs.filesystem:FileSystem.write_metadata"
                 " repro.fs.filesystem:FileSystem.create", "fs.other"),
        Probe("repro.fs.readahead:ReadAheadTracker.observe", "fs.readahead"),
        Probe(f"{_CACHE}.lookup", "fs.cache.lookup", observe=_count_useful),
        Probe(f"{_CACHE}.insert", "fs.cache.insert", observe=_count_insert),
        Probe(f"{_CACHE}._evict_clean", "fs.cache.evict", timed=False),
        *_probes(f"{_CACHE}.dirty_blocks {_CACHE}.dirty_count",
                 "fs.cache.dirty_scan"),
        *_probes(f"{_CACHE}.contains {_CACHE}.remove {_CACHE}.mark_dirty"
                 f" {_CACHE}.mark_clean", "fs.cache.other"),
        Probe("repro.fs.writeback:WritebackDaemon._flush", "fs.writeback",
              observe=_count_flush),
        Probe("repro.disk.drive:DiskDrive.submit", "disk.submit",
              observe=_count_submit),
        *_probes(" ".join(f"{_DISK_SCHED}:{c}.select" for c in
                          ("CScanScheduler", "FifoScheduler", "SstfScheduler",
                           "BlindFairScheduler", "FairCScanScheduler")),
                 "disk.select"),
        Probe("repro.disk.model:service_time", "disk.service"),
        *_probes(" ".join(f"repro.disk.drive:SpuBandwidthLedger.{m}" for m in
                          ("usage_ratio", "charge", "is_background")),
                 "disk.ledger"),
        Probe("repro.net.link:NetworkLink.send", "net.send",
              observe=_count_bytes),
        *_probes(" ".join(f"{_NET_SCHED}:{c}.select" for c in
                          ("FifoLinkScheduler", "FairShareLinkScheduler",
                           "ThresholdFairLinkScheduler")), "net.select"),
        *_probes("repro.net.link:NetByteLedger.usage_ratio"
                 " repro.net.link:NetByteLedger.charge", "net.ledger"),
        Probe("repro.parallel.executor:Executor.run", "parallel.run",
              span=True),
        Probe("repro.parallel.cache:SweepCache.key_for", "parallel.cache.key"),
        Probe("repro.parallel.cache:SweepCache.get", "parallel.cache.get"),
        Probe("repro.parallel.cache:SweepCache.put", "parallel.cache.put"),
    ]
)

#: What an untraced pass keeps: the event count the pins check, from
#: one count-only wrapper per ``Engine.run``/``step`` call.
EVENT_PROBES: Tuple[Probe, ...] = (
    Probe(f"{_ENGINE}.run", "sim.run", timed=False, observe=_count_events),
    Probe(f"{_ENGINE}.step", "sim.step", timed=False, observe=_count_step),
)


def repro_modules() -> List[Any]:
    """Every imported ``repro`` module."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def resolve(target: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, function)`` for a probe target, or None.

    The owner is the class for a method (only a method the class itself
    defines) and the defining module for a module-level function.
    """
    module_name, qualname = target.split(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    value = (owner.__dict__.get(attr) if inspect.isclass(owner)
             else getattr(owner, attr, None))
    return (owner, attr, value) if inspect.isfunction(value) else None


class Tracer:
    """Installs a probe set, aggregates what it sees, restores on exit."""

    def __init__(self, probes: Tuple[Probe, ...] = PROBES):
        self.probes = probes
        self.aggs: Dict[str, Aggregate] = {}
        #: Frames of the wrapped calls in progress: [aggregate, child_s].
        self.stack: List[list] = []
        #: Coarse span records: [name, start_s, end_s, parent, pass_id].
        self.spans: List[list] = []
        self._open: List[int] = []
        self.pass_id = 0
        self.t0 = time.perf_counter()
        #: (owner, attribute, original) for every attribute replaced.
        self.patches: List[Tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused while the tracer is alive.
        self._wrappers: Dict[int, Tuple[Any, Any]] = {}
        #: Targets that did not resolve to a plain function.
        self.missing: List[str] = []

    def aggregate(self, name: str, layer: Optional[str] = None) -> Aggregate:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = Aggregate(layer or name.split(".", 1)[0])
        return agg

    # --- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        for probe in self.probes:
            found = resolve(probe.target)
            if found is None:
                self.missing.append(probe.target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, probe)
            self._wrappers[id(wrapper)] = (wrapper, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
            else:
                for module in repro_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)
        return self

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        # A module first imported while the probes were live may have
        # copied a wrapper into its namespace; put the original there too.
        for module in repro_modules():
            for name, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self.patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        agg = self.aggregate(probe.agg)
        observe = probe.observe
        if not probe.timed:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                agg.calls += 1
                if observe is not None:
                    observe(agg, args, kwargs, result)
                return result
            wrapper = counted
        elif probe.span:
            def spanned(*args, **kwargs):
                with self._frame(agg, probe.agg) as outermost:
                    result = fn(*args, **kwargs)
                if outermost and observe is not None:
                    observe(agg, args, kwargs, result)
                return result
            wrapper = spanned
        else:
            stack = self.stack
            clock = time.perf_counter

            # _frame's accounting, inlined: this runs on every hot call.
            def timed(*args, **kwargs):
                outermost = not stack or stack[-1][0] is not agg
                frame = [agg, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    agg.self_s += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                    if outermost:
                        agg.calls += 1
                        agg.incl_s += elapsed
                if outermost and observe is not None:
                    observe(agg, args, kwargs, result)
                return result
            wrapper = timed
        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def _frame(self, agg: Aggregate, name: str) -> Iterator[bool]:
        """A timed frame that also keeps a coarse span record."""
        stack = self.stack
        outermost = not stack or stack[-1][0] is not agg
        frame = [agg, 0.0]
        stack.append(frame)
        record = [name, 0.0, 0.0,
                  self._open[-1] if self._open else None, self.pass_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        start = time.perf_counter()
        try:
            yield outermost
        finally:
            end = time.perf_counter()
            elapsed = end - start
            record[1], record[2] = start - self.t0, end - self.t0
            self._open.pop()
            stack.pop()
            agg.self_s += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            if outermost:
                agg.calls += 1
                agg.incl_s += elapsed

    @contextmanager
    def span(self, agg_name: str, layer: str, label: str) -> Iterator[None]:
        """A coarse span opened by the benchmark itself (pass, cell)."""
        with self._frame(self.aggregate(agg_name, layer), label):
            yield

    # --- results -----------------------------------------------------------

    def events(self) -> int:
        return int(sum(self.aggs[n].extra.get("events", 0)
                       for n in ("sim.run", "sim.step") if n in self.aggs))

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for agg in self.aggs.values():
            out[agg.layer] = out.get(agg.layer, 0.0) + agg.self_s
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "aggregates": {n: a.to_dict() for n, a in sorted(self.aggs.items())},
            "layer_self_s": self.layer_self_s(),
            "spans": self.spans,
            "missing": self.missing,
        }
