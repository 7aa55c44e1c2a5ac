"""Metric names, units, and the per-layer metrics derived from a trace.

``BENCHMARK.json`` lists the same names and units (a self-test holds
the two to each other); it also carries the regression bounds, which
only the comparison of two commits uses.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

#: End-to-end metrics, measured on untraced passes: (name, unit).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: The registered experiments, each with its own ``exp.*`` metrics.
EXPERIMENTS = ("table3", "table4", "fig7", "ablations", "antagonists", "fig5",
               "faults", "fleet_isolation", "network", "pmake8")

#: Per-layer metrics, measured on a traced pass: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.run.calls", "count"),
    ("sim.schedule.calls", "count"),
    ("sim.step.calls", "count"),
    ("sim.self_s", "s"),
    ("sim.host_us_per_event", "us"),
    ("api.build.calls", "count"),
    ("api.build_s", "s"),
    ("metrics.to_records_s", "s"),
    ("kernel.spawn.calls", "count"),
    ("kernel.spawn_s", "s"),
    ("kernel.kill.calls", "count"),
    ("cpu.pick.calls", "count"),
    ("cpu.pick.self_s", "s"),
    ("cpu.pick.useful_ratio", "ratio"),
    ("cpu.queue.calls", "count"),
    ("cpu.revocations.calls", "count"),
    ("cpu.partition_tick.calls", "count"),
    ("cpu.self_s", "s"),
    ("core.levels.calls", "count"),
    ("core.counter.calls", "count"),
    ("core.self_s", "s"),
    ("mem.alloc.calls", "count"),
    ("mem.alloc.grant_ratio", "ratio"),
    ("mem.free.calls", "count"),
    ("mem.transfer.calls", "count"),
    ("mem.pageout.scans", "count"),
    ("mem.pageout.pages", "pages"),
    ("mem.rebalance.calls", "count"),
    ("mem.self_s", "s"),
    ("fs.read.calls", "count"),
    ("fs.write.calls", "count"),
    ("fs.self_s", "s"),
    ("fs.readahead.calls", "count"),
    ("fs.cache.lookup.calls", "count"),
    ("fs.cache.hit_ratio", "ratio"),
    ("fs.cache.insert.calls", "count"),
    ("fs.cache.insert.self_s", "s"),
    ("fs.cache.insert.us_per_call", "us"),
    ("fs.cache.insert.fail_ratio", "ratio"),
    ("fs.cache.blocks_max", "blocks"),
    ("fs.cache.evict.calls", "count"),
    ("fs.cache.dirty_scan.calls", "count"),
    ("fs.cache.dirty_scan.self_s", "s"),
    ("fs.writeback.flushes", "count"),
    ("fs.writeback.blocks", "blocks"),
    ("disk.submit.calls", "count"),
    ("disk.queue_depth_max", "requests"),
    ("disk.select.calls", "count"),
    ("disk.select.self_s", "s"),
    ("disk.service.calls", "count"),
    ("disk.sectors", "sectors"),
    ("disk.self_s", "s"),
    ("net.send.calls", "count"),
    ("net.select.calls", "count"),
    ("net.bytes", "B"),
    ("net.self_s", "s"),
    ("parallel.cells", "count"),
    ("parallel.dispatch_s", "s"),
    ("parallel.compute_s", "s"),
    ("parallel.merge_s", "s"),
    ("parallel.retried_cells", "count"),
    ("parallel.pool.forks", "count"),
    ("parallel.pool.runs_served", "count"),
    ("parallel.cache.hits", "count"),
    ("parallel.cache.misses", "count"),
    ("parallel.cache.puts", "count"),
    ("parallel.cache.hit_ratio", "ratio"),
    ("parallel.cache.key_s", "s"),
    ("parallel.cache.get_s", "s"),
    ("parallel.cache.put_s", "s"),
    ("parallel.spooled_payloads", "count"),
    ("parallel.shm_spills", "count"),
    ("parallel.critical_cell_s", "s"),
    *((f"exp.{name}.{kind}", unit) for name in EXPERIMENTS
      for kind, unit in (("s", "s"), ("events", "count"))),
    ("trace.overhead_ratio", "ratio"),
)

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)

#: Per-layer metrics the parent process fills in from untraced medians.
FROM_PARENT = ("sim.host_us_per_event", "trace.overhead_ratio")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: Mapping[str, Any], cells: Mapping[str, Any],
                  parallel: Mapping[str, float]) -> Dict[str, float]:
    """Every per-layer metric except :data:`FROM_PARENT`.

    ``trace`` is :meth:`perfbench.trace.Tracer.to_dict`, ``cells`` the
    traced in-process pass's cells, ``parallel`` the sweep's executor
    numbers (empty for the in-process workloads).
    """
    aggs = trace["aggregates"]
    layer = trace["layer_self_s"]

    def calls(name: str) -> int:
        return aggs[name]["calls"] if name in aggs else 0

    def self_s(name: str) -> float:
        return aggs[name]["self_s"] if name in aggs else 0.0

    def incl_s(name: str) -> float:
        return aggs[name]["incl_s"] if name in aggs else 0.0

    def extra(name: str, key: str) -> float:
        return aggs[name]["extra"].get(key, 0) if name in aggs else 0

    out: Dict[str, float] = {
        "sim.events": extra("sim.run", "events") + extra("sim.step", "events"),
        "sim.run.calls": calls("sim.run"),
        "sim.schedule.calls": calls("sim.schedule"),
        "sim.step.calls": calls("sim.step"),
        "api.build.calls": calls("api.build"),
        "api.build_s": incl_s("api.build"),
        "metrics.to_records_s": incl_s("metrics.to_records"),
        "kernel.spawn.calls": calls("kernel.spawn"),
        "kernel.spawn_s": incl_s("kernel.spawn"),
        "kernel.kill.calls": calls("kernel.kill"),
        "cpu.pick.calls": calls("cpu.pick"),
        "cpu.pick.self_s": self_s("cpu.pick"),
        "cpu.pick.useful_ratio": _ratio(extra("cpu.pick", "useful"),
                                        calls("cpu.pick")),
        "cpu.queue.calls": calls("cpu.queue"),
        "cpu.revocations.calls": calls("cpu.revocations"),
        "cpu.partition_tick.calls": calls("cpu.partition_tick"),
        "core.levels.calls": calls("core.levels"),
        "core.counter.calls": calls("core.counter"),
        "mem.alloc.calls": calls("mem.alloc"),
        "mem.alloc.grant_ratio": _ratio(extra("mem.alloc", "granted"),
                                        extra("mem.alloc", "requested")),
        "mem.free.calls": calls("mem.free"),
        "mem.transfer.calls": calls("mem.transfer"),
        "mem.pageout.scans": calls("mem.pageout"),
        "mem.pageout.pages": extra("mem.pageout", "pages"),
        "mem.rebalance.calls": calls("mem.rebalance"),
        "fs.read.calls": calls("fs.read"),
        "fs.write.calls": calls("fs.write"),
        "fs.readahead.calls": calls("fs.readahead"),
        "fs.cache.lookup.calls": calls("fs.cache.lookup"),
        "fs.cache.hit_ratio": _ratio(extra("fs.cache.lookup", "useful"),
                                     calls("fs.cache.lookup")),
        "fs.cache.insert.calls": calls("fs.cache.insert"),
        "fs.cache.insert.self_s": self_s("fs.cache.insert"),
        "fs.cache.insert.us_per_call": 1e6 * _ratio(
            incl_s("fs.cache.insert"), calls("fs.cache.insert")),
        "fs.cache.insert.fail_ratio": _ratio(
            extra("fs.cache.insert", "failed"), calls("fs.cache.insert")),
        "fs.cache.blocks_max": extra("fs.cache.insert", "blocks_max"),
        "fs.cache.evict.calls": calls("fs.cache.evict"),
        "fs.cache.dirty_scan.calls": calls("fs.cache.dirty_scan"),
        "fs.cache.dirty_scan.self_s": self_s("fs.cache.dirty_scan"),
        "fs.writeback.flushes": extra("fs.writeback", "flushes"),
        "fs.writeback.blocks": extra("fs.writeback", "blocks"),
        "disk.submit.calls": calls("disk.submit"),
        "disk.queue_depth_max": extra("disk.submit", "queue_depth_max"),
        "disk.select.calls": calls("disk.select"),
        "disk.select.self_s": self_s("disk.select"),
        "disk.service.calls": calls("disk.service"),
        "disk.sectors": extra("disk.submit", "sectors"),
        "net.send.calls": calls("net.send"),
        "net.select.calls": calls("net.select"),
        "net.bytes": extra("net.send", "bytes"),
        "parallel.cache.key_s": incl_s("parallel.cache.key"),
        "parallel.cache.get_s": incl_s("parallel.cache.get"),
        "parallel.cache.put_s": incl_s("parallel.cache.put"),
    }
    for name in ("sim", "cpu", "core", "mem", "fs", "disk", "net"):
        out[f"{name}.self_s"] = layer.get(name, 0.0)
    for name, _ in PER_LAYER:
        if name.startswith("parallel.") and name not in out:
            out[name] = parallel.get(name, 0)
    for name in EXPERIMENTS:
        cell = cells.get(name)
        out[f"exp.{name}.s"] = cell["s"] if cell else 0.0
        out[f"exp.{name}.events"] = cell["events"] if cell else 0
    return out
