"""The benchmark's parent process: one child at a time.

The parent is a closed loop with one client: it launches a child
process (:mod:`perfbench.child`), waits for it to finish, checks its
outputs against the pins, and launches the next.  A child never runs
more than ``nproc`` (2) busy processes: the in-process workloads use
one, ``sweep`` its two pool workers while the child itself waits.

Two ways to run:

* **Default** (``python -m perfbench``): every workload (or the one
  named by ``--workload``), a fixed number of measuring units each,
  interleaved round-robin so that a noisy period on a shared host
  spreads across workloads, then one traced child per workload.
* **Timed** (``--seconds S``, with ``--workload``): measuring units of
  one workload until the next would end after ``S`` seconds; with
  ``--trace 1`` one untraced unit and one traced child instead.

A measuring unit is one ``run`` child (cold pass + warm repeat) for the
in-process workloads, and for ``sweep`` one cold child that fills a
fresh cache directory followed by warm children that read it (two in
timed mode: the warm pass is short, so it gets more samples).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
pass failed, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from perfbench.catalogue import END_TO_END, PER_LAYER, UNITS
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
#: Scratch space for child results, sweep caches and temp files; inside
#: the checkout, removed when the run ends.
WORKDIR = os.path.join(ROOT, ".perfbench")

#: Measuring units per workload in a default run, and for ``sweep`` the
#: warm children after each cold one: 3 cold and 5 warm sweeps.
DEFAULT_UNITS = {"fs_copy": 3, "tick_idle": 4, "batch_mix": 4, "sweep": 3}
SWEEP_WARM_CHILDREN = (2, 2, 1)

#: A pass slower than this multiple of its pinned median wall time
#: counts as failed.
SLOW_FACTOR = 5.0
#: Allowance for interpreter start and set-up in a child's time limit,
#: and the limit for traced and pin children, seconds.
SETUP_ALLOWANCE_S = 30.0
LONG_CHILD_S = 150.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, inclusive quartiles, max and count.

    Inclusive quartiles never lie outside the samples; with n < 20 no
    tail percentile is claimed.
    """
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "max": values[-1], "n": len(values)}


def parse_seeds(text: str) -> List[int]:
    """``"0-31"`` or ``"0,1,5"`` (or a mix) -> sorted seed list."""
    seeds = set()
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.update(range(int(low), int(high or low) + 1))
    return sorted(seeds)


def _host(start_load: Sequence[float]) -> Dict[str, Any]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        head = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_head": head, "loadavg_start": list(start_load),
            "loadavg_end": list(os.getloadavg())}


class Bench:
    """The state of one benchmark invocation."""

    def __init__(self, seed: int, expected: Dict[str, Any], workdir: str):
        self.seed = seed
        self.expected = expected
        self.pins = expected["seeds"].get(str(seed))
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(PYTHONPATH=SRC + os.pathsep + ROOT, TMPDIR=workdir)
        self._children = 0
        #: Cells seen this run, the reference for a seed with no pins.
        self.reference: Dict[str, Dict[str, Any]] = {}
        self.samples: Dict[str, Dict[str, List[float]]] = {
            w: {name: [] for name, _ in END_TO_END} for w in WORKLOADS}
        self.passes: Dict[str, List[Dict[str, Any]]] = {w: [] for w in WORKLOADS}
        self.traced: Dict[str, Dict[str, Any]] = {}

    # --- children ----------------------------------------------------------

    def child(self, workload: str, mode: str, cache_dir: str,
              timeout: float) -> Dict[str, Any]:
        """Run one child to completion; its result, or ``{"error": ...}``."""
        self._children += 1
        out = os.path.join(self.workdir, f"child-{self._children}.json")
        cmd = [sys.executable, "-m", "perfbench.child",
               "--workload", workload, "--seed", str(self.seed),
               "--mode", mode, "--cache-dir", cache_dir, "--out", out,
               "--launched", repr(time.monotonic())]
        # Its own process group, so a timeout also stops pool workers.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _stop_group(proc)
            return {"error": f"{mode} child exceeded {timeout:.0f} s"}
        except BaseException:  # interrupted: leave no child running
            _stop_group(proc)
            raise
        _stop_group(proc)
        try:
            with open(out) as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = {"error": f"{mode} child exited {proc.returncode}"
                               f" without a result:\n{stderr[-2000:]}"}
        if proc.returncode != 0 and "error" not in result:
            result["error"] = f"{mode} child exited {proc.returncode}"
        return result

    def _pinned_wall(self, workload: str, kind: str) -> Optional[float]:
        key = workload if kind == "cold" else f"{workload}.warm"
        return self.expected.get("wall_s", {}).get(key)

    def _timeout(self, workload: str, kinds: Sequence[str]) -> float:
        pinned = [self._pinned_wall(workload, k) for k in kinds]
        if None in pinned:
            return LONG_CHILD_S
        return SETUP_ALLOWANCE_S + SLOW_FACTOR * sum(pinned)

    # --- checking ----------------------------------------------------------

    def _pin_for(self, name: str, cell: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The pin of one cell; for an unpinned seed, the first pass's."""
        if self.pins is not None:
            return self.pins.get(name)
        ref = self.reference.setdefault(name, dict(cell))
        if ref["events"] is None:
            ref["events"] = cell["events"]
        return ref

    def _check(self, workload: str, record: Dict[str, Any]) -> Optional[str]:
        """Why a pass failed, or None when its outputs are right."""
        for name, cell in record["cells"].items():
            pin = self._pin_for(name, cell)
            if pin is None:
                return f"{name}: no pin for seed {self.seed}"
            if cell["sha256"] != pin["sha256"]:
                return f"{name}: digest {cell['sha256'][:12]} != pinned" \
                       f" {pin['sha256'][:12]}"
            if None not in (cell["events"], pin["events"]) \
                    and cell["events"] != pin["events"]:
                return f"{name}: {cell['events']} events != pinned" \
                       f" {pin['events']}"
        if workload == "sweep" and record["kind"] in ("warm", "traced_warm") \
                and record["cache"]["misses"]:
            return f"warm sweep missed the cache {record['cache']['misses']}" \
                   " times"
        pinned = self._pinned_wall(workload, record["kind"]) \
            if record["kind"] in ("cold", "warm") else None
        if pinned is not None and record["wall_s"] > SLOW_FACTOR * pinned:
            return f"{record['wall_s']:.1f} s > {SLOW_FACTOR:g}x the pinned" \
                   f" median {pinned:.2f} s"
        return None

    def _take(self, workload: str, result: Dict[str, Any],
              expected_passes: Sequence[str]) -> List[Dict[str, Any]]:
        """Check a child's passes; record every pass, return the good ones."""
        records = result.get("passes") or [
            {"kind": kind, "cells": {}} for kind in expected_passes]
        good = []
        for record in records:
            reason = result.get("error") or self._check(workload, record)
            entry = {"kind": record["kind"], "wall_s": record.get("wall_s"),
                     "failed": reason}
            self.passes[workload].append(entry)
            if reason is None:
                good.append(record)
            else:
                print(f"perfbench: {workload} {record['kind']} pass failed:"
                      f" {reason}", file=sys.stderr)
        return good

    # --- measuring units ---------------------------------------------------

    def unit(self, workload: str, warm_children: int = 2) -> None:
        """One measuring unit (see the module docstring)."""
        samples = self.samples[workload]
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        try:
            if workload == "sweep":
                runs = [("run", ("cold",))] + [("warm", ("warm",))] * warm_children
            else:
                runs = [("run", ("cold", "warm"))]
            for mode, kinds in runs:
                result = self.child(workload, mode, cache_dir,
                                    self._timeout(workload, kinds))
                good = self._take(workload, result, kinds)
                if "error" in result:
                    if mode == "run":
                        break
                    continue
                samples["setup_s"].append(result["setup_s"])
                if mode == "run":
                    samples["peak_rss_mb"].append(result["peak_rss_mb"])
                for record in good:
                    key = "wall_s" if record["kind"] == "cold" else "warm_wall_s"
                    samples[key].append(record["wall_s"])
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def trace(self, workload: str) -> None:
        """One traced child: the per-layer metrics of ``workload``."""
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        try:
            result = self.child(workload, "traced", cache_dir, LONG_CHILD_S)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        kinds = ("traced", "traced_warm", "traced_serial") \
            if workload == "sweep" else ("traced",)
        self._take(workload, result, kinds)
        if "error" not in result:
            self.traced[workload] = result
            missing = result["trace"]["missing"]
            if missing:
                print(f"perfbench: probes not found: {', '.join(missing)}",
                      file=sys.stderr)

    def pin(self) -> Dict[str, Dict[str, Any]]:
        """Every cell of every workload for this seed, in one child."""
        result = self.child("pin", "pin", self.workdir, LONG_CHILD_S)
        if "error" in result:
            raise RuntimeError(f"pinning seed {self.seed}: {result['error']}")
        return {name: {"sha256": c["sha256"], "events": c["events"]}
                for name, c in result["passes"][0]["cells"].items()}

    # --- results -----------------------------------------------------------

    def end_to_end(self, workload: str) -> Dict[str, Dict[str, float]]:
        return {name: summarize(values)
                for name, values in self.samples[workload].items() if values}

    def per_layer(self, workload: str) -> Dict[str, float]:
        traced = self.traced.get(workload)
        if traced is None:
            return {}
        metrics = dict(traced["layer"])
        walls = self.samples[workload]["wall_s"]
        wall = statistics.median(walls) if walls else 0.0
        events = metrics["sim.events"]
        metrics["sim.host_us_per_event"] = 1e6 * wall / events if events else 0.0
        traced_wall = traced["passes"][0]["wall_s"]
        metrics["trace.overhead_ratio"] = traced_wall / wall if wall else 0.0
        return {name: metrics[name] for name, _ in PER_LAYER}

    def counts(self) -> Dict[str, int]:
        passes = [p for w in WORKLOADS for p in self.passes[w]]
        return {"attempted": len(passes),
                "failed": sum(1 for p in passes if p["failed"])}


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a child's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _print_report(bench: Bench, workloads: Sequence[str],
                  host: Dict[str, Any]) -> None:
    print(f"host: nproc {host['nproc']}, python {host['python']},"
          f" git {host['git_head'] or 'unknown'}, load average"
          f" {host['loadavg_start'][0]:.2f} -> {host['loadavg_end'][0]:.2f}")
    for workload in workloads:
        e2e = bench.end_to_end(workload)
        if e2e:
            print(f"== {workload}: end to end (untraced; median, q1-q3, max, n)")
            for name, s in e2e.items():
                print(f"  {name:<14} {s['median']:>10.4f} {UNITS[name]:<5}"
                      f" q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                      f"  max {s['max']:.4f}  n {s['n']}")
        layer = bench.per_layer(workload)
        if layer:
            print(f"== {workload}: per layer (traced pass)")
            for name, value in layer.items():
                print(f"  {name:<32} {value:>16.6g} {UNITS[name]}")
    counts = bench.counts()
    ratio = counts["failed"] / counts["attempted"] if counts["attempted"] else 0
    pinned = "pinned" if bench.pins is not None else \
        "unpinned: checked for agreement between passes"
    print(f"failed_ratio {ratio:.4f} ({counts['failed']} of"
          f" {counts['attempted']} passes; seed {bench.seed} {pinned})")


def _run(bench: Bench, args: argparse.Namespace,
         workloads: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """Measure; returns the last-line metrics."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.seconds is not None:
        (workload,) = workloads
        if args.trace:
            bench.unit(workload)
            bench.trace(workload)
            for name, value in bench.per_layer(workload).items():
                metrics[name] = {"value": value, "unit": UNITS[name]}
            return metrics
        start = time.monotonic()
        longest = 0.0
        while True:
            began = time.monotonic()
            bench.unit(workload)
            longest = max(longest, time.monotonic() - began)
            if time.monotonic() + longest > start + args.seconds:
                break
        for name, s in bench.end_to_end(workload).items():
            metrics[name] = {"value": s["median"], "unit": UNITS[name]}
        return metrics

    units = {w: DEFAULT_UNITS[w] for w in workloads}
    for round_ in range(max(units.values())):
        for workload in workloads:
            if round_ < units[workload]:
                bench.unit(workload, warm_children=SWEEP_WARM_CHILDREN[round_]
                           if workload == "sweep" else 0)
    for workload in workloads:
        bench.trace(workload)
    for workload in workloads:
        for name, s in bench.end_to_end(workload).items():
            metrics[f"{workload}.{name}"] = {"value": s["median"],
                                             "unit": UNITS[name]}
        for name, value in bench.per_layer(workload).items():
            metrics[f"{workload}.{name}"] = {"value": value, "unit": UNITS[name]}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="Time the simulator end to end and per layer, and check"
                    " every output against the pinned digests.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every simulation (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="timed mode: measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="timed mode: 1 reports the per-layer metrics")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full result here")
    parser.add_argument("--trace-out", metavar="OUT",
                        help="write spans and aggregates of the traced passes")
    parser.add_argument("--update-expected", metavar="SEEDS",
                        help="re-pin the outputs of these seeds (e.g. 0-31)"
                             " and the measured median wall times")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.workload is None:
        parser.error("--seconds needs --workload")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    # A terminated parent unwinds, stopping its child and removing its
    # work directory on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start_load = os.getloadavg()
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        if args.update_expected:
            for seed in parse_seeds(args.update_expected):
                expected["seeds"][str(seed)] = Bench(seed, expected, workdir).pin()
                print(f"pinned seed {seed}", file=sys.stderr)
        bench = Bench(args.seed, expected, workdir)
        metrics = _run(bench, args, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.update_expected:
        walls = expected.setdefault("wall_s", {})
        for workload in workloads:
            for key, name in ((workload, "wall_s"),
                              (f"{workload}.warm", "warm_wall_s")):
                values = bench.samples[workload][name]
                if values:
                    walls[key] = round(statistics.median(values), 3)
        with open(EXPECTED, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")

    host = _host(start_load)
    _print_report(bench, workloads, host)
    counts = bench.counts()
    if args.json:
        payload = {
            "schema": "perfbench/1", "seed": args.seed,
            "pinned": bench.pins is not None, "host": host, **counts,
            "workloads": {w: {"end_to_end": bench.end_to_end(w),
                              "per_layer": bench.per_layer(w),
                              "passes": bench.passes[w]} for w in workloads},
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump({w: t["trace"] for w, t in bench.traced.items()}, fh)
    print(json.dumps({"correct": counts["failed"] == 0, **counts,
                      "metrics": metrics}))
    return 0 if counts["failed"] == 0 else 1
