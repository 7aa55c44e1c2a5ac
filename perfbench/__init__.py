"""perfbench — the repository's performance benchmark.

Four workloads (``fs_copy``, ``tick_idle``, ``batch_mix``, ``sweep``)
timed end to end in fresh child processes, a traced pass per workload
for per-layer numbers, and every output checked against the pins in
``expected.json``.  See ``README.md`` in this directory.
"""
