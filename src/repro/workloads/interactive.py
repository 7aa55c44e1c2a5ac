"""Interactive and server-style workload generators.

The paper's motivation is a server shared by many users whose
interactive experience collapses under someone else's batch load.
These generators model that class of process:

* :func:`interactive_user` — sleep (think time), then a short CPU
  burst, repeatedly.  Wake-up latency under load is the paper's
  "response time performance isolation" concern (Section 3.1).
* :func:`cpu_hog` — a long pure-compute job (the batch antagonist).
* :func:`rpc_client` — small network sends with think time.
* :func:`bulk_sender` — a large transfer streamed in big messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import List

from repro.kernel.syscalls import Behavior, Checkpoint, Compute, SendNetwork, Sleep
from repro.sim.units import KB, msecs


@dataclass(frozen=True)
class InteractiveParams:
    """An interactive session: ``bursts`` iterations of think+burst."""

    bursts: int = 100
    think_ms: float = 20.0
    burst_ms: float = 1.0

    @property
    def ideal_us(self) -> int:
        """Response time with zero queueing: every burst runs at once."""
        return self.bursts * msecs(self.think_ms + self.burst_ms)


def interactive_user(params: InteractiveParams = InteractiveParams()) -> Behavior:
    """Think, then compute briefly; repeat.

    Each burst is bracketed by checkpoints (``wake``/``done``), so
    :func:`burst_latencies_ms` can recover the full per-burst latency
    distribution from the finished process.  Ops are immutable values,
    so the four are built once and yielded every burst.
    """
    think = Sleep(msecs(params.think_ms))
    wake = Checkpoint("wake")
    burst = Compute(msecs(params.burst_ms))
    done = Checkpoint("done")
    for _ in range(params.bursts):
        yield think
        yield wake
        yield burst
        yield done


def burst_latencies_ms(proc, params: InteractiveParams) -> List[float]:
    """Per-burst wake-to-done latencies (ms) from checkpoint markers.

    The uncontended latency is ``burst_ms``; anything above it is
    queueing/revocation delay — the paper's interactive response-time
    concern, as a distribution rather than a mean.
    """
    wakes = [t for label, t in proc.checkpoints if label == "wake"]
    dones = [t for label, t in proc.checkpoints if label == "done"]
    if len(wakes) != len(dones):
        raise ValueError("mismatched wake/done checkpoints (unfinished run?)")
    return [(d - w) / 1000.0 for w, d in zip(wakes, dones)]


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    if not values:
        raise ValueError("no values")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, round(fraction * len(ordered)))
    return ordered[rank - 1]


def cpu_hog(total_ms: float) -> Behavior:
    """A long batch computation."""
    yield Compute(msecs(total_ms))


def rpc_client(
    count: int = 200, nbytes: int = 2 * KB, think_ms: float = 1.0, nic: int = 0
) -> Behavior:
    """Small request messages with think time between them."""
    request = SendNetwork(nbytes, nic=nic)
    think = Sleep(msecs(think_ms))
    for _ in range(count):
        yield request
        yield think


def bulk_sender(
    total_bytes: int, message_bytes: int = 64 * KB, nic: int = 0
) -> Behavior:
    """Stream a large transfer in big messages."""
    full = SendNetwork(message_bytes, nic=nic)
    sent = 0
    while sent < total_bytes:
        chunk = min(message_bytes, total_bytes - sent)
        yield full if chunk == message_bytes else SendNetwork(chunk, nic=nic)
        sent += chunk


def interactive_excess_latency_us(proc, params: InteractiveParams) -> float:
    """Mean queueing delay per burst, from a finished process."""
    if proc.finished < 0:
        raise ValueError(f"process {proc.pid} has not finished")
    return max(0.0, (proc.response_us - params.ideal_us) / params.bursts)
