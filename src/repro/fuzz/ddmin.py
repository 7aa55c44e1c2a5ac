"""Universal delta debugging: ddmin over any list of removable items.

The scenario shrinker (:func:`repro.fuzz.shrink.shrink_scenario`)
minimises event lists of workloads, antagonist bursts and fault events,
for generated scenarios and chaos plans alike.  The algorithm lives
here, generic over *any* sequence of items plus a ``fails`` predicate:
:func:`ddmin` returns the smallest item subset it found for which
``fails`` still returns True.

The predicate is typically one full simulation per call, so the search
is bounded by ``max_runs`` rather than run to convergence; ddmin's
subset order preserves item order, which keeps time-ordered event
schedules meaningful without any domain knowledge here.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


def ddmin(
    items: Sequence[T],
    fails: Callable[[List[T]], bool],
    max_runs: int = 64,
) -> Tuple[List[T], int]:
    """Minimise ``items`` to a small subset for which ``fails`` holds.

    The caller must have established that ``fails(list(items))`` is
    True; ddmin only shrinks, it never re-checks the full set.  Returns
    ``(minimal_items, runs)`` where ``runs`` counts the ``fails`` calls
    spent (each one is typically a whole simulation).  The result is
    1-minimal within budget: classic ddmin [ZH02] over subsets and
    complements, ending with an explicit empty-set probe so a failure
    that needs *no* items at all (a sabotaged kernel, a planted bug)
    shrinks all the way down.
    """
    if max_runs < 1:
        raise ValueError(f"max_runs must be >= 1, got {max_runs}")
    events = list(items)
    runs = 0

    def probe(subset: List[T]) -> bool:
        nonlocal runs
        runs += 1
        return fails(subset)

    n = 2
    while len(events) >= 2 and runs < max_runs:
        chunk = max(1, len(events) // n)
        subsets = [events[i:i + chunk] for i in range(0, len(events), chunk)]
        reduced = False
        for i, subset in enumerate(subsets):
            if runs >= max_runs:
                break
            complement = [e for j, s in enumerate(subsets) if j != i for e in s]
            if probe(subset):
                events, n = subset, 2
                reduced = True
                break
            if (len(subsets) > 2 and complement and runs < max_runs
                    and probe(complement)):
                events, n = complement, max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(events):
                break
            n = min(len(events), n * 2)

    # The sabotage-only case: the bug fires with no items at all.
    if events and runs < max_runs and probe([]):
        events = []

    return events, runs
