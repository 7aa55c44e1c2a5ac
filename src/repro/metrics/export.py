"""Flatten experiment results into plain records.

Every experiment driver returns (frozen) dataclasses; :func:`to_records`
turns one or a collection of them into flat dicts so results can be
archived, diffed across runs, or plotted elsewhere.  Nested
dataclasses and dicts are flattened with dotted keys.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping


def _flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten dataclasses/mappings into dotted scalar keys."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, Mapping):
        out: Dict[str, Any] = {}
        for key, sub in value.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            out.update(_flatten(sub, dotted))
        return out
    if isinstance(value, (list, tuple)):
        out = {}
        for i, sub in enumerate(value):
            dotted = f"{prefix}.{i}" if prefix else str(i)
            out.update(_flatten(sub, dotted))
        return out
    return {prefix or "value": value}


def to_records(results: Any) -> List[Dict[str, Any]]:
    """Normalise experiment output into a list of flat records.

    Accepts one dataclass, a list of them, or a dict keyed by label
    (e.g. ``run_table_4()``'s policy->row mapping; the key becomes a
    ``label`` column).
    """
    if dataclasses.is_dataclass(results) and not isinstance(results, type):
        return [_flatten(results)]
    if isinstance(results, Mapping):
        records = []
        for label, row in results.items():
            record = {"label": label}
            record.update(_flatten(row))
            records.append(record)
        return records
    if isinstance(results, Iterable):
        return [_flatten(row) for row in results]
    raise TypeError(f"cannot export {type(results).__name__}")
