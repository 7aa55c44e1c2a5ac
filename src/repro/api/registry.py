"""The experiment registry: one name, one signature, one result schema.

The runner used to hard-code an import and a bespoke report function
per experiment (``run_figure_5`` here, ``run_table_3`` there).  Every
experiment now registers itself:

    @experiment("fig5", title="Figure 5 — CPU isolation", render=_render)
    def run_figure_5(seed: int = 0) -> Dict[str, CpuIsolationResult]:
        ...

The decorator registers the driver and returns it *unchanged*, so
direct calls (tests, notebooks) keep their precise return types, while
the registry offers the uniform entry point

    run(ExperimentSpec(name="fig5", seed=0)) -> ExperimentResult

used by the runner, the benchmarks, and the parallel sweep executor
(:class:`ExperimentSpec` is the picklable payload; :func:`run` the
module-level worker function).  :class:`ExperimentResult` carries the
driver's raw return plus one JSON-serialisable flat-record schema for
all experiments (via :func:`repro.metrics.export.to_records`), and
:meth:`ExperimentResult.canonical_json` is the byte-comparable form the
serial-vs-parallel divergence check hashes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.metrics.export import to_records

_REGISTRY: Dict[str, "Experiment"] = {}


@dataclass(frozen=True)
class Experiment:
    """One registered experiment driver."""

    name: str
    title: str
    fn: Callable[..., Any]
    #: Raw driver output -> human-readable report (the paper table).
    render: Optional[Callable[[Any], str]] = None
    #: Cheap enough for the quick subset, ``names(quick_only=True)``.
    quick: bool = False

    def report(self, data: Any) -> str:
        if self.render is None:
            return f"{self.title or self.name}: {data!r}"
        return self.render(data)


@dataclass(frozen=True)
class ExperimentSpec:
    """A picklable (experiment, seed) cell — the sweep payload."""

    name: str
    seed: int = 0


@dataclass
class ExperimentResult:
    """Uniform result envelope for every experiment.

    ``data`` is whatever the driver returned (its documented, typed
    form); ``records`` is the flat, JSON-ready projection shared by all
    experiments.
    """

    name: str
    seed: int
    data: Any
    records: List[Dict[str, Any]] = field(default_factory=list)

    def payload(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed, "records": self.records}

    def canonical_json(self) -> str:
        """Deterministic serialisation for byte-identity comparison."""
        return json.dumps(self.payload(), sort_keys=True)


def experiment(
    name: str,
    title: str = "",
    render: Optional[Callable[[Any], str]] = None,
    quick: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a ``(seed=...) -> data`` driver under ``name``.

    Returns the driver unchanged — registration is purely additive.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} registered twice")
        _REGISTRY[name] = Experiment(
            name=name, title=title or name, fn=fn, render=render, quick=quick
        )
        return fn

    return decorate


def load_all() -> None:
    """Import every experiment module so decorators have run."""
    import repro.experiments  # noqa: F401  (import side effect)


def names(quick_only: bool = False) -> List[str]:
    """Registered experiment names, in registration order."""
    load_all()
    return [n for n, e in _REGISTRY.items() if e.quick or not quick_only]


def get(name: str) -> Experiment:
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no experiment {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def run(spec: ExperimentSpec) -> ExperimentResult:
    """The uniform entry point — and the sweep worker function."""
    exp = get(spec.name)
    data = exp.fn(seed=spec.seed)  # simlint: dynamic=experiment-registry
    return ExperimentResult(
        name=spec.name, seed=spec.seed, data=data, records=to_records(data)
    )
