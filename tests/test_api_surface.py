"""The ``repro.api`` v1 surface contract.

Examples and the README are the documentation of record; they must
import only from ``repro.api`` (deep module paths are internal and may
move), and every name the facade advertises must actually resolve.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

#: Any ``import repro...`` / ``from repro... import`` that is not the
#: facade itself.
_DEEP_IMPORT = re.compile(
    r"^\s*(?:from\s+(repro(?:\.[\w.]+)?)\s+import|import\s+(repro(?:\.[\w.]+)?))",
    re.MULTILINE,
)


def _offending_imports(text: str):
    bad = []
    for match in _DEEP_IMPORT.finditer(text):
        module = match.group(1) or match.group(2)
        if module != "repro.api":
            bad.append(module)
    return bad


def test_examples_exist():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples_import_only_the_facade(path):
    bad = _offending_imports(path.read_text())
    assert not bad, (
        f"{path.name} imports internal modules {bad}; examples must"
        " import from repro.api only"
    )


def test_readme_imports_only_the_facade():
    text = (REPO / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert blocks, "README lost its python examples"
    bad = [m for block in blocks for m in _offending_imports(block)]
    assert not bad, f"README code imports internal modules {bad}"


def test_every_advertised_name_resolves():
    import repro.api as api

    assert api.__all__ == sorted(set(api.__all__), key=api.__all__.index)
    for name in api.__all__:
        getattr(api, name)


def test_v1_core_names_present():
    import repro.api as api

    for name in (
        "SimulationSpec", "FleetSpec", "ScenarioSpec", "SweepPlan",
        "Executor", "experiment", "run_experiment",
    ):
        assert name in api.__all__
        getattr(api, name)


def test_dir_lists_lazy_names():
    import repro.api as api

    listing = dir(api)
    assert "SweepPlan" in listing and "ScenarioSpec" in listing
