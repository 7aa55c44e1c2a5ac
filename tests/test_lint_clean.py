"""The tree itself must lint clean.

This is the repo-level guarantee behind ``python -m repro lint``: every
finding on ``src/repro`` is either fixed or suppressed at the site with
an inline ``# simlint: disable=`` carrying a written justification.
There is no baseline file to grandfather a finding in, so a regression
fails here at once.
"""

from pathlib import Path

from repro.lint import run_lint

ROOT = Path(__file__).resolve().parent.parent


def test_src_repro_is_clean():
    findings = run_lint([str(ROOT / "src" / "repro")], root=str(ROOT))
    assert not findings, (
        "new lint findings:\n" + "\n".join(f.render() for f in findings)
    )


def test_src_repro_is_clean_with_effects():
    findings = run_lint(
        [str(ROOT / "src" / "repro")], root=str(ROOT), effects=True
    )
    assert not findings, (
        "new effect-analysis findings:\n"
        + "\n".join(f.render() for f in findings)
    )

