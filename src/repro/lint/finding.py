"""The unit of lint output: one finding at one source location.

Each finding carries a *fingerprint* — a hash of the rule, the
repo-relative path, and the normalized text of the offending line — so
edits elsewhere in a file (which shift line numbers) keep its identity.
SARIF's ``partialFingerprints`` reports it, so code-scanning consumers
track a finding across commits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


#: Finding severities, in increasing order of trouble.  ``error`` is
#: for constructs that break determinism or accounting outright;
#: ``warning`` for constructs that are merely fragile.
SEVERITIES = ("warning", "error")


def fingerprint(rule: str, path: str, snippet: str) -> str:
    """Stable identity of a finding, independent of line numbers."""
    normalized = " ".join(snippet.split())
    digest = hashlib.sha256(f"{rule}|{path}|{normalized}".encode()).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line the finding points at.
    snippet: str = ""
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.rule, self.path, self.snippet)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule (shown by ``--list-rules`` and SARIF)."""

    code: str
    name: str
    summary: str
    severity: str = "warning"
    #: Package segments under ``repro`` the rule applies to; ``None``
    #: means every scanned file.
    scope: object = None
