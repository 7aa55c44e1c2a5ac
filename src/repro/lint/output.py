"""Renderers for lint results: human text, JSON, and SARIF 2.1.0.

The SARIF output is the minimal valid subset GitHub code scanning and
editors consume: one run, one driver with the rule metadata, one result
per finding with a physical location.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.lint.finding import Finding, Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_SARIF_LEVEL = {"warning": "warning", "error": "error"}


def render_text(findings: Sequence[Finding]) -> str:
    lines = [f.render() for f in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "tool": "simlint",
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "severity": finding.severity,
                "message": finding.message,
                "snippet": finding.snippet,
                "fingerprint": finding.fingerprint,
            }
            for finding in findings
        ],
        "summary": {"new": len(findings)},
    }
    return json.dumps(payload, indent=2)


def render_sarif(
    findings: Sequence[Finding],
    rules: Sequence[Rule],
) -> str:
    rule_index = {rule.code: i for i, rule in enumerate(rules)}
    results: List[Dict[str, object]] = []
    for finding in findings:
        result: Dict[str, object] = {
            "ruleId": finding.rule,
            "level": _SARIF_LEVEL[finding.severity],
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
            "partialFingerprints": {"simlint/v1": finding.fingerprint},
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        results.append(result)
    sarif = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": "https://example.invalid/simlint",
                        "rules": [
                            {
                                "id": rule.code,
                                "name": rule.name,
                                "shortDescription": {"text": rule.summary},
                                "defaultConfiguration": {
                                    "level": _SARIF_LEVEL[rule.severity]
                                },
                            }
                            for rule in rules
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(sarif, indent=2)
