"""``python -m repro lint`` — the simlint command line.

Exit status is 0 when there are no findings, 1 when there are any, 2
for usage errors.  An intentional exception is excused at its site
with an inline ``# simlint: disable=`` comment and its justification.

Typical invocations::

    python -m repro lint                          # src/repro
    python -m repro lint --format sarif -o out.sarif
    python -m repro lint --list-rules
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.lint.framework import LintError, all_rules, run_lint
from repro.lint.output import render_json, render_sarif, render_text


def _default_paths() -> List[str]:
    # Prefer the repo layout (src/repro below the cwd); fall back to
    # the installed package's own directory so the CLI always has a
    # target.
    candidate = os.path.join("src", "repro")
    if os.path.isdir(candidate):
        return [candidate]
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simlint: determinism, event-safety, units, and "
        "hot-path static analysis for the simulator",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule with its severity and summary",
    )
    parser.add_argument(
        "--effects", action="store_true",
        help="build the interprocedural effect analysis: run the "
        "SL5xx/SL6xx project rules and derive the SL4xx hot-module "
        "list from Engine.run reachability",
    )
    parser.add_argument(
        "--why", metavar="FN", default=None,
        help="explain one function's effect summary (module:qualname, "
        "or a unique qualname suffix) and exit; implies --effects",
    )
    return parser


def _explain(analysis, query: str) -> int:
    refs = sorted(analysis.summaries)
    matches = [r for r in refs if r == query]
    if not matches:
        matches = [
            r for r in refs
            if r.endswith(f":{query}") or r.split(":", 1)[1] == query
        ]
    if not matches:
        matches = [r for r in refs if query in r]
    if not matches:
        print(f"error: no function matches {query!r}", file=sys.stderr)
        return 2
    if len(matches) > 1 and query not in matches:
        print(f"error: {query!r} is ambiguous:", file=sys.stderr)
        for ref in matches[:10]:
            print(f"  {ref}", file=sys.stderr)
        return 2
    ref = query if query in matches else matches[0]
    summary = analysis.summaries[ref]
    print(f"{ref}  ({summary.path}:{summary.line})")
    if summary.markers:
        print(f"  audited dynamic seams: {', '.join(summary.markers)}")
    if summary.widened:
        print("  widened (closure incomplete):")
        for reason in summary.widened:
            print(f"    - {reason}")
    for site in summary.direct_effects:
        tag = " [sanctioned]" if site.sanctioned else ""
        print(f"  direct {site.kind}: {site.describe()}{tag}")
    for kind in sorted(summary.taints):
        for taint in summary.taints[kind]:
            tag = " [sanctioned]" if taint.site.sanctioned else ""
            print(f"  transitive {kind}{tag}: {taint.render_chain()}")
    for write in summary.writes:
        print(f"  writes {write.token} ({write.path}:{write.line})")
    closure = analysis.closure(ref)
    if closure is not None:
        modules, widen_reasons = closure
        state = "complete" if not widen_reasons else \
            f"incomplete ({len(widen_reasons)} unresolved edges)"
        print(f"  dependency closure: {len(modules)} modules, {state}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  [{rule.severity:7}]  {rule.name}: {rule.summary}")
        return 0

    paths = args.paths or _default_paths()
    rules = None
    if args.rules:
        rules = {code.strip() for code in args.rules.split(",") if code.strip()}

    effects = args.effects or args.why is not None

    if args.why is not None:
        from repro.lint.effects import analyze_paths
        from repro.lint.framework import iter_python_files

        try:
            analysis = analyze_paths(iter_python_files(paths))
        except LintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _explain(analysis, args.why)

    try:
        findings = run_lint(paths, rules=rules, effects=effects)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "text":
        report = render_text(findings)
    elif args.format == "json":
        report = render_json(findings)
    else:
        report = render_sarif(findings, all_rules())

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
