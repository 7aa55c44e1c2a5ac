"""The checker framework: file walking, AST context, and dispatch.

A *checker* is a class with a ``RULES`` tuple and a ``check(ctx)``
method yielding :class:`~repro.lint.finding.Finding`.  Checkers
register themselves with :func:`register`; :func:`run_lint` parses each
file once, builds a shared :class:`FileContext` (AST, parent links,
resolved import aliases, suppression comments), and hands it to every
registered checker whose scope covers the file.

Suppressions:

* ``# simlint: disable=SL203`` (comma-separated codes, or ``all``) on
  the offending line silences findings for that line;
* ``# simlint: skip-file`` anywhere in the first ten lines skips the
  whole file.

An intentional exception is excused inline, with the disable comment
at the site and its justification in the comment around it, where it
survives refactors and shows in review.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.finding import Finding, Rule

#: Package segments (directly under ``repro/``) that make up the
#: simulated world.  Determinism rules apply here; host-side code (the
#: parallel executor, the linter itself) may use wall clocks and
#: environment variables freely.
SIM_SCOPE: Tuple[str, ...] = (
    "sim", "kernel", "cpu", "mem", "disk", "fs", "net", "core",
    "chaos", "faults", "antagonists", "workloads", "experiments",
    "metrics", "api", "snapshot", "fuzz",
)

#: Modules PR 3 optimised; the hot-path rules only fire here.
HOT_MODULES: Tuple[str, ...] = (
    "sim/engine.py",
    "cpu/scheduler.py",
    "cpu/stride.py",
    "cpu/partition.py",
    "cpu/priorities.py",
    "kernel/kernel.py",
    "kernel/process.py",
    "mem/manager.py",
    "fs/buffercache.py",
    "disk/drive.py",
)


class LintError(RuntimeError):
    """Raised for unusable inputs (a bad path)."""


class FileContext:
    """Everything checkers need about one file, computed once."""

    def __init__(self, path: str, display_path: str, source: str):
        self.path = path
        #: Repo-relative, forward-slash path used in findings.
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        #: node -> parent node, for ancestor-sensitive rules.
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        #: local alias -> canonical dotted module path, e.g. after
        #: ``import numpy as np`` this maps ``np`` -> ``numpy`` and
        #: after ``from time import monotonic as mono`` it maps
        #: ``mono`` -> ``time.monotonic``.
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        self._suppressed: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            marker = line.find("# simlint: disable=")
            if marker < 0:
                continue
            codes = line[marker + len("# simlint: disable="):].split()[0]
            self._suppressed[lineno] = {c.strip() for c in codes.split(",") if c.strip()}
        self.skip_file = any(
            "# simlint: skip-file" in line for line in self.lines[:10]
        )
        #: Hot-path module tails for SL4xx.  The static PR-3 list by
        #: default; ``run_lint(effects=True)`` replaces it with the
        #: set the effect engine derives from ``Engine.run``.
        self.hot_modules: Sequence[str] = HOT_MODULES

    # --- queries checkers lean on ------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cursor = self.parents.get(node)
        while cursor is not None:
            yield cursor
            cursor = self.parents.get(cursor)

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """``a.b.c`` for a Name/Attribute chain, alias-resolved at the root."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppressed(self, lineno: int, rule: str) -> bool:
        codes = self._suppressed.get(lineno)
        if not codes:
            return False
        return rule in codes or "all" in codes

    def module_parts(self) -> Tuple[str, ...]:
        """Path segments after the ``repro/`` package root, if any."""
        normalized = self.display_path.replace(os.sep, "/")
        if "repro/" in normalized:
            tail = normalized.split("repro/", 1)[1]
            return tuple(tail.split("/"))
        return tuple(normalized.split("/"))

    def in_scope(self, scope: Optional[Sequence[str]]) -> bool:
        if scope is None:
            return True
        parts = self.module_parts()
        return bool(parts) and parts[0] in scope

    def is_hot_module(self) -> bool:
        tail = "/".join(self.module_parts())
        return tail in self.hot_modules

    def finding(
        self, rule: Rule, node: ast.AST, message: str
    ) -> Optional[Finding]:
        """Build a finding for ``node`` unless the line suppresses it."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressed(lineno, rule.code):
            return None
        return Finding(
            rule=rule.code,
            path=self.display_path,
            line=lineno,
            col=col + 1,
            message=message,
            snippet=self.snippet(lineno),
            severity=rule.severity,
        )


class Checker:
    """Base class for lint passes; subclasses set RULES and check()."""

    #: The rules this checker can emit.
    RULES: Tuple[Rule, ...] = ()
    #: Package scope shared by all the checker's rules (None = all files).
    SCOPE: Optional[Tuple[str, ...]] = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


class ProjectChecker:
    """Base class for whole-tree passes over the effect analysis.

    Project checkers only run under ``run_lint(effects=True)``: they
    receive the :class:`~repro.lint.effects.EffectAnalysis` built from
    every linted file plus the per-file contexts (for suppression
    checks and snippets), and yield findings anchored wherever their
    evidence lives.
    """

    RULES: Tuple[Rule, ...] = ()

    def check_project(
        self, analysis, contexts: Dict[str, "FileContext"]
    ) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


_CHECKERS: List[Type[Checker]] = []
_PROJECT_CHECKERS: List[Type[ProjectChecker]] = []


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    _CHECKERS.append(cls)
    return cls


def register_project(cls: Type[ProjectChecker]) -> Type[ProjectChecker]:
    """Class decorator adding a project checker to the registry."""
    _PROJECT_CHECKERS.append(cls)
    return cls


def registered_checkers() -> List[Type[Checker]]:
    _load_builtin_checkers()
    return list(_CHECKERS)


def registered_project_checkers() -> List[Type[ProjectChecker]]:
    _load_builtin_checkers()
    return list(_PROJECT_CHECKERS)


def all_rules() -> List[Rule]:
    rules: List[Rule] = []
    for checker in registered_checkers():
        rules.extend(checker.RULES)
    for checker in registered_project_checkers():
        rules.extend(checker.RULES)
    return sorted(rules, key=lambda r: (r.code, r.name))


def _load_builtin_checkers() -> None:
    # Importing the package registers every built-in checker exactly
    # once; user plugins can register more before run_lint().
    import repro.lint.checkers  # noqa: F401


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and path not in seen:
                seen.add(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                for name in sorted(files):
                    if name.endswith(".py"):
                        full = os.path.join(root, name)
                        if full not in seen:
                            seen.add(full)
        else:
            raise LintError(f"no such file or directory: {path}")
    return iter(sorted(seen))


def display_path(path: str, root: Optional[str] = None) -> str:
    """Repo-relative forward-slash path for findings."""
    root = root if root is not None else os.getcwd()
    try:
        relative = os.path.relpath(os.path.abspath(path), root)
    except ValueError:  # pragma: no cover - windows cross-drive
        relative = path
    if relative.startswith(".."):
        relative = path
    return relative.replace(os.sep, "/")


def run_lint(
    paths: Sequence[str],
    root: Optional[str] = None,
    rules: Optional[Set[str]] = None,
    effects: bool = False,
) -> List[Finding]:
    """Run every registered checker over ``paths``.

    Findings come back sorted by (path, line, col, rule) so output is
    stable.  ``rules`` optionally restricts to a subset
    of rule codes.  ``effects=True`` additionally builds the
    interprocedural effect analysis over every parsed file, derives
    the SL4xx hot-module list from ``Engine.run`` reachability, and
    runs the registered project checkers (SL5xx/SL6xx).
    """
    findings: List[Finding] = []
    checkers = [cls() for cls in registered_checkers()]
    contexts: List[FileContext] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            ctx = FileContext(path, display_path(path, root), source)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="SL000",
                    path=display_path(path, root),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                    severity="error",
                )
            )
            continue
        if ctx.skip_file:
            continue
        contexts.append(ctx)

    analysis = None
    if effects:
        from repro.lint.effects import EffectAnalysis

        analysis = EffectAnalysis.from_sources(
            (ctx.display_path, ctx.source, ctx.tree) for ctx in contexts
        )
        derived_hot = tuple(analysis.hot_modules())
        if derived_hot:
            for ctx in contexts:
                ctx.hot_modules = derived_hot

    for ctx in contexts:
        for checker in checkers:
            if not ctx.in_scope(checker.SCOPE):
                continue
            for finding in checker.check(ctx):
                if finding is None:
                    continue
                if rules is not None and finding.rule not in rules:
                    continue
                findings.append(finding)

    if analysis is not None:
        by_display = {ctx.display_path: ctx for ctx in contexts}
        for cls in registered_project_checkers():
            for finding in cls().check_project(analysis, by_display):
                if finding is None:
                    continue
                if rules is not None and finding.rule not in rules:
                    continue
                findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
