"""The interprocedural effect engine.

Builds a :class:`~repro.lint.callgraph.CallGraph` over the full tree,
extracts each function's *direct* effects (the same nondeterminism
sources SL1xx flags file-locally, plus ledger writes), and runs a
fixpoint pass propagating determinism taint over call edges.  The
result — one :class:`~repro.lint.summaries.FunctionSummary` per
function — feeds two consumers:

* the SL5xx interprocedural determinism rules and the SL6xx
  shared-state ordering rules (:mod:`repro.lint.checkers.interproc`,
  :mod:`repro.lint.checkers.sharedstate`);
* ``python -m repro lint --why <fn>`` (the explain mode), which also
  reports the function's dependency closure
  (:func:`EffectAnalysis.closure`): the set of modules whose bytes can
  influence it, with a completeness bit that is False whenever a
  reachable function is widened.

**Taint propagation** follows call edges only (``direct``/``cha``) —
a function that merely *schedules* a tainted handler is not itself
tainted; the handler is flagged directly.  Taint never crosses out of
the boundary packages ({parallel, lint}): host-side code reads
clocks and environment legitimately, and the executor's byte-identity
gate — not the linter — guards that seam.  **Closures** follow every
edge kind plus module imports: a referenced callee's code still runs
under the entry point, and an imported module's top-level code runs at
import, so both belong to the dependency slice.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.callgraph import (
    BOUNDARY_PACKAGES,
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    MODULE_REF,
    _dotted,
    _top_package,
)
from repro.lint.summaries import (
    EffectSite,
    FunctionSummary,
    LOCAL_RULE,
    Taint,
    WriteSite,
)

#: Packages making up the simulated world (mirrors framework.SIM_SCOPE;
#: duplicated here so the engine has no import cycle with the checker
#: framework).
SIM_PACKAGES: Tuple[str, ...] = (
    "sim", "kernel", "cpu", "mem", "disk", "fs", "net", "core",
    "chaos", "faults", "antagonists", "workloads", "experiments",
    "metrics", "api", "snapshot", "fuzz",
)

#: Ledger attribute names whose writes form the shared-state footprint.
LEDGER_FIELDS: Tuple[str, ...] = ("entitled", "allowed", "used")

#: The one module allowed to write ledgers (the accounting core).
_ACCOUNTING_MODULE = "repro.core.resources"

#: Witness chains longer than this are truncated (diagnostics only;
#: taint itself still propagates).
_MAX_CHAIN = 12


def _effect_tables():
    # The SL1xx checker owns the canonical effect tables; reuse them so
    # the file-local and interprocedural passes can never disagree on
    # what counts as a clock or an entropy source.
    from repro.lint.checkers import determinism as det

    return det._WALL_CLOCK, det._GLOBAL_RANDOM, det._ENV_READS


class EffectAnalysis:
    """Summaries + closures for one parsed source tree."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.summaries: Dict[str, FunctionSummary] = {}

    # --- construction ------------------------------------------------------

    @classmethod
    def from_sources(
        cls, sources: Iterable[Tuple[str, str, Optional[ast.Module]]]
    ) -> "EffectAnalysis":
        """Build from (display_path, source, optional pre-parsed tree)."""
        graph = CallGraph()
        for display_path, source, tree in sources:
            graph.index_source(display_path, source, tree)
        graph.finalize()
        analysis = cls(graph)
        analysis._summarize()
        analysis._propagate()
        return analysis

    def _summarize(self) -> None:
        wall_clock, global_random, env_reads = _effect_tables()
        for ref in sorted(self.graph.functions):
            fi = self.graph.functions[ref]
            mi = self.graph.modules[fi.module]
            effects: List[EffectSite] = []
            writes: List[WriteSite] = []
            for stmt in fi.body:
                for node in ast.walk(stmt):
                    effects.extend(self._direct_effects(
                        mi, fi, node, wall_clock, global_random, env_reads))
                    site = self._ledger_write(mi, fi, node)
                    if site is not None:
                        writes.append(site)
            self.summaries[ref] = FunctionSummary(
                ref=ref,
                module=fi.module,
                qualname=fi.qualname,
                path=fi.path,
                line=fi.line,
                direct_effects=tuple(effects),
                writes=tuple(writes),
                edges=tuple(self.graph.edges[ref]),
                widened=tuple(sorted(set(self.graph.widened[ref]))),
                markers=tuple(sorted(set(self.graph.markers_used[ref]))),
            )

    def _site(self, mi: ModuleInfo, fi: FunctionInfo, node: ast.AST,
              kind: str, detail: str, sanctioned: bool = False) -> EffectSite:
        line = getattr(node, "lineno", fi.line)
        suppressed = LOCAL_RULE[kind] in mi.suppressed.get(line, ()) or \
            "all" in mi.suppressed.get(line, ())
        out_of_scope = _top_package(mi.name) not in SIM_PACKAGES
        return EffectSite(
            kind=kind, module=mi.name, path=fi.path, line=line, detail=detail,
            escapes_local=suppressed or out_of_scope, sanctioned=sanctioned,
        )

    def _direct_effects(self, mi: ModuleInfo, fi: FunctionInfo, node: ast.AST,
                        wall_clock, global_random, env_reads):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func, mi.aliases)
            if dotted is None:
                return
            if dotted in wall_clock:
                yield self._site(mi, fi, node, "wall-clock", dotted)
            elif dotted in global_random or dotted.startswith("secrets."):
                yield self._site(mi, fi, node, "entropy", dotted)
            elif dotted == "random.Random" and not node.args and not node.keywords:
                yield self._site(mi, fi, node, "entropy", "random.Random()")
            elif dotted in ("os.getenv", "os.environ.get"):
                key = _str_expr(node.args[0], mi, self.graph.modules) \
                    if node.args else None
                yield self._site(
                    mi, fi, node, "env-read",
                    f"{dotted}({key or '...'})",
                    sanctioned=bool(key and key.startswith("REPRO_")),
                )
        elif isinstance(node, ast.Subscript):
            dotted = _dotted(node.value, mi.aliases)
            if dotted == "os.environ":
                key = _str_expr(node.slice, mi, self.graph.modules)
                yield self._site(
                    mi, fi, node, "env-read", f"os.environ[{key or '...'}]",
                    sanctioned=bool(key and key.startswith("REPRO_")),
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if self._is_set_expr(mi, node.iter):
                yield self._site(mi, fi, node.iter, "hash-order",
                                 "iteration over a set")
        elif isinstance(node, ast.comprehension):
            if self._is_set_expr(mi, node.iter):
                yield self._site(mi, fi, node.iter, "hash-order",
                                 "iteration over a set")

    def _is_set_expr(self, mi: ModuleInfo, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _dotted(node.func, mi.aliases) in ("set", "frozenset")
        return False

    def _ledger_write(self, mi: ModuleInfo, fi: FunctionInfo,
                      node: ast.AST) -> Optional[WriteSite]:
        if mi.name == _ACCOUNTING_MODULE:
            return None
        if fi.qualname.endswith(("__init__", "__post_init__")):
            # Constructor writes initialise a fresh object: it cannot
            # yet be shared between event roots, so they are not
            # ordering-coupled mutations.
            return None
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target = node.target
        if not isinstance(target, ast.Attribute) or \
                target.attr not in LEDGER_FIELDS:
            return None
        if not (isinstance(target.value, ast.Name)
                and target.value.id == "self" and fi.class_name):
            return None
        return WriteSite(
            token=f"{fi.class_name}.{target.attr}",
            module=mi.name, path=fi.path, line=node.lineno,
        )

    # --- taint fixpoint ----------------------------------------------------

    def _propagate(self) -> None:
        # Seed: every function is tainted by its own direct effects.
        taints: Dict[str, Dict[str, Dict[tuple, Taint]]] = {}
        for ref, summary in self.summaries.items():
            per_kind: Dict[str, Dict[tuple, Taint]] = {}
            for site in summary.direct_effects:
                chain = ((ref, site.line),)
                taint = Taint(kind=site.kind, site=site, chain=chain)
                per_kind.setdefault(site.kind, {}).setdefault(
                    self._origin_key(site), taint)
            taints[ref] = per_kind

        callers: Dict[str, List[Tuple[str, int]]] = {}
        for ref, summary in self.summaries.items():
            for edge in summary.edges:
                if edge.calls and edge.callee in self.summaries:
                    callers.setdefault(edge.callee, []).append((ref, edge.line))

        # Synchronous rounds: shortest witness chains settle first, and
        # within a round ties break on the lexicographically-least
        # chain, so the summaries are deterministic.
        changed = True
        while changed:
            changed = False
            pending: Dict[str, Dict[str, Dict[tuple, Taint]]] = {}
            for callee in sorted(callers):
                if _top_package(callee.split(":")[0]) in BOUNDARY_PACKAGES:
                    continue  # host-side code absorbs taint
                for kind, variants in taints.get(callee, {}).items():
                    for key, taint in variants.items():
                        for caller, line in callers[callee]:
                            if key in taints[caller].get(kind, {}):
                                continue
                            chain = ((caller, line),) + taint.chain
                            if len(chain) > _MAX_CHAIN:
                                chain = chain[:_MAX_CHAIN]
                            candidate = Taint(kind=kind, site=taint.site,
                                              chain=chain)
                            slot = pending.setdefault(caller, {}).setdefault(
                                kind, {})
                            if key not in slot or chain < slot[key].chain:
                                slot[key] = candidate
            for caller, per_kind in pending.items():
                for kind, variants in per_kind.items():
                    for key, taint in variants.items():
                        if key not in taints[caller].setdefault(kind, {}):
                            taints[caller][kind][key] = taint
                            changed = True

        for ref, per_kind in taints.items():
            self.summaries[ref].taints = {
                kind: tuple(variants[k] for k in sorted(variants))
                for kind, variants in per_kind.items() if variants
            }

    @staticmethod
    def _origin_key(site: EffectSite) -> tuple:
        return (site.kind, _top_package(site.module),
                site.escapes_local, site.sanctioned)

    # --- closures ----------------------------------------------------------

    def closure(self, ref: str) -> Optional[Tuple[Set[str], List[str]]]:
        """(module set, widening reasons) reachable from ``ref``.

        Returns None when ``ref`` is not in the graph.  The module set
        covers every function reachable over *all* edge kinds, each
        reached module's transitive top-level repro imports, and every
        parent package ``__init__`` (importing a module executes them
        all).  An empty reason list means the closure is complete.
        """
        if ref not in self.graph.functions:
            return None
        modules: Set[str] = set()
        reasons: List[str] = []
        seen_fns: Set[str] = set()
        stack: List[str] = [ref]

        def add_module(name: str) -> None:
            if name in modules:
                return
            mi = self.graph.modules.get(name)
            if mi is None:
                reasons.append(f"unindexed module {name}")
                modules.add(name)
                return
            modules.add(name)
            # Importing a module runs its top-level code.
            stack.append(f"{name}:{MODULE_REF}")
            for imported in sorted(mi.top_imports):
                add_module(imported)
            parts = name.split(".")
            for cut in range(1, len(parts)):
                parent = ".".join(parts[:cut])
                if parent in self.graph.modules:
                    add_module(parent)

        while stack:
            fn = stack.pop()
            if fn in seen_fns:
                continue
            seen_fns.add(fn)
            fi = self.graph.functions.get(fn)
            if fi is None:
                continue
            add_module(fi.module)
            reasons.extend(self.graph.widened.get(fn, ()))
            for edge in self.graph.edges.get(fn, ()):
                if edge.kind == "import":
                    add_module(edge.callee)
                elif edge.callee in self.graph.functions:
                    stack.append(edge.callee)
        return modules, sorted(set(reasons))

    # --- event roots and footprints ----------------------------------------

    def event_roots(self) -> Dict[str, Set[str]]:
        return self.graph.event_roots

    def root_footprint(self, root: str) -> Dict[str, List[WriteSite]]:
        """Ledger write sites reachable from one event root."""
        footprint: Dict[str, List[WriteSite]] = {}
        seen: Set[str] = set()
        stack = [root]
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.add(fn)
            summary = self.summaries.get(fn)
            if summary is None:
                continue
            for site in summary.writes:
                footprint.setdefault(site.token, []).append(site)
            for edge in summary.edges:
                if edge.kind != "import" and edge.callee in self.summaries:
                    stack.append(edge.callee)
        return footprint

    # --- hot-module derivation ---------------------------------------------

    def hot_modules(self) -> List[str]:
        """Modules on the event-dispatch hot path, derived.

        Hot = reachable over call edges (direct/cha, not refs) from
        ``Engine.run``/``Engine.step`` or from any engine-scheduled
        event root, masked to the inner-loop packages.  Returned as
        ``pkg/file.py`` tails matching ``framework.HOT_MODULES``.
        """
        mask = ("sim", "cpu", "kernel", "mem", "fs", "disk")
        roots = [r for r in (
            "repro.sim.engine:Engine.run", "repro.sim.engine:Engine.step",
        ) if r in self.summaries]
        roots.extend(
            r for r in self.graph.event_roots
            if _top_package(r.split(":")[0]) in mask
        )
        seen: Set[str] = set()
        stack = list(roots)
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.add(fn)
            summary = self.summaries.get(fn)
            if summary is None:
                continue
            for edge in summary.edges:
                if edge.calls and edge.callee in self.summaries and \
                        _top_package(edge.callee.split(":")[0]) in mask:
                    stack.append(edge.callee)
        tails: Set[str] = set()
        for fn in seen:
            module = fn.split(":")[0]
            if _top_package(module) not in mask:
                continue
            mi = self.graph.modules.get(module)
            if mi is None or mi.name == "repro":
                continue
            normalized = mi.path.replace("\\", "/")
            if "repro/" in normalized:
                tails.add(normalized.rsplit("repro/", 1)[1])
        return sorted(tails)


def analyze_paths(paths: Iterable[str],
                  root: Optional[str] = None) -> EffectAnalysis:
    """Build an analysis by reading ``.py`` files from disk."""
    from repro.lint.framework import display_path

    sources: List[Tuple[str, str, Optional[ast.Module]]] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            sources.append((display_path(path, root), handle.read(), None))
    return EffectAnalysis.from_sources(sources)


def _str_expr(expr: ast.AST, mi, modules) -> Optional[str]:
    """A string literal, or a (possibly imported) module-level string
    constant: ``os.environ.get(ENV_ENABLE)`` resolves its key."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    dotted = _dotted(expr, mi.aliases)
    if not dotted:
        return None
    if "." not in dotted:
        return mi.str_constants.get(dotted)
    mod, _, attr = dotted.rpartition(".")
    owner = modules.get(mod)
    return owner.str_constants.get(attr) if owner is not None else None
