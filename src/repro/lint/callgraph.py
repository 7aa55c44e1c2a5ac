"""Project-wide call-graph construction for the effect engine.

The graph is built in two passes over already-parsed ASTs:

1. **Index** (:meth:`CallGraph.index_module`): record every module's
   import aliases, top-level functions, classes (methods, base names,
   callable fields), re-exports, and the literal ``_LAZY_EXPORTS``
   table of :mod:`repro.api`.  Module-level statements become a
   ``<module>`` pseudo-function — that code runs at import time, so it
   participates in taint and closure like any other function.
2. **Resolve** (:meth:`CallGraph.finalize`): walk every function body
   and turn each call or reference into a :class:`CallEdge`:

   * dotted names resolve through import aliases, module re-export
     chains, and the lazy-export table;
   * ``self.x()`` / ``cls.x()`` resolve through the class layout and
     its repro bases;
   * other ``obj.x()`` calls fall back to class-hierarchy analysis —
     one edge per repro class defining ``x`` (boundary packages are
     excluded: simulated code never holds executor/linter objects);
   * a ``Name`` or ``self.method`` merely *referenced* (callback
     argument, engine scheduling, decoration) becomes a ``ref`` edge,
     which closures follow but taint does not.

Anything that cannot be resolved — a call through a parameter, an
unknown local, or a callable field — **widens** the function: closures
containing a widened function are incomplete.  A call site that is
dynamic *by design* (the engine's event dispatch, the experiment
registry, the worker pool) carries a ``# simlint: dynamic=<tag>`` audit
marker: the marker suppresses widening because the possible targets
are connected to the graph at their registration sites (scheduling a
handler, decorating an experiment, submitting a cell) as ``ref`` edges.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.summaries import CallEdge

#: Top-level repro packages whose classes are never held by simulated
#: code; they are excluded from CHA candidate sets so host-side
#: machinery (the executor, the linter itself) cannot leak into
#: simulation closures through common method names (``get``, ``run``).
BOUNDARY_PACKAGES: Tuple[str, ...] = ("lint", "parallel")

#: Engine scheduling methods: a repro function passed as an argument
#: is an *event root* (it will be invoked by the dispatch loop).
_SCHEDULE_METHODS = ("at", "call_after", "every", "set_sanitizer", "set_idle_probe")

#: Decorators that neither wrap nor capture the decorated function in
#: a way the graph cannot see.
_TRANSPARENT_DECORATORS = {
    "staticmethod", "classmethod", "property", "abstractmethod",
    "dataclass", "dataclasses.dataclass", "abc.abstractmethod",
    "functools.wraps", "functools.lru_cache", "functools.total_ordering",
    "contextlib.contextmanager", "typing.overload", "typing.final",
}

_DYNAMIC_MARKER = "# simlint: dynamic="

MODULE_REF = "<module>"


def module_name_for(display_path: str) -> Optional[str]:
    """Dotted module name from a display path containing ``repro/``."""
    parts = display_path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    parts = parts[parts.index("repro"):]
    if not parts[-1].endswith(".py"):
        return None
    leaf = parts[-1][:-3]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + [leaf]
    return ".".join(parts)


class FunctionInfo:
    """One analyzable function (or ``<module>`` / lambda pseudo-fn)."""

    __slots__ = ("ref", "module", "qualname", "path", "line", "node",
                 "class_name", "body")

    def __init__(self, ref, module, qualname, path, line, node, class_name=None):
        self.ref = ref
        self.module = module
        self.qualname = qualname
        self.path = path
        self.line = line
        self.node = node
        self.class_name = class_name
        #: Statements walked for this function (for ``<module>`` the
        #: top-level code; for defs the def node itself).
        self.body: List[ast.AST] = []


class ClassInfo:
    __slots__ = ("module", "name", "bases", "methods", "callable_fields",
                 "attr_types", "elem_types", "subclasses")

    def __init__(self, module: str, name: str):
        self.module = module
        self.name = name
        #: Base-class dotted names (alias-resolved).
        self.bases: List[str] = []
        #: method name -> function ref
        self.methods: Dict[str, str] = {}
        #: field name -> lambda function ref (class-level lambda) or
        #: None (annotation/assignment says "may hold a callable").
        self.callable_fields: Dict[str, Optional[str]] = {}
        #: instance attr -> dotted class name, from ``self.x = Cls(...)``
        #: and annotated parameters — lets ``self._engine.at(...)``
        #: resolve directly instead of through CHA.
        self.attr_types: Dict[str, str] = {}
        #: container attr -> dotted element class (``events:
        #: List[FaultEvent]``), so loop variables get typed too.
        self.elem_types: Dict[str, str] = {}
        #: direct subclass keys, filled during finalize().
        self.subclasses: List[str] = []


class ModuleInfo:
    __slots__ = ("name", "path", "tree", "aliases", "top_imports",
                 "defs", "classes", "exports", "lazy_exports",
                 "union_aliases", "str_constants", "markers", "suppressed")

    def __init__(self, name: str, path: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.tree = tree
        self.aliases: Dict[str, str] = {}
        #: repro modules imported at module level (closure expansion).
        self.top_imports: Set[str] = set()
        #: top-level function name -> ref
        self.defs: Dict[str, str] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: top-level ``X = <resolvable>`` assignments (re-export style).
        self.exports: Dict[str, str] = {}
        #: ``_LAZY_EXPORTS`` literal: name -> (module, attr)
        self.lazy_exports: Dict[str, Tuple[str, str]] = {}
        #: ``FaultEvent = Union[A, B, ...]`` type aliases: a receiver
        #: annotated with one dispatches over the member classes
        #: instead of falling back to name-based CHA.
        self.union_aliases: Dict[str, Tuple[str, ...]] = {}
        #: module-level ``NAME = "literal"`` string constants, so
        #: ``os.environ.get(ENV_ENABLE)`` resolves its key.
        self.str_constants: Dict[str, str] = {}
        #: line -> dynamic-dispatch audit tag
        self.markers: Dict[int, str] = {}
        #: line -> suppressed rule codes (``# simlint: disable=``)
        self.suppressed: Dict[int, Set[str]] = {}


class CallGraph:
    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}        # "module:Class"
        self.methods_by_name: Dict[str, List[str]] = {}
        self.callable_field_names: Set[str] = set()
        self.edges: Dict[str, List[CallEdge]] = {}
        self.widened: Dict[str, List[str]] = {}
        self.markers_used: Dict[str, List[str]] = {}
        #: event-root function ref -> descriptions of the scheduling sites
        self.event_roots: Dict[str, Set[str]] = {}
        #: refs registered through the experiment registry
        self.registry_targets: Set[str] = set()

    # --- pass 1: indexing --------------------------------------------------

    def index_source(self, display_path: str, source: str,
                     tree: Optional[ast.Module] = None) -> Optional[str]:
        """Index one file; returns its module name (None = not repro)."""
        name = module_name_for(display_path)
        if name is None:
            return None
        if tree is None:
            tree = ast.parse(source, filename=display_path)
        mi = ModuleInfo(name, display_path, tree)
        self.modules[name] = mi
        self._scan_comments(mi, source)
        self._collect_aliases(mi)
        self._index_top_level(mi)
        return name

    def _scan_comments(self, mi: ModuleInfo, source: str) -> None:
        for lineno, line in enumerate(source.splitlines(), start=1):
            at = line.find(_DYNAMIC_MARKER)
            if at >= 0:
                tag = line[at + len(_DYNAMIC_MARKER):].split()[0]
                mi.markers[lineno] = tag
            at = line.find("# simlint: disable=")
            if at >= 0:
                codes = line[at + len("# simlint: disable="):].split()[0]
                mi.suppressed[lineno] = {
                    c.strip() for c in codes.split(",") if c.strip()
                }

    def _collect_aliases(self, mi: ModuleInfo) -> None:
        package = mi.name if self._is_package(mi) else mi.name.rsplit(".", 1)[0]
        for node in ast.walk(mi.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mi.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: resolve against this package.
                    anchor = package.split(".")
                    if node.level > 1:
                        anchor = anchor[: len(anchor) - (node.level - 1)]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mi.aliases[local] = f"{base}.{alias.name}" if base else alias.name
        # Top-level repro imports drive the module-closure expansion.
        for node in mi.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        mi.top_imports.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")
                    if node.level > 1:
                        anchor = anchor[: len(anchor) - (node.level - 1)]
                    base = ".".join(anchor + ([base] if base else []))
                if base.split(".")[0] == "repro":
                    mi.top_imports.add(base)

    def _is_package(self, mi: ModuleInfo) -> bool:
        return mi.path.replace("\\", "/").endswith("/__init__.py")

    def _index_top_level(self, mi: ModuleInfo) -> None:
        module_fi = FunctionInfo(
            f"{mi.name}:{MODULE_REF}", mi.name, MODULE_REF, mi.path, 1, None
        )
        self._add_function(module_fi)
        for node in mi.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ref = f"{mi.name}:{node.name}"
                fi = FunctionInfo(ref, mi.name, node.name, mi.path,
                                  node.lineno, node)
                fi.body = [node]
                self._add_function(fi)
                mi.defs[node.name] = ref
                module_fi.body.extend(node.decorator_list)
            elif isinstance(node, ast.ClassDef):
                self._index_class(mi, node, module_fi)
            else:
                self._index_module_stmt(mi, node, module_fi)

    def _index_module_stmt(self, mi: ModuleInfo, node: ast.stmt,
                           module_fi: FunctionInfo) -> None:
        module_fi.body.append(node)
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name == "_LAZY_EXPORTS" and isinstance(node.value, ast.Dict):
                self._index_lazy_exports(mi, node.value)
            else:
                if isinstance(node.value, ast.Constant) and \
                        isinstance(node.value.value, str):
                    mi.str_constants[name] = node.value.value
                    return
                members = _union_members_of(node.value, mi.aliases)
                if members:
                    mi.union_aliases[name] = members
                    return
                dotted = _dotted(node.value, mi.aliases)
                if dotted:
                    mi.exports[name] = dotted

    def _index_lazy_exports(self, mi: ModuleInfo, table: ast.Dict) -> None:
        for key, value in zip(table.keys, table.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            if isinstance(value, ast.Tuple) and len(value.elts) == 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in value.elts
            ):
                mi.lazy_exports[key.value] = (
                    value.elts[0].value, value.elts[1].value
                )

    def _index_class(self, mi: ModuleInfo, node: ast.ClassDef,
                     module_fi: FunctionInfo) -> None:
        ci = ClassInfo(mi.name, node.name)
        for base in node.bases:
            dotted = _dotted(base, mi.aliases)
            if dotted:
                ci.bases.append(dotted)
        key = f"{mi.name}:{node.name}"
        self.classes[key] = ci
        mi.exports.setdefault(node.name, f"{mi.name}.{node.name}")
        module_fi.body.extend(node.decorator_list)
        module_fi.body.extend(node.bases)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ref = f"{mi.name}:{node.name}.{stmt.name}"
                fi = FunctionInfo(ref, mi.name, f"{node.name}.{stmt.name}",
                                  mi.path, stmt.lineno, stmt, node.name)
                fi.body = [stmt]
                self._add_function(fi)
                ci.methods[stmt.name] = ref
                self.methods_by_name.setdefault(stmt.name, []).append(ref)
                module_fi.body.extend(stmt.decorator_list)
                self._scan_attr_types(mi, ci, stmt)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                field = stmt.target.id
                if isinstance(stmt.value, ast.Lambda):
                    ci.callable_fields[field] = self._index_lambda(
                        mi, node.name, field, stmt.value
                    )
                elif _annotation_is_callable(stmt.annotation):
                    ci.callable_fields[field] = None
                else:
                    attr_type, elem_type = _annotation_types(
                        stmt.annotation, mi.aliases)
                    if attr_type:
                        ci.attr_types[field] = attr_type
                    if elem_type:
                        ci.elem_types[field] = elem_type
                    module_fi.body.append(stmt)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                field = stmt.targets[0].id
                if isinstance(stmt.value, ast.Lambda):
                    ci.callable_fields[field] = self._index_lambda(
                        mi, node.name, field, stmt.value
                    )
                else:
                    module_fi.body.append(stmt)
            else:
                module_fi.body.append(stmt)
        for field in ci.callable_fields:
            self.callable_field_names.add(field)

    def _index_lambda(self, mi: ModuleInfo, cls: str, field: str,
                      node: ast.Lambda) -> str:
        ref = f"{mi.name}:{cls}.{field}"
        fi = FunctionInfo(ref, mi.name, f"{cls}.{field}", mi.path,
                          node.lineno, node, cls)
        fi.body = [node]
        self._add_function(fi)
        return ref

    def _scan_attr_types(self, mi: ModuleInfo, ci: ClassInfo,
                         method: ast.AST) -> None:
        """Record ``self.x = Cls(...)`` / annotated-param attr types."""
        params: Dict[str, str] = {}
        args = method.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                dotted = _dotted(arg.annotation, mi.aliases)
                if dotted:
                    params[arg.arg] = dotted
        for node in ast.walk(method):
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            value = getattr(node, "value", None)
            if isinstance(node, ast.AnnAssign) and node.annotation is not None:
                attr_type, elem_type = _annotation_types(
                    node.annotation, mi.aliases)
                if elem_type:
                    ci.elem_types.setdefault(target.attr, elem_type)
                if attr_type:
                    ci.attr_types[target.attr] = attr_type
                    continue
            if isinstance(value, ast.Call):
                dotted = _dotted(value.func, mi.aliases)
                if dotted and dotted.rsplit(".", 1)[-1][:1].isupper():
                    # Looks like a constructor; resolved lazily at use,
                    # since the class may be indexed after this module.
                    ci.attr_types.setdefault(target.attr, dotted)
            elif isinstance(value, ast.Name) and value.id in params:
                ci.attr_types[target.attr] = params[value.id]
            elif isinstance(value, ast.Lambda):
                ci.callable_fields.setdefault(target.attr, None)
                self.callable_field_names.add(target.attr)
            elif not _obviously_not_callable(value):
                # Optional hooks default to None and are attached later
                # (``self.on_failed = None``): any call through such a
                # field is dynamic dispatch.
                ci.callable_fields.setdefault(target.attr, None)
                self.callable_field_names.add(target.attr)

    def _add_function(self, fi: FunctionInfo) -> None:
        self.functions[fi.ref] = fi
        self.edges.setdefault(fi.ref, [])
        self.widened.setdefault(fi.ref, [])
        self.markers_used.setdefault(fi.ref, [])

    # --- pass 2: resolution ------------------------------------------------

    def finalize(self) -> None:
        for key in sorted(self.classes):
            ci = self.classes[key]
            owner = self.modules[ci.module]
            for base in ci.bases:
                base_ci = self._resolve_class(owner, base)
                if base_ci is not None:
                    base_ci.subclasses.append(key)
        for ref in sorted(self.functions):
            self._resolve_function(self.functions[ref])
        for ref in self.edges:
            seen: Set[Tuple[str, str, int]] = set()
            unique: List[CallEdge] = []
            for edge in self.edges[ref]:
                key = (edge.callee, edge.kind, edge.line)
                if key not in seen:
                    seen.add(key)
                    unique.append(edge)
            self.edges[ref] = unique

    def _resolve_function(self, fi: FunctionInfo) -> None:
        mi = self.modules[fi.module]
        ci = self.classes.get(f"{fi.module}:{fi.class_name}") \
            if fi.class_name else None
        local_fns, local_unknowns = self._collect_locals(mi, fi)
        # Decorators: applied at import time; an opaque one hides what
        # the name is rebound to, so it widens the decorated function.
        node = fi.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                self._resolve_decorator(mi, fi, dec)
        for stmt in fi.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    self._resolve_call(mi, fi, ci, local_fns, local_unknowns, sub)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    self._resolve_inner_import(mi, fi, sub)
                elif isinstance(sub, (ast.Name, ast.Attribute)) and \
                        isinstance(getattr(sub, "ctx", None), ast.Load):
                    self._resolve_reference(mi, fi, ci, local_fns, sub)

    def _collect_locals(self, mi: ModuleInfo, fi: FunctionInfo):
        """(name -> fn ref/class dotted) and the set of opaque locals."""
        local_fns: Dict[str, Tuple[str, str]] = {}   # name -> ("fn"|"instance", target)
        unknowns: Set[str] = set()

        def bind(name: str) -> None:
            if name not in local_fns:
                unknowns.add(name)

        for stmt in fi.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and sub is not fi.node:
                    # Nested defs merge into this summary; the bound
                    # name is "this function" for resolution purposes.
                    local_fns[sub.name] = ("fn", fi.ref)
                elif isinstance(sub, ast.Lambda):
                    continue
                elif isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                        and isinstance(sub.targets[0], ast.Name):
                    name = sub.targets[0].id
                    resolved = self._resolve_value(mi, fi, sub.value)
                    if resolved is not None:
                        local_fns[name] = resolved
                    else:
                        bind(name)
                elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.For,
                                      ast.AsyncFor, ast.withitem,
                                      ast.ExceptHandler, ast.comprehension)):
                    for name in _bound_names(sub):
                        bind(name)
        node = fi.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in (list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)):
                if arg.arg == "cls" and fi.class_name and \
                        arg.arg not in local_fns and \
                        arg.arg not in unknowns:
                    # ``cls(...)`` in a classmethod constructs this
                    # class (or a subclass — covered by the subclass
                    # scan in _add_constructor_edges' virtual lookup).
                    local_fns[arg.arg] = ("class", fi.class_name)
                    continue
                # An annotated, never-reassigned parameter is typed:
                # ``def _check(event: FaultEvent)`` resolves
                # ``event._validate()`` through the class hierarchy
                # instead of name-based CHA.
                attr_type, _elem = _annotation_types(
                    getattr(arg, "annotation", None), mi.aliases)
                if attr_type and arg.arg not in unknowns and \
                        arg.arg not in local_fns:
                    local_fns[arg.arg] = ("instance", attr_type)
                else:
                    bind(arg.arg)
            if args.vararg:
                bind(args.vararg.arg)
            if args.kwarg:
                bind(args.kwarg.arg)
        # Loop variables over typed containers: ``for e in self.events``
        # with ``events: List[FaultEvent]`` types ``e``.
        ci = self.classes.get(f"{fi.module}:{fi.class_name}") \
            if fi.class_name else None
        if ci is not None:
            for stmt in fi.body:
                for sub in ast.walk(stmt):
                    if not isinstance(sub, (ast.For, ast.AsyncFor,
                                            ast.comprehension)):
                        continue
                    if not (isinstance(sub.target, ast.Name)
                            and isinstance(sub.iter, ast.Attribute)
                            and isinstance(sub.iter.value, ast.Name)
                            and sub.iter.value.id in ("self", "cls")):
                        continue
                    elem = ci.elem_types.get(sub.iter.attr)
                    if elem and sub.target.id in unknowns:
                        local_fns[sub.target.id] = ("instance", elem)
                        unknowns.discard(sub.target.id)
        return local_fns, unknowns

    def _resolve_value(self, mi: ModuleInfo, fi: FunctionInfo,
                       value: ast.AST) -> Optional[Tuple[str, str]]:
        """Resolve a binding RHS to ("fn", ref) or ("instance", dotted)."""
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func, mi.aliases)
            if dotted and self._resolve_class(mi, dotted):
                return ("instance", dotted)
            return None
        dotted = _dotted(value, mi.aliases)
        if dotted:
            kind, target = self.resolve_dotted(mi, dotted)
            if kind == "fn":
                return ("fn", target)
            if kind == "class":
                return ("class", target)
            if kind == "stdlib" or (
                "." not in dotted and dotted in _BUILTIN_NAMES
            ):
                # ``pop = heappop`` / ``pow_ = pow``: calls through the
                # binding are host-library calls, not widening.
                return ("stdlib", dotted)
        if isinstance(value, ast.Attribute):
            # ``home_get = self.partition._home.get``: a hoisted bound
            # method.  Calls through the binding resolve the same way
            # an unknown-receiver ``x.get(...)`` would — CHA by name,
            # assumed host-library when nothing matches.
            return ("method", value.attr)
        return None

    def _resolve_decorator(self, mi: ModuleInfo, fi: FunctionInfo,
                           dec: ast.AST) -> None:
        expr = dec.func if isinstance(dec, ast.Call) else dec
        dotted = _dotted(expr, mi.aliases)
        module_ref = f"{fi.module}:{MODULE_REF}"
        if dotted:
            root = dotted.split(".")[0]
            if dotted in _TRANSPARENT_DECORATORS or \
                    dotted.split(".")[-1] in ("setter", "getter", "deleter"):
                return
            if root == "repro" or self.resolve_dotted(mi, dotted)[0] != "unknown":
                kind, target = self.resolve_dotted(mi, dotted)
                if kind == "fn":
                    self.edges[module_ref].append(CallEdge(
                        module_ref, target, "direct", dec.lineno))
                    # Decoration captures the function at import: the
                    # module's code references it from then on.
                    self.edges[module_ref].append(CallEdge(
                        module_ref, fi.ref, "ref", dec.lineno))
                    if target.endswith(":experiment") or \
                            dotted.split(".")[-1] == "experiment":
                        self.registry_targets.add(fi.ref)
                    return
                if kind in ("class", "module", "stdlib"):
                    return
            if root not in ("repro",) and root in mi.aliases.values() or \
                    dotted.split(".")[0] in _STDLIB_ROOTS:
                return
        self.widened[fi.ref].append(
            f"opaque decorator at {fi.path}:{getattr(dec, 'lineno', fi.line)}"
        )

    def _resolve_inner_import(self, mi: ModuleInfo, fi: FunctionInfo,
                              node: ast.AST) -> None:
        names: List[str] = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        for name in names:
            if name.split(".")[0] == "repro":
                self.edges[fi.ref].append(
                    CallEdge(fi.ref, name, "import", node.lineno)
                )

    def _widen(self, fi: FunctionInfo, mi: ModuleInfo, node: ast.AST,
               reason: str) -> None:
        tag = mi.markers.get(node.lineno)
        if tag is not None:
            self.markers_used[fi.ref].append(tag)
            return
        self.widened[fi.ref].append(
            f"{reason} at {fi.path}:{node.lineno}"
        )

    def _resolve_call(self, mi: ModuleInfo, fi: FunctionInfo,
                      ci: Optional[ClassInfo],
                      local_fns: Dict[str, Tuple[str, str]],
                      local_unknowns: Set[str], node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._resolve_name_call(mi, fi, local_fns, local_unknowns, node)
            return
        if isinstance(func, ast.Attribute):
            self._resolve_attr_call(mi, fi, ci, local_fns, local_unknowns,
                                    node)
            return
        # Calling the result of a call / a subscript / a lambda inline.
        self._widen(fi, mi, node, "call of a computed callable")

    def _resolve_name_call(self, mi: ModuleInfo, fi: FunctionInfo,
                           local_fns: Dict[str, Tuple[str, str]],
                           local_unknowns: Set[str], node: ast.Call) -> None:
        name = node.func.id
        if name in local_fns:
            kind, target = local_fns[name]
            if kind == "fn":
                if target != fi.ref:
                    self.edges[fi.ref].append(
                        CallEdge(fi.ref, target, "direct", node.lineno))
            elif kind in ("class", "instance"):
                self._add_constructor_edges(mi, fi, target, node.lineno)
            elif kind == "method":
                candidates = self._cha_candidates(fi, target)
                if candidates:
                    for cand in candidates:
                        self.edges[fi.ref].append(
                            CallEdge(fi.ref, cand, "cha", node.lineno))
                elif target in self.callable_field_names:
                    self._widen(fi, mi, node,
                                "call through hoisted bound method "
                                f"{target!r}")
                # else: assumed stdlib/container bound method.
            # "stdlib" bindings are host-library calls: no edge.
            return
        if name in local_unknowns:
            self._widen(fi, mi, node,
                        f"call through local/parameter {name!r}")
            return
        dotted = mi.aliases.get(name, name)
        kind, target = self.resolve_dotted(mi, dotted)
        if kind == "fn":
            self.edges[fi.ref].append(
                CallEdge(fi.ref, target, "direct", node.lineno))
        elif kind == "class":
            self._add_constructor_edges(mi, fi, target, node.lineno)
        elif kind in ("module", "stdlib"):
            return
        elif name in _BUILTIN_NAMES:
            return
        else:
            self._widen(fi, mi, node, f"call of unresolvable name {name!r}")

    def _resolve_attr_call(self, mi: ModuleInfo, fi: FunctionInfo,
                           ci: Optional[ClassInfo],
                           local_fns: Dict[str, Tuple[str, str]],
                           local_unknowns: Set[str],
                           node: ast.Call) -> None:
        func = node.func
        attr = func.attr
        receiver = func.value
        # A local binding shadows any same-named module: ``sched =
        # self._sched(); sched.find_cpu_for(...)`` must not resolve
        # through the stdlib ``sched`` module.
        receiver_is_local = isinstance(receiver, ast.Name) and (
            receiver.id in local_unknowns or receiver.id in local_fns)
        # self.x() / cls.x(): the class layout answers precisely.
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls") \
                and ci is not None:
            targets = self._virtual_targets(mi, ci, attr)
            if targets:
                for target in targets:
                    self.edges[fi.ref].append(
                        CallEdge(fi.ref, target, "direct", node.lineno))
                return
            hint = ci.attr_types.get(attr)
            if hint is None and attr in ci.callable_fields:
                lam = ci.callable_fields[attr]
                if lam is not None:
                    self.edges[fi.ref].append(
                        CallEdge(fi.ref, lam, "direct", node.lineno))
                    return
                self._widen(fi, mi, node,
                            f"dynamic call through callable field {attr!r}")
                return
        # Typed receiver: a local bound to an instance, or a typed
        # instance attribute (``self._engine.at(...)``).
        recv_class = self._receiver_class(mi, ci, local_fns, receiver)
        if recv_class is not None:
            recv_ci = self._resolve_class(mi, recv_class)
            if recv_ci is not None:
                targets = self._virtual_targets(mi, recv_ci, attr)
                if _is_protocol(recv_ci):
                    # A Protocol type is structural: any class with the
                    # method may be bound, so fan out over the
                    # hierarchy by name as well as the stub.
                    for cand in self._cha_candidates(fi, attr):
                        if cand not in targets:
                            targets.append(cand)
                if targets:
                    for target in targets:
                        self.edges[fi.ref].append(
                            CallEdge(fi.ref, target, "direct", node.lineno))
                    self._check_schedule_site(mi, fi, local_fns, ci, node, attr)
                    return
            else:
                # ``event: FaultEvent`` where FaultEvent is a Union
                # alias: dispatch over the member classes.
                targets = self._union_targets(mi, recv_class, attr)
                if targets:
                    for target in targets:
                        self.edges[fi.ref].append(
                            CallEdge(fi.ref, target, "direct", node.lineno))
                    return
        dotted = None if receiver_is_local else _dotted(func, mi.aliases)
        if dotted:
            kind, target = self.resolve_dotted(mi, dotted)
            if kind == "fn":
                self.edges[fi.ref].append(
                    CallEdge(fi.ref, target, "direct", node.lineno))
                return
            if kind == "class":
                self._add_constructor_edges(mi, fi, target, node.lineno)
                return
            if kind in ("module", "stdlib"):
                return
            recv_dotted = _dotted(receiver, mi.aliases)
            if recv_dotted:
                rkind, rtarget = self.resolve_dotted(mi, recv_dotted)
                if rkind == "module" and rtarget in self.modules:
                    # The receiver IS a repro module but the attribute
                    # did not resolve (e.g. a lazy-export name missing
                    # from the table): never assume it is harmless.
                    self._widen(fi, mi, node,
                                f"unresolvable attribute {attr!r} on "
                                f"module {rtarget}")
                    return
        if receiver_is_local and \
                local_fns.get(getattr(receiver, "id", ""), ("", ""))[0] \
                == "stdlib":
            return
        # Unknown receiver: CHA by method name, boundary-filtered.
        candidates = self._cha_candidates(fi, attr)
        if candidates:
            for target in candidates:
                self.edges[fi.ref].append(
                    CallEdge(fi.ref, target, "cha", node.lineno))
            self._check_schedule_site(mi, fi, local_fns, ci, node, attr)
            return
        if attr in self.callable_field_names:
            self._widen(fi, mi, node,
                        f"dynamic call through callable field {attr!r}")
            return
        # Assumed stdlib/object method (str.split, dict.items, ...).

    def _receiver_class(self, mi: ModuleInfo, ci: Optional[ClassInfo],
                        local_fns: Dict[str, Tuple[str, str]],
                        receiver: ast.AST) -> Optional[str]:
        """Dotted class of a typed receiver expression, if known."""
        if isinstance(receiver, ast.Name):
            bound = local_fns.get(receiver.id)
            if bound is not None and bound[0] in ("instance", "class"):
                return bound[1]
            return None
        if isinstance(receiver, ast.Attribute) and \
                isinstance(receiver.value, ast.Name) and \
                receiver.value.id in ("self", "cls") and ci is not None:
            return ci.attr_types.get(receiver.attr)
        return None

    def _check_schedule_site(self, mi: ModuleInfo, fi: FunctionInfo,
                             local_fns, ci: Optional[ClassInfo],
                             node: ast.Call, attr: str) -> None:
        """Engine scheduling: the fn argument becomes an event root."""
        if attr not in _SCHEDULE_METHODS:
            return
        # Only the fn slot matters: ``at(time, fn, *args)``,
        # ``call_after(delay, fn, *args)``, ``every(period, fn, ...)``
        # take it second; the setters take it first.  Trailing
        # positional arguments are data, not callables.
        slot = 0 if attr.startswith("set_") else 1
        expr = None
        for kw in node.keywords:
            if kw.arg == "fn":
                expr = kw.value
        if expr is None and len(node.args) > slot:
            expr = node.args[slot]
        if expr is None or isinstance(expr, ast.Lambda) or \
                _obviously_not_callable(expr):
            return
        target = self._resolve_callable_expr(mi, fi, ci, local_fns, expr)
        if target is not None:
            site = f"{attr}@{fi.path}:{node.lineno}"
            self.event_roots.setdefault(target, set()).add(site)
        elif isinstance(expr, ast.Constant) and expr.value is None:
            return
        else:
            self._widen(fi, mi, node,
                        f"scheduling an unresolvable callable via .{attr}()")

    def _resolve_callable_expr(self, mi: ModuleInfo, fi: FunctionInfo,
                               ci: Optional[ClassInfo], local_fns,
                               expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            bound = local_fns.get(expr.id)
            if bound and bound[0] == "fn":
                return bound[1]
            kind, target = self.resolve_dotted(
                mi, mi.aliases.get(expr.id, expr.id))
            if kind == "fn":
                return target
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id in ("self", "cls") and ci is not None:
            return self._lookup_method(mi, ci, expr.attr)
        if isinstance(expr, ast.Attribute):
            dotted = _dotted(expr, mi.aliases)
            if dotted:
                kind, target = self.resolve_dotted(mi, dotted)
                if kind == "fn":
                    return target
        return None

    def _resolve_reference(self, mi: ModuleInfo, fi: FunctionInfo,
                           ci: Optional[ClassInfo], local_fns,
                           node: ast.AST) -> None:
        """Load-context mentions of repro functions become ref edges."""
        if isinstance(node, ast.Name):
            bound = local_fns.get(node.id)
            if bound is not None:
                if bound[0] == "fn" and bound[1] != fi.ref:
                    self.edges[fi.ref].append(
                        CallEdge(fi.ref, bound[1], "ref", node.lineno))
                return
            if node.id in _BUILTIN_NAMES:
                return
            dotted = mi.aliases.get(node.id, node.id)
            kind, target = self.resolve_dotted(mi, dotted)
            if kind == "fn":
                self.edges[fi.ref].append(
                    CallEdge(fi.ref, target, "ref", node.lineno))
            return
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and \
                    node.value.id in ("self", "cls") and ci is not None:
                target = self._lookup_method(mi, ci, node.attr)
                if target is not None:
                    self.edges[fi.ref].append(
                        CallEdge(fi.ref, target, "ref", node.lineno))
                return
            dotted = _dotted(node, mi.aliases)
            if dotted and dotted.split(".")[0] == "repro":
                kind, target = self.resolve_dotted(mi, dotted)
                if kind == "fn":
                    self.edges[fi.ref].append(
                        CallEdge(fi.ref, target, "ref", node.lineno))

    # --- lookup helpers ----------------------------------------------------

    def _add_constructor_edges(self, mi: ModuleInfo, fi: FunctionInfo,
                               class_dotted_or_key: str, line: int) -> None:
        ci = self._class_info(mi, class_dotted_or_key)
        if ci is None:
            return
        self.edges[fi.ref].append(CallEdge(
            fi.ref, f"{ci.module}:{MODULE_REF}", "ref", line))
        for name in ("__init__", "__post_init__", "__new__"):
            target = self._lookup_method_info(mi, ci, name)
            if target is not None:
                self.edges[fi.ref].append(
                    CallEdge(fi.ref, target, "direct", line))

    def _class_info(self, mi: ModuleInfo, key: str) -> Optional[ClassInfo]:
        if key in self.classes:
            return self.classes[key]
        resolved = self._resolve_class(mi, key)
        return resolved

    def _resolve_class(self, mi: ModuleInfo, dotted: str) -> Optional[ClassInfo]:
        kind, target = self.resolve_dotted(mi, dotted)
        if kind == "class":
            return self.classes.get(target)
        return None

    def _lookup_method(self, mi: ModuleInfo, ci: ClassInfo,
                       name: str) -> Optional[str]:
        return self._lookup_method_info(mi, ci, name)

    def _virtual_targets(self, mi: ModuleInfo, ci: ClassInfo,
                         name: str) -> List[str]:
        """The inherited implementation plus every subclass override —
        a typed receiver may hold any subclass instance."""
        out: List[str] = []
        inherited = self._lookup_method_info(mi, ci, name)
        if inherited is not None:
            out.append(inherited)
        stack = list(ci.subclasses)
        seen: Set[str] = set()
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            sub = self.classes[key]
            override = sub.methods.get(name) or sub.callable_fields.get(name)
            if override and override not in out:
                out.append(override)
            stack.extend(sub.subclasses)
        return out

    def _union_targets(self, mi: ModuleInfo, dotted: str,
                       name: str) -> Optional[List[str]]:
        """Virtual targets of ``name`` over a Union type alias.

        Returns targets only when *every* member class resolves and
        provides the method — otherwise the caller falls back to CHA
        (the conservative direction).
        """
        if "." in dotted:
            mod, _, alias = dotted.rpartition(".")
            owner = self.modules.get(mod)
        else:
            owner, alias = mi, dotted
        if owner is None:
            return None
        members = owner.union_aliases.get(alias)
        if not members:
            return None
        out: List[str] = []
        for member in members:
            member_ci = self._resolve_class(owner, member)
            if member_ci is None:
                return None
            targets = self._virtual_targets(owner, member_ci, name)
            if not targets:
                return None
            for target in targets:
                if target not in out:
                    out.append(target)
        return out

    def _lookup_method_on(self, mi: ModuleInfo, class_dotted: str,
                          name: str) -> Optional[str]:
        ci = self._resolve_class(mi, class_dotted)
        if ci is None:
            return None
        return self._lookup_method_info(mi, ci, name)

    def _lookup_method_info(self, mi: ModuleInfo, ci: ClassInfo,
                            name: str, depth: int = 0) -> Optional[str]:
        if name in ci.methods:
            return ci.methods[name]
        lam = ci.callable_fields.get(name)
        if lam is not None:
            return lam
        if depth >= 6:
            return None
        owner = self.modules.get(ci.module, mi)
        for base in ci.bases:
            base_ci = self._resolve_class(owner, base)
            if base_ci is not None:
                found = self._lookup_method_info(owner, base_ci, name, depth + 1)
                if found is not None:
                    return found
        return None

    def _cha_candidates(self, fi: FunctionInfo, name: str) -> List[str]:
        caller_pkg = _top_package(fi.module)
        out: List[str] = []
        for ref in self.methods_by_name.get(name, []):
            pkg = _top_package(self.functions[ref].module)
            if pkg in BOUNDARY_PACKAGES and pkg != caller_pkg:
                continue
            out.append(ref)
        return out

    def resolve_dotted(self, mi: ModuleInfo, dotted: str,
                       depth: int = 0) -> Tuple[str, Optional[str]]:
        """('fn'|'class'|'module'|'stdlib'|'unknown', target)."""
        if depth > 8:
            return ("unknown", None)
        parts = dotted.split(".")
        if parts[0] != "repro":
            # A bare (or dotted) name defined in this very module:
            # top-level functions, classes, and re-export assignments.
            head = parts[0]
            if head in mi.defs or head in mi.exports or \
                    head in mi.lazy_exports or \
                    f"{mi.name}:{head}" in self.classes:
                resolved = self._resolve_in_module(mi, parts[:2], depth)
                if resolved[0] != "unknown":
                    return resolved
        if parts[0] != "repro":
            if parts[0] == mi.name.split(".")[-1] and len(parts) > 1:
                # ``module.attr`` spelled with the short module name.
                return self.resolve_dotted(
                    mi, ".".join([mi.name] + parts[1:]), depth + 1)
            return ("stdlib", None) if parts[0] in _STDLIB_ROOTS or \
                parts[0] in mi.aliases.values() else ("unknown", None)
        # Longest known-module prefix.
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            owner = self.modules.get(prefix)
            if owner is None:
                continue
            rest = parts[cut:]
            if not rest:
                return ("module", prefix)
            return self._resolve_in_module(owner, rest, depth)
        return ("unknown", None)

    def _resolve_in_module(self, owner: ModuleInfo, rest: List[str],
                           depth: int) -> Tuple[str, Optional[str]]:
        head = rest[0]
        if len(rest) == 1:
            if head in owner.defs:
                return ("fn", owner.defs[head])
            if f"{owner.name}:{head}" in self.classes:
                return ("class", f"{owner.name}:{head}")
            if head in owner.lazy_exports:
                target_mod, target_attr = owner.lazy_exports[head]
                return self.resolve_dotted(
                    owner, f"{target_mod}.{target_attr}", depth + 1)
            if head in owner.aliases:
                return self.resolve_dotted(owner, owner.aliases[head], depth + 1)
            if head in owner.exports:
                return self.resolve_dotted(owner, owner.exports[head], depth + 1)
            return ("unknown", None)
        if len(rest) == 2 and f"{owner.name}:{head}" in self.classes:
            ci = self.classes[f"{owner.name}:{head}"]
            found = self._lookup_method_info(owner, ci, rest[1])
            if found is not None:
                return ("fn", found)
            return ("unknown", None)
        if head in owner.aliases:
            return self.resolve_dotted(
                owner, ".".join([owner.aliases[head]] + rest[1:]), depth + 1)
        return ("unknown", None)


# --- small shared helpers ----------------------------------------------------


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, alias-resolved at the root."""
    # Unwrap Optional[X]-style subscripts in annotations.
    if isinstance(node, ast.Subscript):
        node = node.value
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


#: Typing containers whose subscript names the element type.
_ELEM_CONTAINERS = {"List", "Sequence", "Iterable", "Iterator", "Set",
                    "FrozenSet", "Tuple", "Deque", "list", "set",
                    "frozenset", "tuple", "deque"}


def _annotation_types(annotation: Optional[ast.AST],
                      aliases: Dict[str, str]):
    """(attr class dotted, container element dotted) from an annotation.

    ``Engine`` -> ("Engine", None); ``Optional[Engine]`` -> ("Engine",
    None); ``List[FaultEvent]`` -> (None, "FaultEvent"); anything else
    -> (None, None).  Names are returned unresolved — the class may be
    indexed later; lookups resolve them lazily.
    """
    if annotation is None:
        return (None, None)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return (None, None)
    if isinstance(annotation, ast.Subscript):
        outer = _dotted(annotation.value, aliases) or ""
        tail = outer.rsplit(".", 1)[-1]
        inner = annotation.slice
        if tail == "Optional":
            return _annotation_types(inner, aliases)
        if tail in _ELEM_CONTAINERS:
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            elem = _dotted(inner, aliases)
            if elem and elem.rsplit(".", 1)[-1][:1].isupper():
                return (None, elem)
        return (None, None)
    dotted = _dotted(annotation, aliases)
    if dotted and dotted.rsplit(".", 1)[-1][:1].isupper():
        return (dotted, None)
    return (None, None)


def _is_protocol(ci: ClassInfo) -> bool:
    return any(base.rsplit(".", 1)[-1] == "Protocol" for base in ci.bases)


def _union_members_of(value: ast.AST,
                      aliases: Dict[str, str]) -> Tuple[str, ...]:
    """Member class names of ``Union[A, B, ...]`` / ``A | B`` RHS."""
    if isinstance(value, ast.Subscript):
        outer = _dotted(value.value, aliases) or ""
        if outer.rsplit(".", 1)[-1] != "Union":
            return ()
        inner = value.slice
        elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
    elif isinstance(value, ast.BinOp) and isinstance(value.op, ast.BitOr):
        elts = []
        stack = [value]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
                stack.extend([node.left, node.right])
            else:
                elts.append(node)
    else:
        return ()
    members = []
    for elt in elts:
        dotted = _dotted(elt, aliases)
        if not dotted or not dotted.rsplit(".", 1)[-1][:1].isupper():
            return ()
        members.append(dotted)
    return tuple(members)


def _annotation_is_callable(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "Callable" in text


def _obviously_not_callable(value: Optional[ast.AST]) -> bool:
    if value is None:
        return False
    if isinstance(value, ast.Constant):
        return value.value is not None
    if isinstance(value, (ast.List, ast.Dict, ast.Tuple, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp, ast.GeneratorExp,
                          ast.JoinedStr, ast.Compare, ast.BoolOp)):
        return True
    if isinstance(value, ast.UnaryOp):
        return _obviously_not_callable(value.operand)
    if isinstance(value, ast.BinOp):
        return True
    return False


def _bound_names(node: ast.AST):
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        targets = [node.target]
    elif isinstance(node, ast.withitem):
        targets = [node.optional_vars] if node.optional_vars else []
    elif isinstance(node, ast.ExceptHandler):
        return [node.name] if node.name else []
    elif isinstance(node, ast.comprehension):
        targets = [node.target]
    names: List[str] = []
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
    return names


def _top_package(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


#: Import roots assumed to be the standard library (or vendored tools
#: whose behaviour is host-side anyway).
_STDLIB_ROOTS = {
    "abc", "argparse", "array", "ast", "base64", "binascii", "bisect",
    "builtins", "collections", "contextlib", "copy", "copyreg", "csv",
    "dataclasses", "datetime", "decimal", "difflib", "enum", "errno",
    "fnmatch", "fractions", "functools", "gc", "glob", "hashlib",
    "heapq", "importlib", "inspect", "io", "itertools", "json",
    "logging", "math", "mmap", "multiprocessing", "numbers",
    "operator", "os", "pathlib", "pickle", "platform", "pprint",
    "queue", "random", "re", "secrets", "select", "selectors",
    "shutil", "signal", "socket", "stat", "statistics", "string",
    "struct", "subprocess", "sys", "tempfile", "textwrap",
    "threading", "time", "traceback", "types", "typing", "unittest",
    "urllib", "uuid", "warnings", "weakref", "zlib",
}
# Newer interpreters can enumerate the rest exactly.
_STDLIB_ROOTS |= set(getattr(__import__("sys"), "stdlib_module_names", ()))

_BUILTIN_NAMES = frozenset(dir(builtins))
