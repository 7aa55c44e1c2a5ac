"""Effect-summary data model for the interprocedural analysis.

The engine (:mod:`repro.lint.effects`) computes one
:class:`FunctionSummary` per function in the tree: its *direct*
determinism effects (wall-clock reads, entropy draws, environment
reads, hash-order iteration), its *transitive* taints (the same four
kinds, propagated over the call graph with a witness call chain), the
ledger fields it writes, and the call edges that leave it.  The
summaries are consumed twice — by the SL5xx/SL6xx project checkers and
by ``repro lint --why`` — so they live in their own module with no
dependency on either consumer.

Everything here is a plain frozen dataclass: summaries are computed
once per run and then only read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: The four determinism-taint kinds, in severity order.
TAINT_KINDS: Tuple[str, ...] = ("wall-clock", "entropy", "env-read", "hash-order")

#: Taint kind -> the file-local SL1xx rule that reports the same site.
#: Used to decide whether a site *escapes* local review (a suppressed
#: or out-of-scope site is invisible to the per-file pass).
LOCAL_RULE: Dict[str, str] = {
    "wall-clock": "SL101",
    "entropy": "SL102",
    "env-read": "SL104",
    "hash-order": "SL105",
}


@dataclass(frozen=True)
class EffectSite:
    """One concrete nondeterminism source in a function body."""

    kind: str          #: one of TAINT_KINDS
    module: str        #: dotted module of the enclosing function
    path: str          #: display path of the file
    line: int
    detail: str        #: e.g. ``time.monotonic`` or ``os.environ[REPRO_FUZZ_PLANT]``
    #: True when the per-file SL1xx pass does not report this site —
    #: either the file is outside SIM_SCOPE or the line carries an
    #: inline suppression.  Only escaping sites can raise SL5xx in a
    #: transitive caller.
    escapes_local: bool = False
    #: ``REPRO_*`` environment reads are sanctioned steering knobs: the
    #: sweep-cache key folds them in, so they cannot silently change a
    #: cached result.  Sanctioned sites never raise SL503.
    sanctioned: bool = False

    def describe(self) -> str:
        return f"{self.detail} ({self.path}:{self.line})"


@dataclass(frozen=True)
class CallEdge:
    """One resolved edge out of a function.

    ``kind`` is how the edge was found:

    * ``direct`` — a call whose target resolved uniquely;
    * ``cha`` — a method call resolved by name over the class
      hierarchy (possibly several candidates, one edge each);
    * ``ref`` — the target is *referenced* (passed as a callback,
      scheduled on the engine, decorated, stored in a field) but not
      syntactically called here;
    * ``import`` — a function-level ``import`` of a repro module.

    Taint propagates through ``direct`` and ``cha`` edges (the call
    happens at this site); dependency closures follow all four kinds
    (a referenced callee's code still runs under this entry point).
    """

    caller: str
    callee: str        #: function ref, or a module name for ``import`` edges
    kind: str
    line: int

    @property
    def calls(self) -> bool:
        return self.kind in ("direct", "cha")


@dataclass(frozen=True)
class Taint:
    """A transitive effect reaching a function, with one witness chain.

    ``chain`` is the witness path from the tainted function down to the
    site's owner: ``((ref, line), ...)`` where ``line`` is the call
    site inside ``ref`` that continues the chain (the last element's
    line is the effect site itself).  Chains are deterministic: the
    fixpoint keeps the lexicographically-least shortest witness per
    origin class.
    """

    kind: str
    site: EffectSite
    chain: Tuple[Tuple[str, int], ...]

    def render_chain(self) -> str:
        hops = [ref.split(":", 1)[1] for ref, _line in self.chain]
        return " -> ".join(hops + [self.site.describe()])


@dataclass(frozen=True)
class WriteSite:
    """A direct assignment to a ledger-named attribute."""

    token: str         #: ``Class.attr``, e.g. ``BufferCache.used``
    module: str
    path: str
    line: int


@dataclass
class FunctionSummary:
    """Everything the analysis knows about one function."""

    ref: str           #: ``dotted.module:qualname`` (``<module>`` for top-level code)
    module: str
    qualname: str
    path: str
    line: int
    direct_effects: Tuple[EffectSite, ...] = ()
    writes: Tuple[WriteSite, ...] = ()
    edges: Tuple[CallEdge, ...] = ()
    #: Reasons this function's outgoing calls could not be fully
    #: resolved; a widened function poisons closure completeness.
    widened: Tuple[str, ...] = ()
    #: ``# simlint: dynamic=<tag>`` audit markers used in the body.
    markers: Tuple[str, ...] = ()
    #: kind -> list of taints (one per distinct origin class), filled
    #: by the fixpoint pass.
    taints: Dict[str, Tuple[Taint, ...]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qualname

    def tainted(self, kind: str) -> bool:
        return bool(self.taints.get(kind))
