"""Call-graph corner cases, golden in both directions.

Every dynamic-dispatch shape the graph claims to handle has a
*resolved* fixture (the edge lands, the dependency closure stays
complete) and a *widened* one (the graph admits defeat and marks the
closure incomplete instead of guessing an edge).  The shapes: decorated
functions, ``functools.partial``, lambdas stored in dataclass fields,
and :mod:`repro.api`'s lazy ``_LAZY_EXPORTS`` re-export table.
"""

from repro.lint.effects import EffectAnalysis


def analyze(files):
    return EffectAnalysis.from_sources(
        (path, source, None) for path, source in sorted(files.items())
    )


def edges(analysis, ref):
    return [(e.callee, e.kind) for e in analysis.summaries[ref].edges]


class TestDecoratedFunctions:
    DECO = {
        "repro/sim/deco.py": (
            "import functools\n"
            "\n"
            "_HOOKS = {}\n"
            "\n"
            "\n"
            "def audit(fn):\n"
            "    return fn\n"
            "\n"
            "\n"
            "@functools.lru_cache\n"
            "def cached():\n"
            "    return 1\n"
            "\n"
            "\n"
            "@audit\n"
            "def logged():\n"
            "    return 2\n"
            "\n"
            "\n"
            "@_HOOKS['trace']\n"
            "def opaque():\n"
            "    return 3\n"
            "\n"
            "\n"
            "def caller():\n"
            "    return cached() + logged() + opaque()\n"
        ),
    }

    def test_transparent_and_repro_decorators_resolve(self):
        a = analyze(self.DECO)
        for ref in ("repro.sim.deco:cached", "repro.sim.deco:logged"):
            assert a.summaries[ref].widened == ()
        # Calls to decorated functions still land on the definitions.
        called = edges(a, "repro.sim.deco:caller")
        assert ("repro.sim.deco:cached", "direct") in called
        assert ("repro.sim.deco:logged", "direct") in called
        # Decoration by a repro function is module-level code: the
        # module body calls the decorator and captures the function.
        module = edges(a, "repro.sim.deco:<module>")
        assert ("repro.sim.deco:audit", "direct") in module
        assert ("repro.sim.deco:logged", "ref") in module

    def test_computed_decorator_widens_the_function(self):
        a = analyze(self.DECO)
        widened = a.summaries["repro.sim.deco:opaque"].widened
        assert len(widened) == 1 and "opaque decorator" in widened[0]
        # ... and poisons every closure that contains the function.
        _modules, reasons = a.closure("repro.sim.deco:caller")
        assert any("opaque decorator" in r for r in reasons)


class TestFunctoolsPartial:
    PART = {
        "repro/sim/part.py": (
            "import functools\n"
            "\n"
            "\n"
            "def worker(n):\n"
            "    return n\n"
            "\n"
            "\n"
            "def dispatch(queue):\n"
            "    queue.append(functools.partial(worker, 3))\n"
            "\n"
            "\n"
            "def invoke():\n"
            "    bound = functools.partial(worker, 3)\n"
            "    return bound()\n"
        ),
    }

    def test_partial_binding_keeps_the_target_in_the_closure(self):
        a = analyze(self.PART)
        # The target is referenced, not called here: a ref edge, so
        # the closure covers worker without claiming a call happens.
        assert ("repro.sim.part:worker", "ref") in edges(
            a, "repro.sim.part:dispatch"
        )
        assert a.summaries["repro.sim.part:dispatch"].widened == ()
        modules, reasons = a.closure("repro.sim.part:dispatch")
        assert reasons == [] and "repro.sim.part" in modules

    def test_calling_the_partial_object_widens(self):
        a = analyze(self.PART)
        widened = a.summaries["repro.sim.part:invoke"].widened
        assert len(widened) == 1 and "'bound'" in widened[0]


class TestDataclassFieldLambdas:
    FIELDS = {
        "repro/sim/fields.py": (
            "import dataclasses\n"
            "from typing import Callable\n"
            "\n"
            "\n"
            "@dataclasses.dataclass\n"
            "class Policy:\n"
            "    tick: Callable[[], int] = lambda: 0\n"
            "    hook: Callable[[], int] = None\n"
            "\n"
            "    def run(self):\n"
            "        return self.tick()\n"
            "\n"
            "    def fire(self):\n"
            "        return self.hook()\n"
        ),
    }

    def test_lambda_default_resolves_to_the_lambda(self):
        a = analyze(self.FIELDS)
        # The lambda is indexed as Policy.tick; the call lands there.
        assert ("repro.sim.fields:Policy.tick", "direct") in edges(
            a, "repro.sim.fields:Policy.run"
        )
        assert a.summaries["repro.sim.fields:Policy.run"].widened == ()

    def test_unbound_callable_field_widens(self):
        a = analyze(self.FIELDS)
        widened = a.summaries["repro.sim.fields:Policy.fire"].widened
        assert len(widened) == 1 and "callable field 'hook'" in widened[0]


class TestLazyExports:
    API = {
        "repro/api/__init__.py": (
            "_LAZY_EXPORTS = {\n"
            "    'run_experiment': ('repro.api.registry', 'run'),\n"
            "}\n"
        ),
        "repro/api/registry.py": (
            "def run(spec):\n"
            "    return spec\n"
        ),
        "repro/experiments/use.py": (
            "from repro.api import run_experiment\n"
            "import repro.api\n"
            "\n"
            "\n"
            "def go(spec):\n"
            "    return run_experiment(spec)\n"
            "\n"
            "\n"
            "def go_dotted(spec):\n"
            "    return repro.api.run_experiment(spec)\n"
            "\n"
            "\n"
            "def go_missing(spec):\n"
            "    return repro.api.not_exported(spec)\n"
        ),
    }

    def test_lazy_reexport_resolves_to_the_real_function(self):
        a = analyze(self.API)
        for caller in ("go", "go_dotted"):
            assert ("repro.api.registry:run", "direct") in edges(
                a, f"repro.experiments.use:{caller}"
            )
        modules, reasons = a.closure("repro.experiments.use:go")
        assert reasons == []
        assert "repro.api.registry" in modules
        # The facade package itself runs at import time, so it is in
        # the closure too.
        assert "repro.api" in modules

    def test_name_missing_from_the_table_widens(self):
        a = analyze(self.API)
        widened = a.summaries["repro.experiments.use:go_missing"].widened
        assert len(widened) == 1
        assert "'not_exported'" in widened[0]
        assert "repro.api" in widened[0]
        _modules, reasons = a.closure("repro.experiments.use:go_missing")
        assert reasons  # incomplete: the missing edge is not guessed
