"""Interprocedural effect analysis: the SL5xx/SL6xx project rules.

Seeded regression fixtures, one per rule: each fires with its witness
call chain in the message — through text, JSON, and SARIF output — and
each has a compliant/suppressed twin that stays silent.  Also covers
the derived hot-module list (satellite of the effect engine: SL4xx
scope follows ``Engine.run`` reachability instead of a hard-coded
list) and the ``--why`` explain command.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import all_rules, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.effects import analyze_paths
from repro.lint.framework import HOT_MODULES, iter_python_files
from repro.lint.output import render_json, render_sarif, render_text

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def real_tree():
    """The effect analysis of the repository's own ``src/repro``."""
    return analyze_paths(iter_python_files([str(ROOT / "src" / "repro")]))


HOSTUTIL = """\
import os
import random
import time


def stamp():
    return time.time()


def draw():
    return random.random()


def knob():
    return os.getenv("REPRO_PROFILE")


def host_mode():
    return os.getenv("SIM_PROFILE")


def first_of(items):
    for item in set(items):
        return item
    return None
"""

HANDLERS = """\
from repro.fleet import hostutil


def on_tick():
    return hostutil.stamp()


def on_jitter():
    return hostutil.draw()


def on_config():
    return hostutil.host_mode()


def on_sweep(items):
    return hostutil.first_of(items)


def sanctioned_config():
    return hostutil.knob()


def cascade():
    return on_tick()
"""

ENGINE = """\
class Engine:
    __slots__ = ("pending",)

    def call_after(self, delay, fn, *args):
        self.pending = (delay, fn, args)

    def run(self):
        return self.pending
"""

TANK = """\
from repro.sim.engine import Engine


class Tank:
    __slots__ = ("used",)

    def __init__(self, engine: Engine):
        self.used = 0
        engine.call_after(1, self.fill)
        engine.call_after(2, self.drain)

    def fill(self):
        self.used += 1

    def drain(self):
        self.used -= 1
"""


def write_module(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def build_tree(root):
    write_module(root, "repro/fleet/hostutil.py", HOSTUTIL)
    write_module(root, "repro/sim/handlers.py", HANDLERS)
    write_module(root, "repro/sim/engine.py", ENGINE)
    write_module(root, "repro/sim/tank.py", TANK)


def lint_effects(root):
    return run_lint([str(root)], root=str(root), effects=True)


class TestInterprocDeterminism:
    def test_each_rule_fires_once_with_a_witness_chain(self, tmp_path):
        build_tree(tmp_path)
        findings = lint_effects(tmp_path)
        counts = Counter(f.rule for f in findings)
        assert counts == {
            "SL501": 1,  # on_tick -> stamp -> time.time
            "SL502": 1,  # on_jitter -> draw -> random.random
            "SL503": 1,  # on_config -> host_mode -> os.getenv(SIM_PROFILE)
            "SL504": 1,  # on_sweep -> first_of -> set iteration
            "SL601": 2,  # Tank.used written from two event roots
        }
        by_rule = {f.rule: f for f in findings}
        assert by_rule["SL501"].message.endswith(
            "on_tick -> stamp -> time.time (repro/fleet/hostutil.py:7)"
        )
        assert "on_jitter -> draw -> random.random" in by_rule["SL502"].message
        assert "os.getenv(SIM_PROFILE)" in by_rule["SL503"].message
        assert "iteration over a set" in by_rule["SL504"].message
        # Findings anchor at the call site in the sim-scope caller.
        for rule in ("SL501", "SL502", "SL503", "SL504"):
            assert by_rule[rule].path == "repro/sim/handlers.py"

    def test_only_the_frontier_function_reports(self, tmp_path):
        # cascade -> on_tick -> stamp: on_tick already fires SL501, so
        # cascade must stay silent instead of duplicating the root
        # cause one frame up.
        build_tree(tmp_path)
        sl501 = [f for f in lint_effects(tmp_path) if f.rule == "SL501"]
        assert [f.message.split(" ", 1)[0] for f in sl501] == ["on_tick"]

    def test_sanctioned_repro_env_read_is_silent(self, tmp_path):
        # REPRO_* knobs are folded into the sweep-cache key, so
        # reading one is steering, not hidden nondeterminism.
        build_tree(tmp_path)
        messages = [
            f.message for f in lint_effects(tmp_path) if f.rule == "SL503"
        ]
        assert not any("REPRO_PROFILE" in m for m in messages)

    def test_direct_sites_stay_sl1xx_business(self, tmp_path):
        write_module(
            tmp_path, "repro/sim/direct.py",
            "import time\n\n\ndef now():\n    return time.time()\n",
        )
        counts = Counter(f.rule for f in lint_effects(tmp_path))
        assert counts == {"SL101": 1}

    def test_suppressed_site_fires_only_cross_package(self, tmp_path):
        write_module(
            tmp_path, "repro/core/clockutil.py",
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # simlint: disable=SL101\n",
        )
        write_module(
            tmp_path, "repro/core/sibling.py",
            "from repro.core import clockutil\n\n\ndef same_package():\n"
            "    return clockutil.stamp()\n",
        )
        write_module(
            tmp_path, "repro/kernel/client.py",
            "from repro.core import clockutil\n\n\ndef cross_package():\n"
            "    return clockutil.stamp()\n",
        )
        findings = lint_effects(tmp_path)
        # Whoever audited the suppression saw the package around it:
        # only the kernel-side caller is a new finding.
        assert [(f.rule, f.path) for f in findings] == [
            ("SL501", "repro/kernel/client.py")
        ]

    def test_project_rules_need_the_effects_flag(self, tmp_path):
        build_tree(tmp_path)
        findings = run_lint([str(tmp_path)], root=str(tmp_path))
        assert not any(f.rule.startswith(("SL5", "SL6")) for f in findings)


class TestSharedStateOrdering:
    def test_multi_root_ledger_write_fires_at_each_site(self, tmp_path):
        build_tree(tmp_path)
        sl601 = [f for f in lint_effects(tmp_path) if f.rule == "SL601"]
        assert [(f.path, f.line) for f in sl601] == [
            ("repro/sim/tank.py", 13),  # fill: self.used += 1
            ("repro/sim/tank.py", 16),  # drain: self.used -= 1
        ]
        for f in sl601:
            assert "Tank.used" in f.message
            assert "2 event roots" in f.message
            assert "Tank.drain" in f.message and "Tank.fill" in f.message

    def test_constructor_writes_are_not_ordering_coupled(self, tmp_path):
        # ``self.used = 0`` in __init__ initialises a fresh object; it
        # must not be counted as a shared-state write site.
        build_tree(tmp_path)
        sl601 = [f for f in lint_effects(tmp_path) if f.rule == "SL601"]
        assert 8 not in [f.line for f in sl601]

    def test_write_site_disable_silences(self, tmp_path):
        audited = TANK.replace(
            "self.used += 1", "self.used += 1  # simlint: disable=SL601"
        ).replace(
            "self.used -= 1", "self.used -= 1  # simlint: disable=SL601"
        )
        write_module(tmp_path, "repro/sim/engine.py", ENGINE)
        write_module(tmp_path, "repro/sim/tank.py", audited)
        assert [f.rule for f in lint_effects(tmp_path)] == []


class TestOutputFormatsCarryTheChain:
    CHAIN = "on_tick -> stamp -> time.time"

    def findings(self, tmp_path):
        build_tree(tmp_path)
        return lint_effects(tmp_path)

    def test_text(self, tmp_path):
        report = render_text(self.findings(tmp_path))
        assert "SL501" in report and self.CHAIN in report

    def test_json(self, tmp_path):
        payload = json.loads(render_json(self.findings(tmp_path)))
        sl501 = [r for r in payload["findings"] if r["rule"] == "SL501"]
        assert len(sl501) == 1 and self.CHAIN in sl501[0]["message"]

    def test_sarif(self, tmp_path):
        sarif = json.loads(render_sarif(self.findings(tmp_path), all_rules()))
        run = sarif["runs"][0]
        declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"SL501", "SL502", "SL503", "SL504", "SL601"} <= declared
        sl501 = [
            r for r in run["results"] if r["ruleId"] == "SL501"
        ]
        assert len(sl501) == 1
        assert self.CHAIN in sl501[0]["message"]["text"]
        location = sl501[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "repro/sim/handlers.py"


class TestDerivedHotModules:
    def test_fixture_hot_set_follows_engine_reachability(self, tmp_path):
        build_tree(tmp_path)
        analysis = analyze_paths(
            iter_python_files([str(tmp_path)]), root=str(tmp_path)
        )
        # Engine.run itself plus the event-root handlers' module; the
        # taint fixtures in repro/sim/handlers.py are neither.
        assert set(analysis.hot_modules()) == {
            "sim/engine.py", "sim/tank.py"
        }

    def test_sl4xx_follows_the_derived_list(self, tmp_path):
        # Tank is slotted in the shared fixture; strip the slots and
        # the derived hot list (which static HOT_MODULES knows nothing
        # about — tank.py is not in it) must catch the class.
        write_module(tmp_path, "repro/sim/engine.py", ENGINE)
        write_module(
            tmp_path, "repro/sim/tank.py",
            TANK.replace('    __slots__ = ("used",)\n\n', ""),
        )
        assert "sim/tank.py" not in HOT_MODULES
        with_effects = run_lint(
            [str(tmp_path)], root=str(tmp_path), effects=True
        )
        assert [
            (f.rule, f.path) for f in with_effects if f.rule == "SL401"
        ] == [("SL401", "repro/sim/tank.py")]
        without = run_lint([str(tmp_path)], root=str(tmp_path))
        assert not [f for f in without if f.rule == "SL401"]

    def test_real_tree_static_list_is_a_subset_of_derived(self, real_tree):
        derived = set(real_tree.hot_modules())
        missing = set(HOT_MODULES) - derived
        assert not missing, (
            "static HOT_MODULES entries no longer reachable from "
            f"Engine.run: {sorted(missing)}"
        )


class TestWhyCommand:
    def test_explains_a_function_with_its_closure(self, tmp_path, capsys):
        build_tree(tmp_path)
        assert lint_main([str(tmp_path / "repro"), "--why", "on_tick"]) == 0
        out = capsys.readouterr().out
        assert "repro.sim.handlers:on_tick" in out
        assert "transitive wall-clock" in out
        assert "dependency closure:" in out and "complete" in out

    def test_registry_run_has_a_complete_sim_closure(self, real_tree):
        # The closure --why reports for the experiment registry's entry
        # point is complete and stays clear of host-side tooling.
        modules, reasons = real_tree.closure("repro.api.registry:run")
        assert reasons == []
        assert "repro.core.spu" in modules
        assert not any(
            m.startswith(("repro.lint", "repro.parallel")) for m in modules
        )

    def test_unknown_function_is_a_usage_error(self, tmp_path, capsys):
        build_tree(tmp_path)
        assert lint_main(
            [str(tmp_path / "repro"), "--why", "no_such_fn"]
        ) == 2
        assert "no function matches" in capsys.readouterr().err

    def test_ambiguous_suffix_lists_candidates(self, tmp_path, capsys):
        write_module(
            tmp_path, "repro/sim/a.py", "def helper():\n    return 1\n"
        )
        write_module(
            tmp_path, "repro/sim/b.py", "def helper():\n    return 2\n"
        )
        assert lint_main([str(tmp_path / "repro"), "--why", "helper"]) == 2
        err = capsys.readouterr().err
        assert "ambiguous" in err
        assert "repro.sim.a:helper" in err and "repro.sim.b:helper" in err
