"""Framework-level tests for simlint: suppressions, fingerprints,
output schemas, and the CLI contract."""

import json
from pathlib import Path

from repro.lint import all_rules, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.output import render_json, render_sarif, render_text

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

BAD_SOURCE = 'import os\n\nMODE = os.getenv("REPRO_MODE")\n'


def write_module(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def lint_tree(root):
    return run_lint([str(root)], root=str(root))


class TestSuppression:
    def test_same_line_disable_comment_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "repro/sim/clocks.py",
            'import os\n\nMODE = os.getenv("REPRO_MODE")  # simlint: disable=SL104\n',
        )
        assert lint_tree(tmp_path) == []

    def test_disable_comment_only_covers_named_rule(self, tmp_path):
        write_module(
            tmp_path,
            "repro/sim/clocks.py",
            'import os\n\nMODE = os.getenv("REPRO_MODE")  # simlint: disable=SL101\n',
        )
        assert [f.rule for f in lint_tree(tmp_path)] == ["SL104"]

    def test_skip_file_pragma_silences_whole_module(self, tmp_path):
        write_module(
            tmp_path,
            "repro/sim/clocks.py",
            "# simlint: skip-file\n" + BAD_SOURCE,
        )
        assert lint_tree(tmp_path) == []

    def test_without_pragma_the_finding_fires(self, tmp_path):
        write_module(tmp_path, "repro/sim/clocks.py", BAD_SOURCE)
        assert [f.rule for f in lint_tree(tmp_path)] == ["SL104"]


class TestParseErrors:
    def test_syntax_error_reported_as_sl000(self, tmp_path):
        write_module(tmp_path, "repro/sim/broken.py", "def f(:\n")
        findings = lint_tree(tmp_path)
        assert [f.rule for f in findings] == ["SL000"]


class TestFingerprints:
    def test_fingerprint_survives_line_shifts(self, tmp_path):
        path = write_module(tmp_path, "repro/sim/clocks.py", BAD_SOURCE)
        (before,) = lint_tree(tmp_path)
        path.write_text("\n\n\n" + BAD_SOURCE)
        (after,) = lint_tree(tmp_path)
        assert after.line == before.line + 3
        assert after.fingerprint == before.fingerprint

    def test_fingerprint_changes_when_the_line_changes(self, tmp_path):
        path = write_module(tmp_path, "repro/sim/clocks.py", BAD_SOURCE)
        (before,) = lint_tree(tmp_path)
        path.write_text('import os\n\nMODE = os.getenv("OTHER_VAR")\n')
        (after,) = lint_tree(tmp_path)
        assert after.fingerprint != before.fingerprint


class TestOutputSchemas:
    def findings(self, tmp_path):
        write_module(tmp_path, "repro/sim/clocks.py", BAD_SOURCE)
        return lint_tree(tmp_path)

    def test_text_summary_counts(self, tmp_path):
        findings = self.findings(tmp_path)
        report = render_text(findings)
        assert "SL104" in report and report.endswith("1 finding(s)")

    def test_json_schema(self, tmp_path):
        findings = self.findings(tmp_path)
        payload = json.loads(render_json(findings))
        assert payload["tool"] == "simlint"
        assert payload["summary"] == {"new": 1}
        for record in payload["findings"]:
            assert set(record) == {
                "rule", "path", "line", "col", "severity", "message",
                "snippet", "fingerprint",
            }

    def test_sarif_schema(self, tmp_path):
        findings = self.findings(tmp_path)
        sarif = json.loads(render_sarif(findings, all_rules()))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "simlint"
        declared = {rule["id"] for rule in driver["rules"]}
        assert {r.code for r in all_rules()} <= declared
        (result,) = run["results"]
        assert result["ruleId"] == "SL104"
        assert result["level"] in ("warning", "error")
        assert result["partialFingerprints"]["simlint/v1"] == findings[0].fingerprint
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == findings[0].path
        assert location["region"]["startLine"] == findings[0].line


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        target = str(write_module(tmp_path, "repro/sim/clocks.py", BAD_SOURCE))

        # A finding: exit 1.
        assert lint_main([target]) == 1
        assert "SL104" in capsys.readouterr().out

        # Excused inline at the site, the one way to excuse it: exit 0.
        Path(target).write_text(
            'import os\n\nMODE = os.getenv("REPRO_MODE")'
            "  # simlint: disable=SL104\n"
        )
        assert lint_main([target]) == 0
        assert capsys.readouterr().out.strip() == "0 finding(s)"

    def test_json_report_written_to_file(self, tmp_path, capsys):
        target = str(write_module(tmp_path, "repro/sim/clocks.py", BAD_SOURCE))
        out = tmp_path / "report.json"
        assert lint_main(
            [target, "--format", "json", "-o", str(out)]
        ) == 1
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["summary"]["new"] == 1

    def test_sarif_report_written_to_file(self, tmp_path, capsys):
        target = str(write_module(tmp_path, "repro/sim/clocks.py", BAD_SOURCE))
        out = tmp_path / "report.sarif"
        assert lint_main(
            [target, "--format", "sarif", "-o", str(out)]
        ) == 1
        capsys.readouterr()
        sarif = json.loads(out.read_text())
        assert sarif["runs"][0]["results"][0]["ruleId"] == "SL104"

    def test_rule_filter(self, tmp_path, capsys):
        target = str(
            write_module(
                tmp_path,
                "repro/sim/clocks.py",
                "import time\n\nNOW = time.time()\n" + 'import os\nM = os.getenv("X")\n',
            )
        )
        assert lint_main([target, "--rules", "SL101"]) == 1
        out = capsys.readouterr().out
        assert "SL101" in out and "SL104" not in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SL101", "SL106", "SL201", "SL301", "SL401"):
            assert code in out
