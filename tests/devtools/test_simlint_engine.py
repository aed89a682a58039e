"""Engine-level tests: suppressions, reporters, rule selection, and
determinism of the linter's own output."""

import json
import textwrap

import pytest

from repro.devtools.simlint import (
    LintUsageError,
    format_github,
    format_json,
    format_sarif,
    format_text,
    iter_python_files,
    lint_paths,
    lint_source,
)

WALL_CLOCK = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


def write_module(tmp_path, name, code):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


class TestSuppressions:
    def test_inline_disable_with_reason(self):
        code = (
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: disable=DET001 (log label only)\n"
        )
        (finding,) = lint_source(code)
        assert finding.suppressed
        assert finding.suppress_reason == "log label only"

    def test_inline_disable_without_reason(self):
        code = (
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: disable=DET001\n"
        )
        (finding,) = lint_source(code)
        assert finding.suppressed

    def test_disable_only_covers_named_rule(self):
        code = (
            "import time, random\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: disable=DET002 (wrong rule)\n"
        )
        (finding,) = lint_source(code)
        assert not finding.suppressed

    def test_standalone_comment_covers_next_line(self):
        code = (
            "import time\n\n"
            "def stamp():\n"
            "    # simlint: disable=DET001 (measured outside the sim)\n"
            "    return time.time()\n"
        )
        (finding,) = lint_source(code)
        assert finding.suppressed

    def test_file_level_disable(self):
        code = (
            "# simlint: disable-file=DET001 (orchestration module)\n"
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()\n\n"
            "def stamp2():\n"
            "    return time.time()\n"
        )
        findings = lint_source(code)
        assert len(findings) == 2
        assert all(f.suppressed for f in findings)

    def test_multiple_rules_one_comment(self):
        code = (
            "import time, random\n\n"
            "def stamp():\n"
            "    return time.time(), random.random()  "
            "# simlint: disable=DET001,DET002 (demo)\n"
        )
        findings = lint_source(code)
        assert len(findings) == 2
        assert all(f.suppressed for f in findings)

    def test_malformed_reason_still_suppresses(self):
        # An unclosed reason parenthesis: the rule list is intact, so
        # the suppression applies, just with no recorded reason.
        code = (
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: disable=DET001 (oops\n"
        )
        (finding,) = lint_source(code)
        assert finding.suppressed
        assert finding.suppress_reason == "(no reason given)"

    def test_lowercase_rule_id_is_not_a_suppression(self):
        code = (
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: disable=det001 (typo)\n"
        )
        (finding,) = lint_source(code)
        assert not finding.suppressed


class TestSelection:
    def test_select_narrows(self, tmp_path):
        module = write_module(
            tmp_path,
            "mod.py",
            """
            import time, random

            def stamp():
                return time.time(), random.random()
            """,
        )
        report = lint_paths([module], select=["DET002"])
        assert [f.rule for f in report.active] == ["DET002"]

    def test_ignore_drops(self, tmp_path):
        module = write_module(
            tmp_path,
            "mod.py",
            """
            import time, random

            def stamp():
                return time.time(), random.random()
            """,
        )
        report = lint_paths([module], ignore=["DET001"])
        assert [f.rule for f in report.active] == ["DET002"]

    def test_unknown_rule_id_is_usage_error(self, tmp_path):
        module = write_module(tmp_path, "mod.py", "x = 1\n")
        with pytest.raises(LintUsageError):
            lint_paths([module], select=["NOPE999"])

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(LintUsageError):
            lint_paths([tmp_path / "does-not-exist"])

    def test_syntax_error_is_usage_error(self, tmp_path):
        module = write_module(tmp_path, "mod.py", "def broken(:\n")
        with pytest.raises(LintUsageError):
            lint_paths([module])

    def test_project_rule_without_project_mode_is_usage_error(self, tmp_path):
        module = write_module(tmp_path, "mod.py", "x = 1\n")
        with pytest.raises(LintUsageError, match="--project"):
            lint_paths([module], select=["DET010"])

    def test_runtime_rule_is_never_engine_selectable(self, tmp_path):
        module = write_module(tmp_path, "mod.py", "x = 1\n")
        with pytest.raises(LintUsageError, match="simsan"):
            lint_paths([module], select=["SAN001"], project=True)

    def test_project_rules_only_run_in_project_mode(self, tmp_path):
        # The same unknown-id validation applies to --ignore.
        module = write_module(tmp_path, "mod.py", "x = 1\n")
        with pytest.raises(LintUsageError):
            lint_paths([module], ignore=["NOPE999"])


class TestFileDiscovery:
    def test_explicit_non_python_file_is_usage_error(self, tmp_path):
        # Silently skipping a named file would exit 0 as a false clean
        # bill of health.
        notes = tmp_path / "notes.txt"
        notes.write_text("not python\n")
        with pytest.raises(LintUsageError, match="not a Python file"):
            iter_python_files([notes])

    def test_directory_walk_filters_to_python(self, tmp_path):
        write_module(tmp_path, "mod.py", "x = 1\n")
        (tmp_path / "notes.txt").write_text("ignored\n")
        files = iter_python_files([tmp_path])
        assert [p.name for p in files] == ["mod.py"]

    def test_duplicates_collapse(self, tmp_path):
        module = write_module(tmp_path, "mod.py", "x = 1\n")
        assert iter_python_files([module, module, tmp_path]) == [module]


class TestReportersAndDeterminism:
    def test_text_report_shape(self, tmp_path):
        module = write_module(tmp_path, "mod.py", WALL_CLOCK)
        report = lint_paths([module])
        text = format_text(report)
        assert "DET001" in text
        assert f"{module.as_posix()}:5:" in text
        assert "hint:" in text
        assert "1 finding(s)" in text

    def test_json_report_shape(self, tmp_path):
        module = write_module(tmp_path, "mod.py", WALL_CLOCK)
        report = lint_paths([module])
        document = json.loads(format_json(report))
        assert document["version"] == 2
        assert sorted(document) == ["findings", "summary", "suppressed", "version"]
        assert document["summary"]["active"] == 1
        assert document["summary"]["ok"] is False
        (finding,) = document["findings"]
        assert finding["rule"] == "DET001"
        assert finding["symbol"] == "stamp"

    def test_two_runs_byte_identical(self, tmp_path):
        write_module(tmp_path, "b.py", WALL_CLOCK)
        write_module(
            tmp_path,
            "a.py",
            """
            import random

            def draw():
                return random.random()
            """,
        )
        first = format_json(lint_paths([tmp_path]))
        second = format_json(lint_paths([tmp_path]))
        assert first == second
        document = json.loads(first)
        paths = [f["path"] for f in document["findings"]]
        assert paths == sorted(paths)

    def test_directory_walk_counts_files(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        write_module(tmp_path, "pkg/__init__.py", "")
        write_module(tmp_path, "pkg/mod.py", "x = 1\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert report.ok

    def test_sarif_report_shape(self, tmp_path):
        module = write_module(tmp_path, "mod.py", WALL_CLOCK)
        document = json.loads(format_sarif(lint_paths([module])))
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "simlint"
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert "DET001" in rule_ids and "LOCK010" in rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == module.as_posix()
        assert location["region"]["startLine"] == 5

    def test_sarif_counts_only_active_findings(self, tmp_path):
        module = write_module(
            tmp_path,
            "mod.py",
            """
            import time

            def stamp():
                return time.time()  # simlint: disable=DET001 (label)
            """,
        )
        document = json.loads(format_sarif(lint_paths([module])))
        assert document["runs"][0]["results"] == []

    def test_github_annotations_shape(self, tmp_path):
        module = write_module(tmp_path, "mod.py", WALL_CLOCK)
        text = format_github(lint_paths([module]))
        line = text.splitlines()[0]
        assert line.startswith("::error ")
        assert f"file={module.as_posix()},line=5," in line
        assert "title=simlint DET001::" in line

    def test_github_annotations_escape_newlines_and_percent(self):
        from repro.devtools.simlint.findings import Finding, LintReport

        report = LintReport()
        report.files_checked = 1
        report.active.append(
            Finding(
                rule="DET001",
                path="x.py",
                line=1,
                col=0,
                message="50% of\nruns differ",
                severity="error",
                symbol="f",
                snippet="s",
                hint="h",
            )
        )
        (line, _summary) = format_github(report).splitlines()
        assert "50%25 of%0Aruns differ" in line
