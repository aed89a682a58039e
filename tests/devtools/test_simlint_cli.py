"""CLI tests, including the acceptance gates: the repo lints clean,
and introducing any rule's positive fixture makes the exit code
non-zero."""

import json
import pathlib
import textwrap

import pytest

from repro.cli import main as repro_main
from repro.devtools.simlint import all_rules
from repro.devtools.simlint.cli import main as lint_main
from repro.devtools.simsan.cli import main as simsan_main

from tests.devtools.test_simlint_rules import FIXTURES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "rule,snippet",
        [(rule, positives[0]) for rule, positives, _neg in FIXTURES],
    )
    def test_each_rules_positive_fixture_fails_the_build(
        self, tmp_path, rule, snippet
    ):
        (tmp_path / "bad.py").write_text(textwrap.dedent(snippet))
        assert lint_main([str(tmp_path)]) == 1

    def test_usage_error_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--select", "NOPE1"]) == 2

    def test_explicit_non_python_file_exits_two(self, tmp_path, capsys):
        notes = tmp_path / "notes.txt"
        notes.write_text("not python\n")
        assert lint_main([str(notes)]) == 2
        assert "not a Python file" in capsys.readouterr().err

    def test_project_rule_without_project_flag_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--select", "LOCK010"]) == 2
        assert "--project" in capsys.readouterr().err

    def test_runtime_rule_selection_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--select", "SAN002", "--project"]) == 2
        assert "simsan" in capsys.readouterr().err


class TestProjectMode:
    HANDOFF = textwrap.dedent(
        """
        class Cache:
            def read(self, stripe):
                # simlint: disable=LOCK001 (handed to the spawned closer)
                yield self.locks.acquire(stripe)
                self.env.process(self._finish(stripe))

            def _finish(self, stripe):
                if stripe < 0:
                    return
                yield self.env.timeout(1.0)
                self.locks.release(stripe)
        """
    )

    def test_project_flag_finds_the_handoff_leak(self, tmp_path, capsys):
        (tmp_path / "handoff.py").write_text(self.HANDOFF)
        assert lint_main([str(tmp_path)]) == 0
        capsys.readouterr()
        assert lint_main([str(tmp_path), "--project"]) == 1
        out = capsys.readouterr().out
        assert "LOCK010" in out
        assert "_finish" in out

    def test_src_lints_clean_in_project_mode(self, monkeypatch, capsys):
        # Acceptance gate: the whole-program rules hold over the real
        # tree.
        monkeypatch.chdir(REPO_ROOT)
        exit_code = lint_main(["src/repro", "--project"])
        assert exit_code == 0, capsys.readouterr().out

    def test_list_rules_shows_scopes(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "[error, project]" in out
        assert "[error, runtime]" in out


class TestOutputFormats:
    def test_github_output(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n"
        )
        assert lint_main([str(tmp_path), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "title=simlint DET001::" in out


class TestRepoIsClean:
    """The acceptance criterion: `python -m repro lint` exits 0 here."""

    def test_src_lints_clean_by_default(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        exit_code = lint_main(["--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 0, document["findings"]
        assert document["summary"]["ok"] is True
        # Every inline suppression states its reason.
        for entry in document["suppressed"]:
            assert entry["reason"]

    def test_tests_tree_parses_under_lint(self, monkeypatch):
        # The test tree is not gated (fixtures intentionally violate
        # rules), but the engine must at least parse it without crashing.
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src/repro/devtools"]) == 0


class TestListAndWrite:
    def test_list_rules_names_every_rule(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out


class TestReproEntryPoint:
    def test_python_m_repro_lint_dispatches(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert repro_main(["lint", str(tmp_path)]) == 0
        assert "simlint: 0 finding(s)" in capsys.readouterr().out

    def test_python_m_repro_lint_fails_on_violation(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\n\ndef draw():\n    return random.random()\n"
        )
        assert repro_main(["lint", str(tmp_path)]) == 1
        assert "DET002" in capsys.readouterr().out

    def test_experiment_cli_still_works(self, capsys):
        assert repro_main(["list"]) == 0
        assert "fig4-3" in capsys.readouterr().out


class TestSimsanEntryPoint:
    def test_unknown_scenario_exits_two(self, capsys):
        assert repro_main(["simsan", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_degraded_scenario_runs_clean(self, monkeypatch, capsys):
        # The cheapest real scenario end to end through the dispatcher:
        # instrumented run, zero violations.
        monkeypatch.chdir(REPO_ROOT)
        assert repro_main(["simsan", "degraded"]) == 0
        captured = capsys.readouterr()
        assert "degraded:" in captured.err
        assert "0 violation(s)" in captured.err
        assert "0 finding(s)" in captured.out

    @pytest.mark.parametrize("where", ["checkout", "elsewhere"])
    def test_recon_runs_clean_from_any_directory(
        self, monkeypatch, tmp_path, capsys, where
    ):
        # recon is the scenario with the piggyback handoff. Its inline
        # SAN004 declaration is read from the source of the imported
        # package, at the runtime site's path: relative under the
        # working directory and absolute outside it.
        monkeypatch.chdir(REPO_ROOT if where == "checkout" else tmp_path)
        assert simsan_main(["recon"]) == 0, capsys.readouterr().out
        err = capsys.readouterr().err
        assert "0 violation(s)" in err
        assert " 0 suppressed" not in err
