"""Tests for the determinism & cache-safety linter (``repro.analysis``).

Three layers:

* **Fixture corpus** — every rule has known-bad / known-good snippets under
  ``tests/analysis_fixtures/``, including verbatim reductions of the two
  historical hash-seed bugs (PR 2 selectivity fold, PR 4 residual conjuncts)
  that the D-rules were distilled from.
* **Suppression grammar** — only well-formed, justified suppressions of
  known rules silence a finding; bare/unknown/unused suppressions are
  themselves errors (S001/S002/S003).
* **Self-gate** — the linter must exit clean over ``src tests benchmarks``,
  and the checked-in ``[tool.repro-lint]`` pyproject table must mirror the
  in-code defaults exactly (3.10 interpreters have no ``tomllib`` and fall
  back to the defaults; results may not depend on the interpreter).
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import LintConfig, RULES, discover_files, lint_paths, lint_source
from repro.analysis.config import config_from_mapping, find_pyproject, load_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "analysis_fixtures")
CONFIG = LintConfig()


def lint_fixture(name):
    path = os.path.join(FIXTURES, name)
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path, CONFIG)


def rule_lines(findings):
    return {(f.rule, f.line) for f in findings}


class TestFixtureCorpus:
    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "d001_bad.py",
                {("D001", 7), ("D001", 11), ("D001", 15), ("D001", 19), ("D001", 24)},
            ),
            ("d002_bad.py", {("D002", 9), ("D002", 14)}),
            ("c001_bad.py", {("C001", 11)}),
            ("c002_bad.py", {("C002", 7), ("C002", 12), ("C002", 17)}),
            ("m001_bad.py", {("M001", 14)}),
            ("m001_missing_registry.py", {("M001", 4)}),
            ("result_cache_bad.py", {("M001", 15)}),
            ("g001_bad.py", {("G001", 7), ("G001", 17), ("G001", 20)}),
            ("m002_bad.py", {("M002", 5), ("M002", 6), ("M002", 7), ("M002", 8)}),
        ],
    )
    def test_known_bad(self, name, expected):
        assert rule_lines(lint_fixture(name)) == expected

    @pytest.mark.parametrize(
        "name",
        [
            "d001_good.py",
            "d002_good.py",
            "c001_good.py",
            "c002_good.py",
            "m001_good.py",
            "g001_good.py",
            "m002_good.py",
            "suppressions_good.py",
        ],
    )
    def test_known_good(self, name):
        assert lint_fixture(name) == []

    def test_pr2_selectivity_fold_is_caught(self):
        """The PR 2 hash-seed bug (frozenset selectivity product) is D002."""
        findings = lint_fixture("historical_pr2.py")
        assert rule_lines(findings) == {("D002", 15)}

    def test_pr4_residual_conjuncts_are_caught(self):
        """The PR 4 hash-seed bug (and_(*set_difference)) is D001."""
        findings = lint_fixture("historical_pr4.py")
        assert rule_lines(findings) == {("D001", 13)}

    def test_pr7_identity_keyed_cache_is_caught(self):
        """The PR 7 aliasing bug (id()-keyed session fragments) is C001.

        The reduction drops the pinning list the shipped code had, so both
        ``id(props)`` key sites fire; the class also trips M001 because a
        class named ``SessionCache`` is a registered cache owner and the
        reduction has no invalidation registry — historically accurate, as
        the identity interner's invalidation story is what was broken.
        """
        findings = lint_fixture("historical_pr7.py")
        assert rule_lines(findings) == {("C001", 22), ("C001", 25), ("M001", 17)}

    def test_suppression_meta_rules(self):
        findings = rule_lines(lint_fixture("suppressions_bad.py"))
        # Bare and unknown-rule suppressions do not silence their D001...
        assert ("S001", 7) in findings and ("D001", 7) in findings
        assert ("S002", 11) in findings and ("D001", 11) in findings
        # ...and a suppression with nothing to silence is itself an error.
        assert ("S003", 15) in findings


class TestSuppressionGrammar:
    def lint(self, source):
        return lint_source(textwrap.dedent(source), "inline.py", CONFIG)

    def test_trailing_suppression_silences(self):
        findings = self.lint(
            """\
            def f(relations: frozenset) -> tuple:
                return tuple(relations)  # repro-lint: ok(D001) feeds a commutative fold
            """
        )
        assert findings == []

    def test_standalone_suppression_covers_next_line(self):
        findings = self.lint(
            """\
            def f(relations: frozenset) -> tuple:
                # repro-lint: ok(D001) consumed order-insensitively
                return tuple(relations)
            """
        )
        assert findings == []

    def test_multi_rule_suppression(self):
        findings = self.lint(
            """\
            def f(costs: frozenset) -> tuple:
                # repro-lint: ok(D001, D002) both folds are commutative here
                return tuple(costs), sum(costs)
            """
        )
        assert findings == []

    def test_suppression_does_not_leak_past_next_line(self):
        findings = self.lint(
            """\
            def f(relations: frozenset) -> tuple:
                # repro-lint: ok(D001) covers only the next line
                x = 1
                return tuple(relations), x
            """
        )
        assert {f.rule for f in findings} == {"S003", "D001"}

    def test_malformed_marker_is_s001(self):
        findings = self.lint(
            """\
            def f(relations: frozenset) -> tuple:
                return tuple(relations)  # repro-lint: silence this please
            """
        )
        assert {f.rule for f in findings} == {"S001", "D001"}

    def test_syntax_error_is_e999(self):
        findings = self.lint("def broken(:\n")
        assert [f.rule for f in findings] == ["E999"]


class TestModuleCaches:
    """M002: module-level dict/set/BoundedCache tables mutated in functions."""

    def lint(self, source):
        return rule_lines(lint_source(textwrap.dedent(source), "inline.py", CONFIG))

    def test_read_only_table_is_clean(self):
        assert self.lint(
            """\
            _NAMES = {"a": 1}

            def f(key):
                return _NAMES.get(key)
            """
        ) == set()

    def test_mutation_in_nested_function_is_found(self):
        assert self.lint(
            """\
            _MEMO = dict()

            def outer(keys):
                def fill(key):
                    _MEMO.setdefault(key, len(_MEMO))
                for key in keys:
                    fill(key)
            """
        ) == {("M002", 1)}

    def test_augmented_item_assignment_is_found(self):
        assert self.lint(
            """\
            from collections import Counter
            _HITS = Counter()

            def hit(key):
                _HITS[key] += 1
            """
        ) == {("M002", 2)}

    def test_parameter_of_the_same_name_shadows(self):
        assert self.lint(
            """\
            _MEMO = {}

            def fill(_MEMO, key):
                _MEMO[key] = 1
            """
        ) == set()

    def test_justified_suppression_silences(self):
        assert self.lint(
            """\
            _MEMO = {}  # repro-lint: ok(M002) pure int function; cleared past 64 entries

            def fill(key):
                _MEMO[key] = 1
            """
        ) == set()

    def test_builder_shape_memo_carries_its_justification(self):
        """The shape memo in the DAG builder is the table M002 exists for."""
        path = os.path.join(REPO_ROOT, "src", "repro", "dag", "builder.py")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        unsuppressed = source.replace("# repro-lint: ok(M002)", "#")
        findings = lint_source(unsuppressed, path, CONFIG)
        assert [(f.rule, "_SHAPE_MEMO" in f.message) for f in findings] == [("M002", True)]


class TestConfig:
    def test_defaults_match_checked_in_pyproject_table(self):
        """The pyproject table must mirror the in-code defaults exactly.

        3.10 interpreters have no ``tomllib`` and silently use the defaults;
        lint results may not depend on which interpreter ran the linter.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            table = tomllib.load(handle)["tool"]["repro-lint"]
        assert config_from_mapping(table) == LintConfig()

    def test_load_config_reads_pyproject(self):
        assert load_config(start=REPO_ROOT) == LintConfig()

    def test_find_pyproject_walks_up(self):
        assert find_pyproject(FIXTURES) == os.path.join(REPO_ROOT, "pyproject.toml")

    def test_overrides(self):
        config = config_from_mapping(
            {
                "exclude": ["*/vendored/*"],
                "set_returning": ["members"],
                "frozen_attributes": ["stats"],
                "registries": {"MyCache": "registry"},
            }
        )
        assert config.exclude == ("*/vendored/*",)
        assert config.set_returning == frozenset({"members"})
        assert config.frozen_attributes == frozenset({"stats"})
        assert config.registries == {"MyCache": "registry"}

    @pytest.mark.parametrize(
        "table",
        [
            {"exclude": "not-a-list"},
            {"set_returning": [1, 2]},
            {"registries": {"MyCache": 3}},
        ],
    )
    def test_bad_tables_raise(self, table):
        with pytest.raises(ValueError):
            config_from_mapping(table)

    def test_custom_set_returning_taints_calls(self):
        config = LintConfig(set_returning=frozenset({"members"}))
        findings = lint_source(
            "def f(group):\n    return tuple(group.members())\n", "inline.py", config
        )
        assert [f.rule for f in findings] == ["D001"]


class TestEngine:
    def test_discovery_excludes_fixture_corpus(self):
        files = discover_files([os.path.join(REPO_ROOT, "tests")], CONFIG)
        assert not any("analysis_fixtures" in f for f in files)
        assert any(f.endswith("test_analysis.py") for f in files)

    def test_findings_are_sorted_and_deterministic(self):
        findings, _ = lint_paths([FIXTURES], LintConfig(exclude=()))
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
        )
        again, _ = lint_paths([FIXTURES], LintConfig(exclude=()))
        assert findings == again

    def test_self_gate_repo_is_clean(self):
        """Acceptance gate: the linter exits 0 over src tests benchmarks."""
        findings, checked = lint_paths(
            [os.path.join(REPO_ROOT, d) for d in ("src", "tests", "benchmarks")],
            load_config(start=REPO_ROOT),
        )
        assert checked > 50
        assert findings == [], "\n".join(f.format() for f in findings)


class TestCli:
    def run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_clean_tree_exits_zero(self):
        result = self.run_cli("src", "tests", "benchmarks")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    @pytest.fixture()
    def no_exclude_config(self, tmp_path):
        config = tmp_path / "pyproject.toml"
        config.write_text("[tool.repro-lint]\nexclude = []\n")
        return str(config)

    def test_findings_exit_one_and_name_rule_and_location(self, no_exclude_config):
        bad = os.path.join("tests", "analysis_fixtures", "d001_bad.py")
        result = self.run_cli("--config", no_exclude_config, bad)
        assert result.returncode == 1
        assert "d001_bad.py:7:12: D001" in result.stdout

    def test_json_format(self, no_exclude_config):
        bad = os.path.join("tests", "analysis_fixtures", "d002_bad.py")
        result = self.run_cli("--config", no_exclude_config, "--format", "json", bad)
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["files_checked"] == 1
        assert [(f["rule"], f["line"]) for f in report["findings"]] == [
            ("D002", 9),
            ("D002", 14),
        ]

    def test_list_rules(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        for rule in RULES:
            assert rule in result.stdout
