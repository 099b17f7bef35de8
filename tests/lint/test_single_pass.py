"""The single serial pass: one read and one parse per file, one report.

``lint_paths`` reads and parses each file once, feeds that parse to both the
file rules and the module's facts, then runs the project rules over the index
built from every file.  These tests pin that contract from the outside:
parse counts, agreement with the one-module entry point ``lint_source``,
rule selection acting as a pure filter, and the CLI/JSON surface that sits
on top of it.
"""

from __future__ import annotations

import ast
import io
import json
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lint_fixtures as fx
from repro.cli import build_parser, main
from repro.lint import (
    get_rule,
    list_rules,
    lint_paths,
    lint_source,
    render_json,
    report_from_json,
)

#: A miniature project with at least one finding for every registered rule:
#: each file rule gets its planted-violation fixture, and each project rule a
#: cross-module drift (a closure reaching a mapper, a phantom ``__all__``).
VIOLATING_TREE = {
    "src/app/work.py": """\
        def make_handler():
            def inner(job):
                return job
            return inner


        handler = make_handler()
    """,
    "src/app/runner.py": """\
        from app.work import handler


        def run(mapper, jobs):
            return mapper.map(handler, jobs)
    """,
    "src/app/exports.py": """\
        __all__ = ["real", "phantom"]


        def real():
            return 1
    """,
    "src/app/raw_rng.py": fx.BAD_RAW_RNG,
    "src/app/raw_rng_silenced.py": fx.SUPPRESSED_RAW_RNG,
    # raw-timing polices library code only, i.e. modules under repro.*
    "src/repro/timing.py": fx.BAD_RAW_TIMING,
    "src/app/picklable.py": fx.BAD_PICKLABLE_LAMBDA,
    "src/app/spec.py": fx.BAD_SPEC_DROPPED_FIELD,
    "src/app/hot_path.py": fx.BAD_HOT_PATH_TOLIST,
    "src/app/registry.py": fx.BAD_REGISTRY_COMPUTED,
    "src/app/silent.py": fx.BAD_SILENT_BARE,
    "src/app/suppression.py": fx.BAD_SUPPRESSION_UNKNOWN_RULE,
}

#: Snippet pool for the property tests: clean code, per-file violations,
#: suppressed violations, a syntax error and cross-module references.
SNIPPETS = (
    "def ok():\n    return 1\n",
    "import random\n\n\ndef roll():\n    return random.random()\n",
    fx.SUPPRESSED_RAW_RNG,
    "def broken(:\n",
    "try:\n    x = 1\nexcept Exception:\n    pass\n",
    "__all__ = ['ghost']\n",
    "from app.elsewhere import something\n",
)

FILE_RULES = [name for name in list_rules() if get_rule(name).scope == "file"]


def write_tree(root: Path, files) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


@pytest.fixture
def violating_tree(tmp_path, monkeypatch):
    write_tree(tmp_path, VIOLATING_TREE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def snippet_tree(root: Path, picks) -> list[Path]:
    files = {
        f"src/app/mod_{index}.py": SNIPPETS[pick] for index, pick in enumerate(picks)
    }
    write_tree(root, files)
    return [root / rel for rel in files]


class TestOnePassPerFile:
    def test_each_file_is_read_and_parsed_once(self, violating_tree, monkeypatch):
        parsed: list[str] = []
        read: list[Path] = []
        real_parse = ast.parse
        real_read_bytes = Path.read_bytes

        def counting_parse(source, *args, **kwargs):
            parsed.append(source)
            return real_parse(source, *args, **kwargs)

        def counting_read_bytes(self):
            read.append(self)
            return real_read_bytes(self)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        report = lint_paths(["src"], rules=["all"])

        assert report.files_scanned == len(read) == len(parsed)
        assert len({path.resolve() for path in read}) == len(read)

    def test_a_broken_file_does_not_stop_the_project_phase(self, violating_tree):
        (violating_tree / "src/app/broken.py").write_text("def broken(:\n")
        report = lint_paths(["src"], rules=["all"])
        rules = {finding.rule for finding in report.findings}
        assert "syntax-error" in rules
        assert {"transitive-picklability", "export-hygiene"} <= rules

    def test_project_finding_obeys_the_suppression_on_its_line(self, violating_tree):
        exports = violating_tree / "src/app/exports.py"
        before = lint_paths(["src"], rules=["export-hygiene"])
        exports.write_text(
            '__all__ = ["real", "phantom"]  '
            "# repro-lint: disable=export-hygiene -- planted for the test\n"
            "\n\ndef real():\n    return 1\n"
        )
        after = lint_paths(["src"], rules=["export-hygiene"])
        assert len(before.findings) == 1 and before.suppressed == 0
        assert after.clean and after.suppressed == 1


@pytest.mark.parametrize("rule", list_rules())
def test_single_rule_run_is_the_full_run_filtered(violating_tree, rule):
    full = lint_paths(["src"], rules=["all"])
    alone = lint_paths(["src"], rules=[rule])
    expected = tuple(finding for finding in full.findings if finding.rule == rule)
    assert expected, f"the fixture tree plants no {rule} finding"
    assert alone.findings == expected
    assert alone.rules == (rule,)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(picks=st.lists(st.sampled_from(range(len(SNIPPETS))), min_size=1, max_size=8))
def test_file_phase_equals_lint_source_per_file(tmp_path, picks):
    # Distinct per-example directories: hypothesis reuses tmp_path across
    # examples, and the engine must not care about leftovers from others.
    root = tmp_path / ("case-" + "-".join(map(str, picks)))
    files = snippet_tree(root, picks)
    report = lint_paths([root], rules=FILE_RULES)

    expected = []
    suppressed = 0
    for path in files:
        findings, silenced = lint_source(
            path.read_text(encoding="utf-8"), path.as_posix(), rules=FILE_RULES
        )
        expected.extend(findings)
        suppressed += silenced
    assert report.findings == tuple(sorted(expected))
    assert report.suppressed == suppressed
    assert report.files_scanned == len(files)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    picks=st.lists(st.sampled_from(range(len(SNIPPETS))), min_size=1, max_size=6),
    data=st.data(),
)
def test_report_does_not_depend_on_how_the_files_are_listed(tmp_path, picks, data):
    root = tmp_path / ("case-" + "-".join(map(str, picks)))
    files = snippet_tree(root, picks)
    listed = data.draw(st.permutations(files))
    assert render_json(lint_paths(listed + [root])) == render_json(lint_paths([root]))


class TestReportSurface:
    def test_json_report_is_version_and_report_only(self, violating_tree):
        report = lint_paths(["src"])
        payload = json.loads(render_json(report))
        assert sorted(payload) == ["report", "version"]
        assert report_from_json(render_json(report)) == report

    def test_cli_json_is_the_library_report(self, violating_tree):
        out = io.StringIO()
        code = main(["lint", "src", "--format", "json"], out=out)
        assert code == 1
        assert out.getvalue().strip() == render_json(lint_paths(["src"])).strip()


@pytest.mark.parametrize(
    "argv", [["--jobs", "2"], ["--cache"], ["--changed", "HEAD"]],
    ids=["jobs", "cache", "changed"],
)
def test_removed_engine_flags_are_gone(argv, tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("def identity(x):\n    return x\n")
    with pytest.raises(SystemExit) as help_exit:
        build_parser().parse_args(["lint", "--help"])
    assert help_exit.value.code == 0
    assert argv[0] not in capsys.readouterr().out
    with pytest.raises(SystemExit) as usage_exit:
        main(["lint", str(target), *argv])
    assert usage_exit.value.code == 2
