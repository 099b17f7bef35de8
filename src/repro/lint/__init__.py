"""repro.lint — repo-aware static analysis for the determinism contracts.

The test suite defends the paper's guarantees *dynamically* (byte-identity
across batch sizes, executors and shard merges); this package defends the
contracts that only the source text shows, at AST level, before a single
test runs.

Per-file rules (one module at a time):

* ``no-raw-rng`` — randomness flows through :mod:`repro.utils.rng`;
* ``raw-timing`` — library timing reads go through :mod:`repro.obs.clock`;
* ``picklable-jobs`` — executor callables are module-level, job dataclasses
  carry plain data;
* ``spec-roundtrip`` — frozen spec dataclasses serialize every field;
* ``hot-path-hygiene`` — ``process_batch`` stays vectorised;
* ``registry-literal-names`` — registry keys are greppable literals;
* ``no-silent-except`` — no handler swallows executor/mmap errors;
* ``suppression-hygiene`` — suppressions name real rules and say why.

Project rules (whole-program, over the :class:`~repro.lint.project.ProjectIndex`
the engine assembles from every file):

* ``transitive-picklability`` — callables reaching executors resolve to
  module-level defs through any chain of aliases/imports/factories;
* ``export-hygiene`` — ``__all__`` entries exist, re-exports resolve,
  exports are used somewhere in the linted tree.

Contracts the running library reports about itself are tier-1 tests, not
rules: ``tests/api/test_public_surface.py`` checks that every spec field
reaches ``solve()``, ``Session`` and the CLI, and that the README tables
match the solver, dataset, executor, kernel-backend and rule registries.

Run it as ``repro lint src benchmarks tests`` (text or ``--format json``),
list the rules with ``repro lint --list-rules``, and silence a deliberate
exception inline::

    # repro-lint: disable=<rule>[,<rule>] -- justification

The engine makes one serial pass: each file is read and parsed once, that
parse feeds both the file rules and the module's facts, and the project
rules then run once over the index built from every file's facts.

New rules plug in exactly like solvers and kernels: subclass
:class:`~repro.lint.rules.Rule` (or
:class:`~repro.lint.rules.ProjectRule` for cross-module contracts), give
it a :class:`~repro.lint.rules.RuleMeta`, decorate with
:func:`~repro.lint.rules.register_rule`.
"""

from repro.lint import checks  # noqa: F401  (registers the built-in rules)
from repro.lint.engine import (
    FileAnalysis,
    LintContext,
    collect_files,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding, LintReport
from repro.lint.project import ModuleFacts, ProjectIndex, collect_facts
from repro.lint.reporters import render_json, render_text, report_from_json
from repro.lint.rules import (
    ProjectRule,
    Rule,
    RuleMeta,
    get_rule,
    iter_rule_metas,
    list_rules,
    register_rule,
    rule_choices,
    unregister_rule,
)

__all__ = [
    "FileAnalysis",
    "Finding",
    "LintReport",
    "LintContext",
    "ModuleFacts",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "RuleMeta",
    "collect_facts",
    "collect_files",
    "get_rule",
    "iter_rule_metas",
    "lint_paths",
    "lint_source",
    "list_rules",
    "register_rule",
    "rule_choices",
    "render_json",
    "render_text",
    "report_from_json",
    "unregister_rule",
]
