"""The public surface agrees with itself, checked on the live objects.

Every run option ("knob") declared on a spec must reach each layer that spec
feeds — ``solve()`` keywords, ``Session`` keywords, CLI flags — and every
``solve()`` keyword must be expressible as a spec field, so declarative
``RunSpec``s never lag the imperative API.  The README's registry tables
must list exactly what the registries hold.  All of it is read off the
running library (``dataclasses.fields``, ``inspect.signature``,
``build_parser()``, the registries), so a renamed parameter or flag fails
here with the field and layer it broke.
"""

from __future__ import annotations

import argparse
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from repro.api import Session, list_solvers, solve
from repro.api.specs import ProblemSpec, QuerySpec, RunSpec, SolverSpec, StreamSpec
from repro.cli import build_parser
from repro.coverage.kernels import kernel_backend_choices
from repro.datasets import list_datasets
from repro.lint import iter_rule_metas, rule_choices
from repro.parallel import executor_choices

README = Path(__file__).resolve().parents[2] / "README.md"

#: Which layers each spec class must reach.
SPEC_LAYERS = {
    ProblemSpec: ("solve", "session", "cli"),
    SolverSpec: ("solve", "session"),
    StreamSpec: ("cli",),
    QuerySpec: ("cli",),
}

#: (spec, field) -> layer -> accepted names, where a layer does not use the
#: field name itself (``--field-name`` on the CLI).
ALIASES = {
    # The facade reserves ``problem`` for the instance argument itself.
    ("ProblemSpec", "problem"): {"solve": ("problem_kind",), "session": ("problem_kind",)},
    ("QuerySpec", "problem"): {"cli": ("--problem",)},
    # ``map_workers`` caps the mapper pool; the imperative layers call it
    # ``max_workers`` (as concurrent.futures does), the CLI ``--workers``.
    ("ProblemSpec", "map_workers"): {
        "solve": ("max_workers",),
        "session": ("max_workers",),
        "cli": ("--workers",),
    },
    # Dataset bindings surface on the CLI as the generate-family flag.
    ("ProblemSpec", "dataset"): {"cli": ("--generator",)},
    # ``SolverSpec.name`` is the facade's ``solver`` argument.
    ("SolverSpec", "name"): {"solve": ("solver",), "session": ("solver",)},
}

#: Knobs deliberately missing from some layer, each with its reason.  Spec
#: fields are keyed by their class; ``solve`` entries are keyword-only
#: ``solve()`` parameters with no spec field.
EXEMPT = {
    ("ProblemSpec", "dataset"): "spec-only: solve()/Session take a materialized "
    "problem; the CLI binds datasets via --generator and per-generator flags",
    ("ProblemSpec", "dataset_args"): "spec-only: generator kwargs have no flat "
    "CLI/kwarg syntax; RunSpecs carry them as a dict",
    ("StreamSpec", "order"): "the bench harness sweeps stream orders "
    "programmatically; no CLI flag by design",
    ("StreamSpec", "arrival"): "arrival forcing is a test/bench knob for the "
    "runner's model check, not a CLI surface",
    ("QuerySpec", "options"): "per-query solver options are a dict with no flat "
    "CLI syntax; the query subcommand exposes the common ones (--epsilon, "
    "--scale) directly",
    ("solve", "coverage_kernel"): "imperative-only: injects a live kernel object "
    "(tests/benchmarks); specs name backends by string instead",
    ("solve", "extra"): "imperative-only escape hatch for solver-specific kwargs; "
    "RunSpecs express these via SolverSpec.options",
}

LAYER_DESCRIPTION = {
    "solve": "a solve() keyword",
    "session": "a Session keyword",
    "cli": "a CLI flag",
}


def accepted(spec: str, field: str, layer: str) -> tuple[str, ...]:
    names = ALIASES.get((spec, field), {})
    if layer in names:
        return names[layer]
    return ("--" + field.replace("_", "-"),) if layer == "cli" else (field,)


def solve_params() -> set[str]:
    return set(inspect.signature(solve).parameters)


def session_params() -> set[str]:
    """Union of the parameters of every ``Session`` method."""
    names: set[str] = set()
    for _, method in inspect.getmembers(Session, inspect.isfunction):
        names.update(inspect.signature(method).parameters)
    return names - {"self"}


def cli_flags() -> set[str]:
    """Union of the ``--flags`` over every ``build_parser()`` subcommand."""
    flags: set[str] = set()
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                for sub_action in subparser._actions:
                    flags.update(
                        flag for flag in sub_action.option_strings if flag.startswith("--")
                    )
    return flags


LAYERS = {"solve": solve_params, "session": session_params, "cli": cli_flags}

KNOB_CASES = [
    pytest.param(spec.__name__, field.name, layer, id=f"{spec.__name__}.{field.name}-{layer}")
    for spec, layers in SPEC_LAYERS.items()
    for field in fields(spec)
    if (spec.__name__, field.name) not in EXEMPT
    for layer in layers
]


@pytest.mark.parametrize("spec, field, layer", KNOB_CASES)
def test_spec_field_reaches_layer(spec, field, layer):
    names = accepted(spec, field, layer)
    assert set(names) & LAYERS[layer](), (
        f"{spec}.{field} is not reachable as {LAYER_DESCRIPTION[layer]} (expected "
        f"{' or '.join(repr(name) for name in names)}); thread the knob through "
        f"the {layer} layer or add it to EXEMPT with the reason it is spec-only"
    )


def expressible_in_solve() -> set[str]:
    """Every name a spec field (or its alias) takes as a ``solve()`` keyword."""
    names: set[str] = set()
    for spec in (*SPEC_LAYERS, RunSpec):
        for field in fields(spec):
            names.add(field.name)
            names.update(accepted(spec.__name__, field.name, "solve"))
    return names


SOLVE_KEYWORDS = [
    name
    for name, param in inspect.signature(solve).parameters.items()
    if param.kind is inspect.Parameter.KEYWORD_ONLY and ("solve", name) not in EXEMPT
]


@pytest.mark.parametrize("keyword", SOLVE_KEYWORDS)
def test_solve_keyword_maps_to_a_spec_field(keyword):
    assert keyword in expressible_in_solve(), (
        f"solve() keyword {keyword!r} corresponds to no spec field; add the field "
        "(or an alias) so declarative RunSpecs can express it, or add it to EXEMPT "
        "with the reason it is imperative-only"
    )


@pytest.mark.parametrize("key", sorted(EXEMPT), ids=lambda key: ".".join(key))
def test_every_exemption_is_still_needed(key):
    owner, name = key
    if owner == "solve":
        params = inspect.signature(solve).parameters
        assert name in params, f"EXEMPT lists solve() keyword {name!r}, which is gone"
        assert name not in expressible_in_solve(), (
            f"solve() keyword {name!r} now maps to a spec field; drop it from EXEMPT"
        )
        return
    spec = next(cls for cls in SPEC_LAYERS if cls.__name__ == owner)
    assert name in {field.name for field in fields(spec)}, (
        f"EXEMPT lists {owner}.{name}, which is not a field"
    )
    missing = [
        layer
        for layer in SPEC_LAYERS[spec]
        if not set(accepted(owner, name, layer)) & LAYERS[layer]()
    ]
    assert missing, f"{owner}.{name} reaches every layer now; drop it from EXEMPT"


# --------------------------------------------------------------------------- #
# README registry tables
# --------------------------------------------------------------------------- #

#: README table header (first cell) -> the runtime list it documents.
REGISTRIES = {
    "solver": list_solvers,
    "dataset": list_datasets,
    "executor": executor_choices,
    "kernel backend": kernel_backend_choices,
    "rule": rule_choices,
}


def cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def readme_tables() -> dict[str, set[str]]:
    """Per registry header, the names in the first column (backticks stripped)."""
    tables: dict[str, set[str]] = {}
    block: list[str] = []
    for line in README.read_text(encoding="utf-8").splitlines() + [""]:
        if line.lstrip().startswith("|"):
            block.append(line)
            continue
        if len(block) >= 3:  # header + separator + at least one row
            header = cells(block[0])[0].strip("`*").strip().lower()
            if header in REGISTRIES:
                names = tables.setdefault(header, set())
                names.update(cells(row)[0].strip("`") for row in block[2:])
        block = []
    return tables


@pytest.mark.parametrize("kind", sorted(REGISTRIES))
def test_readme_table_matches_registry(kind):
    documented = readme_tables().get(kind)
    assert documented is not None, f"README.md has no table headed {kind!r}"
    registered = set(REGISTRIES[kind]())
    undocumented = sorted(registered - documented)
    assert not undocumented, (
        f"registered {kind} name(s) {undocumented} have no row in the README {kind} table"
    )
    unregistered = sorted(documented - registered)
    assert not unregistered, (
        f"README {kind} table documents {unregistered}, which no registration defines"
    )
    if kind == "rule":
        # The rule table is generated from the same metadata as --list-rules;
        # each rule's summary must appear verbatim.
        readme = README.read_text(encoding="utf-8")
        for meta in iter_rule_metas():
            assert f"`{meta.name}`" in readme, (
                f"rule '{meta.name}' is not documented in README.md; "
                "regenerate the Static analysis section"
            )
            assert meta.summary in readme, (
                f"rule '{meta.name}' summary drifted from README.md; "
                "regenerate the Static analysis section"
            )
        assert "repro-lint: disable=" in readme  # suppression syntax documented
