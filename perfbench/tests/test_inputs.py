"""Unit tests for the benchmark's input generators and expectations.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import ast
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import inputs  # noqa: E402

USE_CASES = inputs.USE_CASES


def _dump(source: str) -> list[str]:
    return [ast.dump(node) for node in ast.parse(source).body]


def _take(iterator, count: int) -> list:
    return [next(iterator) for _ in range(count)]


# -- determinism --------------------------------------------------------------


def test_same_seed_gives_the_same_template_variants():
    assert _take(inputs.gen_sequence(7), 30) == _take(inputs.gen_sequence(7), 30)
    assert _take(inputs.gen_sequence(7), 30) != _take(inputs.gen_sequence(8), 30)


def test_same_seed_gives_the_same_project_and_edits():
    first, second = inputs.Project(3, groups=2), inputs.Project(3, groups=2)
    assert first.sources() == second.sources()
    for _ in range(40):
        assert first.edit() == second.edit()
        assert first.sources() == second.sources()
        assert first.expected() == second.expected()
    assert inputs.Project(4, groups=2).expected() != inputs.Project(3, groups=2).expected()


def test_same_seed_gives_the_same_inline_projects():
    one = [inputs.small_project(random.Random(5), str(i)) for i in range(10)]
    two = [inputs.small_project(random.Random(5), str(i)) for i in range(10)]
    assert one == two


def test_variants_are_unique_and_drawn_in_rounds_of_all_use_cases():
    items = _take(inputs.gen_sequence(1), 3 * len(USE_CASES))
    assert len({item.source for item in items}) == len(items)
    for start in range(0, len(items), len(USE_CASES)):
        numbers = {item.number for item in items[start:start + len(USE_CASES)]}
        assert numbers == {number for number, _ in USE_CASES}


# -- semantics-neutral edits ----------------------------------------------------


def test_a_variant_only_adds_an_unused_module_constant():
    for item in _take(inputs.gen_sequence(2), len(USE_CASES)):
        template = _dump(inputs.template_source(item.slug))
        variant = ast.parse(item.source).body
        assert [ast.dump(node) for node in variant[:-1]] == template
        assert ast.unparse(variant[-1]) == f"{inputs.VARIANT_NAME} = {item.token!r}"
        assert inputs.VARIANT_NAME not in inputs.template_source(item.slug)


def test_touch_edits_change_text_but_not_the_syntax_tree():
    project = inputs.Project(1, groups=1, mutant_share=0.0)
    clean = {key: _dump(text) for key, text in project.sources().items()}
    for site in project.sites:
        site.revision = 9
    for key in project.clean:
        project._render(key)
    touched = project.sources()
    for key, text in touched.items():
        assert "# rev 9" in text
        assert _dump(text) == clean[key]


def test_renamed_copies_differ_only_in_class_names():
    for number, slug in USE_CASES:
        reference = inputs.reference_source(number, slug)
        renamed = inputs.renamed_reference(reference, "G3")
        names = [n.name for n in ast.parse(reference).body if isinstance(n, ast.ClassDef)]
        assert len(names) == 2
        undone = renamed
        for name in names:
            undone = undone.replace(f"{name}G3", name)
        assert undone == reference


@pytest.mark.parametrize("mutation", inputs.MUTATIONS, ids=lambda m: m.name)
def test_each_mutation_applies_somewhere_and_rewrites_one_line(mutation):
    applied = 0
    for number, slug in USE_CASES:
        lines = inputs.reference_source(number, slug).split("\n")
        for site in inputs._sites("m.py", lines):
            if mutation not in site.mutations:
                continue
            mutated = list(lines)
            site.mutation = mutation
            inputs._render_site(mutated, site)
            changed = [i for i, (a, b) in enumerate(zip(lines, mutated)) if a != b]
            assert len(changed) == 1 and site.start <= changed[0] < site.end
            ast.parse("\n".join(mutated))
            applied += 1
    assert applied > 0


# -- expectations ---------------------------------------------------------------


@pytest.mark.parametrize("number,slug", USE_CASES)
def test_identity_expectation_is_the_reference(number, slug):
    reference = inputs.reference_source(number, slug)
    assert inputs.expected_output(reference, None) == reference.rstrip("\n")


@pytest.mark.parametrize("number,slug", USE_CASES)
def test_variant_expectation_is_the_reference_plus_the_constant(number, slug):
    reference = inputs.reference_source(number, slug)
    expected = inputs.expected_output(reference, "tok-1")
    body = ast.parse(expected).body
    constant = [
        i for i, node in enumerate(body)
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == inputs.VARIANT_NAME
    ]
    assert len(constant) == 1
    assert isinstance(body[constant[0] + 1], ast.ClassDef)
    assert body[constant[0] + 1].name.startswith("Output")
    del body[constant[0]]
    assert [ast.dump(node) for node in body] == _dump(reference)


def test_project_expectation_follows_the_mutations():
    project = inputs.Project(2, groups=2, mutant_share=0.5)
    expected = project.expected()
    mutated = [site for site in project.sites if site.mutation is not None]
    assert mutated and len(expected) == len(mutated)
    for site in mutated:
        assert expected[(site.module, site.qualname)] == site.mutation.expected_kinds


def test_verdict_errors():
    expected = {("a.py", "C.f"): frozenset({inputs.CONSTRAINT})}
    hit = [("a.py", "C.f", inputs.CONSTRAINT)]
    assert inputs.verdict_errors(hit, expected) == []
    assert inputs.verdict_errors([], expected) == [
        f"missed ['{inputs.CONSTRAINT}'] in a.py::C.f"
    ]
    # An extra kind on a mutated function is as wrong as one on a clean function.
    extra = hit + [("a.py", "C.f", inputs.REQUIRED_PREDICATE)]
    assert inputs.verdict_errors(extra, expected) == [
        f"unexpected ['{inputs.REQUIRED_PREDICATE}'] in a.py::C.f"
    ]
    stray = hit + [("a.py", "C.g", inputs.INCOMPLETE)]
    assert inputs.verdict_errors(stray, expected) == [
        f"unexpected ['{inputs.INCOMPLETE}'] in a.py::C.g"
    ]


# -- the references themselves ----------------------------------------------------


@pytest.mark.parametrize("number,slug", USE_CASES)
def test_reference_compiles(number, slug):
    compile(inputs.reference_source(number, slug), f"uc{number:02d}", "exec")


def test_references_are_sast_clean():
    from repro.sast import ProjectAnalyzer

    sources = {
        f"uc{number:02d}_{slug}.py": inputs.reference_source(number, slug)
        for number, slug in USE_CASES
    }
    result = ProjectAnalyzer().analyze_sources(sources)
    assert result.findings == []
    assert result.total_functions == 48
