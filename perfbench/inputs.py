"""Seeded benchmark inputs and the expected outputs they are checked against.

Every expectation here is derived from the hand-reviewed reference
outputs in ``references/`` by the same edit that produced the input.
Nothing in this module imports or runs the program under test: the
generator's output for a template variant is expected to be the
reference with the variant's edit applied through the standard
library's ``ast`` module, and the analyzer's verdict on a project is
expected to follow from the mutation operators applied to it.
"""

from __future__ import annotations

import ast
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TEMPLATES = ROOT / "src" / "repro" / "usecases" / "templates"
REFERENCES = HERE / "references"

#: (number, template slug) of the 11 Table 1 use cases plus the two
#: extension use cases, in registry order.
USE_CASES: tuple[tuple[int, str], ...] = (
    (1, "pbe_files"),
    (2, "pbe_strings"),
    (3, "pbe_bytes"),
    (4, "symmetric_encryption"),
    (5, "hybrid_files"),
    (6, "hybrid_strings"),
    (7, "hybrid_bytes"),
    (8, "asymmetric_strings"),
    (9, "password_storage"),
    (10, "digital_signing"),
    (11, "string_hashing"),
    (12, "message_authentication"),
    (13, "key_storage"),
)

#: The module constant a template variant carries. The generator keeps
#: module-level statements of the template, so the constant appears in
#: the output just before the appended ``Output*`` class.
VARIANT_NAME = "_BENCH_VARIANT"


def template_source(slug: str) -> str:
    return (TEMPLATES / f"{slug}.py").read_text(encoding="utf-8")


def reference_path(number: int, slug: str) -> Path:
    return REFERENCES / f"uc{number:02d}_{slug}.py"


def reference_source(number: int, slug: str) -> str:
    return reference_path(number, slug).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# template variants (gen-miss, serve-mix)
# ---------------------------------------------------------------------------


def make_variant(template: str, token: str, rng: random.Random) -> str:
    """A semantics-neutral variant of a template, unique per ``token``.

    The edit appends one module constant and, at random, comment lines
    (which the generator's AST round trip drops).
    """
    comment = f"# revision {token}\n" if rng.random() < 0.5 else ""
    return f"{template.rstrip()}\n\n{comment}{VARIANT_NAME} = {token!r}\n"


def expected_output(reference: str, token: str | None) -> str:
    """The reference output with a variant's edit applied to it.

    ``token=None`` is the identity edit (the unmodified template).
    """
    tree = ast.parse(reference)
    if token is not None:
        node = ast.parse(f"{VARIANT_NAME} = {token!r}").body[0]
        index = next(
            i
            for i, stmt in enumerate(tree.body)
            if isinstance(stmt, ast.ClassDef) and stmt.name.startswith("Output")
        )
        tree.body.insert(index, node)
    return ast.unparse(tree)


@dataclass(frozen=True)
class GenInput:
    number: int
    slug: str
    token: str
    source: str

    def expected(self) -> str:
        return expected_output(reference_source(self.number, self.slug), self.token)


def gen_sequence(seed: int, tag: str = "m") -> Iterator[GenInput]:
    """An endless stream of fresh template variants.

    Use cases are drawn uniformly in shuffled rounds of all 13, so every
    prefix of the stream holds each use case in the same share and the
    latency percentiles do not depend on how the draw fell.
    """
    rng = random.Random(f"gen:{seed}:{tag}")
    templates = {slug: template_source(slug) for _, slug in USE_CASES}
    serial = 0
    while True:
        order = list(USE_CASES)
        rng.shuffle(order)
        for number, slug in order:
            serial += 1
            token = f"{tag}{seed}-{serial}-{rng.getrandbits(32):08x}"
            yield GenInput(
                number, slug, token, make_variant(templates[slug], token, rng)
            )


# ---------------------------------------------------------------------------
# analysis projects and mutation operators (analyze-edit, serve-mix)
# ---------------------------------------------------------------------------

INCOMPLETE = "incomplete-operation"
CONSTRAINT = "constraint-violation"
REQUIRED_PREDICATE = "required-predicate"

_CLEAR_PASSWORD = re.compile(r"^(\s*)\w+\.clear_password\(\)$")
_CONSTANT_SALT = "b'bench-constant-salt-0123456789ab'"


def _drop_clear_password(line: str) -> str | None:
    match = _CLEAR_PASSWORD.match(line)
    return f"{match.group(1)}pass" if match else None


def _replace(old: str, new: str):
    def operator(line: str) -> str | None:
        return line.replace(old, new, 1) if old in line else None

    return operator


@dataclass(frozen=True)
class Mutation:
    """A misuse operator over one source line, and the findings it expects."""

    name: str
    expected_kinds: frozenset[str]
    apply: Callable[[str], str | None]


#: Each operator rewrites one line in place (the line count never
#: changes, so an edit moves no other function). A mutated function
#: must carry exactly the operator's finding kinds. Too few iterations
#: expects two: the ``PBEKeySpec`` rule ensures ``specced_key`` only
#: when its constraints hold, so the ``SecretKeyFactory`` that needs
#: that predicate is reported as well (CrySL semantics, not an
#: observation of the analyzer).
MUTATIONS: tuple[Mutation, ...] = (
    Mutation("drop-clear-password", frozenset({INCOMPLETE}), _drop_clear_password),
    Mutation("ecb-mode", frozenset({CONSTRAINT}),
             _replace("'AES/GCM/NoPadding'", "'AES/ECB/PKCS5Padding'")),
    Mutation("low-iterations", frozenset({CONSTRAINT, REQUIRED_PREDICATE}),
             _replace(", 10000, ", ", 1000, ")),
    Mutation("constant-salt", frozenset({REQUIRED_PREDICATE}),
             _replace("PBEKeySpec(pwd, salt,", f"PBEKeySpec(pwd, {_CONSTANT_SALT},")),
)


@dataclass
class FunctionSite:
    """One function of a project module and its current edit state."""

    module: str
    qualname: str
    start: int  # 0-based index of the ``def`` line
    end: int  # exclusive
    mutations: tuple[Mutation, ...]  # operators applicable to this function
    mutation: Mutation | None = None
    revision: int = 0


def renamed_reference(reference: str, suffix: str) -> str:
    """Rename the module's two classes (a neutral edit for project copies)."""
    names = [
        node.name
        for node in ast.parse(reference).body
        if isinstance(node, ast.ClassDef)
    ]
    for name in names:
        reference = re.sub(rf"\b{name}\b", f"{name}{suffix}", reference)
    return reference


def _sites(module: str, lines: list[str]) -> list[FunctionSite]:
    sites = []
    for node in ast.parse("\n".join(lines)).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            start, end = item.lineno - 1, item.end_lineno
            body = lines[start:end]
            applicable = tuple(
                m for m in MUTATIONS if any(m.apply(line) for line in body)
            )
            sites.append(
                FunctionSite(module, f"{node.name}.{item.name}", start, end,
                             applicable)
            )
    return sites


def _render_site(lines: list[str], site: FunctionSite) -> None:
    if site.mutation is not None:
        for index in range(site.start, site.end):
            mutated = site.mutation.apply(lines[index])
            if mutated is not None:
                lines[index] = mutated
                break
    if site.revision:
        lines[site.start] += f"  # rev {site.revision}"


@dataclass
class Project:
    """A multi-module project of renamed reference copies plus mutants.

    ``groups`` copies of the 13 references, each copy's classes renamed
    so that every module defines its own names. ``mutant_share`` of the
    functions an operator applies to start mutated.
    """

    seed: int
    groups: int
    mutant_share: float = 0.15
    clean: dict[str, list[str]] = field(default_factory=dict)
    sites: list[FunctionSite] = field(default_factory=list)
    _rendered: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rng = random.Random(f"project:{self.seed}")
        for group in range(self.groups):
            for number, slug in USE_CASES:
                key = f"g{group:02d}/uc{number:02d}_{slug}.py"
                text = renamed_reference(reference_source(number, slug), f"G{group}")
                lines = text.split("\n")
                self.clean[key] = lines
                self.sites.extend(_sites(key, lines))
        for site in self.sites:
            if site.mutations and rng.random() < self.mutant_share:
                site.mutation = rng.choice(site.mutations)
        self._rng = random.Random(f"edits:{self.seed}")
        self._revision = 0
        for key in self.clean:
            self._render(key)

    def _render(self, key: str) -> None:
        lines = list(self.clean[key])
        for site in self.sites:
            if site.module == key:
                _render_site(lines, site)
        self._rendered[key] = "\n".join(lines)

    def sources(self) -> dict[str, str]:
        return dict(self._rendered)

    def expected(self) -> dict[tuple[str, str], frozenset[str]]:
        """``{(module, function): finding kinds}`` for every mutated function;
        every other function is expected to have no finding."""
        return {
            (site.module, site.qualname): site.mutation.expected_kinds
            for site in self.sites
            if site.mutation is not None
        }

    def edit(self) -> str:
        """Edit one seeded function and describe the edit.

        A mutated function is reverted or re-touched; a clean one is
        mutated or re-touched. A touch rewrites the ``def`` line's
        trailing comment, which changes the function's text but not
        its meaning.
        """
        rng = self._rng
        site = rng.choice(self.sites)
        self._revision += 1
        if site.mutation is not None and rng.random() < 0.5:
            kind = f"revert {site.mutation.name}"
            site.mutation = None
        elif site.mutation is None and site.mutations and rng.random() < 0.4:
            site.mutation = rng.choice(site.mutations)
            kind = f"mutate {site.mutation.name}"
        else:
            kind = "touch"
        site.revision = self._revision
        self._render(site.module)
        return f"{kind} {site.module}::{site.qualname}"


def verdict_errors(
    findings: list[tuple[str, str, str]],
    expected: dict[tuple[str, str], frozenset[str]],
) -> list[str]:
    """Compare ``(module, function, kind)`` findings with the expectation:
    each function must carry exactly its expected kinds (none if absent)."""
    found: dict[tuple[str, str], set[str]] = {}
    for module, function, kind in findings:
        found.setdefault((module, function), set()).add(kind)
    errors = []
    for site in sorted(found.keys() | expected.keys()):
        got, want = found.get(site, set()), expected.get(site, frozenset())
        where = f"{site[0]}::{site[1]}"
        if got - want:
            errors.append(f"unexpected {sorted(got - want)} in {where}")
        if want - got:
            errors.append(f"missed {sorted(want - got)} in {where}")
    return errors


def small_project(rng: random.Random, token: str) -> tuple[dict[str, str], dict]:
    """A two-module inline project for serve-mix, sometimes with a mutant."""
    picks = rng.sample(USE_CASES, 2)
    sources: dict[str, str] = {}
    expected: dict[tuple[str, str], frozenset[str]] = {}
    for number, slug in picks:
        key = f"inline/uc{number:02d}_{slug}.py"
        lines = reference_source(number, slug).split("\n")
        sites = _sites(key, lines)
        candidates = [s for s in sites if s.mutations]
        if candidates and rng.random() < 0.5:
            site = rng.choice(candidates)
            site.mutation = rng.choice(site.mutations)
            _render_site(lines, site)
            expected[(key, site.qualname)] = site.mutation.expected_kinds
        lines.append(f"# request {token}")
        sources[key] = "\n".join(lines)
    return sources, expected
