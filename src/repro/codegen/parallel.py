"""Batch generation: many templates, one result list, one fold.

``CrySLBasedCodeGenerator.generate_many`` routes through
:func:`run_batch`, which hands the batch to
:func:`~repro.engine.supervisor.run_specs`: over a
:class:`~repro.engine.supervisor.SupervisedWorkerPool` with
``jobs > 1``, in the calling process with ``jobs=1``. Task payloads are
template paths or source text, never parsed models. The guarantees, in
order:

* **Deterministic ordering.** Results land at their submission index
  regardless of completion order; ``jobs=4`` returns byte-identical
  modules in the same order as ``jobs=1``.
* **Per-template error isolation.** A template that fails with a
  recoverable pipeline error (:class:`GenerationError`,
  :class:`~repro.crysl.CrySLError`, :class:`TemplateError`, ``OSError``)
  becomes a structured :class:`TemplateFailure`; the other templates
  still generate, and the batch raises one
  :class:`BatchGenerationError` carrying both the failures and the
  successful modules. Unexpected exceptions still propagate.
* **Merged diagnostics.** The parent merges the run records of
  worker-produced modules — plus each worker's one-time warm-start
  counters — into its cumulative ``context.diagnostics``, so
  ``--stats`` totals stay accurate in parallel runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .selector import GenerationError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..engine.supervisor import PoolLease
    from .generator import CrySLBasedCodeGenerator, GeneratedModule
    from .template import TemplateModel

#: Environment variable consulted when ``jobs`` is not passed explicitly.
JOBS_ENV = "REPRO_JOBS"


@dataclass(frozen=True)
class TemplateFailure:
    """One template that failed to generate (the batch carried on)."""

    index: int
    template: str
    error_type: str
    message: str

    def __str__(self) -> str:
        return f"{self.template}: [{self.error_type}] {self.message}"


class BatchGenerationError(GenerationError):
    """One or more templates of a batch failed; the rest generated.

    ``modules`` is the full, order-preserving result list with ``None``
    at each failed index; ``failures`` describes the failed ones.
    """

    def __init__(
        self,
        failures: list[TemplateFailure],
        modules: "list[GeneratedModule | None]",
    ):
        self.failures = failures
        self.modules = modules
        summary = "; ".join(str(f) for f in failures)
        super().__init__(
            f"{len(failures)} of {len(modules)} templates failed: {summary}"
        )


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: explicit arg, else ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be a positive integer, got {raw!r}"
            ) from None
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def task_spec(model: "TemplateModel | str | Path") -> tuple[str, str, str]:
    """Normalize one batch item to a picklable ``(kind, payload, name)``."""
    if isinstance(model, (str, Path)):
        return ("path", str(model), str(model))
    return ("source", model.source, model.path)


def _recoverable_errors() -> tuple:
    """Error types a task converts into a :class:`TemplateFailure`
    (mirrors the CLI's per-template error handling)."""
    from ..crysl import CrySLError
    from .template import TemplateError

    return (GenerationError, CrySLError, TemplateError, OSError)


def generate_spec(
    generator: "CrySLBasedCodeGenerator",
    index: int,
    kind: str,
    payload: str,
    name: str,
) -> "tuple[GeneratedModule | None, TemplateFailure | None]":
    """Generate one ``(kind, payload, name)`` spec; recoverable pipeline
    errors come back as a failure instead of raising."""
    try:
        if kind == "path":
            return generator.generate_from_file(payload), None
        return generator.generate_from_source(payload, name), None
    except _recoverable_errors() as exc:
        return None, TemplateFailure(index, name, type(exc).__name__, str(exc))


def run_batch(
    generator: "CrySLBasedCodeGenerator",
    models: "Iterable[TemplateModel | str | Path]",
    jobs: int = 1,
    pool: "PoolLease | None" = None,
) -> "list[GeneratedModule]":
    """Generate a batch on up to ``jobs`` worker processes.

    ``pool`` lends a resident pool built over the *same* generator
    configuration; without one, a fanned-out batch starts a short-lived
    pool. See the module docstring for the guarantees. The parent
    context's cumulative diagnostics absorb every worker-produced
    module's run record plus each worker's warm-start counters;
    ``context.runs`` advances by the number of successful modules
    either way.
    """
    from ..engine.supervisor import TaskRunner, run_specs

    context = generator.context
    specs = [task_spec(model) for model in models]
    if not specs:
        return []
    outcomes = run_specs(
        TaskRunner.for_generator(generator),
        specs,
        jobs,
        pool=pool,
        diagnostics=context.diagnostics,
    )
    modules: "list[GeneratedModule | None]" = [None] * len(specs)
    failures: list[TemplateFailure] = []
    for outcome in outcomes:
        if outcome.init_counters:
            for key, amount in outcome.init_counters.items():
                context.diagnostics.count(key, amount)
        if outcome.failure is not None:
            failures.append(outcome.failure)
            continue
        modules[outcome.index] = outcome.value
        if not outcome.in_process:
            # Worker contexts are private; fold their record in.
            # In-process outcomes already recorded into `context`.
            context.diagnostics.merge(outcome.value.diagnostics)
            context.runs += 1
    if failures:
        raise BatchGenerationError(failures, modules)
    return [module for module in modules if module is not None]
