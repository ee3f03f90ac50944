"""The supervised process worker pool: restart, retry, recycle, degrade.

:class:`SupervisedWorkerPool` is the only process pool in the package.
Generation batches and parallel analysis both submit tasks to it; a
:class:`TaskRunner` says what the tasks run against. Workers come from
a forkserver (:func:`pool_mp_context`), rebuild the parent's frozen
rule set once, attach the same disk cache and touch every rule, then
build a generator or project analyzer on their first task of that
kind. Worker death poisons an executor (every future raises
``BrokenProcessPool``); the supervisor absorbs it:

* **Restart with backoff.** The dead executor is discarded and a fresh
  warm pool is built after a bounded, jittered exponential backoff.
* **Bounded retry.** Tasks are idempotent (template paths, source
  text, module components), so the batch is resubmitted whole, up to
  :attr:`SupervisorConfig.max_restarts` times.
* **Stall watchdog.** A batch with no task completion for
  :attr:`SupervisorConfig.stall_timeout_seconds` raises
  :class:`PoolStalledError`; the wedged pool is killed and restarted.
* **Recycle before rot.** The pool is rebuilt at a batch boundary
  after ``--max-tasks-per-worker`` tasks per worker or once a worker's
  peak RSS crosses ``--worker-memory-mb``.
* **Degrade, don't die.** A batch that exhausts the restart budget
  runs the same task function serially in the parent, and the
  supervisor reports ``degraded: true`` until a later batch (or
  :meth:`SupervisedWorkerPool.probe`, the ``health`` op's recovery
  path) brings a healthy pool back.

The state machine, as reported by ``health``/``stats``::

    idle ──first batch──▶ running ──BrokenProcessPool──▶ restarting
      ▲                     ▲  │                            │
      └──── close() ────────┘  └──◀── rebuilt+batch ok ─────┤
                               │                            ▼
                               └──◀── probe()/batch ── degraded
                                        (budget exhausted)
"""

from __future__ import annotations

import multiprocessing
import random
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ContextManager, Sequence

from .. import faults
from ..diagnostics import (
    DISK_EVICTIONS,
    DISK_HITS,
    DISK_MISSES,
    SUPERVISOR_DEGRADED,
    SUPERVISOR_RECYCLES,
    SUPERVISOR_RESTARTS,
    SUPERVISOR_RETRIES,
    Diagnostics,
)
from ..trace import event as trace_event

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..codegen.generator import CrySLBasedCodeGenerator
    from ..crysl.ruleset import RuleSet
    from ..sast.project import ProjectAnalyzer
    from ..sast.summary_cache import SummaryCache

#: Supervisor states (the wire spelling in ``health``/``stats``).
IDLE = "idle"
RUNNING = "running"
DEGRADED = "degraded"

#: Task kind of one analysis component; ``"path"`` and ``"source"``
#: tasks generate one template each.
COMPONENT = "component"


class PoolStalledError(BrokenProcessPool):
    """A batch made no progress within the stall timeout.

    A wedged worker leaves its executor *looking* healthy: the future
    just never resolves. The restart loop handles this like a crash,
    except that the wedged workers are killed, never joined.
    """


@dataclass
class TaskOutcome:
    """One task's result: a generated module, or an analysis
    component's ``(module results, counters)``. ``in_process`` marks
    outcomes produced in the parent, whose diagnostics are already
    recorded there."""

    index: int
    value: object
    failure: object = None
    init_counters: dict | None = None
    #: the producing worker's peak RSS in MiB (0 for in-process runs)
    rss_mb: float = 0.0
    #: True when produced in the parent (supervisor serial fallback)
    in_process: bool = False


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for one supervised pool."""

    #: pool rebuilds allowed per batch before degrading to serial
    max_restarts: int = 5
    #: first backoff before a rebuild, in seconds (doubles per restart)
    backoff_base_seconds: float = 0.05
    #: backoff ceiling, in seconds
    backoff_max_seconds: float = 2.0
    #: jitter fraction: each sleep is scaled by ``1 ± jitter``
    jitter: float = 0.25
    #: recycle the pool after this many tasks per worker (None = never)
    max_tasks_per_worker: int | None = None
    #: recycle when a worker's peak RSS crosses this, in MiB (None = never)
    worker_memory_mb: int | None = None
    #: declare a batch wedged after this long with zero task
    #: completions (None = wait forever); a stalled pool is killed and
    #: restarted exactly like a crashed one
    stall_timeout_seconds: float | None = 300.0


# ---------------------------------------------------------------------------
# what a task runs against (in a worker, or in the parent when degraded)
# ---------------------------------------------------------------------------


class TaskRunner:
    """One frozen rule set plus the generator and analyzer tasks use.

    The parent's runner wraps its own generator or analyzer, supplies
    the workers' :meth:`initargs` and runs tasks when the pool
    degrades; each worker rebuilds one from those initargs. What was
    not supplied is built on the first task that needs it.
    """

    def __init__(
        self,
        ruleset: "RuleSet",
        *,
        max_paths: int | None = None,
        verify: bool = False,
        summary_cache: "SummaryCache | None" = None,
        summary_dir: str | None = None,
        generator: "CrySLBasedCodeGenerator | None" = None,
        analyzer: "ProjectAnalyzer | None" = None,
    ):
        self.ruleset = ruleset
        self.max_paths = max_paths
        self.verify = verify
        self.summary_cache = summary_cache
        if summary_cache is not None and summary_cache.directory is not None:
            summary_dir = str(summary_cache.directory)
        self.summary_dir = summary_dir
        self._generator = generator
        self._analyzer = analyzer

    @classmethod
    def for_generator(
        cls,
        generator: "CrySLBasedCodeGenerator",
        summary_cache: "SummaryCache | None" = None,
    ) -> "TaskRunner":
        return cls(
            generator.ruleset,
            max_paths=generator.context.max_paths,
            verify=generator.verify,
            summary_cache=summary_cache,
            generator=generator,
        )

    @property
    def generator(self) -> "CrySLBasedCodeGenerator":
        if self._generator is None:
            from ..codegen import CrySLBasedCodeGenerator, GenerationContext

            context = GenerationContext(
                ruleset=self.ruleset, max_paths=self.max_paths
            )
            self._generator = CrySLBasedCodeGenerator(
                context=context, verify=self.verify
            )
        return self._generator

    @property
    def analyzer(self) -> "ProjectAnalyzer":
        if self._analyzer is None:
            from ..sast import ProjectAnalyzer
            from ..sast.summary_cache import SummaryCache

            if self.summary_cache is None:
                self.summary_cache = SummaryCache(self.summary_dir)
            self._analyzer = ProjectAnalyzer(
                self.ruleset, summary_cache=self.summary_cache
            )
        return self._analyzer

    def initargs(self) -> tuple:
        """The :func:`_init_worker` arguments that rebuild this runner."""
        ruleset = self.ruleset
        rules_payload = tuple(
            (rule, ruleset.rule_source(rule.class_name)) for rule in ruleset
        )
        cache = ruleset.disk_cache
        # The active fault plan travels explicitly: forkserver workers
        # inherit the environment the server froze at launch, so a plan
        # set in the parent afterwards would be invisible to them.
        plan = faults.active()
        return (
            rules_payload,
            str(cache.directory) if cache is not None else None,
            self.max_paths,
            self.verify,
            self.summary_dir,
            plan.spec_string() if plan.probabilities else None,
        )

    def run(self, index: int, kind: str, payload, name: str) -> tuple:
        """Run one task; returns ``(value, failure)``."""
        if kind == COMPONENT:
            return self.analyzer.analyze_component(payload), None
        from ..codegen.parallel import generate_spec

        return generate_spec(self.generator, index, kind, payload, name)


# ---------------------------------------------------------------------------
# worker-side functions (module-level so the pool can pickle references)
# ---------------------------------------------------------------------------

#: Per-worker state: the runner plus the one-shot warm-start report.
_WORKER: dict = {}


def _init_worker(
    rules_payload: tuple,
    cache_dir: str | None,
    max_paths: int | None,
    verify: bool,
    summary_dir: str | None,
    fault_spec: str | None,
) -> None:
    """Warm-start one worker process (runs once per process)."""
    from ..crysl.ruleset import RuleSet

    faults.configure(fault_spec)
    ruleset = RuleSet()
    for rule, source in rules_payload:
        ruleset.add(rule, source=source)
    ruleset.freeze()
    if cache_dir is not None:
        from ..cache import DiskRuleCache

        ruleset.attach_disk_cache(DiskRuleCache(cache_dir))
        for rule in ruleset:
            ruleset.compiled(rule, max_paths=max_paths)
    stats = ruleset.compile_stats
    _WORKER["runner"] = TaskRunner(
        ruleset, max_paths=max_paths, verify=verify, summary_dir=summary_dir
    )
    _WORKER["init_counters"] = {
        DISK_HITS: stats.disk_hits,
        DISK_MISSES: stats.disk_misses,
        DISK_EVICTIONS: stats.disk_evictions,
    }


def _worker_rss_mb() -> float:
    """This process's peak resident-set size in MiB (0 if unknown)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return 0.0
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _run_task(index: int, kind: str, payload, name: str) -> tuple:
    """Run one task in this worker.

    The ``worker_crash`` and ``slow_task`` fault points fire only here,
    never in the parent's serial fallback. The warm-start counters ride
    on the worker's first outcome.
    """
    faults.maybe_crash("worker_crash")
    faults.maybe_sleep("slow_task")
    value, failure = _WORKER["runner"].run(index, kind, payload, name)
    init_counters = _WORKER.pop("init_counters", None)
    return index, value, failure, init_counters, _worker_rss_mb()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

#: Imported into the forkserver before the first worker forks, so every
#: worker inherits a warm interpreter instead of paying the import
#: chain itself. Import failures here are ignored by multiprocessing;
#: workers then import on demand.
_FORKSERVER_PRELOAD = ["repro.engine.supervisor"]

_MP_CONTEXT: "multiprocessing.context.BaseContext | None" = None


def pool_mp_context() -> "multiprocessing.context.BaseContext":
    """The multiprocessing context of every process pool.

    The POSIX default start method is ``fork``, and the serve daemon is
    heavily multithreaded: forking a multithreaded parent clones every
    lock in whatever state some *other* thread happened to hold it, so
    a worker can deadlock before it ever picks up a task — and the
    executor then waits on its future forever (observed intermittently
    under the chaos harness). ``forkserver`` forks workers from a
    clean, single-threaded server process instead; ``spawn`` is the
    fallback where forkserver is unavailable. Benign race: two threads
    may build the context concurrently, but the contexts are identical
    and the extra one is dropped.
    """
    global _MP_CONTEXT
    if _MP_CONTEXT is None:
        try:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload(_FORKSERVER_PRELOAD)
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context("spawn")
        _MP_CONTEXT = context
    return _MP_CONTEXT


def run_specs_on_executor(
    executor,
    specs: "Sequence[tuple]",
    *,
    stall_timeout: float | None = None,
) -> list[TaskOutcome]:
    """Submit one batch of ``(kind, payload, name)`` specs; collect the
    outcomes in submission order.

    Propagates ``BrokenProcessPool`` (and any other executor-level
    failure) to the caller — per-template *pipeline* errors are already
    folded into each :class:`TaskOutcome` by the worker.

    With ``stall_timeout``, a progress watchdog runs over the batch:
    the clock resets on every task completion, and if it ever expires
    with tasks still pending the batch raises :class:`PoolStalledError`
    instead of waiting forever on a wedged worker.
    """
    futures = [
        executor.submit(_run_task, index, kind, payload, name)
        for index, (kind, payload, name) in enumerate(specs)
    ]
    if stall_timeout is not None:
        pending = set(futures)
        while pending:
            done, pending = futures_wait(
                pending, timeout=stall_timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                for future in pending:
                    future.cancel()
                raise PoolStalledError(
                    f"no task completed within {stall_timeout:.0f}s; "
                    f"{len(pending)} of {len(specs)} still pending — "
                    "pool presumed wedged"
                )
    return [TaskOutcome(*future.result()) for future in futures]


#: Lends one batch a pool of at least the given size, as a context
#: manager (a resident pool under its owner's lock, or a short-lived one).
PoolLease = Callable[[int], ContextManager["SupervisedWorkerPool"]]


def run_specs(
    runner: TaskRunner,
    specs: "Sequence[tuple]",
    jobs: int = 1,
    *,
    pool: PoolLease | None = None,
    diagnostics: Diagnostics | None = None,
) -> list[TaskOutcome]:
    """Run one batch: the one place that decides where batches run.

    With ``jobs < 2`` or fewer than two specs the batch runs in this
    process (also the degraded fallback) and ``pool`` is never called,
    so owners pay their lock and pool (re)build only for batches that
    fan out. Otherwise ``pool`` lends ``min(jobs, len(specs))`` workers,
    or a short-lived pool of that size runs the batch and is closed.
    """
    if jobs < 2 or len(specs) < 2:
        return [
            TaskOutcome(i, *runner.run(i, *spec), in_process=True)
            for i, spec in enumerate(specs)
        ]
    if pool is None:

        def pool(workers: int) -> "SupervisedWorkerPool":
            return SupervisedWorkerPool(runner, workers, diagnostics=diagnostics)

    with pool(min(jobs, len(specs))) as live:
        return live.run_tasks(specs)


class SupervisedWorkerPool:
    """A warm process pool wrapped in the restart/retry/degrade loop.

    The executor starts on the first batch and stays up across
    batches, so worker warm-up is paid per process, not per request.
    It is bound to one :class:`TaskRunner` configuration: owners close
    it and build a new one when that changes (a rule refresh). Owners
    serialize batches; state is locked anyway so ``health`` snapshots
    never read torn state.
    """

    def __init__(
        self,
        runner: TaskRunner,
        jobs: int,
        *,
        config: SupervisorConfig | None = None,
        diagnostics: Diagnostics | None = None,
    ):
        self._runner = runner
        self.jobs = jobs
        self.config = config or SupervisorConfig()
        self.diagnostics = diagnostics
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._rng = random.Random()
        #: tasks executed through the current pool incarnation
        self._tasks_since_spawn = 0
        #: peak worker RSS reported by the current incarnation, MiB
        self._max_rss_mb = 0.0
        self._degraded = False
        self._started = False
        # lifetime counters (survive pool rebuilds)
        self.restarts = 0
        self.retries = 0
        self.recycles = 0
        self.degraded_batches = 0
        self.batches = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    def _state(self) -> str:
        if self._degraded:
            return DEGRADED
        return RUNNING if self._started else IDLE

    @property
    def state(self) -> str:
        with self._lock:
            return self._state()

    def to_dict(self) -> dict:
        """A JSON snapshot for ``health``/``stats``."""
        with self._lock:
            return {
                "state": self._state(),
                "degraded": self._degraded,
                "jobs": self.jobs,
                "batches": self.batches,
                "restarts": self.restarts,
                "retries": self.retries,
                "recycles": self.recycles,
                "degraded_batches": self.degraded_batches,
                "tasks_since_spawn": self._tasks_since_spawn,
                "max_worker_rss_mb": round(self._max_rss_mb, 1),
                "max_restarts": self.config.max_restarts,
                "max_tasks_per_worker": self.config.max_tasks_per_worker,
                "worker_memory_mb": self.config.worker_memory_mb,
                "stall_timeout_seconds": self.config.stall_timeout_seconds,
            }

    def _count(self, key: str) -> None:
        if self.diagnostics is not None:
            self.diagnostics.count(key)

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_worker,
                    initargs=self._runner.initargs(),
                    mp_context=pool_mp_context(),
                )
                self._tasks_since_spawn = 0
                self._max_rss_mb = 0.0
            self._started = True
            return self._executor

    def _discard_pool(self, *, force: bool = False) -> None:
        """Drop the current executor.

        ``force`` SIGKILLs the workers and never waits — required for a
        *stalled* pool, whose workers never exit and would hang a
        joining shutdown forever.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        try:
            if force:
                processes = getattr(executor, "_processes", None) or {}
                for process in list(processes.values()):
                    try:
                        process.kill()
                    except Exception:  # noqa: BLE001 - racing a dying process
                        pass
                executor.shutdown(wait=False, cancel_futures=True)
            else:
                executor.shutdown(wait=True)
        except Exception:  # noqa: BLE001 - broken pools die loudly
            pass

    def _backoff(self, attempt: int) -> float:
        """The bounded, jittered sleep before rebuild ``attempt``."""
        base = min(
            self.config.backoff_base_seconds * (2**attempt),
            self.config.backoff_max_seconds,
        )
        spread = self.config.jitter * base
        return max(0.0, base + self._rng.uniform(-spread, spread))

    def probe(self) -> bool:
        """Try to leave degraded mode by rebuilding the pool once.

        The ``health`` op's half-open path: a degraded supervisor gets
        one cheap recovery attempt per probe instead of waiting for the
        next batch. Returns True when the supervisor is healthy after
        the call.
        """
        if not self.degraded:
            return True
        self._discard_pool()
        try:
            self._ensure_pool()
        except Exception:  # noqa: BLE001 - stay degraded on any failure
            return False
        with self._lock:
            self._degraded = False
        trace_event("supervisor:recovered", via="probe")
        return True

    def close(self) -> None:
        """Shut the underlying pool down; idempotent."""
        self._discard_pool()
        with self._lock:
            self._started = False

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the supervised batch
    # ------------------------------------------------------------------

    def run_tasks(self, specs: "Sequence[tuple]") -> list[TaskOutcome]:
        """Run one batch to completion, whatever the workers do.

        Never raises ``BrokenProcessPool``: a crash or stall mid-batch
        rebuilds the pool (bounded backoff + jitter) and resubmits the
        whole batch — tasks are idempotent — up to the restart budget,
        after which the batch runs serially in-process and the
        supervisor is marked degraded. A later successful pool batch
        clears the flag.
        """
        with self._lock:
            self.batches += 1
        attempt = 0
        while True:
            if self._recycle_due():
                self._recycle()
            try:
                outcomes = run_specs_on_executor(
                    self._ensure_pool(),
                    specs,
                    stall_timeout=self.config.stall_timeout_seconds,
                )
            except BrokenProcessPool as exc:
                # A stalled pool still has live (wedged) workers, so it
                # must be killed; a broken one can be closed normally.
                self._discard_pool(force=isinstance(exc, PoolStalledError))
                with self._lock:
                    self.restarts += 1
                self._count(SUPERVISOR_RESTARTS)
                trace_event(
                    "supervisor:restart", attempt=attempt, batch=len(specs)
                )
                if attempt >= self.config.max_restarts:
                    return self._run_degraded(specs)
                time.sleep(self._backoff(attempt))
                attempt += 1
                with self._lock:
                    self.retries += 1
                self._count(SUPERVISOR_RETRIES)
                continue
            self._note_batch(outcomes)
            return outcomes

    def _run_degraded(self, specs: "Sequence[tuple]") -> list[TaskOutcome]:
        with self._lock:
            self._degraded = True
            self.degraded_batches += 1
        self._count(SUPERVISOR_DEGRADED)
        trace_event("supervisor:degraded", batch=len(specs))
        return run_specs(self._runner, specs)

    def _note_batch(self, outcomes: list[TaskOutcome]) -> None:
        """Successful pool batch: account for recycling, clear degrade."""
        with self._lock:
            self._tasks_since_spawn += len(outcomes)
            for outcome in outcomes:
                if outcome.rss_mb > self._max_rss_mb:
                    self._max_rss_mb = outcome.rss_mb
            recovered = self._degraded
            self._degraded = False
        if recovered:
            trace_event("supervisor:recovered", via="batch")

    def _recycle_due(self) -> bool:
        with self._lock:
            if self._executor is None:
                return False
            per_worker = self.config.max_tasks_per_worker
            if (
                per_worker is not None
                and self._tasks_since_spawn >= per_worker * self.jobs
            ):
                return True
            ceiling = self.config.worker_memory_mb
            return ceiling is not None and self._max_rss_mb >= ceiling

    def _recycle(self) -> None:
        """Planned pool rebuild at a batch boundary (not a failure)."""
        self._discard_pool()
        with self._lock:
            self.recycles += 1
        self._count(SUPERVISOR_RECYCLES)
        trace_event("supervisor:recycle")

    def __repr__(self) -> str:
        return (
            f"<SupervisedWorkerPool jobs={self.jobs} state={self.state} "
            f"restarts={self.restarts}>"
        )
