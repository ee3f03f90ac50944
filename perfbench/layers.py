"""Timing spans around the public entry points of each layer.

The benchmark installs these wrappers itself (nothing in the program
changes) and only in a traced run. Each wrapper pushes a span on a
per-thread stack; when the span ends, its duration minus the time its
child spans covered is the layer's *self* time, so the layer times of
one request add up to the request's wall time without double counting.
The engine's request entry points are the root spans: a root's self
time is the part of a request that no wrapped layer covers.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

#: Root layer: the engine's request entry points.
ROOT = "engine"

#: (module, attribute path, layer). Module-level functions are patched
#: in the module that *calls* them, because callers bind them by name
#: at import time.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.core", "CryptoGenEngine.generate", ROOT),
    ("repro.engine.core", "CryptoGenEngine.analyze", ROOT),
    ("repro.engine.core", "CryptoGenEngine.generate_many", ROOT),
    ("repro.crysl.ruleset", "RuleSet.bundled", "crysl.parse"),
    ("repro.crysl.ruleset", "parse_rule", "crysl.parse"),
    ("repro.crysl.repository", "parse_rule", "crysl.parse"),
    ("repro.fsm.build", "rule_dfa", "crysl.compile"),
    ("repro.fsm.paths", "enumerate_paths", "crysl.compile"),
    ("repro.codegen.generator", "parse_template_source", "collect"),
    ("repro.codegen.fluent", "GenerationRequest.to_instances", "collect"),
    ("repro.codegen.generator", "compute_links", "link"),
    ("repro.codegen.generator", "select", "resolve"),
    ("repro.codegen.selector", "candidate_paths", "select"),
    ("repro.codegen.selector", "enumerate_paths", "select"),
    ("repro.constraints.evaluate", "ConstraintEvaluator.evaluate_all", "constraints"),
    ("repro.constraints.solver", "ValueDeriver.derive", "constraints"),
    ("repro.codegen.emitter", "ChainEmitter.emit", "emit"),
    ("repro.codegen.generator", "GeneratedModule.compile_check", "emit"),
    ("repro.sast.project", "lift_module", "sast.lift"),
    ("repro.sast.callgraph", "CallGraph.build", "sast.callgraph"),
    ("repro.sast.project", "compute_summary_keys", "sast.keys"),
    ("repro.sast.analysis", "CrySLAnalyzer.analyze_ir", "sast.typestate"),
    ("repro.sast.summary_cache", "SummaryCache.load", "sast.cache"),
    ("repro.sast.summary_cache", "SummaryCache.store", "sast.cache"),
    ("repro.engine.supervisor", "SupervisedWorkerPool.run_tasks", "pool.batch"),
)


class Tracer:
    """Span bookkeeping: per-layer self time, call counts and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ------------------------------------------------

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "stack": [],
                "self_s": defaultdict(float),
                "total_s": defaultdict(float),
                "calls": defaultdict(int),
                "counts": defaultdict(int),
            }
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def snapshot(self) -> dict:
        """Totals over every thread so far (take deltas between two)."""
        out = {"self_s": defaultdict(float), "total_s": defaultdict(float),
               "calls": defaultdict(int), "counts": defaultdict(int)}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key in out:
                for name, value in list(state[key].items()):
                    out[key][name] += value
        return {key: dict(values) for key, values in out.items()}

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer: str, *, transparent=None, count=None):
        """A span around ``fn``.

        ``transparent(frame)`` may decide after the call (from the
        call's arguments, ``frame[1]``) that it was not the layer's work
        (a compiled-rule cache hit); its time then stays with the
        enclosing span. ``count(result)`` adds to the layer's counter.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state["stack"]
            frame = [0.0, args]
            stack.append(frame)
            started = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                name = layer
                if transparent is not None and transparent(frame):
                    if stack:
                        stack[-1][0] += frame[0]
                else:
                    state["self_s"][name] += elapsed - frame[0]
                    if not stack:
                        state["total_s"][name] += elapsed
                    state["calls"][name] += 1
                    if stack:
                        stack[-1][0] += elapsed
                if count is not None and result is not None:
                    state["counts"][name] += count(result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attribute: str, wrapper) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def install(self) -> "Tracer":
        for module_name, path, layer in SPANS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            target = owner.__dict__[attribute]
            if isinstance(target, classmethod):
                target = target.__func__
            count = len if layer == "link" else None
            self._patch(owner, attribute, self._wrap(target, layer, count=count))
        self._install_compiled_lookup()
        return self

    def _install_compiled_lookup(self) -> None:
        """``RuleSet.compiled``: every call is a lookup; only the calls
        that miss (``compile_stats.misses`` moves) are compile time."""
        from repro.crysl.ruleset import RuleSet

        original = RuleSet.__dict__["compiled"]
        tracer = self

        def compiled(ruleset, *args, **kwargs):
            state = tracer._state()
            state["counts"]["crysl.compiled_lookups"] += 1
            misses = ruleset.compile_stats.misses
            return inner(ruleset, misses, *args, **kwargs)

        def hit(frame) -> bool:
            ruleset, misses = frame[1][0], frame[1][1]
            return ruleset.compile_stats.misses == misses

        def call(ruleset, _misses, *args, **kwargs):
            return original(ruleset, *args, **kwargs)

        inner = self._wrap(call, "crysl.compile", transparent=hit)
        self._patch(RuleSet, "compiled", compiled)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def layer_metrics(before: dict, after: dict, requests: int) -> dict[str, float]:
    """Per-request layer self times (ms) and counts between two snapshots,
    plus ``unattributed_frac``: the root's self share of its total time."""

    def delta(kind: str, name: str) -> float:
        return after[kind].get(name, 0.0) - before[kind].get(name, 0.0)

    per = max(requests, 1)
    ms = {name: delta("self_s", name) * 1000.0 / per for name in (
        "collect", "link", "emit", "select", "resolve", "constraints",
        "sast.lift", "sast.callgraph", "sast.keys", "sast.typestate",
        "sast.cache")}
    root_total = delta("total_s", ROOT)
    batches = delta("calls", "pool.batch")
    return {
        "crysl.compiled_lookups": delta("counts", "crysl.compiled_lookups") / per,
        "collect.ms": ms["collect"],
        "link.ms": ms["link"],
        "link.links": delta("counts", "link") / per,
        "emit.ms": ms["emit"],
        "select.ms": ms["select"],
        "resolve.ms": ms["resolve"],
        "constraints.ms": ms["constraints"],
        "constraints.calls": delta("calls", "constraints") / per,
        "sast.lift_ms": ms["sast.lift"],
        "sast.callgraph_ms": ms["sast.callgraph"],
        "sast.keys_ms": ms["sast.keys"],
        "sast.typestate_ms": ms["sast.typestate"],
        "sast.cache_ms": ms["sast.cache"],
        "pool.batch_ms": (
            delta("self_s", "pool.batch") * 1000.0 / batches if batches else 0.0
        ),
        "unattributed_frac": (
            delta("self_s", ROOT) / root_total if root_total > 0 else 0.0
        ),
    }


def setup_metrics(snapshot: dict) -> dict[str, float]:
    """Process totals of the set-up layers (parse and compile), ms."""
    return {
        "crysl.parse_ms": snapshot["self_s"].get("crysl.parse", 0.0) * 1000.0,
        "crysl.compile_ms": snapshot["self_s"].get("crysl.compile", 0.0) * 1000.0,
    }
