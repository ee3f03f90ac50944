"""Run one benchmark workload in this (fresh) interpreter.

    python perfbench/worker.py --workload gen-miss --seed 1 --seconds 25 --mode run

``--mode setup`` stops after warm-up; ``run`` measures for ``--seconds``;
``trace`` alternates blocks of untraced requests with the same requests
sent to a second engine with the layer spans of :mod:`layers` installed,
until the untraced ones have run for half the time (serve-mix measures
half the time untraced, then replays the same requests to a fresh
daemon with the spans installed).
In-process times are scaled to a nominal host speed (``REFERENCE_MS``).
The last stdout line is one JSON object with the figures; ``run.py``
turns them into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from layers import Tracer, layer_metrics, setup_metrics  # noqa: E402

#: Project copies of the 13 references in ``analyze-edit``: 52 modules
#: and 192 functions, four times the size of one copy.
PROJECT_GROUPS = 4

#: Set-ups timed per end-to-end run; their median is ``setup_s``.
SETUP_SAMPLES = 5

#: analyze-edit requests between two timings of the reference loop
#: (gen-miss times it after every round of 13); a traced run alternates
#: untraced and traced blocks of this size.
ANALYZE_BLOCK = 8

#: serve-mix request kinds and their weights, per client connection:
#: an editor-like client asking for code it has seen before, and a
#: CI-like client bringing new templates, analyses and batches. No
#: traffic record of the daemon exists to take the shares from; they
#: follow the workload's qualitative definition (mostly generate hits
#: and misses, some inline analyses, occasional batches, rare control
#: ops), with the hits on their own connection so that every hit
#: queues behind heavy work. The loops are closed, so the shares that
#: actually run also depend on the program's speed: each run reports
#: them (``mix.*_rps`` in traced runs, the per-kind counts on stderr).
SERVE_MIX = (
    (("hit", 97), ("control", 3)),
    (("miss", 75), ("analyze", 20), ("batch", 5)),
)

#: Pause of the editor-like client between a reply and its next request
#: (chosen, not measured). Without it the client floods the daemon
#: whenever the heavy client leaves the interpreter lock free, and how
#: often that happens, not the daemon's speed, would decide the hit
#: latency percentiles.
EDITOR_THINK_SECONDS = 0.005

#: Heavy-client requests built per second of a serve-mix timed phase.
#: The heavy client completes about 20 a second on a shared 2-vCPU VM,
#: so this leaves 15 times headroom for a faster program. Running out
#: before the deadline stops the run with an error rather than letting
#: the hit client run alone.
HEAVY_RATE = 300


#: Nominal time of the reference loop, milliseconds. A shared host can
#: change speed by up to 1.7x for tens of seconds at a time (seen on a
#: shared 2-vCPU VM, where process CPU time moved with wall time), and a
#: run cannot average such spells out. Every in-process time the benchmark reports
#: is therefore scaled by this over the reference loop's time measured
#: next to it: figures read as milliseconds on a host where the loop
#: takes this long. The loop never touches the program, so a change to
#: the program moves the scaled figures exactly as it moves the raw ones.
REFERENCE_MS = 4.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _reference_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(20000):
        key = i & 255
        total += table.get(key, 0) + i * i % 7
        table[key] = total & 1023
    return total


def host_scale() -> float:
    """``REFERENCE_MS`` over the best of three timings of the reference
    loop: the factor that takes a time measured now to the nominal host.

    The collector is off while it runs, so the program's heap cannot
    slow the loop down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_MS / (best * 1000.0)


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


class Recorder:
    """Latencies, correctness and per-label samples of one timed phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.correct: list[bool] = []
        self.failed = 0
        self.errors: list[str] = []
        #: Unscaled seconds inside the engine: a run's time budget.
        self.busy = 0.0
        self._unscaled = 0

    def add(self, seconds: float, errors: list[str], label: str = "") -> None:
        self.latencies.append(seconds)
        self.labels.append(label)
        self.correct.append(not errors)
        self.busy += seconds
        if errors:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.extend(errors[:2])

    def scale_block(self, factor: float) -> None:
        """Scale the latencies added since the last call by ``factor``."""
        for index in range(self._unscaled, len(self.latencies)):
            self.latencies[index] *= factor
        self._unscaled = len(self.latencies)

    def by_label(self) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {}
        for label, seconds in zip(self.labels, self.latencies):
            if label:
                samples.setdefault(label, []).append(seconds)
        return dict(sorted(samples.items()))

    def summary(self, wall: float | None = None) -> dict:
        """Latency percentiles and throughput of the whole phase.

        Throughput is correct completions per second of ``wall``
        (serve-mix: concurrent clients) or, for one in-process client,
        of the (scaled) time spent inside the engine.
        """
        ms = [s * 1000.0 for s in self.latencies]
        return {
            "attempted": len(ms),
            "failed": self.failed,
            "errors": self.errors,
            "p50_ms": percentile(ms, 50),
            "p90_ms": percentile(ms, 90),
            "throughput_rps": sum(self.correct) / (
                wall if wall is not None else sum(self.latencies)
            ),
            "by_label": {
                label: [len(samples), percentile([s * 1000.0 for s in samples], 50),
                        percentile([s * 1000.0 for s in samples], 90)]
                for label, samples in self.by_label().items()
            },
        }


def scaled_times(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Layer metrics with their times (names ending in ``ms``) scaled to
    the nominal host by ``factor``; counts and shares unchanged."""
    return {
        name: value * factor if name.endswith("ms") else value
        for name, value in metrics.items()
    }


def run_steps(step, block: int, *, seconds=None, count=None) -> Recorder:
    """Call ``step(recorder)`` in blocks of ``block`` requests until
    ``seconds`` inside the engine or ``count`` requests.

    The reference loop runs between blocks; each block's latencies are
    scaled by the mean of the factors measured before and after it.
    """
    recorder = Recorder()
    before = host_scale()
    while ((seconds is None or recorder.busy < seconds)
           and (count is None or len(recorder.latencies) < count)):
        for _ in range(block):
            step(recorder)
        after = host_scale()
        recorder.scale_block((before + after) / 2)
        before = after
    return recorder


def interleaved(tracer: Tracer, plain_step, traced_step, seconds: float,
                block: int) -> tuple[Recorder, Recorder]:
    """Alternate blocks of untraced and traced requests until the
    untraced ones have spent ``seconds`` inside the engine.

    Both sides get the same requests, each on its own engine, and every
    block is scaled to the nominal host like those of :func:`run_steps`,
    so the ratio of their times is the tracing overhead. Returns with
    the spans installed.
    """
    plain, traced = Recorder(), Recorder()
    before = host_scale()
    while plain.busy < seconds:
        for recorder, step, install in ((plain, plain_step, False),
                                        (traced, traced_step, True)):
            if install:
                tracer.install()
            else:
                tracer.uninstall()
            for _ in range(block):
                step(recorder)
            after = host_scale()
            recorder.scale_block((before + after) / 2)
            before = after
    return plain, traced


# ---------------------------------------------------------------------------
# gen-miss
# ---------------------------------------------------------------------------


def _generate(engine, item) -> tuple[float, list[str], object]:
    from repro.engine.core import GenerateRequest

    expected = item.expected()
    started = time.perf_counter()
    result = engine.generate(GenerateRequest(source=item.source, name=item.slug))
    elapsed = time.perf_counter() - started
    if not result.ok:
        return elapsed, [f"uc{item.number:02d}: {result.error}"], result
    if result.module.source != expected:
        return elapsed, [f"uc{item.number:02d}: output differs from reference"], result
    return elapsed, [], result


def gen_step(engine, items, counters: dict | None = None):
    """One generate request per call, the next of ``items``."""

    def step(recorder: Recorder) -> None:
        item = next(items)
        elapsed, errors, result = _generate(engine, item)
        recorder.add(elapsed, errors, f"gen.uc{item.number:02d}.ms")
        if counters is not None and result.module is not None:
            report = result.module.report_dict()["diagnostics"]["counters"]
            for name, value in report.items():
                counters[name] = counters.get(name, 0) + value

    return step


def gen_miss(args, tracer: Tracer | None) -> dict:
    from repro.engine.core import CryptoGenEngine

    engine = CryptoGenEngine()
    rounds = len(inputs.USE_CASES)
    warm = run_steps(gen_step(engine, inputs.gen_sequence(args.seed, "w")), rounds,
                     count=rounds)
    if warm.failed:
        raise SystemExit(f"warm-up output wrong: {warm.errors}")
    out = {"setup_done": now(), "setup_scale": host_scale()}
    if args.mode == "setup":
        return out
    if tracer is None:
        phase = run_steps(gen_step(engine, inputs.gen_sequence(args.seed)), rounds,
                          seconds=args.seconds)
        out.update(phase.summary())
        return _finish(out, engine)
    out["layers"] = scaled_times(setup_metrics(tracer.snapshot()), out["setup_scale"])
    fresh = CryptoGenEngine()
    counters: dict[str, int] = {}
    before = tracer.snapshot()
    plain, traced = interleaved(
        tracer,
        gen_step(engine, inputs.gen_sequence(args.seed)),
        gen_step(fresh, inputs.gen_sequence(args.seed), counters),
        args.seconds / 2, rounds,
    )
    n = len(traced.latencies)
    out["layers"].update(scaled_times(layer_metrics(before, tracer.snapshot(), n),
                                      sum(traced.latencies) / traced.busy))
    combos = counters.get("combos.evaluated", 0)
    out["layers"].update({
        "resolve.combos": combos / n,
        "resolve.useful_ratio": counters.get("chains", 0) / combos if combos else 0.0,
        "emit.statements": counters.get("statements.emitted", 0) / n,
        "engine.result_cache.hit_ratio": _hit_ratio(fresh),
        "engine.breaker.fast_fails": fresh.diagnostics.counters.get("breaker.fast_fails", 0),
        "trace.overhead_frac": sum(traced.latencies) / sum(plain.latencies) - 1.0,
    })
    for label, samples in plain.by_label().items():
        out["layers"][label] = statistics.median(samples) * 1000.0
    _merge_phases(out, plain, traced)
    return _finish(out, fresh)


def _hit_ratio(engine) -> float:
    cache = engine.result_cache.to_dict()
    lookups = cache["hits"] + cache["misses"]
    return cache["hits"] / lookups if lookups else 0.0


def _merge_phases(out: dict, plain: Recorder, traced: Recorder) -> None:
    """Both phases of a traced run are checked; report their failures."""
    out["attempted"] = len(plain.latencies) + len(traced.latencies)
    out["failed"] = plain.failed + traced.failed
    out["errors"] = (plain.errors + traced.errors)[:5]


def _finish(out: dict, engine) -> dict:
    stats = engine.ruleset.compile_stats
    out["compile_stats"] = {
        "cache.disk_hits": stats.disk_hits,
        "cache.disk_misses": stats.disk_misses,
        "fsm.dfa_builds": stats.dfa_builds,
        "fsm.path_enumerations": stats.path_enumerations,
    }
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


# ---------------------------------------------------------------------------
# analyze-edit
# ---------------------------------------------------------------------------


def _findings(analysis) -> list[tuple[str, str, str]]:
    return [(f.file, f.function, f.kind.value) for f in analysis.findings]


def _analyze(engine, project) -> tuple[float, list[str], object]:
    from repro.engine.core import AnalyzeRequest

    sources, expected = project.sources(), project.expected()
    started = time.perf_counter()
    result = engine.analyze(AnalyzeRequest(sources=sources))
    elapsed = time.perf_counter() - started
    if not result.ok:
        return elapsed, [str(result.error)], result
    return elapsed, inputs.verdict_errors(_findings(result.analysis), expected), result


def analyze_step(engine, project, counters: dict | None = None):
    """One edit of ``project`` and one whole-project analysis per call."""

    def step(recorder: Recorder) -> None:
        edit = project.edit()
        elapsed, errors, result = _analyze(engine, project)
        recorder.add(elapsed, [f"{edit}: {e}" for e in errors])
        if counters is not None and result.analysis is not None:
            counters["functions"] += result.analysis.total_functions
            counters["reanalyzed"] += result.reanalyzed_functions
            counters["hits"] += result.analysis.summary_cache_hits

    return step


def _project_engine(seed: int):
    from repro.engine.core import CryptoGenEngine

    engine = CryptoGenEngine()
    project = inputs.Project(seed=seed, groups=PROJECT_GROUPS)
    _, errors, _ = _analyze(engine, project)
    if errors:
        raise SystemExit(f"first analysis verdict wrong: {errors[:3]}")
    return engine, project


def analyze_edit(args, tracer: Tracer | None) -> dict:
    engine, project = _project_engine(args.seed)
    out = {"setup_done": now(), "setup_scale": host_scale()}
    if args.mode == "setup":
        return out
    if tracer is None:
        phase = run_steps(analyze_step(engine, project), ANALYZE_BLOCK,
                          seconds=args.seconds)
        out.update(phase.summary())
        return _finish(out, engine)
    out["layers"] = scaled_times(setup_metrics(tracer.snapshot()), out["setup_scale"])
    fresh, fresh_project = _project_engine(args.seed)
    counters = {"functions": 0, "reanalyzed": 0, "hits": 0}
    before = tracer.snapshot()
    plain, traced = interleaved(
        tracer,
        analyze_step(engine, project),
        analyze_step(fresh, fresh_project, counters),
        args.seconds / 2, ANALYZE_BLOCK,
    )
    n = len(traced.latencies)
    out["layers"].update(scaled_times(layer_metrics(before, tracer.snapshot(), n),
                                      sum(traced.latencies) / traced.busy))
    out["layers"].update({
        "sast.functions": counters["functions"] / n,
        "sast.reanalyzed": counters["reanalyzed"] / n,
        "sast.summary_hit_ratio": counters["hits"] / counters["functions"],
        "engine.breaker.fast_fails": fresh.diagnostics.counters.get("breaker.fast_fails", 0),
        "trace.overhead_frac": sum(traced.latencies) / sum(plain.latencies) - 1.0,
    })
    _merge_phases(out, plain, traced)
    return _finish(out, fresh)


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


class Daemon:
    """One ``serve`` daemon on a Unix socket in the run directory."""

    def __init__(self, run_dir: Path, primed: Path | None, index: int, trace: bool):
        self.socket = run_dir / f"d{index}.sock"
        self.cache = run_dir / f"cache{index}"
        if primed is not None:
            shutil.copytree(primed, self.cache)
        self.trace_out = run_dir / f"d{index}.trace" if trace else None
        self.dumps = 0
        # The daemon runs in the run directory, so its socket path stays
        # short (Unix socket paths are limited to about 100 bytes).
        command = [sys.executable, str(HERE / "daemon.py"), self.socket.name,
                   str(self.cache)]
        if self.trace_out is not None:
            command.append(str(self.trace_out))
        env = dict(os.environ)
        tmp = run_dir / "tmp"
        # The process pool's forkserver binds a Unix socket under TMPDIR;
        # keep it in the checkout unless that path would be too long.
        if len(str(tmp)) < 60:
            tmp.mkdir(exist_ok=True)
            env["TMPDIR"] = str(tmp)
        self.spawned = now()
        self.process = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, env=env, cwd=str(run_dir)
        )
        deadline = time.monotonic() + 60
        while True:
            if self.process.poll() is not None:
                raise SystemExit("serve daemon exited during start-up")
            try:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.connect(os.path.relpath(self.socket))
                probe.close()
                break
            except OSError:
                probe.close()
                if time.monotonic() > deadline:
                    self.kill()
                    raise SystemExit("serve daemon did not start")
                time.sleep(0.01)

    def connect(self) -> "Connection":
        return Connection(self.socket)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return float("nan")

    def layer_snapshot(self) -> dict:
        """Ask the daemon to write its span totals (SIGUSR1) and read them."""
        self.dumps += 1
        target = Path(f"{self.trace_out}.{self.dumps}")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not target.exists():
            if time.monotonic() > deadline:
                raise SystemExit("daemon wrote no span snapshot")
            time.sleep(0.005)
        return json.loads(target.read_text())

    def stop(self) -> None:
        connection = self.connect()
        connection.call({"op": "shutdown"})
        connection.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise SystemExit("serve daemon did not shut down")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


class Connection:
    def __init__(self, path: Path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(os.path.relpath(path))
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.writer = self.sock.makefile("w", encoding="utf-8")
        self.next_id = 0

    def call_raw(self, request: dict) -> tuple[float, str]:
        """Send one request; (round trip seconds, the undecoded reply)."""
        self.next_id += 1
        line = json.dumps({**request, "id": self.next_id})
        started = time.perf_counter()
        self.writer.write(line + "\n")
        self.writer.flush()
        reply = self.reader.readline()
        elapsed = time.perf_counter() - started
        if not reply:
            raise SystemExit("daemon closed the connection")
        return elapsed, reply

    def call(self, request: dict) -> tuple[float, dict]:
        elapsed, reply = self.call_raw(request)
        return elapsed, json.loads(reply)

    def close(self) -> None:
        self.reader.close()
        self.writer.close()
        self.sock.close()


class ServeInputs:
    """The fixed inputs shared by every daemon of one seed."""

    def __init__(self, seed: int, run_dir: Path):
        rng = random.Random(f"serve:{seed}")
        self.hits = {}
        self.batch_files = {}
        self.output_classes = {}
        template_dir = run_dir / "templates"
        template_dir.mkdir()
        for number, slug in inputs.USE_CASES:
            template = inputs.template_source(slug)
            token = f"hit{seed}-{number}"
            reference = inputs.reference_source(number, slug)
            self.hits[number] = (
                slug,
                inputs.make_variant(template, token, rng),
                inputs.expected_output(reference, token),
            )
            path = template_dir / f"uc{number:02d}_{slug}.py"
            path.write_text(inputs.make_variant(template, f"batch{seed}-{number}", rng))
            self.batch_files[number] = str(path)
            self.output_classes[number] = next(
                line.split()[1].rstrip(":")
                for line in reference.splitlines()
                if line.startswith("class Output")
            )


def _check_generate(reply: dict, expected: str) -> list[str]:
    if not reply.get("ok"):
        return [f"generate failed: {reply.get('error')}"]
    if reply["result"]["source"] != expected:
        return ["generate output differs from reference"]
    return []


def _check_analyze(reply: dict, expected: dict) -> list[str]:
    if not reply.get("ok"):
        return [f"analyze failed: {reply.get('error')}"]
    found = [
        (f["file"], f["function"], f["kind"])
        for module in reply["result"]["modules"].values()
        for f in module["findings"]
    ]
    return inputs.verdict_errors(found, expected)


def _check_batch(reply: dict, numbers: list[int], shared: ServeInputs) -> list[str]:
    if not reply.get("ok") or reply.get("failed"):
        return [f"batch failed: {reply.get('error') or reply.get('batch')}"]
    got = [item.get("output_class") for item in reply["batch"]]
    want = [shared.output_classes[n] for n in numbers]
    return [] if got == want else [f"batch classes {got} != {want}"]


class MixClient:
    """One closed-loop client drawing seeded request kinds from its mix."""

    def __init__(self, seed: int, client: int, shared: ServeInputs):
        self.rng = random.Random(f"mix:{seed}:{client}")
        self.misses = inputs.gen_sequence(seed, tag=f"c{client}-")
        self.shared = shared
        self.client = client
        self.serial = 0
        kinds, weights = zip(*SERVE_MIX[client])
        self.kinds, self.weights = kinds, weights

    def next_request(self) -> tuple[str, dict, object]:
        """(kind, request, what the reply is checked against)."""
        rng = self.rng
        kind = rng.choices(self.kinds, self.weights)[0]
        self.serial += 1
        if kind == "hit":
            number = rng.choice(inputs.USE_CASES)[0]
            slug, source, expected = self.shared.hits[number]
            return kind, {"op": "generate", "source": source, "name": slug}, expected
        if kind == "miss":
            item = next(self.misses)
            request = {"op": "generate", "source": item.source, "name": item.slug}
            return kind, request, item
        if kind == "analyze":
            sources, expected = inputs.small_project(
                rng, f"{self.client}-{self.serial}"
            )
            return kind, {"op": "analyze", "sources": sources}, expected
        if kind == "batch":
            numbers = [n for n, _ in rng.sample(inputs.USE_CASES, 2)]
            files = [self.shared.batch_files[n] for n in numbers]
            return kind, {"op": "generate", "templates": files, "jobs": 2}, numbers
        return kind, {"op": rng.choice(("stats", "health"))}, None

    def check(self, kind: str, reply: dict, expected) -> list[str]:
        if kind == "hit":
            errors = _check_generate(reply, expected)
            if not errors and not reply.get("cached"):
                errors = ["repeated input missed the result cache"]
            return errors
        if kind == "miss":
            return _check_generate(reply, expected.expected())
        if kind == "analyze":
            return _check_analyze(reply, expected)
        if kind == "batch":
            return _check_batch(reply, expected, self.shared)
        return [] if reply.get("ok") else [f"control op failed: {reply}"]


def _warm_up(daemon: Daemon, shared: ServeInputs, seed: int) -> None:
    """The first pass over every distinct input kind, then one ping."""
    connection = daemon.connect()
    try:
        for number, (slug, source, expected) in shared.hits.items():
            _, reply = connection.call({"op": "generate", "source": source, "name": slug})
            if _check_generate(reply, expected):
                raise SystemExit(f"warm-up generate wrong: uc{number:02d}")
        sources, expected = inputs.small_project(random.Random(seed), "warm-up")
        _, reply = connection.call({"op": "analyze", "sources": sources})
        if _check_analyze(reply, expected):
            raise SystemExit("warm-up analyze wrong")
        numbers = [1, 2]
        _, reply = connection.call({
            "op": "generate",
            "templates": [shared.batch_files[n] for n in numbers],
            "jobs": 2,
        })
        if _check_batch(reply, numbers, shared):
            raise SystemExit("warm-up batch wrong")
        connection.call({"op": "ping"})
    finally:
        connection.close()


def _mix_phase(daemon: Daemon, shared: ServeInputs, seed: int, *, seconds=None,
               counts=None) -> tuple[Recorder, float, list[int], dict]:
    """Two closed-loop clients; each stops at the deadline or its count.

    The client process shares one interpreter lock between its two
    threads, so the heavy client's requests are built before the phase
    and its replies are checked after it: client-side work must not
    delay the other client's replies.
    """
    mixes = [MixClient(seed, index, shared) for index in range(2)]
    budget = counts[1] if counts is not None else int(seconds * HEAVY_RATE) + 20
    heavy = [mixes[1].next_request() for _ in range(budget)]
    exhausted = []
    records: list[list] = [[], []]
    done = [0, 0]
    failures: list[BaseException] = []

    def client(index: int, stop_at: float | None) -> None:
        try:
            connection = daemon.connect()
            try:
                while True:
                    if stop_at is not None and time.perf_counter() >= stop_at:
                        break
                    if counts is not None and done[index] >= counts[index]:
                        break
                    if index == 1:
                        if done[1] >= len(heavy):
                            if stop_at is not None:
                                exhausted.append(done[1])
                            break
                        kind, request, expected = heavy[done[1]]
                        elapsed, reply = connection.call_raw(request)
                    else:
                        kind, request, expected = mixes[0].next_request()
                        elapsed, reply = connection.call(request)
                    records[index].append((kind, elapsed, reply, expected))
                    done[index] += 1
                    if index == 0:
                        time.sleep(EDITOR_THINK_SECONDS)
            finally:
                connection.close()
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            failures.append(exc)

    started = time.perf_counter()
    stop_at = started + seconds if seconds is not None else None
    threads = [
        threading.Thread(target=client, args=(i, stop_at)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150)
        if thread.is_alive():
            raise SystemExit("serve-mix client did not finish")
    wall = time.perf_counter() - started
    if failures:
        raise failures[0]
    if exhausted:
        raise SystemExit(
            f"the heavy client used all {budget} prepared requests before the "
            f"deadline; raise HEAVY_RATE so the mix keeps its shape"
        )
    recorder = Recorder()
    extra = {"wait": [], "hit_rtt": []}
    for index, client_records in enumerate(records):
        for kind, elapsed, reply, expected in client_records:
            if isinstance(reply, str):
                reply = json.loads(reply)
            recorder.add(elapsed, mixes[index].check(kind, reply, expected), kind)
            if "elapsed_ms" in reply:
                extra["wait"].append(elapsed * 1000.0 - reply["elapsed_ms"])
            if reply.get("cached"):
                extra["hit_rtt"].append(elapsed * 1000.0)
    return recorder, wall, done, extra


def _stats(daemon: Daemon) -> dict:
    connection = daemon.connect()
    try:
        return connection.call({"op": "stats"})[1]
    finally:
        connection.close()


def _serve_layers(before: dict, after: dict, extra: dict, wall: float,
                  requests: int) -> dict:
    """Per-layer figures from two drained ``stats`` replies and the client."""
    counters_a = before["diagnostics"]["counters"]
    counters_b = after["diagnostics"]["counters"]

    def delta(name: str) -> float:
        return counters_b.get(name, 0) - counters_a.get(name, 0)

    hits, misses = delta("result_cache.hits"), delta("result_cache.misses")
    functions = delta("analysis.functions")
    combos = delta("combos.evaluated")
    server_a, server_b = before["server"], after["server"]
    busy = server_b["busy_seconds"] - server_a["busy_seconds"]
    compiled = after["compiled_rules"]
    return {
        "cache.disk_hits": compiled["disk_hits"],
        "cache.disk_misses": compiled["disk_misses"],
        "fsm.dfa_builds": compiled["dfa_builds"],
        "fsm.path_enumerations": compiled["path_enumerations"],
        "resolve.combos": combos / requests,
        "resolve.useful_ratio": delta("chains") / combos if combos else 0.0,
        "emit.statements": delta("statements.emitted") / requests,
        "sast.functions": functions / requests,
        "sast.reanalyzed": delta("analysis.reanalyzed_functions") / requests,
        "sast.summary_hit_ratio": (
            delta("summary_cache.hits") / functions if functions else 0.0
        ),
        "engine.result_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.breaker.fast_fails": delta("breaker.fast_fails"),
        "pool.restarts": (after["supervisor"] or {}).get("restarts", 0),
        "server.wait_ms.p50": percentile(extra["wait"], 50),
        "server.wait_ms.p90": percentile(extra["wait"], 90),
        "server.hit_rtt_ms.p90": percentile(extra["hit_rtt"], 90),
        "server.utilization": busy / (server_b["workers"] * wall),
        "server.overloads": server_b["overloads"] - server_a["overloads"],
        "server.shed": server_b["shed"] - server_a["shed"],
    }


def serve_mix(args, tracer: Tracer | None) -> dict:
    root = HERE.parent / ".perfbench_run"
    root.mkdir(exist_ok=True)
    run_dir = root / f"serve-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    daemons: list[Daemon] = []
    try:
        return _serve_mix(args, run_dir, daemons)
    finally:
        for daemon in daemons:
            daemon.kill()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # another run still uses it


def _serve_mix(args, run_dir: Path, daemons: list) -> dict:
    shared = ServeInputs(args.seed, run_dir)

    def start(trace: bool = False) -> Daemon:
        daemon = Daemon(run_dir, primed, len(daemons), trace)
        daemons.append(daemon)
        _warm_up(daemon, shared, args.seed)
        return daemon

    # Prime the disk rule cache once; every later daemon restarts over a
    # copy of it, so each one starts from the same cache state.
    primed = None
    first = start()
    first.stop()
    primed = first.cache
    trace = args.mode == "trace"
    restarts = 1 if trace else SETUP_SAMPLES
    setups = []
    for restart in range(restarts):
        daemon = start()
        setups.append(now() - daemon.spawned)
        if restart < restarts - 1:
            daemon.stop()
    out: dict = {"setup_samples": setups}
    seconds = args.seconds / 2 if trace else args.seconds
    before = _stats(daemon)
    plain, wall, counts, extra = _mix_phase(daemon, shared, args.seed, seconds=seconds)
    after = _stats(daemon)
    out["peak_rss_mb"] = daemon.peak_rss_mb()
    daemon.stop()
    if not trace:
        out.update(plain.summary(wall))
        return out
    traced_daemon = start(trace=True)
    setup_snapshot = traced_daemon.layer_snapshot()
    before = _stats(traced_daemon)
    traced, traced_wall, _, extra = _mix_phase(
        traced_daemon, shared, args.seed, counts=counts
    )
    after = _stats(traced_daemon)
    n = sum(counts)
    layers = setup_metrics(setup_snapshot)
    layers.update(layer_metrics(setup_snapshot, traced_daemon.layer_snapshot(), n))
    layers.update(_serve_layers(before, after, extra, traced_wall, n))
    layers["trace.overhead_frac"] = traced_wall / wall - 1.0
    layers.update({
        f"mix.{kind}_rps": len(samples) / wall
        for kind, samples in plain.by_label().items()
    })
    traced_daemon.stop()
    out["layers"] = layers
    out["by_label"] = plain.summary(wall)["by_label"]
    _merge_phases(out, plain, traced)
    return out


WORKLOADS = {"gen-miss": gen_miss, "analyze-edit": analyze_edit, "serve-mix": serve_mix}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()
    tracer = None
    if args.mode == "trace" and args.workload != "serve-mix":
        tracer = Tracer().install()
    out = WORKLOADS[args.workload](args, tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
