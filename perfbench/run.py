"""The repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload gen-miss --seed 1 --seconds 10 --trace 0

Workloads (closed loops; see ``BENCHMARK.json`` for why each exists):

* ``gen-miss``: one in-process ``CryptoGenEngine.generate`` client; every
  request is a fresh variant of one of the 13 use-case templates.
* ``analyze-edit``: one in-process ``CryptoGenEngine.analyze`` client;
  every request edits one function of a 52-module project and
  re-analyzes all of it.
* ``serve-mix``: two client connections to a ``serve`` daemon restarted
  over a primed disk rule cache; mostly result-cache hits, with misses,
  inline analyses, ``jobs=2`` batches and control ops.

Each workload runs in fresh interpreters (``worker.py``). With
``--trace 0`` the last stdout line reports the ``end_to_end`` metrics
of ``BENCHMARK.json``; with ``--trace 1`` it reports the ``per_layer``
metrics, taken with timing spans around each layer's entry points
(``layers.py``). Every output is checked against the references in
``references/`` in both modes; a human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

from worker import SETUP_SAMPLES  # noqa: E402

#: Wall-clock limit for one worker interpreter, seconds.
WORKER_TIMEOUT = 150

WORKLOADS = ("gen-miss", "analyze-edit", "serve-mix")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(workload: str, seed: int, seconds: float, mode: str) -> tuple[float, dict]:
    """Run one worker interpreter; returns (spawn time, its JSON result)."""
    command = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    spawned = now()
    # A session of its own, so a timeout can stop the worker together
    # with any daemon and pool processes it started.
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"{workload} worker timed out")
    if process.returncode != 0:
        raise SystemExit(f"{workload} worker failed with exit code {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} worker printed no result")
    return spawned, json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    if workload == "serve-mix":
        _, result = run_worker(workload, seed, seconds, "run")
        setups = result["setup_samples"]
    else:
        # Set-up is scaled to the nominal host like the latencies (see
        # worker.REFERENCE_MS), by the reference loop timed as it ends.
        setups = []
        for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["run"]:
            spawned, result = run_worker(workload, seed, seconds, mode)
            setups.append((result["setup_done"] - spawned) * result["setup_scale"])
    return result, {
        "setup_s": statistics.median(setups),
        "latency_ms.p50": result["p50_ms"],
        "latency_ms.p90": result["p90_ms"],
        "throughput_rps": result["throughput_rps"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(workload: str, seed: int, seconds: float, names) -> tuple[dict, dict]:
    _, result = run_worker(workload, seed, seconds, "trace")
    # A layer the workload never enters did no work: it reads 0.
    values = dict.fromkeys(names, 0.0)
    values.update(result.get("compile_stats", {}))
    values.update(result["layers"])
    return result, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program's sources (src/repro) are not in this checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [metric["name"] for metric in metrics_spec]
    if args.trace:
        result, values = per_layer(args.workload, args.seed, args.seconds, names)
    else:
        result, values = end_to_end(args.workload, args.seed, args.seconds)
    missing = sorted(set(names) - set(values))
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 2
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} requests, {failed} failed "
          f"(failed_frac={failed / attempted:.4f})", file=sys.stderr)
    by_label = result.get("by_label", {})
    total = sum(count for count, _, _ in by_label.values())
    for label, (count, p50, p90) in by_label.items():
        print(f"  {label:<14} n={count:<6} share={count / total:.3f} "
              f"p50={p50:.2f} ms p90={p90:.2f} ms", file=sys.stderr)
    for error in result.get("errors", []):
        print(f"  wrong output: {error}", file=sys.stderr)
    for metric in metrics_spec:
        print(f"  {metric['name']:<32} {values[metric['name']]:>14.4f} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in metrics_spec
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
