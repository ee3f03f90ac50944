"""Start the ``serve`` daemon for serve-mix, optionally with layer spans.

    python perfbench/daemon.py SOCKET CACHE_DIR [TRACE_OUT]

With ``TRACE_OUT`` the spans of :mod:`layers` are installed before the
engine starts, and each ``SIGUSR1`` writes the span totals so far to
``TRACE_OUT.<n>`` (n = 1, 2, ...), so the client can take deltas over
its timed phase alone.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    socket_path, cache_dir = argv[0], argv[1]
    if len(argv) > 2:
        from layers import Tracer

        tracer = Tracer().install()
        target = argv[2]
        dumps = [0]

        def dump(_signum, _frame) -> None:
            dumps[0] += 1
            path = f"{target}.{dumps[0]}"
            Path(f"{path}.tmp").write_text(json.dumps(tracer.snapshot()))
            os.replace(f"{path}.tmp", path)

        signal.signal(signal.SIGUSR1, dump)

    from repro.cli import main as cli_main

    return cli_main([
        "serve", "--socket", socket_path, "--cache-dir", cache_dir,
        "--serve-workers", "2",
    ])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
