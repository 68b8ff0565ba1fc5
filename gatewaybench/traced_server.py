"""Run ``python -m repro.serve`` with layer spans recorded in memory.

Usage: ``python traced_server.py SPANS_PATH [repro.serve arguments...]``

Wraps the entry points listed in ``spans.TARGETS`` (no file under
``src/`` changes), calls ``repro.serve.__main__.main`` with the
remaining arguments, and writes the recorded spans to ``SPANS_PATH.*``
once the server has shut down (SIGINT).
"""

from __future__ import annotations

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
