"""Run ``ropuf serve`` in this process, optionally with layer spans.

Usage::

    python -m perfbench.serve_launcher [--trace-dir DIR] -- serve ARGS...

With ``--trace-dir`` the serve layers are wrapped before the CLI builds
the server, and the spans are flushed to ``DIR`` when it shuts down
(``ropuf serve`` turns SIGTERM into a graceful exit).
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    recorder = None
    if argv[:1] == ["--trace-dir"]:
        from perfbench import tracer

        tracer.import_all_repro_modules()
        recorder = tracer.SpanRecorder(argv[1])
        tracer.install(tracer.SERVE_LAYERS, recorder)
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.cli import main as ropuf

    try:
        return ropuf(argv)
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
