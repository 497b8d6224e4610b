"""Run ``repro serve`` with the tracing shims installed.

Usage: ``python -m perfbench.serve_child TRACE_OUT serve [options]``.
The daemon's per-layer aggregate is written to ``TRACE_OUT`` when it
drains and exits (SIGTERM).
"""
from __future__ import annotations

import sys


def main(argv) -> int:
    from perfbench.tracing import Tracer
    import repro.cli
    import repro.serve.engine  # noqa: F401  (shimmed by name below)

    trace_out, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install_analysis()
    try:
        return repro.cli.main(args)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
