"""Start a ``repro-igp`` server with the benchmark's layer spans installed.

Usage: ``python3 perfbench/launcher.py {service|gateway} SPANS.json CLI-ARGS...``

The wrappers go in before ``repro.cli.main`` builds any server object,
so every caller picks up the wrapped entry points.  The spans are
written to ``SPANS.json`` when ``main`` returns (SIGTERM makes both
servers shut down gracefully and return).
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    role, spans_path, cli_args = argv[0], argv[1], argv[2:]
    rec = tracing.Recorder()
    if role == "service":
        tracing.install_service(rec)
    elif role == "gateway":
        tracing.install_gateway(rec)
    else:
        raise SystemExit(f"unknown role {role!r}")
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
