"""Run the ``vrsp`` command with per-layer tracing on.

Usage: python cli_child.py STATS.json <vrsp arguments...>

Behaves like ``python -m vrsp.cli <vrsp arguments...>`` (same stdout and exit
code) and writes the tracer's figures to STATS.json.  The caller puts the
``src`` directory on PYTHONPATH.
"""

import json
import sys

from spans import Tracer

if __name__ == "__main__":
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import vrsp.cli

    code = vrsp.cli.main(argv)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as f:
        json.dump(tracer.to_dict(), f)
    sys.exit(code)
