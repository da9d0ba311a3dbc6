"""Run the ``unionbounds`` CLI with the layer wrappers installed.

    python3 bench/launch.py STATS_JSON CLI_ARGS...

Behaves like the ``unionbounds`` console script (same arguments, same exit
code) and, on exit, writes the span and counter totals of the layers to
STATS_JSON. The traced run of the cli_wide workload starts the CLI through
this file instead of the console script.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import unionbounds.cli  # noqa: E402


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    layers.install(tracer)
    tracer.active = True
    try:
        return unionbounds.cli.main(argv)
    finally:
        tracer.active = False
        Path(stats_path).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
