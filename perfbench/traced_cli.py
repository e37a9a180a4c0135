"""`weil-lab` with the layer functions traced:

    python3 perfbench/traced_cli.py TRACE.json verify all --out DIR

Runs the command line exactly as `python3 -m weil_lab.cli` does and writes
the recorded spans and counts to TRACE.json when it ends.
"""

import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402
from weil_lab import cli  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.write(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
