"""One set-up of the DHF workloads, in a fresh interpreter.

Imports the package and builds the ``SeparationService`` both DHF
workloads use, then prints the elapsed seconds.  ``perfbench/run.py``
runs it several times per run and reports the median as ``setup_s``::

    python3 perfbench/setup_probe.py --trace 0|1
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from repro.service import SeparationService
    from repro.service.specs import DHFSpec

    if args.trace:
        import tracer as tracing

        tracing.install(tracing.Tracer())
    SeparationService(DHFSpec.from_preset("smoke")).close()
    print(f"{time.perf_counter() - _T0:.9f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
