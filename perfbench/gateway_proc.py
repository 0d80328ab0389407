"""The gateway process of the ``monitor-live`` workload.

Started by ``perfbench/run.py`` from the checkout root::

    python3 perfbench/gateway_proc.py --trace 0|1 --artifacts DIR

Prints one JSON line ``{"url": ..., "startup_s": ...}`` once the gateway
serves (``startup_s`` covers imports and gateway start-up), then serves
until its standard input closes.  It then stops the gateway, removes the
artefact directory and, when traced, prints its spans as one JSON line.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--artifacts", required=True)
    args = parser.parse_args()

    from repro.gateway import Gateway, GatewayConfig

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    config = GatewayConfig(
        port=0, artifact_root=args.artifacts, session_idle_timeout_s=3600.0,
    )
    gateway = Gateway(config).start()
    try:
        print(json.dumps({
            "url": gateway.url, "startup_s": time.perf_counter() - _T0,
        }), flush=True)
        sys.stdin.read()
    finally:
        gateway.close()
        shutil.rmtree(args.artifacts, ignore_errors=True)
    if tracer is not None:
        print(json.dumps(tracer.finalize()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
