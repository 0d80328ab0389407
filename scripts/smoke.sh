#!/usr/bin/env bash
# CI-style smoke run: the tier-1 test suite, the docs consistency check,
# and a small batched-pipeline benchmark (correctness-checked, no speedup
# assertion).  Referenced from README.md and `make smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== separator conformance (smoke preset) =="
REPRO_PRESET=smoke python -m pytest tests/service/test_conformance.py tests/service/test_input_contract.py -q

echo "== docs-check =="
python scripts/check_docs.py

echo "== bench_pipeline --smoke =="
python benchmarks/bench_pipeline.py --smoke

echo "== bench_streaming --smoke =="
python benchmarks/bench_streaming.py --smoke

echo "== bench_inpainting --smoke =="
python benchmarks/bench_inpainting.py --smoke

echo "== bench_figure6_spo2 --smoke =="
python benchmarks/bench_figure6_spo2.py --smoke

echo "== bench_scenarios --smoke =="
python benchmarks/bench_scenarios.py --smoke

echo "== bench_warmstart --smoke =="
python benchmarks/bench_warmstart.py --smoke

echo "== bench_gateway --smoke =="
python benchmarks/bench_gateway.py --smoke

echo "== bench_sharding --smoke =="
python benchmarks/bench_sharding.py --smoke

echo "== bench_substrates --smoke =="
python benchmarks/bench_substrates.py --smoke

echo "smoke: OK"
