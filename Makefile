# Convenience targets for the DHF reproduction.  Every target is a thin
# wrapper over a plain command (shown by `make help`), so nothing here is
# required — see README.md "Tests and benchmarks".

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: help test conformance bench bench-streaming bench-inpainting bench-figure6 bench-scenarios bench-warmstart bench-sharding bench-substrates gateway-smoke scoreboard-smoke bench-all docs-check smoke ci

help:
	@echo "make test            - tier-1 test suite (pytest -x -q)"
	@echo "make conformance     - separator conformance suites (every registered"
	@echo "                       method x every mode, valid and faulty input)"
	@echo "make bench           - batched-pipeline speedup benchmark (asserts >= 3x)"
	@echo "make bench-streaming - streaming latency/throughput benchmark"
	@echo "make bench-inpainting- batched deep-prior fit benchmark (asserts >= 2x)"
	@echo "make bench-figure6   - batched in-vivo cohort benchmark (asserts >= 2x)"
	@echo "make bench-scenarios - degradation scenario-grid benchmark (coverage +"
	@echo "                       zero-severity==clean asserted)"
	@echo "make bench-warmstart - prior-zoo warm-start benchmark (asserts >= 1.5x"
	@echo "                       fewer iterations at equal quality)"
	@echo "make bench-sharding  - sharded process fan-out benchmark (asserts >= 2x"
	@echo "                       vs the per-record loop, 1e-8 parity, zero"
	@echo "                       per-record separator pickling)"
	@echo "make bench-substrates- float32 vs float64 DHF fit comparison (asserts"
	@echo "                       float32 >= 1.3x over float64 at documented"
	@echo "                       parity tolerance)"
	@echo "make gateway-smoke   - HTTP gateway benchmark, smoke preset (job"
	@echo "                       lifecycle + concurrent monitor feeds, bitwise-checked)"
	@echo "make scoreboard-smoke- robustness scoreboard artefact, smoke preset"
	@echo "make bench-all       - all paper-artefact benchmarks (pytest-benchmark)"
	@echo "make docs-check      - docs exist + documented names import + registry documented"
	@echo "make smoke           - CI-style smoke: tests + conformance + docs-check + bench --smoke suite"
	@echo "make ci              - full gate: pytest + conformance + smoke script + docs check"

test:
	$(PYTHON) -m pytest -x -q

conformance:
	REPRO_PRESET=smoke $(PYTHON) -m pytest tests/service/test_conformance.py tests/service/test_input_contract.py -q

bench:
	$(PYTHON) benchmarks/bench_pipeline.py

bench-streaming:
	$(PYTHON) benchmarks/bench_streaming.py

bench-inpainting:
	$(PYTHON) benchmarks/bench_inpainting.py

bench-figure6:
	$(PYTHON) benchmarks/bench_figure6_spo2.py

bench-scenarios:
	$(PYTHON) benchmarks/bench_scenarios.py

bench-warmstart:
	$(PYTHON) benchmarks/bench_warmstart.py

bench-sharding:
	$(PYTHON) benchmarks/bench_sharding.py

bench-substrates:
	$(PYTHON) benchmarks/bench_substrates.py

gateway-smoke:
	$(PYTHON) benchmarks/bench_gateway.py --smoke

scoreboard-smoke:
	$(PYTHON) -m repro.experiments.cli scoreboard --preset smoke

bench-all:
	$(PYTHON) -m pytest benchmarks/bench_pipeline.py $(wildcard benchmarks/bench_*.py) -q -s

docs-check:
	$(PYTHON) scripts/check_docs.py

smoke:
	bash scripts/smoke.sh

# The conformance suite reaches ci twice already — collected by the
# tier-1 pytest run and explicitly inside scripts/smoke.sh — so no
# third invocation here.  bench-inpainting runs at full scale (the >= 2x
# hot-path assertion) and bench-warmstart gates the prior-zoo warm-start
# targets (>= 1.5x fewer iterations at equal quality); their --smoke
# variants also run inside smoke.sh, as do bench_figure6_spo2 --smoke
# (the batched in-vivo cohort gate) and bench_scenarios --smoke (the
# degradation-grid gate).  scoreboard-smoke regenerates the robustness
# artefact over the full separator line-up, and bench-sharding gates
# the process fan-out path at full scale (>= 2x vs the per-record loop
# with 1e-8 parity and zero per-record separator pickling).
# bench-substrates gates the fit precision knob: the same batch is fitted
# at float32 and float64, parity against the float64 fit is asserted,
# and the float32 fit must be >= 1.3x faster on the DHF fit loop.
ci: bench-inpainting bench-warmstart bench-sharding bench-substrates gateway-smoke scoreboard-smoke
	$(PYTHON) -m pytest -x -q
	bash scripts/smoke.sh
	$(PYTHON) scripts/check_docs.py
