# Convenience targets; everything is plain pytest underneath.

PYTHON ?= python

.PHONY: install test bench bench-paper bench-serve paper props lint \
	modelcheck serve clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --bench-size=paper -q

paper:
	$(PYTHON) examples/reproduce_paper.py | tee paper_results.txt

# Simulation-as-a-service (docs/SERVE.md): HTTP server on :8089 with the
# artifact cache; stop with Ctrl-C (drains in-flight requests).
serve:
	$(PYTHON) -m repro serve --host 127.0.0.1 --port 8089

bench-serve:
	$(PYTHON) benchmarks/bench_serve.py --requests 400 \
		--min-hit-rate 0.9 --out BENCH_serve.json

props:
	$(PYTHON) -m pytest tests/test_properties.py tests/test_properties_rich.py -q

# Static checks: the coherence lint always runs; ruff/mypy run when
# installed (pip install -e .[lint]) and are skipped otherwise.
lint:
	$(PYTHON) -m repro lint all --size small --self-test
	$(PYTHON) -m repro lint all --scheme tardis --scheme snoop --size small
	@$(PYTHON) -c "import ruff" 2>/dev/null \
		&& $(PYTHON) -m ruff check src/repro \
		&& $(PYTHON) -m ruff check --select B,SIM src/repro/analysis \
		|| echo "ruff not installed; skipping (pip install -e .[lint])"
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy \
		|| echo "mypy not installed; skipping (pip install -e .[lint])"

# Bounded-exhaustive verification of the TPI and Tardis protocol rules
# (the exact functions the simulator executes); see docs/ANALYSIS.md.
# The self-tests seed known protocol bugs and require 100%
# counterexample detection.
modelcheck:
	for scheme in tpi tardis; do \
		$(PYTHON) -m repro modelcheck --scheme $$scheme --self-test --strict \
			|| exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis build src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
