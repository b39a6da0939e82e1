# Developer entry points. Offline environments without the `wheel`
# package can use `make develop` instead of `pip install -e .`.

.PHONY: install develop test bench bench-full report docs docs-check examples clean

install:
	pip install -e ".[test]"

develop:
	python setup.py develop

test:
	pytest tests/

# The quick experiment artifacts that tier-1 (tests/test_experiments.py)
# and `repro compare` gate; they hold no clock reading, so rerunning on
# unchanged code rewrites no byte. bench-full writes the full
# configurations to a scratch directory.
bench:
	python -m repro.cli experiment all --quick -o benchmarks/_artifacts

bench-full:
	python -m repro.cli experiment all -o experiments-full

report:
	python -m repro.cli report

# API reference into docs/api/ (pdoc when installed, stdlib fallback
# otherwise), then the doc-quality gates: relative-link checker and the
# public-docstring coverage floor.
docs:
	python tools/gen_api_docs.py

docs-check:
	python tools/gen_api_docs.py --check
	python tools/check_links.py
	python tools/check_docstrings.py

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

clean:
	rm -rf experiments-full .pytest_cache src/repro.egg-info docs/api
	find . -name __pycache__ -type d -exec rm -rf {} +
