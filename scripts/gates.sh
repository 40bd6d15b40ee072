#!/usr/bin/env bash
# The three gates every change keeps, in order, stopping at the first failure:
# tier-1 tests, clean goldens after regeneration, the benchmark's self-tests.
# Then the line count of the library.  Run from anywhere: scripts/gates.sh
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest -q --continue-on-collection-errors
python scripts/make_golden.py
git diff --exit-code tests/golden
python3 -m pytest benchmark/tests
wc -l src/conjugations/*.py
