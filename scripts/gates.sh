#!/usr/bin/env bash
# The three gates every change keeps, in order, stopping at the first failure:
# tier-1 tests, clean goldens after regeneration (no diff and no untracked
# file under tests/golden), the benchmark's self-tests.  Then smoke runs of
# real CLI processes (scripts/time_cli.py exits nonzero unless the round
# trip's exit codes are 0/0/0/3 and each process's stderr is its summary
# line alone, no warning or traceback): at n = 16, below both size gates of the
# forked JSON codec, and at n = 104, whose conjugation file (819 KB) and
# written matrix (21,632 floats) take both forked paths.  Last, the line
# count of the library.  Run from anywhere: scripts/gates.sh
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python3 -m pytest -q --continue-on-collection-errors
python3 scripts/make_golden.py
golden="$(git status --porcelain tests/golden)"
if [ -n "$golden" ]; then
    printf '%s\n' "$golden"
    echo "tests/golden is not clean after make_golden.py" >&2
    exit 1
fi
python3 -m pytest benchmark/tests
python3 scripts/time_cli.py --n 16 --reps 1
python3 scripts/time_cli.py --n 104 --reps 1
wc -l src/conjugations/*.py
