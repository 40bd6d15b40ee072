#!/usr/bin/env bash
# The three gates every change keeps, in order, stopping at the first failure:
# tier-1 tests, clean goldens after regeneration (no diff and no untracked
# file under tests/golden), the benchmark's self-tests.  Then smoke runs of
# real CLI processes (scripts/time_cli.py exits nonzero unless the round
# trip's exit codes are 0/0/0/3 and each process's stderr is its summary
# line alone, no warning or traceback): at n = 16, below both size gates of the
# forked JSON codec, and at n = 104, whose conjugation file (819 KB) and
# written matrix (21,632 floats) take both forked paths.  Then `fourunit` on a
# seeded 256 x 256 complex Ginibre matrix, the benchmark's split size: exit 0,
# and stderr the one `residual ...` line.  Then `canonical` on a seeded
# 256 x 256 self-dual unitary whose angles are evenly spaced in (0, 1e-3),
# so every cos theta chains into one run and spectral.schur takes its
# whole-matrix Cayley step: exit 0, and stderr one line.  Last, the line
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
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
python3 -c 'import sys, numpy as np; from conjugations.cli import matrix_to_dict, save_json
rng = np.random.default_rng(256)
save_json(sys.argv[1], matrix_to_dict(rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))))' "$tmp/a.json"
if ! python3 -m conjugations.cli fourunit "$tmp/a.json" >/dev/null 2>"$tmp/err" \
    || [ "$(wc -l <"$tmp/err")" -ne 1 ] || ! grep -Eqx 'residual [0-9]\.[0-9]{3}e[-+][0-9]+' "$tmp/err"; then
    cat "$tmp/err" >&2
    echo "fourunit at n = 256: exit code not 0, or stderr not the one residual line" >&2
    exit 1
fi
python3 -c 'import sys, numpy as np; from conjugations.cli import matrix_to_dict, save_json
from conjugations.linalg import haar_unitary
half = np.linspace(0, 1e-3, 130)[1:-1]
W = haar_unitary(256, 256)
save_json(sys.argv[1], matrix_to_dict((W * np.exp(1j * np.concatenate([half, -half]))) @ W.conj().T))' "$tmp/u.json"
if ! python3 -m conjugations.cli canonical "$tmp/u.json" >/dev/null 2>"$tmp/err" \
    || [ "$(wc -l <"$tmp/err")" -ne 1 ]; then
    cat "$tmp/err" >&2
    echo "canonical on a one-run spectrum at n = 256: exit code not 0, or stderr not one line" >&2
    exit 1
fi
wc -l src/conjugations/*.py
