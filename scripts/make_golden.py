#!/usr/bin/env python3
"""Regenerate the CLI golden files.

Writes the input fixtures, runs every recorded subcommand in process, and
freezes the stdout bytes plus exit code.  The golden comparison keeps the
CLI byte-deterministic for identical (argv, inputs, seed).
"""

import contextlib
import io
import pathlib

import numpy as np

from conjugations.cli import matrix_to_dict, run, save_json
from conjugations.family import sample

ROOT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
INPUTS = ROOT / "inputs"
EXPECTED = ROOT / "expected"


def write_inputs():
    INPUTS.mkdir(parents=True, exist_ok=True)
    save_json(INPUTS / "u_pair.json", matrix_to_dict(np.diag([1j, -1j])))
    save_json(INPUTS / "u_bad.json", matrix_to_dict(np.diag([1j, 1j])))
    u_mixed = np.diag([np.exp(0.5j), np.exp(-0.5j), 1.0, -1.0])
    save_json(INPUTS / "u_mixed.json", matrix_to_dict(u_mixed))
    save_json(INPUTS / "c_mixed.json", matrix_to_dict(sample(u_mixed, 7).matrix))
    save_json(INPUTS / "c_swap.json", matrix_to_dict(np.array([[0.0, 1.0], [1.0, 0.0]])))
    save_json(INPUTS / "c_plain.json", matrix_to_dict(np.eye(2)))
    save_json(
        INPUTS / "a_small.json",
        matrix_to_dict(np.array([[1.0 + 0.5j, -0.25], [2.0, 0.125j]])),
    )
    save_json(
        INPUTS / "mu.json",
        {"atoms": [{"theta": np.pi / 2, "weight": 1.0}, {"theta": -np.pi / 2, "weight": 3.0}]},
    )
    save_json(
        INPUTS / "mu2.json",
        {"atoms": [{"theta": np.pi / 2, "weight": 2.0}, {"theta": 0.0, "weight": 1.0}]},
    )
    save_json(INPUTS / "mu_unpaired.json", {"atoms": [{"theta": 0.7, "weight": 1.0}]})
    save_json(
        INPUTS / "mu_ambiguous.json",
        {"atoms": [{"theta": t, "weight": 1.0} for t in (0.5, -0.5, -0.5000000005)]},
    )
    with open(INPUTS / "malformed.json", "w") as fh:
        fh.write("{nope\n")
    save_json(  # the identity with JSON strings for numbers
        INPUTS / "u_strings.json",
        {"rows": 2, "cols": 2, "data": [[["1.0", "0"], ["0", "0"]], [["0", "0"], ["1.0", "0"]]]},
    )


CASES = [
    ("check_pair", ["check", "{IN}/u_pair.json"], 0),
    ("check_bad", ["check", "{IN}/u_bad.json"], 0),
    ("canonical_pair", ["canonical", "{IN}/u_pair.json"], 0),
    ("canonical_refused", ["canonical", "{IN}/u_bad.json"], 3),
    ("sample_mixed", ["sample", "{IN}/u_mixed.json", "--seed", "7"], 0),
    ("verify_pass", ["verify", "{IN}/u_pair.json", "{IN}/c_swap.json"], 0),
    ("verify_fail", ["verify", "{IN}/u_pair.json", "{IN}/c_plain.json"], 4),
    ("verify_mixed", ["verify", "{IN}/u_mixed.json", "{IN}/c_mixed.json"], 0),
    ("decompose_swap", ["decompose", "{IN}/u_pair.json", "{IN}/c_swap.json"], 0),
    ("decompose_mismatch", ["decompose", "{IN}/u_mixed.json", "{IN}/c_swap.json"], 2),
    ("decompose_refused", ["decompose", "{IN}/u_bad.json", "{IN}/c_swap.json"], 3),
    ("fourunit_small", ["fourunit", "{IN}/a_small.json"], 0),
    ("measure_reflect", ["measure", "reflect", "{IN}/mu.json"], 0),
    ("measure_reflect_extra", ["measure", "reflect", "{IN}/mu.json", "{IN}/mu2.json"], 2),
    ("measure_rn", ["measure", "rn", "{IN}/mu.json"], 0),
    ("measure_rn_refused", ["measure", "rn", "{IN}/mu_unpaired.json"], 3),
    ("measure_rn_ambiguous", ["measure", "rn", "{IN}/mu_ambiguous.json"], 2),
    ("measure_meet", ["measure", "meet", "{IN}/mu.json", "{IN}/mu2.json"], 0),
    ("measure_join", ["measure", "join", "{IN}/mu.json", "{IN}/mu2.json"], 0),
    ("shift_demo_sincos", ["shift-demo", "--order", "16", "--degree", "2", "--preset", "sincos"], 0),
    ("shift_demo_lambda", ["shift-demo", "--order", "16", "--degree", "2", "--preset", "lambda"], 0),
    ("shift_demo_scalar", ["shift-demo", "--order", "16", "--degree", "1", "--preset", "sincos"], 0),
    ("shift_demo_blocks", ["shift-demo", "--order", "1030", "--degree", "2", "--preset", "lambda"], 0),
    ("fourier_demo", ["fourier-demo", "--size", "16", "--seed", "1"], 0),
    ("hilbert_demo", ["hilbert-demo", "--size", "10", "--seed", "1"], 0),
    ("malformed_input", ["check", "{IN}/malformed.json"], 2),
    ("check_string_entries", ["check", "{IN}/u_strings.json"], 2),
]


def main():
    write_inputs()
    EXPECTED.mkdir(parents=True, exist_ok=True)
    recorded = []
    for name, argv, expected_code in CASES:
        resolved = [a.replace("{IN}", str(INPUTS)) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = run(resolved)
        if code != expected_code:
            raise SystemExit(f"{name}: exit code {code}, expected {expected_code}")
        # keep the goldens checkout-location independent
        text = buf.getvalue().replace(str(INPUTS), "{IN}")
        with open(EXPECTED / f"{name}.out", "w") as fh:
            fh.write(text)
        recorded.append({"name": name, "argv": argv, "exit_code": expected_code})
        print(f"{name}: ok (exit {code})")
    save_json(ROOT / "cases.json", recorded)


if __name__ == "__main__":
    main()
