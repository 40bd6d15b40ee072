import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRANSFORM_SIZE = 16


def test_family_survey_smoke():
    # a small end-to-end survey exits cleanly and every family's worst defect
    # stays inside its acceptance bound
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["--rounds", "6", "--max-dim", "12", "--grid-order", "32",
            "--transform-size", str(TRANSFORM_SIZE), "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "family_survey.py"), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    worst = {
        key: float(val)
        for key, val in re.findall(r"^\s*(\w+)\s+worst defect(?: / n)? = (\S+)$", proc.stdout, re.M)
    }
    bounds = {
        "canonical": 1e-8,  # matrix rows are already divided by n
        "sample": 1e-8,
        "roundtrip": 1e-8,
        "measures": 1e-12,
        "grids": 1e-11,
        "transforms": 1e-12 * TRANSFORM_SIZE,
    }
    assert worst.keys() == bounds.keys(), proc.stdout
    for key, bound in bounds.items():
        assert worst[key] <= bound, (key, worst[key])
