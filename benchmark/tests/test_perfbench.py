"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmark/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checker  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

END_TO_END, PER_LAYER = run.metric_units(ROOT)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("benchmark", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_untraced_run_is_correct_and_complete(workload):
    res = result_line(bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 3
    assert set(res["metrics"]) == set(END_TO_END)
    for name, m in res["metrics"].items():
        assert m["unit"] == END_TO_END[name] and m["value"] > 0


MATRIX_LAYERS = ("spectral.", "family.", "antilinear.", "linalg.")


@pytest.mark.parametrize("workload,layers", [
    ("cli-roundtrip", ("cli.",) + MATRIX_LAYERS),
    ("lib-degenerate", MATRIX_LAYERS + ("blas.",)),
    ("models", ("measures.", "shifts.", "transforms.", "linalg.four")),
])
def test_traced_run_reports_the_layers_it_runs(workload, layers):
    proc = bench("--workload", workload, "--seed", "4", "--seconds", "0.5", "--tiny", "--trace", "1")
    res = result_line(proc)
    assert res["correct"] is True
    metrics = {name: m["value"] for name, m in res["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    assert all(m["unit"] == PER_LAYER[name] for name, m in res["metrics"].items())
    assert metrics["trace.overhead_ratio"] > 0
    idle = {"spectral.raised", "linalg.four_unitary_split_s"}
    for name, value in metrics.items():
        if name.startswith(layers) and name not in idle:
            assert value > 0, name
            assert f"{name} " in proc.stdout and f"{name:40s} not reached" not in proc.stdout
    if workload == "models":
        for name in metrics:
            if name.startswith(("spectral.", "cli.")):
                assert metrics[name] == 0 and f"{name:40s} not reached" in proc.stdout
    if workload == "cli-roundtrip":
        assert metrics["spectral.raised"] == 1  # the refused canonical call
        assert metrics["spectral.schur_calls_per_job"] == 4


def test_same_seed_same_inputs():
    a = jobs.make_input("lib-degenerate", np.random.default_rng([5, 0, 1]), 20)
    b = jobs.make_input("lib-degenerate", np.random.default_rng([5, 0, 1]), 20)
    assert np.array_equal(a["U"], b["U"]) and a["planted"] == b["planted"] == ((2, 2, 2, 2), 2, 2)


def flip_largest(A):
    A = A.copy()
    i = np.unravel_index(np.argmax(np.abs(A)), A.shape)
    A[i] = -A[i]
    return A


def test_checker_rejects_one_flipped_sign():
    inp = jobs.make_input("lib-generic", np.random.default_rng(7), 8)
    out = jobs.matrix_job(inp)
    assert checker.check_matrix_job(inp, out) == []
    out["C"] = flip_largest(out["C"])
    assert any("defect" in f for f in checker.check_matrix_job(inp, out))


def test_corrupted_conjugation_counts_as_failed_job(tmp_path, monkeypatch):
    from conjugations import antilinear, family

    real_sample = family.sample
    monkeypatch.setattr(family, "sample", lambda U, seed: antilinear.AntilinearOperator(
        flip_largest(real_sample(U, seed).matrix)))
    res = worker.Worker("lib-generic", 1, True, str(tmp_path)).loop("plain", 0, 0)
    assert res["attempted"] == res["failed"] == 3 and res["latencies"] == []


@pytest.fixture(scope="module")
def models_outputs():
    inp = jobs.make_input("models", np.random.default_rng(8), jobs.TINY_SIZES["models"])
    return inp, jobs.models_operators(inp, jobs.models_job(inp))


def test_checker_recomputes_the_model_defects(models_outputs):
    inp, out = models_outputs
    assert checker.check_models_job(inp, out) == []
    for key, label in (("measure_images", "measure model"), ("shift_matrix", "squared shift")):
        # the library's own reports stay small; the checker must not rely on them
        bad = dict(out, **{key: flip_largest(out[key])})
        assert any(f.startswith(f"{label}:") for f in checker.check_models_job(inp, bad)), key


def test_checker_rejects_a_wrong_symbol(models_outputs):
    inp, out = models_outputs
    s, alpha, beta, gamma = inp["symbol"]
    fails = checker.check_models_job(dict(inp, symbol=(s, alpha + 1e-3, beta, gamma)), out)
    assert any("symbol extraction" in f for f in fails)


def test_checks_in_a_child_report_their_failures():
    assert worker.in_child(lambda: []) == []
    assert worker.in_child(lambda: ["C: isometry defect"]) == ["C: isometry defect"]
    assert worker.in_child(lambda: 1 / 0)[0].startswith("check raised ZeroDivisionError")


def test_checker_rejects_wrong_exit_code():
    steps = [("sample", 0, '{"passed": true}'), ("verify", 0, '{"passed": true}'),
             ("decompose", 0, "{}"), ("canonical", 4, "{}")]
    fails = checker.check_cli_job({}, steps, None, None)
    assert fails and "exit codes" in fails[0]


def test_wrong_exit_code_counts_as_failed_job(tmp_path, monkeypatch):
    # canonical on the self-dual U succeeds with exit 0 where 3 is expected
    real = jobs.cli_argvs
    monkeypatch.setattr(jobs, "cli_argvs", lambda paths, seed: real(dict(paths, V=paths["U"]), seed))
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    res = worker.Worker("cli-roundtrip", 1, True, str(tmp_path)).loop("plain", 0, 0)
    assert res["attempted"] == res["failed"] == 3
    assert "exit codes (0, 0, 0, 0)" in res["failures"][0]


def test_self_time_subtracts_children():
    # a decompose span [0, 10] holding a canonical_form span [2, 5] holding schur [3, 4]
    s = [["family.decompose", 0.0, 10.0, -1, 0, False, None],
         ["spectral.canonical_form", 2.0, 5.0, 0, 0, False, None],
         ["spectral.schur", 3.0, 4.0, 1, 0, False, None]]
    m = spans.job_metrics(s)
    assert m["family.decompose_self_s"] == 7.0
    assert m["spectral.canonical_form_self_s"] == 2.0
    assert m["spectral.schur_s"] == 1.0 and m["spectral.schur_calls_per_job"] == 1


def test_tail_percentile():
    assert run.tail([1.0, 2.0, 3.0]) == (pytest.approx(2.8), 90.0, 1)
    value, pct, beyond = run.tail(list(range(200)))
    assert pct == 95.0 and beyond == 10 and value == pytest.approx(189.05)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "lib-generic", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_run_without_a_passing_job_prints_no_result(tmp_path):
    # a copy whose checker rejects everything: the run must fail, not print timings
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    path = tmp_path / "benchmark" / "checker.py"
    path.write_text(path.read_text().replace(
        "def check_matrix_job(inp, out):\n", "def check_matrix_job(inp, out):\n    return ['rejected']\n"))
    proc = bench("--workload", "lib-generic", "--seed", "1", "--seconds", "0.2", "--tiny", cwd=tmp_path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "FAILED job 0: rejected" in proc.stderr
