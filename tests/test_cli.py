import contextlib
import gc
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conjugations import cli
from conjugations.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_TOLERANCE,
    emit,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    run,
    save_json,
)
from conjugations.errors import InputError
from conjugations.family import sample
from conjugations.linalg import haar_unitary
from conjugations.measures import AtomicMeasure

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = GOLDEN / "inputs"


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def golden_cases():
    with open(GOLDEN / "cases.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: c["name"])
def test_golden(case):
    argv = [a.replace("{IN}", str(INPUTS)) for a in case["argv"]]
    code, out, err = run_captured(argv)
    expected = (GOLDEN / "expected" / f"{case['name']}.out").read_text()
    assert code == case["exit_code"]
    assert out.replace(str(INPUTS), "{IN}") == expected
    assert len(err.splitlines()) == 1, err  # the summary line, no warning


def test_byte_determinism():
    for case in golden_cases():
        argv = [a.replace("{IN}", str(INPUTS)) for a in case["argv"]]
        first = run_captured(argv)
        second = run_captured(argv)
        assert first == second


def test_empty_family_message():
    code, out, _ = run_captured(["canonical", str(INPUTS / "u_bad.json")])
    assert code == EXIT_REFUSED
    payload = json.loads(out)
    assert (
        payload["error"]["message"]
        == "C_c(U) is empty: eigenvalue i multiplicity 2, conjugate multiplicity 0"
    )


@pytest.mark.parametrize("angles,label", [
    ([2e-7, 2e-7, 0.5, -0.5], "exp(2e-07i) multiplicity 2, conjugate multiplicity 0"),
    ([2e-7, 2e-7, -2e-7], "exp(-2e-07i) multiplicity 1, conjugate multiplicity 2"),
], ids=["4x4", "3x3"])
def test_refusal_label_near_one_keeps_its_angle(tmp_path, angles, label):
    # the mismatch is never 1 itself, so the label must not round to exp(0i)
    path = tmp_path / "u.json"
    save_json(path, matrix_to_dict(np.diag(np.exp(1j * np.array(angles)))))
    code, out, _ = run_captured(["canonical", str(path)])
    assert code == EXIT_REFUSED
    assert json.loads(out)["error"]["message"] == f"C_c(U) is empty: eigenvalue {label}"


@pytest.mark.parametrize("command", ["check", "canonical", "sample"])
def test_non_mutual_partner_is_refused(tmp_path, command):
    # both clusters near exp(-0.5i) pick exp(0.5i) as partner; counting it for
    # both used to call U self-dual and leave W 7 x 6
    path = tmp_path / "u.json"
    angles = [0.5, -(0.5 + 6e-8), -(0.5 - 6e-8), 1, -1, 2, -2]
    save_json(path, matrix_to_dict(np.diag(np.exp(1j * np.array(angles)))))
    argv = [command, str(path)] + (["--seed", "1"] if command == "sample" else [])
    code, out, _ = run_captured(argv)
    payload = json.loads(out)
    if command == "check":
        assert code == EXIT_OK and payload["selfdual"] is False
    else:
        assert code == EXIT_REFUSED
        assert payload["error"]["message"] == (
            "C_c(U) is empty: eigenvalue exp(-0.5i) multiplicity 1, conjugate multiplicity 0"
        )


@pytest.mark.parametrize("command,content,message", [
    (["check"], b"\xff\xfe\x00garbage", "not UTF-8 text: invalid start byte at byte 0"),
    (["check"], b"[" * 100_000 + b"]" * 100_000, "JSON nests too deeply"),
    (["check"], b'{"rows": 1e400, "cols": 1, "data": []}', "rows/cols must be integers"),
    (["measure", "reflect"], b'{"atoms": [{"theta": 1' + b"0" * 400 + b', "weight": 1}]}',
     "atoms[0] has non-numeric fields"),
    # a measure file holds JSON numbers: float() alone would take "0.5" and true
    (["measure", "reflect"], b'{"atoms": [{"theta": 1, "weight": 1}, {"theta": "x", "weight": 1}]}',
     "atoms[1] has non-numeric fields"),
    (["measure", "reflect"], b'{"atoms": [{"theta": 1, "weight": true}, {"theta": -1, "weight": 1}]}',
     "atoms[0] has non-numeric fields"),
    (["measure", "reflect"], b'{"atoms": [{"theta": 1, "weight": 1}, {"theta": -1, "weight": "1"}]}',
     "atoms[1] has non-numeric fields"),
], ids=["not_utf8", "deep_nesting", "huge_rows", "huge_theta", "string_theta", "boolean_weight",
        "numeric_string_weight"])
def test_malformed_file_is_input_error(tmp_path, command, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, _ = run_captured([*command, str(path)])
    assert code == EXIT_INPUT
    assert json.loads(out) == {"error": {"code": EXIT_INPUT, "message": f"{path}: {message}"}}


def test_fourunit_operator_norm_is_linalg_operator_norm(tmp_path, rng):
    # fourunit doubles the split's scale, sigma_1 of the split's own SVD,
    # instead of running a second one
    path = tmp_path / "a.json"
    for A in [np.zeros((3, 3))] + [
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in range(1, 9)
    ]:
        save_json(path, matrix_to_dict(A))
        code, out, _ = run_captured(["fourunit", str(path)])
        assert code == EXIT_OK
        assert json.loads(out)["operator_norm"] == np.linalg.svd(A)[1][0]


def test_fourunit_runs_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    code, _, _ = run_captured(["fourunit", str(INPUTS / "a_small.json")])
    assert code == EXIT_OK and len(calls) == 1


def test_fourunit_overflow_names_the_file(tmp_path):
    # finite entries whose ||A||_2 (3e308) is not a float: refused as input,
    # naming the file, with no numpy warning on the way
    path = tmp_path / "big.json"
    save_json(path, matrix_to_dict(np.full((2, 2), 1.5e308)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_captured(["fourunit", str(path)])
    assert code == EXIT_INPUT
    assert json.loads(out)["error"]["message"] == f"{path}: the four-unitary split overflowed"
    assert err == f"error: {path}: the four-unitary split overflowed\n"


def test_fourunit_of_a_matrix_whose_hermitian_part_overflows(tmp_path):
    # A + A* reaches 2e308, yet ||A||_2 is 1.41e308: the split never forms
    # A + A*, so the file is split with a finite residual inside its bound
    A = np.array([[1e308, -1e308], [1e308, 1e308]])
    path = tmp_path / "big.json"
    save_json(path, matrix_to_dict(A))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_captured(["fourunit", str(path)])
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["operator_norm"] == np.linalg.svd(A)[1][0]
    assert np.isfinite(doc["residual"]) and doc["residual"] <= 2 * cli.SPLIT_TOL * 1e308
    assert max(doc["unitarity_defects"]) <= cli.SPLIT_TOL
    assert err == f"residual {doc['residual']:.3e}\n"


def test_fourunit_refuses_a_wrong_split_when_the_frobenius_norm_overflows(tmp_path, monkeypatch):
    # ||A||_F = 2e308 leaves the float range while ||A||_2 = 1.41e308 does
    # not: the bound stays finite, so a split whose last factor is negated
    # (each factor still unitary) fails the residual check
    split = cli.four_unitary_split

    def negated(A):
        scale, factors = split(A)
        return scale, (*factors[:3], -factors[3])

    monkeypatch.setattr(cli, "four_unitary_split", negated)
    path = tmp_path / "big.json"
    save_json(path, matrix_to_dict(np.array([[1e308, -1e308], [1e308, 1e308]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_captured(["fourunit", str(path)])
    assert code == EXIT_TOLERANCE
    assert max(json.loads(out)["unitarity_defects"]) <= cli.SPLIT_TOL
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_fourunit_check_does_not_overflow(tmp_path, scale):
    # norm(A) squares entries past the float range from about 1e154 on; the
    # check scales by a power of two first, so residual and bound stay finite
    path = tmp_path / "big.json"
    save_json(path, matrix_to_dict(np.array([[scale, -scale], [scale, scale]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_captured(["fourunit", str(path)])
    residual = json.loads(out)["residual"]
    assert code == EXIT_OK
    assert np.isfinite(residual) and residual <= cli.SPLIT_TOL * (1 + 2 * scale)
    assert err == f"residual {residual:.3e}\n"


def test_save_json_replaces_the_output_whole(tmp_path, monkeypatch):
    path = tmp_path / "C.json"
    path.write_text("old\n")

    def fails_partway(fh, obj):
        fh.write('{\n  "rows": ')
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(cli, "write_json", fails_partway)
        with pytest.raises(InputError, match=f"^{path}: No space left on device$"):
            save_json(path, {"rows": 1})
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["C.json"]  # no temporary file left
    save_json(path, {"rows": 1})
    assert path.read_text() == '{\n  "rows": 1\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["C.json"]


def test_malformed_json_points_at_problem(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"rows": 1, "cols": 1, "data": [[true]]}')
    code, out, _ = run_captured(["check", str(bad)])
    assert code == EXIT_INPUT
    assert "data[0][0]" in json.loads(out)["error"]["message"]


def test_unknown_command_is_input_error():
    code, _, _ = run_captured(["frobnicate"])
    assert code == EXIT_INPUT


def test_verify_thresholds():
    u = str(INPUTS / "u_pair.json")
    c = str(INPUTS / "c_swap.json")
    assert run_captured(["verify", u, c])[0] == EXIT_OK
    # plain conjugation anti-commutes: tolerance failure
    assert run_captured(["verify", u, str(INPUTS / "c_plain.json")])[0] == EXIT_TOLERANCE


@pytest.mark.parametrize("tol", ["-1", "-0.5", "inf", "nan"])
def test_verify_rejects_bad_tol(tol):
    u, c = str(INPUTS / "u_pair.json"), str(INPUTS / "c_swap.json")
    code, out, _ = run_captured(["verify", u, c, "--tol", tol])
    assert code == EXIT_INPUT
    assert json.loads(out) == {
        "error": {"code": EXIT_INPUT, "message": "--tol must be a finite nonnegative number"}
    }


def test_verify_accepts_zero_tol():
    u, c = str(INPUTS / "u_pair.json"), str(INPUTS / "c_swap.json")
    code, out, _ = run_captured(["verify", u, c, "--tol", "0"])
    assert code == EXIT_OK and json.loads(out)["threshold"] == 0.0


@pytest.mark.parametrize("argv,message", [
    (["sample", str(INPUTS / "u_pair.json"), "--seed", "-1"], "--seed must be a nonnegative integer"),
    (["fourier-demo", "--size", "8", "--seed", "-1"], "--seed must be a nonnegative integer"),
    (["hilbert-demo", "--size", "4", "--seed", "-7"], "--seed must be a nonnegative integer"),
    (["shift-demo", "--order", "0"], "grid order must be at least 1"),
    (["shift-demo", "--order", "-2"], "grid order must be at least 1"),
    (["shift-demo", "--order", "-2", "--degree", "1"], "grid order must be at least 1"),
])
def test_bad_flag_values_are_input_errors(argv, message):
    code, out, _ = run_captured(argv)
    assert code == EXIT_INPUT
    assert json.loads(out) == {"error": {"code": EXIT_INPUT, "message": message}}


@pytest.mark.parametrize("atoms,message", [
    ('{"theta": 1e400, "weight": 1.0}', "atom angles must be finite"),
    ('{"theta": 0.5, "weight": NaN}', "atom weights must be finite"),
    ('{"theta": 0.5, "weight": -1}', "atom weights must be strictly positive"),
    (f'{{"theta": 0.5, "weight": 1.0}}, {{"theta": {0.5 + 2 * np.pi!r}, "weight": 2.0}}',
     "duplicate atoms after canonicalization"),
], ids=["infinite_theta", "nan_weight", "negative_weight", "duplicate_atoms"])
def test_measure_value_errors_name_the_file(tmp_path, atoms, message):
    mu = tmp_path / "mu.json"
    mu.write_text(f'{{"atoms": [{atoms}, {{"theta": -0.25, "weight": 1.0}}]}}')
    code, out, _ = run_captured(["measure", "reflect", str(mu)])
    assert code == EXIT_INPUT
    assert json.loads(out) == {"error": {"code": EXIT_INPUT, "message": f"{mu}: {message}"}}


def test_canonical_verify_round_trip(tmp_path):
    out_file = tmp_path / "c.json"
    code, _, _ = run_captured(["canonical", str(INPUTS / "u_mixed.json"), "-o", str(out_file)])
    assert code == EXIT_OK
    code, out, _ = run_captured(["verify", str(INPUTS / "u_mixed.json"), str(out_file)])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] and report["commutation_defect"] <= 1e-9 * 4


def test_sample_decompose_round_trip(tmp_path):
    u = str(INPUTS / "u_mixed.json")
    c_file = tmp_path / "c.json"
    p_file = tmp_path / "params.json"
    assert run_captured(["sample", u, "--seed", "11", "-o", str(c_file)])[0] == EXIT_OK
    code, out, _ = run_captured(["decompose", u, str(c_file), "-o", str(p_file)])
    assert code == EXIT_OK
    params = json.loads(p_file.read_text())
    assert params["ell"] == 1 and params["kay"] == 1 and len(params["v_blocks"]) == 1


def test_decompose_refuses_outsider():
    code, out, _ = run_captured(
        ["decompose", str(INPUTS / "u_pair.json"), str(INPUTS / "c_plain.json")]
    )
    assert code == EXIT_REFUSED
    assert "does not commute" in json.loads(out)["error"]["message"]


def _symmetric_noise(rng, n, norm):
    N = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    N += N.T
    return N * (norm / np.linalg.norm(N))


def test_verify_and_decompose_exit_0_together(tmp_path):
    # one membership rule: decompose returns exactly when verify passes at its
    # default threshold.  The first C is sample(U, 3) plus symmetric noise of
    # norm 3e-8, which verify passed and decompose refused as "not a
    # conjugation"; the rest are seeded members under symmetric noise, or
    # transported by exp(i eps H), with norms 10^-9.5 n to 10^-6.5 n
    U = np.diag(np.exp(1j * np.array([0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 0.0, np.pi])))
    n = len(U)
    rng = np.random.default_rng(27)
    u = tmp_path / "u.json"
    save_json(u, matrix_to_dict(U))
    members = [sample(U, 3).matrix + _symmetric_noise(rng, n, 3e-8)]
    for k in range(40):
        eps = 10 ** rng.uniform(-9.5, -6.5) * n
        if k % 2:
            w, Q = np.linalg.eigh(_symmetric_noise(rng, n, 1.0).real)
            R = (Q * np.exp(1j * eps * w)) @ Q.T
            members.append(R @ sample(U, k).matrix @ R.T)
        else:
            members.append(sample(U, k).matrix + _symmetric_noise(rng, n, eps))
    codes = []
    for k, A in enumerate(members):
        c = tmp_path / f"c{k}.json"
        save_json(c, matrix_to_dict(A))
        verified = run_captured(["verify", str(u), str(c)])[0]
        decomposed = run_captured(["decompose", str(u), str(c)])[0]
        assert (verified == EXIT_OK) == (decomposed == EXIT_OK), k
        codes.append((verified, decomposed))
    assert codes[0] == (EXIT_OK, EXIT_OK)
    assert set(codes) == {(EXIT_OK, EXIT_OK), (EXIT_TOLERANCE, EXIT_INPUT),
                          (EXIT_TOLERANCE, EXIT_REFUSED)}


@pytest.mark.parametrize("u,c,code,message", [
    ("u_pair", "c_antisymmetric", EXIT_INPUT, "C is not a conjugation"),
    ("u_pair", "c_plain", EXIT_REFUSED, "C does not commute with U: commutation defect 2.828e+00"),
    # canonical_form runs before C is looked at: a non-self-dual U is refused
    # first, also against a C that is not a conjugation
    ("u_bad", "c_antisymmetric", EXIT_REFUSED, "C_c(U) is empty"),
])
def test_decompose_refusals_follow_verify(tmp_path, u, c, code, message):
    path = tmp_path / "c_antisymmetric.json"
    save_json(path, matrix_to_dict(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    c_path = path if c == "c_antisymmetric" else INPUTS / f"{c}.json"
    got, out, _ = run_captured(["decompose", str(INPUTS / f"{u}.json"), str(c_path)])
    assert got == code
    assert json.loads(out)["error"]["message"].startswith(message)


def test_decompose_dimension_mismatch_is_input_error():
    code, out, _ = run_captured(
        ["decompose", str(INPUTS / "u_mixed.json"), str(INPUTS / "c_swap.json")]
    )
    assert code == EXIT_INPUT
    assert json.loads(out) == {"error": {"code": 2, "message": "operator dimensions do not match"}}


def test_verify_non_unitary_u_is_input_error(tmp_path):
    u_file = tmp_path / "u_bad.json"
    save_json(u_file, matrix_to_dict(np.diag([2.0, 1.0])))
    code, out, err = run_captured(["verify", str(u_file), str(INPUTS / "c_plain.json")])
    assert code == EXIT_INPUT
    message = "U is not unitary: defect 3.000e+00"
    assert json.loads(out) == {"error": {"code": 2, "message": message}}
    assert message in err


def test_measure_refusal_exit_code():
    code, out, _ = run_captured(["measure", "rn", str(INPUTS / "mu_unpaired.json")])
    assert code == EXIT_REFUSED
    assert "absolutely continuous" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("weights", [[1e300, 1e-300], [5e-324, 1.0]])
def test_measure_rn_refuses_a_weight_ratio_outside_the_float_range(tmp_path, weights):
    # h_k * h_sigma(k) = 1 has no float answer: exit 2 naming the file and
    # the atom, and no overflow warning on stderr
    path = tmp_path / "m.json"
    save_json(path, {"atoms": [{"theta": 0.5, "weight": weights[0]},
                               {"theta": -0.5, "weight": weights[1]}]})
    code, out, err = run_captured(["measure", "rn", str(path)])
    assert code == EXIT_INPUT
    message = f"{path}: atom at angle 0.5: the weight ratio to its conjugate partner leaves the float range"
    assert json.loads(out) == {"error": {"code": EXIT_INPUT, "message": message}}
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("action,files,message", [
    ("reflect", ["mu.json", "mu2.json"], "measure reflect needs one measure file"),
    ("rn", ["mu.json", "missing.json"], "measure rn needs one measure file"),
    ("meet", ["mu.json"], "measure meet needs two measure files"),
    ("join", ["mu.json", "mu2.json", "mu.json"], "measure join needs two measure files"),
])
def test_measure_file_count_is_checked_before_loading(action, files, message):
    # missing.json does not exist: the count is refused before any file is read
    code, out, _ = run_captured(["measure", action, *(str(INPUTS / f) for f in files)])
    assert code == EXIT_INPUT
    assert json.loads(out) == {"error": {"code": EXIT_INPUT, "message": message}}


def test_matrix_schema_round_trip(rng):
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_dict(matrix_to_dict(M), "mem")
    assert np.array_equal(back, M)


def test_measure_schema_round_trip(rng):
    mu = AtomicMeasure([0.3, -0.3], [1.0, 2.0])
    back = AtomicMeasure.from_dict(mu.to_dict())
    assert np.array_equal(back.thetas, mu.thetas)
    assert np.array_equal(back.weights, mu.weights)


EMPTY = {"rows": 0, "cols": 0, "data": []}


@pytest.mark.parametrize("command", ["check", "canonical", "sample", "verify", "decompose"])
def test_empty_matrix_is_the_trivial_case(tmp_path, command):
    # the 0x0 unitary is self-dual and its family is the empty conjugation
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(EMPTY))
    p = str(path)
    argv = {
        "check": ["check", p],
        "canonical": ["canonical", p],
        "sample": ["sample", p, "--seed", "1"],
        "verify": ["verify", p, p],
        "decompose": ["decompose", p, p],
    }[command]
    code, out, _ = run_captured(argv)
    assert code == EXIT_OK
    payload = json.loads(out)
    if command == "check":
        assert payload == {"mismatches": [], "selfdual": True}
    elif command == "decompose":
        assert payload == {"ell": 0, "kay": 0, "pairs": [], "q_minus": EMPTY,
                           "q_plus": EMPTY, "v_blocks": []}
    else:
        assert payload["n"] == 0 and payload["passed"] is True
        assert payload.get("conjugation", EMPTY) == EMPTY


@pytest.mark.parametrize("command", ["check", "canonical", "sample"])
def test_clusters_snapped_to_one_get_a_verdict(tmp_path, command):
    # two clusters 1.8e-7 apart that both snap to 1 used to leave W 14 x 13
    path = tmp_path / "u.json"
    save_json(path, matrix_to_dict(np.diag(np.exp(1j * np.array([9e-8, -9e-8] + [0.5, -0.5] * 6)))))
    argv = [command, str(path)] + (["--seed", "1"] if command == "sample" else [])
    code, out, _ = run_captured(argv)
    assert code in (EXIT_OK, EXIT_REFUSED, EXIT_TOLERANCE), out


@pytest.mark.parametrize("command,size,code,message", [
    ("fourier-demo", 0, EXIT_INPUT, "four-block model size must be a positive multiple of 4"),
    ("fourier-demo", -4, EXIT_INPUT, "four-block model size must be a positive multiple of 4"),
    ("fourier-demo", 6, EXIT_INPUT, "four-block model size must be a positive multiple of 4"),
    ("hilbert-demo", 0, EXIT_INPUT, "two-block model size must be a positive even number"),
    ("hilbert-demo", -4, EXIT_INPUT, "two-block model size must be a positive even number"),
    ("hilbert-demo", 6, EXIT_OK, None),
])
def test_transform_demo_sizes(command, size, code, message):
    got, out, _ = run_captured([command, "--size", str(size)])
    assert got == code
    payload = json.loads(out)
    if message is None:
        assert payload["passed"] is True and payload["n"] == size
    else:
        assert payload == {"error": {"code": EXIT_INPUT, "message": message}}


def test_load_matrix_missing_file(tmp_path):
    code, out, _ = run_captured(["check", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT


def _as_lists(obj):
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _special_matrix(n, rng):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    specials = np.array([-0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -3.0, 0.0, 2.0**60, 1e-7])
    M.real.flat[: min(M.size, len(specials))] = specials[: M.size]
    M.imag.flat[::-7] = np.resize(specials, M.imag.flat[::-7].shape)
    return M


@pytest.mark.parametrize("n", [0, 1, 64, 131])
def test_writer_matches_json_dumps(tmp_path, rng, monkeypatch, n):
    # emit and save_json stream arrays row by row, from 2 * n * n >= _SPLIT
    # on with a forked child formatting the second half of the rows; the
    # bytes must still be exactly those of json.dumps(indent=2,
    # sort_keys=True) on plain lists
    M = _special_matrix(n, rng)
    if n > 64:
        M[n - 2, 3] = complex(np.inf, -np.inf)  # a non-finite row in the child's half
        M[1, 5] = complex(-np.inf, 0.5)  # and one in this process's
    forks = []
    forked = cli._forked
    monkeypatch.setattr(cli, "_forked", lambda produce: forks.append(1) or forked(produce))
    empty = matrix_to_dict(np.zeros((0, 0)))
    docs = [
        matrix_to_dict(M),
        {"passed": True, "n": n, "threshold": 1e-8, "conjugation": matrix_to_dict(M)},
        {"pairs": [{"eigenvalue": [0.5, -0.0], "size": 2}], "ell": 0, "kay": 1,
         "v_blocks": [matrix_to_dict(M), matrix_to_dict(M[:1, :1])],
         "q_plus": empty, "q_minus": matrix_to_dict(np.eye(min(n, 2)))},
        {"outer": [[{"deep": [matrix_to_dict(M)]}], empty], "note": "text\u0000"},
    ]
    for doc in docs:
        want = json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            emit(doc)
        assert buf.getvalue() == want
        save_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == want
        assert json.loads(want) == _as_lists(doc)
    assert len(forks) == (0 if 2 * n * n < cli._SPLIT else 2 * len(docs))  # one M per doc, twice
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_writer_nonfinite_and_other_arrays():
    doc = {
        "m": matrix_to_dict(np.array([[np.nan + 1j * np.inf, -np.inf]])),
        "v": np.array([1.5, -0.0]),
        "g": np.zeros((2, 3)),
        "s": np.array(2.0),
        "i": np.arange(3),
        "e": np.zeros((3, 0, 2)),
    }
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit(doc)
    assert buf.getvalue() == json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("header", [
    '"rows": 2.7, "cols": 2.2',
    '"rows": true, "cols": 1',
    '"rows": -1, "cols": 1',
], ids=["fractional", "boolean", "negative"])
def test_matrix_header_must_be_nonnegative_integers(tmp_path, header):
    path = tmp_path / "bad.json"
    path.write_text("{%s, %s}" % (header, '"data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]'))
    code, out, _ = run_captured(["check", str(path)])
    assert code == EXIT_INPUT
    message = f"{path}: rows/cols must be nonnegative integers"
    assert json.loads(out) == {"error": {"code": EXIT_INPUT, "message": message}}


def test_matrix_parser_rejects_misfits():
    cases = [
        ({"rows": 2, "cols": 1, "data": [[[1, 0]]]}, "data must be a list of 2 entries"),
        ({"rows": 1, "cols": 2, "data": [[[1, 0], [1, 0, 0]]]}, "data[0][1] must be a [re, im] pair"),
        ({"rows": 1, "cols": 1, "data": [[[1, "x"]]]}, "data[0][0][1] must be a number"),
        ({"rows": 1, "cols": 1, "data": [[[1, None]]]}, "data entries must be finite"),
        ({"rows": 1, "cols": 1, "data": [[[1e400, 0]]]}, "data entries must be finite"),
        ({"rows": "x", "cols": 1, "data": []}, "rows/cols must be integers"),
    ]
    for obj, message in cases:
        with pytest.raises(InputError) as err:
            matrix_from_dict(obj, "m.json")
        assert str(err.value) == f"m.json: {message}"
    assert matrix_from_dict({"rows": 0, "cols": 0, "data": []}, "m").shape == (0, 0)
    assert matrix_from_dict({"rows": 2, "cols": 0, "data": [[], []]}, "m").shape == (2, 0)
    assert matrix_from_dict({"rows": 2.0, "cols": 0.0, "data": [[], []]}, "m").shape == (2, 0)


# 2 x 2 identities whose entries are not all JSON numbers: numpy reads "1.0",
# true and false as numbers, the last even among floats
NON_NUMBER_DATA = {
    "strings": ('[[["1.0", "0"], ["0", "0"]], [["0", "0"], ["1.0", "0"]]]', "data[0][0][0]"),
    "booleans": ("[[[true, false], [false, false]], [[false, false], [true, false]]]", "data[0][0][0]"),
    "one_false": ("[[[1.0, 0.0], [0.0, 0.0]], [[0.0, false], [1.0, 0.0]]]", "data[1][0][1]"),
}


@pytest.mark.parametrize("kind", list(NON_NUMBER_DATA))
def test_matrix_entries_must_be_json_numbers(monkeypatch, tmp_path, kind):
    # refused with exit 2, naming the first such entry, here and in the
    # forked loader's child, which runs the same load_matrix
    data, entry = NON_NUMBER_DATA[kind]
    path = tmp_path / "c.json"
    path.write_text('{"rows": 2, "cols": 2, "data": %s}' % data)
    refusal = (EXIT_INPUT, {"error": {"code": EXIT_INPUT, "message": f"{path}: {entry} must be a number"}})
    code, out, _ = run_captured(["check", str(path)])
    assert (code, json.loads(out)) == refusal
    monkeypatch.setattr(cli, "_LOAD_CHILD", (0, float("inf")))
    answers = _spy_forks(monkeypatch)
    code, out, _ = run_captured(["verify", str(INPUTS / "u_pair.json"), str(path)])
    assert (code, json.loads(out)) == refusal and answers == [False]


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv", [
    ["check", "u_pair.json"],
    ["canonical", "u_pair.json"],
    ["sample", "u_pair.json", "--seed", "3"],
    ["decompose", "u_pair.json", "c_swap.json"],
    ["verify", "u_pair.json", "c_swap.json"],
], ids=lambda argv: argv[0])
def test_commands_never_import_scipy(argv):
    # the library is numpy only: importing the CLI and running a command,
    # diagonalizing or not, must not load scipy
    code = (
        "import sys, conjugations.cli\n"
        "loaded = 'scipy' in sys.modules\n"
        "code = conjugations.cli.run(sys.argv[1:])\n"
        "print(loaded, code, 'scipy' in sys.modules, file=sys.stderr)\n"
    )
    args = [str(INPUTS / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=_src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False 0 False"
    if argv[0] == "verify":
        assert json.loads(proc.stdout)["passed"] is True


def test_matrix_commands_never_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, a few ms of every process that calls it; the
    # commands group clusters, pair blocks and measure atoms by one sort instead
    Q = haar_unitary(6, 5)
    U = (Q * np.exp(1j * np.array([0.5, -0.5, 1.2, -1.2, 0.0, np.pi]))) @ Q.conj().T
    u, c = str(tmp_path / "u.json"), str(tmp_path / "c.json")
    save_json(u, matrix_to_dict(U))
    save_json(c, matrix_to_dict(sample(U, 3).matrix))
    argvs = [["check", u], ["canonical", u], ["sample", u, "--seed", "3"], ["verify", u, c],
             ["decompose", u, c]]
    for u, c in (("u_pair.json", "c_swap.json"), ("u_mixed.json", "c_mixed.json")):
        u, c = str(INPUTS / u), str(INPUTS / c)  # diagonal: the block engine's classes
        argvs += [["canonical", u], ["sample", u, "--seed", "3"], ["verify", u, c],
                  ["decompose", u, c]]
    mu, mu2 = str(INPUTS / "mu.json"), str(INPUTS / "mu2.json")
    argvs += [["measure", "reflect", mu], ["measure", "rn", mu], ["measure", "meet", mu, mu2],
              ["measure", "join", mu, mu2]]
    code = (
        "import sys, conjugations.cli\n"
        f"codes = [conjugations.cli.run(argv) for argv in {argvs!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr.splitlines()[-1] == f"{[0] * len(argvs)} False", proc.stderr


ENTRY_CASES = ("sample_mixed", "verify_fail", "decompose_swap", "canonical_refused",
               "malformed_input")


@pytest.mark.parametrize("case", [c for c in golden_cases() if c["name"] in ENTRY_CASES],
                         ids=lambda c: c["name"])
def test_golden_through_the_process_entry(case):
    # test_golden calls run(); this goes through main() and the interpreter's
    # exit, as the console script does
    argv = [a.replace("{IN}", str(INPUTS)) for a in case["argv"]]
    proc = subprocess.run(
        [sys.executable, "-m", "conjugations.cli", *argv], env=_src_env(), capture_output=True,
        timeout=120,
    )
    assert proc.returncode == case["exit_code"], proc.stderr
    expected = (GOLDEN / "expected" / f"{case['name']}.out").read_bytes()
    assert proc.stdout.replace(str(INPUTS).encode(), b"{IN}") == expected


def test_file_errors_end_cleanly_through_the_process_entry(tmp_path):
    # an -o target that cannot be written exits 2 naming it, and fourunit's
    # check of huge entries passes; each prints one JSON document and one
    # stderr line, no traceback or warning, and leaves no temporary file
    big = tmp_path / "big.json"
    save_json(big, matrix_to_dict(np.array([[1e300, -1e300], [1e300, 1e300]])))
    u, c, missing = str(INPUTS / "u_pair.json"), str(INPUTS / "c_swap.json"), tmp_path / "no" / "x.json"
    cases = [
        (["canonical", u, "-o", str(missing)], EXIT_INPUT, f"{missing}: No such file or directory"),
        (["sample", u, "--seed", "3", "-o", str(tmp_path)], EXIT_INPUT, f"{tmp_path}: Is a directory"),
        (["decompose", u, c, "-o", str(missing)], EXIT_INPUT, f"{missing}: No such file or directory"),
        (["fourunit", str(big)], EXIT_OK, None),
    ]
    for argv, code, message in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "conjugations.cli", *argv], env=_src_env(), capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        doc = json.loads(proc.stdout)
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        if message is None:
            assert np.isfinite(doc["residual"])
        else:
            assert doc == {"error": {"code": EXIT_INPUT, "message": message}}
            assert proc.stderr == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["big.json"]


def test_main_runs_without_the_cyclic_collector():
    # main() owns its process: the collector is off for the command and
    # everything alive at its end is frozen, so the exit collection skips it
    code = (
        "import atexit, gc, sys\n"
        "from conjugations.cli import main\n"
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "check", str(INPUTS / "u_pair.json")], env=_src_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False True"


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(enabled):
    # run() is the library's entry: a caller shares the collector with its
    # whole process, so only main() may switch it off or freeze
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert run_captured(["sample", str(INPUTS / "u_mixed.json"), "--seed", "7"])[0] == EXIT_OK
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


TWO_FILE_CASES = [c for c in golden_cases() if c["argv"][0] in ("verify", "decompose")]


class _Unsent(bytes):
    """A piece counted in the length a child announces but never sent, as
    when the child dies while sending."""

    def __len__(self):
        return 100


def _break_fork(monkeypatch, how):
    """Let load_matrices fork for a second file of any size, then make its
    child, and the split writer's, unavailable: no os.fork, a child that
    leaves without sending anything, or one whose bytes stop short of the
    length it announced."""
    monkeypatch.setattr(cli, "_LOAD_CHILD", (0, float("inf")))
    forked = cli._forked
    if how == "missing":
        monkeypatch.delattr(os, "fork")
    elif how == "silent":
        monkeypatch.setattr(cli, "_forked", lambda produce: forked(lambda: os._exit(0)))
    elif how == "short":
        monkeypatch.setattr(cli, "_forked", lambda produce: forked(lambda: [*produce(), _Unsent()]))


def _spy_forks(monkeypatch):
    """Record, per forked child, whether its answer arrived."""
    answers, forked = [], cli._forked

    def spy(produce):
        wait, asked = forked(produce), []

        def first_answer(read=True):
            data = wait(read)
            if not asked:
                asked.append(read)
                answers.append(data is not None)
            return data

        return first_answer

    monkeypatch.setattr(cli, "_forked", spy)
    return answers


@pytest.mark.parametrize("how", ["working", "missing", "silent", "short"])
@pytest.mark.parametrize("case", TWO_FILE_CASES, ids=lambda c: c["name"])
def test_two_file_commands_load_here_without_a_child(monkeypatch, case, how):
    # the second file is parsed in a forked child; without one the command
    # loads it itself, and every outcome stays the golden one
    _break_fork(monkeypatch, how)
    argv = [a.replace("{IN}", str(INPUTS)) for a in case["argv"]]
    code, out, _ = run_captured(argv)
    assert code == case["exit_code"]
    assert out.replace(str(INPUTS), "{IN}") == (GOLDEN / "expected" / f"{case['name']}.out").read_text()
    with pytest.raises(ChildProcessError):  # no child outlives run()
        os.waitpid(-1, os.WNOHANG)


BAD_MATRIX_FILES = {
    "missing": None,
    "invalid_json": '{"rows": 1, "cols": 1, "data": [[[1, 0]]]',
    "misfit": '{"rows": 1, "cols": 1, "data": [[[1, "x"]]]}',
    "nonfinite": '{"rows": 1, "cols": 1, "data": [[[NaN, 0]]]}',
}


def _bad_matrix(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    if BAD_MATRIX_FILES[kind] is not None:
        path.write_text(BAD_MATRIX_FILES[kind])
    return str(path)


@pytest.mark.parametrize("command", ["verify", "decompose"])
@pytest.mark.parametrize("kind", list(BAD_MATRIX_FILES))
def test_two_file_errors_keep_their_order(monkeypatch, tmp_path, command, kind):
    # the child's InputError is the one load_matrix gives here, and a bad
    # first file wins over a bad second one, as when both load in turn
    bad, good = _bad_matrix(tmp_path, kind), str(INPUTS / "c_swap.json")
    with pytest.raises(InputError) as err:
        load_matrix(bad)
    other = _bad_matrix(tmp_path, "invalid_json" if kind == "missing" else "missing")
    for first, second, message in [(good, bad, str(err.value)), (bad, other, str(err.value))]:
        outs = []
        for how in ("working", "missing"):
            with monkeypatch.context() as m:
                _break_fork(m, how)
                outs.append(run_captured([command, first, second]))
        assert outs[0] == outs[1]
        assert outs[0][0] == EXIT_INPUT
        assert json.loads(outs[0][1]) == {"error": {"code": EXIT_INPUT, "message": message}}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_child_that_raises_sends_nothing():
    # a child sends data or nothing: its error is this process's to redo
    def fails():
        raise InputError("bad file")

    assert cli._forked(fails)() is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_child_sends_every_byte():
    # more than a pipe holds, in pieces of every kind the CLI sends
    pieces = [os.urandom(1 << 20), b"", np.arange(5.0).tobytes(), "text".encode()]
    assert cli._forked(lambda: pieces)() == b"".join(pieces)
    assert cli._forked(lambda: [*pieces, _Unsent()])() is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_second_file_loads_in_a_child_only_within_the_size_gate(monkeypatch):
    # every golden input is far below the gate; a file above it loads here
    answers = _spy_forks(monkeypatch)
    u, c = str(INPUTS / "u_pair.json"), str(INPUTS / "c_swap.json")
    size = os.path.getsize(c)
    assert size < cli._LOAD_CHILD[0]
    for bounds, forked in [(cli._LOAD_CHILD, []), ((0, size - 1), []), ((size, size), [True])]:
        monkeypatch.setattr(cli, "_LOAD_CHILD", bounds)
        answers.clear()
        assert run_captured(["verify", u, c])[0] == EXIT_OK
        assert answers == forked


@pytest.mark.parametrize("how", ["silent", "short", "missing"])
def test_split_writer_formats_here_without_an_answer(monkeypatch, tmp_path, rng, how):
    # the child's half is read whole before any of it is written, so a
    # child that dies, even partway through sending, leaves no partial text
    _break_fork(monkeypatch, how)
    doc = matrix_to_dict(_special_matrix(131, rng))
    save_json(tmp_path / "m.json", doc)
    assert (tmp_path / "m.json").read_text() == json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forks_work_when_sigchld_is_ignored(monkeypatch, tmp_path, rng):
    # a process started with SIGCHLD ignored has its children reaped by the
    # kernel, so waitpid finds none to reap; the children's answers still count
    _break_fork(monkeypatch, "working")
    answers = _spy_forks(monkeypatch)
    case = next(c for c in TWO_FILE_CASES if c["name"] == "decompose_swap")
    doc = matrix_to_dict(_special_matrix(131, rng))
    was = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        code, out, _ = run_captured([a.replace("{IN}", str(INPUTS)) for a in case["argv"]])
        save_json(tmp_path / "m.json", doc)
    finally:
        signal.signal(signal.SIGCHLD, was)
    assert answers == [True, True]
    assert code == case["exit_code"]
    assert out.replace(str(INPUTS), "{IN}") == (GOLDEN / "expected" / f"{case['name']}.out").read_text()
    assert (tmp_path / "m.json").read_text() == json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"
