"""Independent output checks, numpy only: nothing here imports conjugations.

Each check returns a list of failure messages; an empty list means the job's
outputs are correct.  A conjugation is given by the matrix A of x -> A conj(x).
"""

import json

import numpy as np

EXPECTED_CLI_CODES = (0, 0, 0, 3)
REFUSAL_PREFIX = "C_c(U) is empty"


def contract(n):
    """The membership contract: every defect at most 1e-8 n."""
    return 1e-8 * max(n, 1)


def defects(U, A):
    """Isometry, involution and commutation defects of A against U (Frobenius).

    U is a matrix or, one-dimensional, the diagonal of one.
    """
    eye = np.eye(A.shape[0])
    if U.ndim == 1:
        AUA, U = (A * U.conj()) @ A.conj(), np.diag(U)
    else:
        AUA = A @ U.conj() @ A.conj()
    return (
        float(np.linalg.norm(A.conj().T @ A - eye)),
        float(np.linalg.norm(A @ A.conj() - eye)),
        float(np.linalg.norm(AUA - U)),
    )


def check_member(U, A, thr, label="C"):
    A = np.asarray(A, dtype=complex)
    n = U.shape[0]
    if A.shape != (n, n):
        return [f"{label}: shape {A.shape}, expected {(n, n)}"]
    if not np.all(np.isfinite(A)):
        return [f"{label}: non-finite entries"]
    names = ("isometry", "involution", "commutation")
    return [f"{label}: {name} defect {d:.3e} > {thr:.1e}"
            for name, d in zip(names, defects(U, A)) if not d <= thr]


def check_matrix_job(inp, out):
    U = inp["U"]
    thr = contract(U.shape[0])
    fails = check_member(U, out["C"], thr)
    rebuild = float(np.linalg.norm(np.asarray(out["rebuilt"]) - out["C"]))
    if not rebuild <= thr:
        fails.append(f"from_params rebuild differs from C by {rebuild:.3e}")
    if out["passed"] is not True:
        fails.append("verify_membership did not pass")
    if out["layout"] != inp["planted"]:
        fails.append(f"block layout {out['layout']} != planted {inp['planted']}")
    return fails


def matrix_from_json(obj):
    data = np.asarray(obj["data"], dtype=float)
    return data[..., 0] + 1j * data[..., 1]


def check_cli_job(inp, steps, c_path, p_path):
    """steps: (command, exit code, stdout) per step, in job order."""
    codes = tuple(code for _, code, _ in steps)
    if codes != EXPECTED_CLI_CODES:
        return [f"exit codes {codes} != {EXPECTED_CLI_CODES}"]
    fails = []
    try:
        docs = [json.loads(stdout) for _, _, stdout in steps]
    except json.JSONDecodeError as e:
        return [f"stdout is not JSON: {e}"]
    for (cmd, _, _), doc in zip(steps[:2], docs[:2]):
        if doc.get("passed") is not True:
            fails.append(f"{cmd}: stdout lacks passed: true")
    mults, ell, kay = inp["planted"]
    dec = docs[2]
    if ([p.get("size") for p in dec.get("pairs", [])], dec.get("ell"), dec.get("kay")) != (list(mults), ell, kay):
        fails.append("decompose: block layout differs from the planted spectrum")
    message = docs[3].get("error", {}).get("message", "")
    if not message.startswith(REFUSAL_PREFIX):
        fails.append(f"canonical: refusal message {message[:60]!r}")
    U = inp["U"]
    thr = contract(U.shape[0])
    with open(c_path) as fh:
        fails += check_member(U, matrix_from_json(json.load(fh)), thr)
    with open(p_path) as fh:
        params = json.load(fh)
    for j, block in enumerate(params["v_blocks"]):
        V = matrix_from_json(block)
        d = float(np.linalg.norm(V.conj().T @ V - np.eye(V.shape[0])))
        if not d <= thr:
            fails.append(f"decompose: pair block {j} unitarity defect {d:.3e}")
    return fails


# Acceptance-criterion thresholds the models job is held to.
MEASURE_DEFECT = 1e-10    # criterion 5, composed field
SHIFT_DEFECT = 1e-11      # criterion 6, grid family defects
SYMBOL_EXTRACT = 1e-8     # criterion 6, symbol extraction
SPLIT_TOL = 1e-9          # criterion 8
HERMITE_RESIDUAL = 3.937904020727945e-11  # criterion 9 fixture, n = 8 on 512 points


def transform_contract(N):
    """The fourier-demo / hilbert-demo contract, 1e-12 N.

    Criterion 7 states an absolute 1e-12 for N <= 64; at N = 512 the
    diagonal (-i)^n of the Fourier model itself carries about 1e-12 of
    roundoff, so the size-scaled contract of the demos applies.
    """
    return 1e-12 * N


def measure_matrix(images, weights):
    """Matrix A of x -> A conj(x) in the orthonormal coordinates sqrt(w_k) f(k, m).

    images[j] holds the values (atom, fiber index) of the image of the j-th
    orthonormal basis element, whose only nonzero value is 1 / sqrt(w_k) at
    atom k = j // r, fiber index j % r.
    """
    coords = np.sqrt(weights)[None, :, None] * images
    return coords.reshape(images.shape[0], -1).T


def expected_symbol(s, alpha, beta, gamma):
    """The 2x2 squared-shift symbol the parameter samples define.

    At argument t >= 0 it reads [[e^{ia} s, e^{ib} c], [e^{ig} c, -e^{i(b+g-a)} s]]
    with c = sqrt(1 - s^2), every sample taken at |t|; at negative
    arguments the off-diagonal phases trade places, and at the points
    +-1 both take their mean.
    """
    L = s.size
    k = np.arange(L)
    at = np.minimum(k, (L - k) % L)
    s, a, b, g = s[at], alpha[at], beta[at], gamma[at]
    c = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    fixed = (k == 0) | (2 * k == L)
    lower = ~fixed & (k > L - k)
    p12 = np.where(fixed, (b + g) / 2, np.where(lower, g, b))
    p21 = np.where(fixed, (b + g) / 2, np.where(lower, b, g))
    return np.stack([
        np.stack([np.exp(1j * a) * s, np.exp(1j * p12) * c], axis=-1),
        np.stack([np.exp(1j * p21) * c, -np.exp(1j * (b + g - a)) * s], axis=-1),
    ], axis=-2)


def check_models_job(inp, out):
    """Recompute the model defects from the operators themselves.

    The library's own reports (report(), the grid defects) are outputs too
    and must also meet the thresholds, but a pass never rests on them alone.
    """
    thetas, weights = inp["measure"]
    atoms = np.repeat(np.exp(1j * thetas), inp["fiber"])
    fails = check_member(atoms, measure_matrix(out["measure_images"], weights),
                         MEASURE_DEFECT, "measure model")
    if not max(out["measure_defects"]) <= MEASURE_DEFECT:
        fails.append(f"measure model report() {out['measure_defects']}")
    if out["probe_closed"] is not True or out["probe_open"] is not False:
        fails.append("invariance probe verdicts wrong")
    M = inp["order"]
    squares = np.exp(4j * np.pi * np.arange(M) / M)
    fails += check_member(squares, out["shift_matrix"], SHIFT_DEFECT, "squared shift")
    if not max(out["shift_defects"]) <= SHIFT_DEFECT:
        fails.append(f"squared-shift reported defects {out['shift_defects']}")
    got = out["extracted"]
    rev = (-np.arange(got.shape[0])) % got.shape[0]
    extract = max(
        float(np.max(np.abs(got - expected_symbol(*inp["symbol"])))),
        float(np.max(np.abs(got.transpose(0, 2, 1) - got[rev]))),
        float(np.max(np.abs(np.einsum("kji,kjl->kil", got.conj(), got) - np.eye(2)))),
    )
    if not extract <= SYMBOL_EXTRACT:
        fails.append(f"symbol extraction error {extract:.3e}")
    N = inp["tsize"]
    models = {
        "fourier": (-1j) ** np.arange(N),
        "hilbert": np.repeat([1j, -1j], N // 2),
    }
    for (label, model), (A, passed) in zip(models.items(), out["transforms"]):
        fails += check_member(model, A, transform_contract(N), label)
        if passed is not True:
            fails.append(f"{label}: verify_membership did not pass")
    residual, supported = out["hermite"]
    if not (supported and abs(residual - HERMITE_RESIDUAL) <= 0.1 * HERMITE_RESIDUAL):
        fails.append(f"Hermite residual {residual:.3e} (supported {supported})")
    A, scale, factors = out["split"]
    bound = SPLIT_TOL * (1.0 + float(np.linalg.norm(A)))
    resid = float(np.linalg.norm(A - scale * sum(factors)))
    worst = max(float(np.linalg.norm(F.conj().T @ F - np.eye(F.shape[0]))) for F in factors)
    if not (resid <= bound and worst <= SPLIT_TOL):
        fails.append(f"four-unitary split residual {resid:.3e}, factor defect {worst:.3e}")
    return fails
