"""Seeded input generation for the benchmark workloads, numpy only.

Nothing here imports the library: the program under test receives only the
arrays these functions return.  Every job draws fresh inputs from its own
generator, so no input repeats across jobs.
"""

import numpy as np

ANGLE_STEP = 4e-3  # planted pair angles sit on a grid of this step


def haar_unitary(n, rng):
    """Haar unitary: QR of a complex Ginibre matrix with the R phases folded into Q."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def symmetric_unitary(n, rng):
    v = haar_unitary(n, rng)
    q = v @ v.T
    return (q + q.T) / 2


def real_symmetric_orthogonal(n, rng):
    """Q diag(+-1) Q^t for a Haar real orthogonal Q."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    s = (q * (rng.integers(0, 2, size=n) * 2.0 - 1.0)) @ q.T
    return (s + s.T) / 2


def planted_selfdual(rng, mults, ell, kay):
    """Self-dual unitary with one conjugate pair per entry of mults plus +-1 blocks.

    Pair angles are drawn without replacement from the grid of step
    ANGLE_STEP inside (0, pi), kept ANGLE_STEP / 2 away from 0 and pi; the
    shuffled diagonal is embedded through a Haar basis.  Returns
    (U, planted) with planted = (sorted pair multiplicities, ell, kay).
    """
    grid = np.arange(ANGLE_STEP / 2, np.pi - ANGLE_STEP / 2, ANGLE_STEP)
    angles = rng.choice(grid, size=len(mults), replace=False)
    diag = []
    for ang, m in zip(angles, mults):
        diag.extend([np.exp(1j * ang)] * m + [np.exp(-1j * ang)] * m)
    diag.extend([1.0] * ell + [-1.0] * kay)
    diag = np.array(diag, dtype=complex)
    rng.shuffle(diag)
    W = haar_unitary(diag.size, rng)
    U = (W * diag) @ W.conj().T
    order = np.argsort(angles)
    return U, (tuple(int(mults[i]) for i in order), ell, kay)


def generic_unitary(rng, n):
    """n/2 distinct conjugate pairs of multiplicity one (n even)."""
    return planted_selfdual(rng, [1] * (n // 2), 0, 0)


def degenerate_unitary(rng, n):
    """Six clusters: four conjugate pairs and the +1 / -1 blocks.

    At n = 512 the pairs carry multiplicity 51 and the real blocks 52 each.
    """
    m = n // 10
    rest = n - 8 * m
    return planted_selfdual(rng, [m] * 4, rest - rest // 2, rest // 2)


def matrix_json(M):
    """The CLI matrix file format, written compactly."""
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": np.stack([M.real, M.imag], axis=-1).tolist(),
    }


def paired_measure(rng, npairs):
    """Angles and weights of npairs conjugate pairs plus atoms at +1 and -1."""
    grid = np.arange(0.05, np.pi - 0.05, 1e-3)
    angles = np.sort(rng.choice(grid, size=npairs, replace=False))
    thetas = np.concatenate([angles, -angles, [0.0, np.pi]])
    weights = rng.uniform(0.1, 10.0, size=thetas.size)
    return thetas, weights


def reflection_symmetric_field(rng, npairs, r):
    """Unitary field for paired_measure's atom order with J U_k J = U_sigma(k)*.

    With entrywise fiber conjugation the reflected value is the transpose
    of the partner's; the self-paired atoms at +-1 carry symmetric unitaries.
    """
    mats = np.empty((2 * npairs + 2, r, r), dtype=complex)
    for k in range(npairs):
        mats[k] = haar_unitary(r, rng)
        mats[npairs + k] = mats[k].T
    mats[-2] = symmetric_unitary(r, rng)
    mats[-1] = symmetric_unitary(r, rng)
    return mats


def symbol_params(rng, half):
    """Modulus and phase samples (s, alpha, beta, gamma) on the half grid."""
    return (
        rng.uniform(0.0, 1.0, half),
        rng.uniform(-np.pi, np.pi, half),
        rng.uniform(-np.pi, np.pi, half),
        rng.uniform(-np.pi, np.pi, half),
    )
