"""Random test inputs with a known answer: planted self-dual unitaries and
conjugation-closed atomic measures.

Shared by the test suite and scripts/family_survey.py; both find this module
on their import path (pytest through its pythonpath setting, the script
because it lives in the same directory).
"""

import numpy as np

from conjugations.linalg import haar_unitary
from conjugations.measures import AtomicMeasure


def planted_selfdual(rng, max_dim=32, min_sep=1e-3, force_real_blocks=False):
    """Random self-dual unitary with known conjugate-paired spectrum.

    Returns (U, pairs, ell, kay) where pairs is the sorted tuple of
    (angle, multiplicity) planted in (0, pi), embedded through a Haar basis
    with the diagonal order shuffled.
    """
    while True:
        npairs = int(rng.integers(0, 4))
        ell = int(rng.integers(0, 3))
        kay = int(rng.integers(0, 3))
        if force_real_blocks:
            ell, kay = max(ell, 1), max(kay, 1)
        mults = rng.integers(1, 4, size=npairs)
        n = int(2 * np.sum(mults) + ell + kay)
        if 1 <= n <= max_dim:
            break
    # angles separated by at least min_sep, away from 0 and pi
    grid = np.arange(min_sep * 2, np.pi - min_sep * 2, min_sep * 4)
    angles = np.sort(rng.choice(grid, size=npairs, replace=False)) if npairs else np.zeros(0)
    diag = []
    for ang, m in zip(angles, mults):
        diag.extend([np.exp(1j * ang)] * int(m))
        diag.extend([np.exp(-1j * ang)] * int(m))
    diag.extend([1.0] * ell)
    diag.extend([-1.0] * kay)
    diag = np.array(diag, dtype=complex)
    rng.shuffle(diag)
    W0 = haar_unitary(n, rng)
    U = (W0 * diag) @ W0.conj().T
    pairs = tuple((float(a), int(m)) for a, m in zip(angles, mults))
    return U, pairs, ell, kay


def random_paired_measure(rng, max_pairs=8, with_fixed=True, weight_span=(0.2, 5.0)):
    """Atomic measure closed under conjugation, optionally with atoms at +-1."""
    npairs = int(rng.integers(1, max_pairs + 1))
    angles = rng.uniform(0.05, np.pi - 0.05, size=npairs)
    angles = np.sort(angles)
    # keep pairs resolvable at the canonical angle resolution
    keep = np.concatenate([[True], np.diff(angles) > 1e-6])
    angles = angles[keep]
    ws = rng.uniform(*weight_span, size=2 * len(angles))
    thetas = np.concatenate([angles, -angles])
    weights = ws
    if with_fixed and rng.random() < 0.5:
        thetas = np.append(thetas, 0.0)
        weights = np.append(weights, rng.uniform(*weight_span))
    if with_fixed and rng.random() < 0.5:
        thetas = np.append(thetas, np.pi)
        weights = np.append(weights, rng.uniform(*weight_span))
    return AtomicMeasure(thetas, weights)
