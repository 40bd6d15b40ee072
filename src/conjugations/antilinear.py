"""Antilinear operators x -> A conj(x): conjugation predicates, composition,
unitary transport, and the commuting/symmetric defects against a unitary.

Storing only the matrix A of the linear part keeps every identity in plain
matrix algebra: the composite C U C acts as A conj(U) conj(A), so defects are
Frobenius norms of small matrix expressions instead of real 2n x 2n
embeddings.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_square_matrix, require_unitary, threshold
from .linalg import unitarity_defect


@dataclass(frozen=True)
class AntilinearOperator:
    """The antilinear map x -> A conj(x) on coordinate space."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_square_matrix(self.matrix, "A"))

    @property
    def dim(self):
        return self.matrix.shape[0]


def plain_conjugation(n):
    """J x = conj(x), entrywise conjugation (A = I)."""
    return AntilinearOperator(np.eye(n))


@dataclass(frozen=True)
class ConjugationReport:
    """Defect aggregate; fields not measured by a given check stay NaN."""

    isometry_defect: float
    involution_defect: float
    commutation_defect: float = math.nan
    symmetry_defect: float = math.nan

    def as_dict(self):
        return {
            "isometry_defect": self.isometry_defect,
            "involution_defect": self.involution_defect,
            "commutation_defect": self.commutation_defect,
            "symmetry_defect": self.symmetry_defect,
        }


def apply(C, x):
    x = np.asarray(x, dtype=complex)
    if x.shape[0] != C.dim:
        raise InputError(f"vector of length {x.shape[0]} fed to a dim-{C.dim} operator")
    return C.matrix @ np.conj(x)


def is_conjugation(C):
    """Whether C is antilinear-isometric-involutive: A unitary with A^t = A.

    Returns (verdict, report).  The report carries the isometry defect
    ||A*A - I|| and the involution defect ||A conj(A) - I||; the verdict
    requires the isometry defect and the matrix symmetry ||A - A^t|| to sit
    below threshold(sqrt(n)).
    """
    A = C.matrix
    n = A.shape[0]
    iso = unitarity_defect(A)
    inv = float(np.linalg.norm(A @ np.conj(A) - np.eye(n)))
    sym = float(np.linalg.norm(A - A.T))
    thr = threshold(np.sqrt(max(n, 1)))
    report = ConjugationReport(isometry_defect=iso, involution_defect=inv)
    return bool(iso <= thr and sym <= thr), report


def compose(left, right):
    """Composite left after right.

    antilinear o antilinear is linear with matrix A conj(B); a linear matrix
    M composes as M A (linear first) or A conj(M) (antilinear first).
    """
    left_anti = isinstance(left, AntilinearOperator)
    right_anti = isinstance(right, AntilinearOperator)
    L = left.matrix if left_anti else as_square_matrix(left, "left")
    R = right.matrix if right_anti else as_square_matrix(right, "right")
    if L.shape != R.shape:
        raise InputError(f"dimension mismatch in compose: {L.shape} vs {R.shape}")
    if left_anti and right_anti:
        return L @ np.conj(R)
    if left_anti:
        return AntilinearOperator(L @ np.conj(R))
    if right_anti:
        return AntilinearOperator(L @ R)
    return L @ R


def transport(C, W):
    """Move C to the W-coordinates: W C W* has matrix W A W^t."""
    W = require_unitary(W, "W")
    if W.shape[0] != C.dim:
        raise InputError("transport dimension mismatch")
    return AntilinearOperator(W @ C.matrix @ W.T)


def _cuc_distance(C, U, adjoint, caller):
    """||A conj(U) conj(A) - T|| in Frobenius norm, T = U* if adjoint else U."""
    U = as_square_matrix(U, "U")
    if U.shape[0] != C.dim:
        raise InputError(f"{caller} dimension mismatch")
    A = C.matrix
    return float(np.linalg.norm(A @ np.conj(U) @ np.conj(A) - (U.conj().T if adjoint else U)))


def _class_report(A, d):
    """The four defects of x -> A conj(x) against U = diag(d) from the blocks
    A[I_a, I_b] pairing each class I_a = {i : d_i = lam} with the class I_b
    of conj(lam), or None when A has a nonzero entry off them (an exact
    count).  A*A, A conj(A) and A conj(U) conj(A) = lam A conj(A) are then
    block diagonal: sum m_a^3 work instead of n^3.  A class without a
    conjugate partner has I_b empty."""
    values, cls, counts = np.unique(d, return_inverse=True, return_counts=True)
    at = np.minimum(np.searchsorted(values, np.conj(values)), len(values) - 1)
    partner = np.where(values[at] == np.conj(values), at, -1)
    members = np.split(np.argsort(cls, kind="stable"), np.cumsum(counts)[:-1])
    rows = [A[np.ix_(I, members[b] if b >= 0 else I[:0])] for I, b in zip(members, partner)]
    if sum(map(np.count_nonzero, rows)) != np.count_nonzero(A):
        return None
    sq = np.zeros(4)
    for lam, B, b in zip(values, rows, partner):
        K = rows[b] if b >= 0 else B.T  # A[I_b, I_a]
        G, M = K.conj().T @ K, B @ np.conj(K)
        cuc, sym = lam * M, lam * M
        for R, target in ((G, 1), (M, 1), (cuc, lam), (sym, np.conj(lam))):
            R.flat[:: len(R) + 1] -= target
        sq += [np.vdot(R, R).real for R in (G, M, cuc, sym)]
    return ConjugationReport(*map(float, np.sqrt(sq)))


def commutation_defect(C, U):
    """||C U C - U|| as ||A conj(U) conj(A) - U|| in Frobenius norm.

    Measures any square U; verify_membership checks U's unitarity first."""
    return _cuc_distance(C, U, False, "commutation_defect")


def symmetry_defect(C, U):
    """||C U C - U*|| as ||A conj(U) conj(A) - U*|| in Frobenius norm.

    Measures any square U; verify_membership checks U's unitarity first."""
    return _cuc_distance(C, U, True, "symmetry_defect")
