"""Antilinear operators x -> A conj(x): the conjugation predicate, unitary
transport, and the commuting/symmetric defects against a unitary.

Storing only the matrix A of the linear part keeps every identity in plain
matrix algebra: the composite C U C acts as A conj(U) conj(A), so defects are
Frobenius norms of small matrix expressions.  A member commutes with U, so it
maps each eigenspace of U onto the conjugate one: against a diagonal U, an A on
the blocks pairing each eigenvalue class with its conjugate's is measured from
those blocks, stacked by block shape (_block_report); any other A, and any
other U, by the dense products (_dense_report).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .linalg import _nonzeros, _unique_inverse, as_square_matrix, require_unitary, threshold
from .linalg import unitarity_defect

_BATCH = 1 << 14  # block entries of one stacked product; a row panel takes up to twice that


@dataclass(frozen=True)
class AntilinearOperator:
    """The antilinear map x -> A conj(x) on coordinate space."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_square_matrix(self.matrix, "A"))

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ConjugationReport:
    """Defect aggregate; fields not measured by a given check stay NaN."""

    isometry_defect: float
    involution_defect: float
    commutation_defect: float = math.nan
    symmetry_defect: float = math.nan


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


def _block_report(A, classes, partner, lam):
    """The ConjugationReport of x -> A conj(x) against U = diag(lam[classes]) from the
    blocks B_a = A[I_a, I_p(a)], I_a = {i : classes[i] = a}, p = partner the class of
    conj(lam[a]) or -1, or None when a nonzero of A lies off them.  On the blocks,
    A*A, A conj(A), A conj(U) conj(A) have blocks K*K, M = B_a conj(K), conj(lam_p(a)) M,
    K = B_p(a), stacked by shape up to _BATCH entries a product (a larger class: row
    panels of up to 2 _BATCH)."""
    counts = np.bincount(classes, minlength=len(lam))
    order, starts = np.argsort(classes, kind="stable"), np.cumsum(counts) - counts
    width = np.where(partner >= 0, counts[partner], 0)
    group = _unique_inverse(counts * (len(A) + 1) + width)[1]
    groups = [np.flatnonzero(group == g) for g in range(group.max(initial=-1) + 1)]
    stacks = [A[order[starts[c][:, None] + np.arange(counts[c[0]])][:, :, None],
                order[starts[partner[c]][:, None] + np.arange(width[c[0]])][:, None, :]]
              for c in groups]
    if sum(map(_nonzeros, stacks)) != _nonzeros(A):
        return None
    sq, targets = np.zeros((len(lam), 4)), np.stack([lam**0, lam**0, np.conj(lam), lam])
    for cls, B in zip(groups, stacks):
        k, m, w = B.shape
        step, h = max(1, _BATCH // (m * max(m, w))), min(m, max(1, 2 * _BATCH // max(m, w)))
        for s in range(0, k, step):
            c, Bc = cls[s : s + step], B[s : s + step]
            home = group[partner[c[0]]]
            j = np.searchsorted(groups[home], partner[c])
            K = (stacks[home][j[0] : j[0] + 1] if len(c) == 1 else stacks[home][j]) if w else Bc.mT
            R, acc = np.empty((4, len(c), h, m), dtype=complex), 0.0
            for r in range(0, m, h):  # rows r..r+h; conj(M) = conj(B) K against conj targets
                P = R[:, :, : m - r]
                np.matmul(np.conj(K[:, :, r : r + h]).mT, K, out=P[0])
                np.matmul(np.conj(Bc[:, r : r + h]), K, out=P[1])
                P[2] = P[3] = lam[partner[c]][:, None, None] * P[1]
                P = P.reshape(4, len(c), -1)
                P[:, :, r :: m + 1] -= targets[:, c, None]
                acc += np.vecdot(P, P).real.T  # 0.0 + x is x: one panel keeps its bits
            sq[c] = acc
            del K, R, P  # before the next chunk allocates its own
    return ConjugationReport(*map(float, np.sqrt(sq.sum(axis=0))))


def commutation_defect(C, U):
    """||C U C - U|| as ||A conj(U) conj(A) - U|| in Frobenius norm.

    Measures any square U; verify_membership checks U's unitarity first."""
    return _cuc_distance(C, U, False, "commutation_defect")


def symmetry_defect(C, U):
    """||C U C - U*|| as ||A conj(U) conj(A) - U*|| in Frobenius norm.

    Measures any square U; verify_membership checks U's unitarity first."""
    return _cuc_distance(C, U, True, "symmetry_defect")


def _dense_report(C, U):
    """is_conjugation's report with the dense commutation and symmetry defects
    against U: what a matrix off _block_report's blocks is measured by."""
    return replace(is_conjugation(C)[1], commutation_defect=commutation_defect(C, U),
                   symmetry_defect=symmetry_defect(C, U))
