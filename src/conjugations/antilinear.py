"""Antilinear operators x -> A conj(x): conjugation predicates, composition,
unitary transport, and the commuting/symmetric defects against a unitary.

Storing only the matrix A of the linear part keeps every identity in plain
matrix algebra: the composite C U C acts as A conj(U) conj(A), so defects are
Frobenius norms of small matrix expressions.  Against a diagonal U they are
read from the blocks pairing each eigenvalue class with its conjugate's,
stacked by block shape (_block_report).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .linalg import as_square_matrix, require_unitary, threshold
from .linalg import unitarity_defect

_BATCH = 1 << 14  # block entries stacked into one product by _block_report


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
        return asdict(self)


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


def _nonzeros(X):
    """Exact count of X's nonzero real and imaginary parts, 2^20 at a time."""
    F = X.ravel(order="K").view(float)
    return sum(np.count_nonzero(F[s : s + (1 << 20)] != 0) for s in range(0, F.size, 1 << 20))


def _block_report(A, classes, partner, lam):
    """(report, exact, slack) for x -> A conj(x) against U = diag(lam[classes])
    from the blocks B_a = A[I_a, I_p(a)], I_a = {i : classes[i] = a}, p = partner
    the class of conj(lam[a]) or -1.  If exact, a count found no nonzero of A off
    them and A*A, A conj(A), A conj(U) conj(A) have blocks K*K, M = B_a conj(K),
    conj(lam_p(a)) M, K = B_p(a), stacked by shape up to _BATCH entries a product.
    Else each defect gains the slack e(2b + e), e = |A off them|_F, b = max |B_a|_2."""
    counts = np.bincount(classes, minlength=len(lam))
    order, starts = np.argsort(classes, kind="stable"), np.cumsum(counts) - counts
    width = np.where(partner >= 0, counts[partner], 0)
    _, group = np.unique(counts * (len(A) + 1) + width, return_inverse=True)
    groups = [np.flatnonzero(group == g) for g in range(group.max(initial=-1) + 1)]
    at = [(order[starts[c][:, None] + np.arange(counts[c[0]])][:, :, None],
           order[starts[partner[c]][:, None] + np.arange(width[c[0]])][:, None, :]) for c in groups]
    stacks = [A[ix] for ix in at]
    exact = sum(map(_nonzeros, stacks)) == _nonzeros(A)
    slack = 0.0
    if not exact:
        off = A.copy()
        for ix in at:
            off[ix] = 0.0
        eps = float(np.linalg.norm(off))
        slack = eps * (2 * max(np.linalg.norm(B, 2, axis=(1, 2)).max() for B in stacks) + eps)
    sq, targets = np.zeros((len(lam), 4)), np.stack([lam**0, lam**0, lam, np.conj(lam)])
    for cls, B in zip(groups, stacks):
        k, m, w = B.shape
        step = max(1, _BATCH // (m * max(m, w)))
        for s in range(0, k, step):
            c, Bc = cls[s : s + step], B[s : s + step]
            home = group[partner[c[0]]]
            K = stacks[home][np.searchsorted(groups[home], partner[c])] if w else Bc.mT
            Kc, R = np.conj(K), np.empty((4, len(c), m, m), dtype=complex)
            np.matmul(Kc.mT, K, out=R[0])
            np.matmul(Bc, Kc, out=R[1])
            R[2] = R[3] = np.conj(lam[partner[c]])[:, None, None] * R[1]
            R = R.reshape(4, len(c), -1)
            R[:, :, :: m + 1] -= targets[:, c, None]
            sq[c] = np.vecdot(R, R).real.T
            del K, Kc, R  # before the next chunk allocates its own
    return ConjugationReport(*map(float, np.sqrt(sq.sum(axis=0)) + slack)), exact, slack


def commutation_defect(C, U):
    """||C U C - U|| as ||A conj(U) conj(A) - U|| in Frobenius norm.

    Measures any square U; verify_membership checks U's unitarity first."""
    return _cuc_distance(C, U, False, "commutation_defect")


def symmetry_defect(C, U):
    """||C U C - U*|| as ||A conj(U) conj(A) - U*|| in Frobenius norm.

    Measures any square U; verify_membership checks U's unitarity first."""
    return _cuc_distance(C, U, True, "symmetry_defect")
