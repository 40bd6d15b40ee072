"""Dense complex matrix utilities: the tolerance policy, unitarity defects,
structured random sampling, and the four-unitary decomposition."""

import numpy as np

from .errors import InputError

# The tolerance table: each entry, what it bounds, and the test that pins its value.
ABS_TOL = 1e-10          # absolute slack of every input check; test_shift_conjugation_symbol_window
REL_TOL = 1e-8           # input-check slack per unit of the quantity's scale; test_threshold_values
MEMBERSHIP_TOL = 1e-8    # membership_threshold's slope per dimension; the verify goldens' threshold
CLUSTER_TOL = 1e-7       # cap of the spectral clustering and pairing radius; test_spectral's probes
CUT_TOL = 1e-6           # gap of cos theta that splits Schur runs: subspace error ~ roundoff/gap; test_schur_cut_gap
LABEL_TOL = 1e-9         # distance within which a refusal names 1, -1, i or -i; test_cli's refusal labels
PAIR_TOL = 1e-9          # conjugate-atom lookup radius; the measure_rn_ambiguous golden
UNIT_CIRCLE_TOL = 1e-12  # how far a measure point may sit off the unit circle; test_threshold_values
SPLIT_TOL = 1e-9         # fourunit's factor defects, and its residual per 1 + ||A||_F; fourunit_small
DEMO_TOL = 1e-12         # the transform demos' membership threshold per unit of N; the demo goldens
GRID_TOL = 1e-9          # a centered grid's uniformity and symmetry, per grid step; test_threshold_values
DECAY_RATIO = 1e-2       # Hermite edge-to-peak ratio of a supported function; test_hermite_support_flags


def threshold(scale=1.0):
    """Largest defect an input check accepts for a quantity of the given
    scale, e.g. sqrt(n) for the Frobenius defect of an n x n unitary."""
    return ABS_TOL + REL_TOL * scale


def membership_threshold(n):
    """Largest defect a verdict on an n x n result accepts: the isometry,
    involution and commutation defects of a family member; the spectral
    decision's residual is held to half of it."""
    return MEMBERSHIP_TOL * max(n, 1)


def as_square_matrix(M, name="matrix"):
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise InputError(f"{name} contains non-finite entries")
    return A


def _nonzeros(X):
    """Exact count of X's nonzero real and imaginary parts, 2^20 at a time."""
    F = X.ravel(order="K").view(float)
    if F.size <= 1 << 20:
        return np.count_nonzero(F != 0)
    return sum(np.count_nonzero(F[s : s + (1 << 20)] != 0) for s in range(0, F.size, 1 << 20))


def _diagonal_entries(A):
    """The diagonal of the square array A when every nonzero entry of A sits
    on it, else None.  O(n^2): one count of the nonzero parts."""
    d = np.diagonal(A)
    return d if _nonzeros(A) == _nonzeros(d) else None


def _label_groups(labels):
    """[np.flatnonzero(labels == k) for k in np.unique(labels)] from one
    stable argsort: each group ascending, groups in increasing label order.
    np.unique is avoided because it imports numpy.ma, a few ms per process."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if len(order) else []


def _unique_inverse(x):
    """np.unique(x, return_inverse=True) for a 1-d x without NaN, from one
    stable argsort as _label_groups sorts: the sorted distinct values, and
    each entry's index among them."""
    order = np.argsort(x, kind="stable")
    ranked = x[order]
    first = np.empty(len(x), dtype=bool)
    first[:1] = True
    first[1:] = ranked[1:] != ranked[:-1]
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


def _gram_residual(S):
    """S*S - I for a square matrix S, or for each matrix of a stack on the
    last two axes.  A non-finite S gives a non-finite residual, without a
    warning, so a check `not (defect <= bound)` refuses it."""
    with np.errstate(invalid="ignore", over="ignore"):
        G = np.swapaxes(S.conj(), -1, -2) @ S
    i = np.arange(S.shape[-1])
    G[..., i, i] -= 1
    return G


_UNREAD = object()  # the d of a matrix not yet read and looked at for its diagonal


def unitarity_defect(M, d=_UNREAD):
    """Frobenius distance of M*M from the identity, read from the diagonal
    alone when M is diagonal.  A caller that has read M with as_square_matrix
    and looked for its diagonal with _diagonal_entries passes the answer d,
    None when M is not diagonal, and M is not read again."""
    if d is _UNREAD:
        M = as_square_matrix(M)
        d = _diagonal_entries(M)
    if d is not None:
        return float(np.linalg.norm(np.conj(d) * d - 1))
    return float(np.linalg.norm(_gram_residual(M)))


def require_unitary(M, name="matrix", d=_UNREAD):
    """Return M as a complex array after checking it is unitary within
    threshold(sqrt(n)).  M is read and its diagonal looked for once; a caller
    that has done both passes the answer d, as to unitarity_defect."""
    if d is _UNREAD:
        M = as_square_matrix(M, name)
        d = _diagonal_entries(M)
    defect = unitarity_defect(M, d)
    if not defect <= threshold(np.sqrt(max(M.shape[0], 1))):
        raise InputError(f"{name} is not unitary: defect {defect:.3e}")
    return M


def haar_unitary(n, seed):
    """Haar-distributed n x n unitary, deterministic per seed.

    QR of a complex Ginibre matrix, with the phases of the R diagonal folded
    back into Q.  The phase correction removes the sign ambiguity of QR and
    makes the distribution exactly Haar.  ``seed`` may be an integer or an
    existing ``numpy.random.Generator``.
    """
    if n < 1:
        raise InputError("haar_unitary needs n >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def symmetric_unitary(n, seed):
    """Random unitary Q with Q^t = Q, built as V V^t for Haar V."""
    if n < 1:
        raise InputError("symmetric_unitary needs n >= 1")
    v = haar_unitary(n, seed)
    q = v @ v.T
    # exact symmetry regardless of how the BLAS accumulates the product
    return (q + q.T) / 2


def four_unitary_split(A):
    """Write A = scale * (U1 + U2 + U3 + U4) with every factor unitary.

    From one SVD A = X diag(s) Y*: scale = s_1/2 = ||A||_2/2, and with
    t = s/s_1, cos a = (1 + t)/2 and cos b = (t - 1)/2, the factors are
    U_{1,2} = X diag(e^{+-ia}) Y* and U_{3,4} = X diag(e^{+-ib}) Y*, so
    U1 + U2 + U3 + U4 = X diag(2t) Y* = 2A/s_1.  The zero and empty matrices
    get scale 0 with (I, I, I, -I).  Raises InputError when ||A||_2 is not a
    finite float.  The first three factors share one scratch array; the last
    scales X's columns in place.
    """
    A = as_square_matrix(A)
    X, s, Yh = np.linalg.svd(A)
    if not s.size or s[0] == 0:
        return 0.0, tuple(c * np.eye(len(A)) for c in (1.0, 1.0, 1.0, -1.0))
    if not np.isfinite(s[0]):
        raise InputError("the four-unitary split overflowed")
    t = s / s[0]
    phases = [c + sign * np.sqrt(1 - c * c) for c in ((1 + t) / 2, (t - 1) / 2) for sign in (1j, -1j)]
    scratch = np.empty_like(X)
    factors = [np.multiply(X, d, out=scratch) @ Yh for d in phases[:3]]
    del scratch
    factors.append(np.multiply(X, phases[3], out=X) @ Yh)
    return float(s[0]) / 2, tuple(factors)
