"""The family of commuting conjugations of a unitary matrix.

A unitary U has a commuting conjugation exactly when every eigenvalue and its
conjugate carry the same multiplicity.  In the conjugate-pair basis the whole
family is parametrized by one unitary block per conjugate pair and one
symmetric unitary block per real eigenvalue, applied in front of entrywise
conjugation.  A real eigenspace is its own conjugate, so both kinds are one
object, a block from the conj(lam) coordinates to the lam ones, partnered
with itself when lam = +-1: construction, sampling and parameter recovery
walk the one list BlockLayout.blocks.  One rule decides membership:
verify_membership's verdict, which decompose takes before it projects a
member onto its parameters.

Parameters are relative to the basis W returned by canonical_form; one
(W, parameters) pair assembles to one operator.  Inside a degenerate
eigenspace W is whichever basis eigh returns, which may change with the BLAS
thread count or a roundoff-sized change of U, so there the canonical member, a
seeded sample and decompose's blocks belong to the family but are not functions of U.
"""

from dataclasses import dataclass

import numpy as np

from .antilinear import AntilinearOperator, _block_report, _dense_report, transport
from .errors import InputError, MembershipError
from .linalg import _diagonal_entries, _gram_residual, _label_groups, _unique_inverse
from .linalg import as_square_matrix, haar_unitary, membership_threshold, require_unitary
from .linalg import symmetric_unitary, threshold
from .spectral import canonical_form


@dataclass(frozen=True)
class ConjugationParams:
    """Free parameters: one unitary per conjugate pair, one symmetric unitary
    per real eigenvalue block (empty matrices when a block is absent)."""

    v_blocks: tuple
    q_plus: np.ndarray
    q_minus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v_blocks", tuple(np.asarray(v, dtype=complex) for v in self.v_blocks))
        object.__setattr__(self, "q_plus", np.asarray(self.q_plus, dtype=complex))
        object.__setattr__(self, "q_minus", np.asarray(self.q_minus, dtype=complex))


def identity_params(layout):
    return ConjugationParams(tuple(np.eye(m, dtype=complex) for _, m in layout.pairs),
                             np.eye(layout.ell, dtype=complex), np.eye(layout.kay, dtype=complex))


def _per_size(fn, blocks):
    """fn(S)[k] per block, S the stack of the square blocks of its size and the
    block S[k]: one call per size, a lone block as a view; None if not square."""
    sizes = np.array([q.shape[0] if q.ndim == 2 and q.shape[0] == q.shape[1] else -1 for q in blocks])
    out = [None] * len(blocks)
    for idx in _label_groups(sizes):
        if sizes[idx[0]] >= 0:
            S = blocks[idx[0]][None] if len(idx) == 1 else np.stack([blocks[j] for j in idx])
            for j, result in zip(idx, fn(S)):
                out[j] = result
    return out


def _place(dim, slots, params):
    """The member with params' blocks at the slots of a dim x dim matrix, one
    (rows, cols) per block in ConjugationParams order: q at A[rows, cols] and
    q^t at A[cols, rows], or q alone on rows == cols.  Raises InputError at the
    first fault, block by block: a wrong count or shape, a non-finite entry, or
    above threshold(sqrt(m)) a unitarity defect or, on rows == cols, asymmetry."""
    npairs = len(slots) - 2
    if len(params.v_blocks) != npairs:
        raise InputError(f"expected {npairs} pair blocks, got {len(params.v_blocks)}")
    blocks = (*params.v_blocks, params.q_plus, params.q_minus)
    defects = _per_size(lambda S: np.linalg.norm(_gram_residual(S), axis=(1, 2)), blocks)
    A = np.zeros((dim, dim), dtype=complex)
    for j, ((rows, cols), q) in enumerate(zip(slots, blocks)):
        name = f"pair block {j}" if j < npairs else ("q_plus", "q_minus")[j - npairs]
        m = len(range(dim)[rows])
        if q.shape != (m, m):
            raise InputError(f"{name} must be {m}x{m}, got {q.shape}")
        if not defects[j] <= threshold(np.sqrt(m)):
            raise InputError("matrix contains non-finite entries" if not np.isfinite(q).all()
                             else f"{name} is not unitary")
        A[rows, cols] = q
        if rows != cols:
            A[cols, rows] = q.T
        elif np.linalg.norm(q - q.T) > threshold(np.sqrt(m)):
            raise InputError(f"{name} is not symmetric")
    return AntilinearOperator(A)


def layout_conjugation(layout, params):
    """The member with the given block parameters in the layout's own basis."""
    return _place(layout.dim, [(rows, cols) for rows, cols, _ in layout.blocks], params)


def from_params(layout, W, params):
    """Assemble the conjugation with the given block parameters in basis W:
    layout_conjugation transported to the columns of W."""
    return transport(layout_conjugation(layout, params), W)


def canonical_conjugation(U):
    """The all-identity member of the family; NotSelfDualError when it is empty."""
    W, layout = canonical_form(U)
    return from_params(layout, W, identity_params(layout))


def sample(U, seed):
    """Draw a random member of the family, deterministically per seed.

    The law is the one invariant under U's commutant: Haar on each pair
    block, COE (V V^t, V Haar) on each +-1 block.  The draw order is fixed
    (pairs in layout order, then +1, then -1): one seed, one operator.
    """
    W, layout = canonical_form(U)
    rng = np.random.default_rng(seed)
    drawn = []
    for rows, cols, _ in layout.blocks:
        m, draw = rows.stop - rows.start, symmetric_unitary if rows == cols else haar_unitary
        drawn.append(draw(m, rng) if m else np.zeros((0, 0)))
    *v_blocks, q_plus, q_minus = drawn
    return from_params(layout, W, ConjugationParams(tuple(v_blocks), q_plus, q_minus))


def verify_membership(U, C, threshold=None):
    """Defect report for C against U with a boolean verdict.

    For a diagonal U, the report is antilinear._block_report's when C's matrix
    lies on the blocks pairing each eigenvalue class with its conjugate's;
    otherwise it is antilinear._dense_report's, the dense products.
    The verdict requires the isometry, involution, and commutation defects to
    sit below the threshold (membership_threshold(n) = 1e-8 * n by default).
    """
    U = as_square_matrix(U, "U")
    if U.shape[0] != C.dim:
        raise InputError("operator dimensions do not match")
    d = _diagonal_entries(U)
    require_unitary(U, "U", d)
    thr = membership_threshold(U.shape[0]) if threshold is None else threshold
    report = None
    if d is not None:
        values, classes = _unique_inverse(d)
        at = np.minimum(np.searchsorted(values, np.conj(values)), len(values) - 1)
        partner = np.where(values[at] == np.conj(values), at, -1)
        report = _block_report(C.matrix, classes, partner, values)
    if report is None:
        report = _dense_report(C, U)
    passed = (
        report.isometry_defect <= thr
        and report.involution_defect <= thr
        and report.commutation_defect <= thr
    )
    return passed, report


def decompose(U, C):
    """Recover the block parameters of a member of the family.

    C is a member exactly when verify_membership(U, C) passes at
    membership_threshold(n): an isometry or involution defect above it is an
    InputError (C is not a conjugation), a commutation defect above it a
    MembershipError.  A member's V = W* A conj(W) in the canonical basis is
    projected onto the parameters: each block's is the unitary polar factor
    of (B + B'^t)/2, B = V[rows, cols] and B' = V[cols, rows].  A +-1 block
    is the pair block partnered with itself, B' = B, so (B + B^t)/2 is its
    symmetric part; its polar factor is symmetrized exactly.  The polar
    factors come from one stacked SVD per block size.  The parameters are
    relative to the basis canonical_form returns, so from_params with that
    basis rebuilds a member near C.
    """
    U = as_square_matrix(U, "U")  # canonical_form checks its unitarity
    if U.shape[0] != C.dim:
        raise InputError("operator dimensions do not match")
    W, layout = canonical_form(U)
    thr = membership_threshold(U.shape[0])
    passed, report = verify_membership(U, C)
    if not passed:
        if not (report.isometry_defect <= thr and report.involution_defect <= thr):
            raise InputError("C is not a conjugation")
        raise MembershipError(f"C does not commute with U: commutation defect "
                              f"{report.commutation_defect:.3e} exceeds {thr:.3e}")
    V = W.conj().T @ C.matrix @ np.conj(W)
    walk = layout.blocks
    polar = _per_size(lambda S: np.matmul(*np.linalg.svd(S)[::2]),
                      [(V[rows, cols] + V[cols, rows].T) / 2 for rows, cols, _ in walk])
    *v_blocks, q_plus, q_minus = [(q + q.T) / 2 if rows == cols else q
                                  for (rows, cols, _), q in zip(walk, polar)]
    return ConjugationParams(tuple(v_blocks), q_plus, q_minus)
