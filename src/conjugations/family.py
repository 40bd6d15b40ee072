"""The family of commuting conjugations of a unitary matrix.

A unitary U has a commuting conjugation exactly when every eigenvalue and its
conjugate carry the same multiplicity.  In the conjugate-pair basis the whole
family is parametrized by one unitary block per conjugate pair and one
symmetric unitary block per real eigenvalue, applied in front of entrywise
conjugation.  Construction, sampling, verification, and parameter recovery
all round-trip through that normal form.  One rule decides membership:
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
        object.__setattr__(
            self, "v_blocks", tuple(np.asarray(v, dtype=complex) for v in self.v_blocks)
        )
        object.__setattr__(self, "q_plus", np.asarray(self.q_plus, dtype=complex))
        object.__setattr__(self, "q_minus", np.asarray(self.q_minus, dtype=complex))


def _empty_block():
    return np.zeros((0, 0), dtype=complex)


def identity_params(layout):
    return ConjugationParams(
        v_blocks=tuple(np.eye(m, dtype=complex) for _, m in layout.pairs),
        q_plus=np.eye(layout.ell, dtype=complex),
        q_minus=np.eye(layout.kay, dtype=complex),
    )


def _validate_params(layout, params):
    """Raise InputError at the first fault of the named blocks, in the order
    pair blocks, q_plus, q_minus: a wrong shape, a non-finite entry, a
    defect from unitarity above threshold(sqrt(m)), or for q_plus and
    q_minus an asymmetry above it.  The square blocks of one size m are
    checked in one stacked product; a lone block is stacked as a view."""
    if len(params.v_blocks) != len(layout.pairs):
        raise InputError(
            f"expected {len(layout.pairs)} pair blocks, got {len(params.v_blocks)}"
        )
    named = [(f"pair block {j}", v, m)
             for j, ((_, m), v) in enumerate(zip(layout.pairs, params.v_blocks))]
    named += [("q_plus", params.q_plus, layout.ell), ("q_minus", params.q_minus, layout.kay)]
    sizes = np.array([m if q.shape == (m, m) else 0 for _, q, m in named], dtype=int)
    defects = np.zeros(len(named))
    for idx in _label_groups(sizes):
        if sizes[idx[0]]:
            S = named[idx[0]][1][None] if len(idx) == 1 else np.stack([named[j][1] for j in idx])
            defects[idx] = np.linalg.norm(_gram_residual(S), axis=(1, 2))
    for j, (name, q, m) in enumerate(named):
        if q.shape != (m, m):
            raise InputError(f"{name} must be {m}x{m}, got {q.shape}")
        if not defects[j] <= threshold(np.sqrt(m)):
            raise InputError("matrix contains non-finite entries" if not np.isfinite(q).all()
                             else f"{name} is not unitary")
        if j >= len(layout.pairs) and np.linalg.norm(q - q.T) > threshold(np.sqrt(m)):
            raise InputError(f"{name} is not symmetric")


def layout_conjugation(layout, params):
    """The member with the given block parameters, in the layout's own basis.

    Validates the parameters against the layout, then places them: the pair
    blocks enter as the off-diagonal pair (V_j, V_j^t), which makes the
    matrix symmetric for any unitary V_j; the real blocks must be symmetric
    unitaries themselves.
    """
    _validate_params(layout, params)
    V = np.zeros((layout.dim, layout.dim), dtype=complex)
    s = [block for block, _ in layout.blocks]
    for j, v in enumerate(params.v_blocks):
        V[s[2 * j], s[2 * j + 1]] = v
        V[s[2 * j + 1], s[2 * j]] = v.T
    V[s[-2], s[-2]] = params.q_plus
    V[s[-1], s[-1]] = params.q_minus
    return AntilinearOperator(V)


def from_params(layout, W, params):
    """Assemble the conjugation with the given block parameters in basis W:
    layout_conjugation transported to the columns of W."""
    return transport(layout_conjugation(layout, params), W)


def canonical_conjugation(U):
    """The all-identity member of the family.

    Raises NotSelfDualError when the family is empty.
    """
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
    v_blocks = tuple(haar_unitary(m, rng) for _, m in layout.pairs)
    q_plus = symmetric_unitary(layout.ell, rng) if layout.ell else _empty_block()
    q_minus = symmetric_unitary(layout.kay, rng) if layout.kay else _empty_block()
    return from_params(layout, W, ConjugationParams(v_blocks, q_plus, q_minus))


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
    projected onto the parameters: each pair's is the unitary polar factor
    of (B + B'^t)/2, B and B' its upper and lower blocks, and each real
    block's the polar factor of its symmetric part, symmetrized exactly.
    The polar factors come from one stacked SVD per block size.  The
    parameters are relative to the basis canonical_form returns, so
    from_params with that basis rebuilds a member near C.
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
        raise MembershipError(
            f"C does not commute with U: commutation defect {report.commutation_defect:.3e} "
            f"exceeds {thr:.3e}"
        )
    V = W.conj().T @ C.matrix @ np.conj(W)
    s = [block for block, _ in layout.blocks]
    npairs = len(layout.pairs)
    blocks = [(V[s[2 * j], s[2 * j + 1]] + V[s[2 * j + 1], s[2 * j]].T) / 2 for j in range(npairs)]
    blocks += [(V[b, b] + V[b, b].T) / 2 for b in s[-2:]]
    sizes = np.array([len(q) for q in blocks], dtype=int)
    for idx in _label_groups(sizes):
        if sizes[idx[0]]:
            X, _, Yh = np.linalg.svd(np.stack([blocks[j] for j in idx]))
            for j, polar in zip(idx, X @ Yh):
                blocks[j] = polar
    q_plus, q_minus = ((q + q.T) / 2 for q in blocks[npairs:])
    return ConjugationParams(tuple(blocks[:npairs]), q_plus, q_minus)
