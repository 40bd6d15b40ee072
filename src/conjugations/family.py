"""The family of commuting conjugations of a unitary matrix.

A unitary U has a commuting conjugation exactly when every eigenvalue and its
conjugate carry the same multiplicity.  In the conjugate-pair basis the whole
family is parametrized by one unitary block per conjugate pair and one
symmetric unitary block per real eigenvalue, applied in front of entrywise
conjugation.  Construction, sampling, verification, and parameter recovery
all round-trip through that normal form.

Parameters are relative to the basis W returned by canonical_form; one
(W, parameters) pair assembles to one operator.  Inside a degenerate
eigenspace W is whichever basis eigh returns, which may change with the BLAS
thread count or a roundoff-sized change of U, so there the canonical member, a
seeded sample and decompose's blocks belong to the family but are not functions of U.
"""

from dataclasses import dataclass, replace

import numpy as np

from .antilinear import AntilinearOperator, _block_defects, _gather_blocks, commutation_defect
from .antilinear import is_conjugation, symmetry_defect, transport
from .errors import InputError, MembershipError
from .linalg import _diagonal_entries, _label_groups, _unique_inverse, as_square_matrix, haar_unitary
from .linalg import TIE_REL, membership_threshold, require_unitary, symmetric_unitary, threshold
from .linalg import unitarity_defect
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
    if len(params.v_blocks) != len(layout.pairs):
        raise InputError(
            f"expected {len(layout.pairs)} pair blocks, got {len(params.v_blocks)}"
        )
    shaped = next((j for j, ((_, m), v) in enumerate(zip(layout.pairs, params.v_blocks))
                   if v.shape != (m, m)), len(layout.pairs))  # blocks before the first misshapen one
    _check_pair_blocks(params.v_blocks[:shaped])
    if shaped < len(layout.pairs):
        m = layout.pairs[shaped][1]
        raise InputError(f"pair block {shaped} must be {m}x{m}, got {params.v_blocks[shaped].shape}")
    for name, q, size in (("q_plus", params.q_plus, layout.ell), ("q_minus", params.q_minus, layout.kay)):
        if q.shape != (size, size):
            raise InputError(f"{name} must be {size}x{size}, got {q.shape}")
        if size == 0:
            continue
        if unitarity_defect(q) > threshold(np.sqrt(size)):
            raise InputError(f"{name} is not unitary")
        if np.linalg.norm(q - q.T) > threshold(np.sqrt(size)):
            raise InputError(f"{name} is not symmetric")


def _check_pair_blocks(blocks):
    """Raise InputError at the first square block that has non-finite
    entries or is not unitary within threshold(sqrt(m)).  The blocks of one
    size m are checked in one stacked product; a lone block is stacked as a
    view, not a copy."""
    sizes = np.array([len(v) for v in blocks], dtype=int)
    failed = np.zeros(len(blocks), dtype=bool)
    for idx in _label_groups(sizes):
        m = sizes[idx[0]]
        S = blocks[idx[0]][None] if len(idx) == 1 else np.stack([blocks[j] for j in idx])
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite block fails below
            G = S.conj().transpose(0, 2, 1) @ S
        G[:, np.arange(m), np.arange(m)] -= 1
        failed[idx] = ~(np.linalg.norm(G, axis=(1, 2)) <= threshold(np.sqrt(m)))
    if failed.any():
        j = np.argmax(failed)
        if not np.isfinite(blocks[j]).all():
            raise InputError("matrix contains non-finite entries")
        raise InputError(f"pair block {j} is not unitary")


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

    For a diagonal U, the report is antilinear._block_report's when its count
    finds C's matrix on the blocks pairing each eigenvalue class with its
    conjugate's.  Otherwise no block product runs, and the report is
    is_conjugation's with the dense commutation and symmetry defects added.
    The verdict requires the isometry, involution, and commutation defects to
    sit below the threshold (membership_threshold(n) = 1e-8 * n by default).
    """
    U = as_square_matrix(U, "U")
    if U.shape[0] != C.dim:
        raise InputError("operator dimensions do not match")
    d = _diagonal_entries(U)
    require_unitary(U, "U", d)
    thr = membership_threshold(U.shape[0]) if threshold is None else threshold
    if d is not None:
        values, classes = _unique_inverse(d)
        at = np.minimum(np.searchsorted(values, np.conj(values)), len(values) - 1)
        partner = np.where(values[at] == np.conj(values), at, -1)
        exact, *blocks = _gather_blocks(C.matrix, classes, partner, values)
        if exact:
            report = _block_defects(exact, *blocks)[0]
        del blocks  # before the dense products below allocate theirs
    if d is None or not exact:
        report = replace(is_conjugation(C)[1], commutation_defect=commutation_defect(C, U),
                         symmetry_defect=symmetry_defect(C, U))
    passed = (
        report.isometry_defect <= thr
        and report.involution_defect <= thr
        and report.commutation_defect <= thr
    )
    return passed, report


def _block_slices(layout):
    """The nonempty blocks of layout.blocks and their labels."""
    slices, labels = [], []
    for k, (block, lam) in enumerate(layout.blocks):
        if block.stop > block.start:
            slices.append(block)
            labels.append(f"{lam:+g} block" if k >= 2 * len(layout.pairs)
                          else f"pair {k // 2} " + (f"({lam:.6g})" if k % 2 == 0 else "(conj)"))
    return slices, labels


def _off_structure(V, slices, npairs):
    """Frobenius norm of V outside the block structure, and the block indices
    (a, b), a <= b, of its largest off-structure block pair, the first in
    row-major order on ties up to a relative TIE_REL.

    Block (a, b) may be nonzero only for b the partner of a: the first
    2 * npairs blocks swap in pairs, the remaining (+1 and -1) blocks sit on
    the diagonal.  V is symmetric, so E(a, b) + E(b, a) is weighed on a < b;
    the slack settles exact ties such as E(0, 0) = E(1, 1) for a lone pair.
    """
    partner = np.arange(len(slices))
    partner[: 2 * npairs] ^= 1
    starts = [s.start for s in slices]
    energy = np.add.reduceat(np.add.reduceat(np.abs(V) ** 2, starts, axis=0), starts, axis=1)
    energy[np.arange(len(slices)), partner] = 0.0
    folded = np.triu(energy + energy.T, 1) + np.diag(np.diag(energy))
    tied = folded >= (1 - TIE_REL) * folded.max(initial=0.0)
    worst = np.unravel_index(np.argmax(tied), energy.shape) if energy.size else (0, 0)
    return float(np.sqrt(energy.sum())), worst


def decompose(U, C):
    """Recover the block parameters of a member of the family.

    Transports C to the canonical basis, checks that the matrix of the
    transported operator has the pair/real block structure (everything off
    structure below the membership threshold), reads the blocks off and
    refuses them unless from_params' own parameter check accepts them.  The
    parameters are relative to the same basis canonical_form returns, so
    from_params with that basis rebuilds C.
    """
    U = as_square_matrix(U, "U")  # canonical_form checks its unitarity
    if U.shape[0] != C.dim:
        raise InputError("operator dimensions do not match")
    thr = membership_threshold(U.shape[0])
    # V = W* A conj(W) has A's symmetry defect up to W's roundoff, so a pair's
    # lower block is its upper block's transpose within is_conjugation's bound
    ok, _ = is_conjugation(C)
    if not ok:
        raise InputError("C is not a conjugation")
    W, layout = canonical_form(U)
    V = W.conj().T @ C.matrix @ np.conj(W)

    npairs = len(layout.pairs)
    slices, labels = _block_slices(layout)
    off_energy, (a, b) = _off_structure(V, slices, npairs)
    if off_energy > thr:
        raise MembershipError(
            f"C does not commute with U: off-structure energy {off_energy:.3e} "
            f"(first violated structural zero: rows {labels[a]}, cols {labels[b]})"
        )

    s = [block for block, _ in layout.blocks]
    v_blocks = tuple(V[s[2 * j], s[2 * j + 1]].copy() for j in range(npairs))
    params = ConjugationParams(v_blocks, V[s[-2], s[-2]].copy(), V[s[-1], s[-1]].copy())
    try:
        _validate_params(layout, params)
    except InputError as e:
        raise MembershipError(f"C's blocks are not family parameters: {e}") from None
    return params
