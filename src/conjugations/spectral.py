"""Spectral analysis of unitary matrices: eigenvalue clustering, self-duality,
the conjugate-pair canonical form, and the atomic multiplicity model.

Diagonalization is numpy only.  For z = e^{i phi} off the spectrum, the
Cayley transform A = i(z + U)(z - U)^-1 of the normal matrix U is Hermitian
with U's eigenvectors and maps e^{i theta} to cot((phi - theta)/2): one
monotone map of the circle, so distinct eigenvalues stay distinct.  z is the
midpoint of the largest circular gap of the angles +-arccos of the
eigenvalues of (U + U*)/2, a superset of the spectrum's angles, so it sits at
least 2 sin(pi/4n) from every eigenvalue and the solve is well conditioned.
Within a cluster the eigh basis columns are ordered by the row of their
largest entry, so a diagonal input gives the standard basis in index order.

T = Q*UQ is read in full.  Q is unitary, so the residual of a diagonal
target in a permutation of Q's columns is the hypotenuse of T's off-diagonal
norm and an O(n) distance on its diagonal: no residual forms an n x n product.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotSelfDualError, ToleranceError
from .linalg import CLUSTER_TOL, LABEL_TOL, _label_groups, membership_threshold, require_unitary
from .measures import AtomicMeasure, _nearest_angle


@dataclass(frozen=True)
class UnitarySpectrum:
    """Clustered eigenvalues with an orthonormal eigenbasis grouped to match.

    clusters is a tuple of (eigenvalue, multiplicity) sorted by argument in
    (-pi, pi]; the columns of basis are grouped in the same order.
    eigenvalues is T's diagonal in basis column order, off_diagonal ||T - diag T||_F.
    """

    clusters: tuple
    basis: np.ndarray
    eigenvalues: np.ndarray
    off_diagonal: float

    @property
    def dim(self):
        return self.basis.shape[0]

    def eigenvalue_diagonal(self):
        lams = np.array([lam for lam, _ in self.clusters], dtype=complex)
        return np.repeat(lams, [m for _, m in self.clusters])

    def residual(self, cols, target):
        """||W*UW - diag(target)||_F for W = basis[:, cols], cols a
        permutation of the columns, read from T instead of multiplied out."""
        return float(np.hypot(self.off_diagonal, np.linalg.norm(self.eigenvalues[cols] - target)))


@dataclass(frozen=True)
class BlockLayout:
    """Conjugate-pair block structure: pairs (xi_j, n_j) with Im xi_j > 0
    sorted by increasing argument, then the +1 block, then the -1 block."""

    pairs: tuple
    ell: int
    kay: int

    @property
    def dim(self):
        return 2 * sum(m for _, m in self.pairs) + self.ell + self.kay

    @property
    def blocks(self):
        """(slice, eigenvalue) of each diagonal block in coordinate order: xi_j
        then conj(xi_j) per pair, then 1.0 and -1.0 (empty slices if absent)."""
        sizes = [(lam, m) for xi, m in self.pairs for lam in (xi, np.conj(xi))]
        sizes += [(1.0, self.ell), (-1.0, self.kay)]
        ends = np.cumsum([m for _, m in sizes]).tolist()
        return [(slice(end - m, end), lam) for end, (lam, m) in zip(ends, sizes)]


@dataclass(frozen=True)
class MultiplicityModel:
    """Mutually singular atomic measures with distinct fiber dimensions."""

    components: tuple  # ((AtomicMeasure, fiber_dim), ...)


def schur(U):
    """Schur form (T, Q) of a unitary U, with U = Q T Q*: Q is the
    eigenbasis of U's Cayley transform at the largest gap of its spectrum,
    and T = Q*UQ, diagonal up to its off-diagonal norm, is read in full."""
    n = U.shape[0]
    if n == 0:
        return U.copy(), np.eye(0, dtype=complex)
    half = np.arccos(np.clip(np.linalg.eigvalsh((U + U.conj().T) / 2), -1.0, 1.0))
    angles = np.sort(np.concatenate([half, -half]))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    k = np.argmax(gaps)
    z = np.exp(1j * (angles[k] + gaps[k] / 2))
    A = 1j * np.linalg.solve(z * np.eye(n) - U, z * np.eye(n) + U)
    _, Q = np.linalg.eigh((A + A.conj().T) / 2)
    return Q.conj().T @ U @ Q, Q


def _snap(rep):
    if abs(rep - 1.0) <= CLUSTER_TOL:
        return 1.0 + 0.0j
    if abs(rep + 1.0) <= CLUSTER_TOL:
        return -1.0 + 0.0j
    return rep


def _cluster_indices(vals):
    """Connected components of eigenvalues under distance <= CLUSTER_TOL,
    chained along the circle: sorted by argument, angular neighbours link,
    and so does the wrap-around pair."""
    order = np.argsort(np.angle(vals), kind="stable")
    split = np.abs(np.diff(vals[order])) > CLUSTER_TOL
    labels = np.empty(len(vals), dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(split)])[: len(vals)]
    if split.any() and abs(vals[order[0]] - vals[order[-1]]) <= CLUSTER_TOL:
        labels[labels == labels.max()] = 0
    return _label_groups(labels)


def diagonalize_unitary(U):
    """Cluster the spectrum of a unitary matrix and return basis + clusters.

    Eigenvalues closer than CLUSTER_TOL are merged, their basis columns
    ordered by the row of each column's largest entry; the cluster value is
    the normalized mean direction, snapped to +-1 when within CLUSTER_TOL so
    the real blocks of the canonical form are exactly real; clusters that
    snap to the same +-1 merge into one.  Raises
    ToleranceError when the clustered spectrum misses U by more than
    membership_threshold(n).
    """
    U = require_unitary(U, "U")
    n = U.shape[0]
    T, Q = schur(U)
    vals = np.diagonal(T).copy()
    np.fill_diagonal(T, 0.0)  # T is ours: what is left is its off-diagonal part
    lead = np.argmax(np.abs(Q), axis=0) if n else []  # row of each column's largest entry

    groups = {}
    for idxs in _cluster_indices(vals):
        rep = vals[idxs[0]] if len(idxs) == 1 else np.mean(vals[idxs])
        groups.setdefault(_snap(rep / abs(rep)), []).extend(idxs)
    reps = list(groups)
    entries = [(reps[k], tuple(sorted(groups[reps[k]], key=lead.__getitem__)))
               for k in np.argsort(np.angle(reps), kind="stable")]

    cols = [i for _, idxs in entries for i in idxs]
    spectrum = UnitarySpectrum(
        clusters=tuple((rep, len(idxs)) for rep, idxs in entries),
        basis=Q[:, cols],
        eigenvalues=vals[cols],
        off_diagonal=float(np.linalg.norm(T)),
    )
    resid = spectrum.residual(slice(None), spectrum.eigenvalue_diagonal())
    thr = membership_threshold(n)
    if resid > thr:
        raise ToleranceError(
            f"spectral reconstruction residual {resid:.3e} exceeds {thr:.1e}; "
            "eigenvalue clusters are too spread for the requested tolerance"
        )
    return spectrum


def _partners(clusters):
    """Index of each cluster's conjugate partner, or -1: the cluster nearest
    to its conjugate within CLUSTER_TOL (measures._nearest_angle), kept only
    when the partners are mutual."""
    angles = np.angle([lam for lam, _ in clusters])
    near = _nearest_angle(angles, -angles, CLUSTER_TOL)
    return np.where(near[near] == np.arange(len(near)), near, -1).tolist()


def check_selfdual(U):
    """Whether every eigenvalue and its conjugate carry equal multiplicity.

    Returns (verdict, mismatches) where each mismatch is a triple
    (eigenvalue, multiplicity, conjugate_multiplicity).
    """
    clusters = diagonalize_unitary(U).clusters
    return _selfdual_from_clusters(clusters, _partners(clusters))


def _selfdual_from_clusters(clusters, partner):
    mismatches = []
    for (lam, mult), j in zip(clusters, partner):
        conj_mult = clusters[j][1] if j >= 0 else 0
        if conj_mult != mult:
            mismatches.append((lam, mult, conj_mult))
    return not mismatches, mismatches


def _format_point(lam):
    """1, -1, i or -i within LABEL_TOL of the point, else exp(<angle>i) with six
    significant digits, so an angle near 0 or pi does not read as +-1."""
    for value, label in ((1, "1"), (-1, "-1"), (1j, "i"), (-1j, "-i")):
        if abs(lam - value) <= LABEL_TOL:
            return label
    return f"exp({float(np.angle(lam)):.6g}i)"


def canonical_form(U):
    """Basis W and block layout with W* U W block diagonal.

    The target form is diag(xi_j I, conj(xi_j) I) over the conjugate pairs
    sorted by increasing Arg xi_j in (0, pi), followed by I_ell and -I_kay.
    Raises NotSelfDualError, worded as the CLI prints it, when the pairing
    fails.
    """
    spectrum = diagonalize_unitary(U)
    n = spectrum.dim
    partner = _partners(spectrum.clusters)
    ok, mismatches = _selfdual_from_clusters(spectrum.clusters, partner)
    if not ok:
        lam, mult, conj_mult = mismatches[0]
        raise NotSelfDualError(
            f"C_c(U) is empty: eigenvalue {_format_point(lam)} multiplicity {mult}, "
            f"conjugate multiplicity {conj_mult}"
        )

    offsets = np.cumsum([0] + [m for _, m in spectrum.clusters])
    block = [list(range(a, b)) for a, b in zip(offsets, offsets[1:])]  # basis columns
    pairs, cols = [], []
    plus_cols = minus_cols = []
    for i, (lam, mult) in enumerate(spectrum.clusters):
        if lam == 1.0:
            plus_cols = block[i]
        elif lam == -1.0:
            minus_cols = block[i]
        elif lam.imag > 0:
            pairs.append((lam, mult))
            cols += block[i] + block[partner[i]]
    cols += plus_cols + minus_cols

    W = spectrum.basis[:, cols]
    layout = BlockLayout(tuple(pairs), len(plus_cols), len(minus_cols))

    resid = spectrum.residual(cols, layout_diagonal(layout))
    thr = membership_threshold(n)
    if resid > thr:
        raise ToleranceError(f"canonical form residual {resid:.3e} exceeds {thr:.1e}")
    return W, layout


def layout_diagonal(layout):
    """The diagonal of the block diagonal matrix a BlockLayout describes."""
    diag = np.empty(layout.dim, dtype=complex)
    for block, lam in layout.blocks:
        diag[block] = lam
    return diag


def multiplicity_model(U):
    """Group eigenvalue clusters by multiplicity into unit-weight atomic measures.

    Each multiplicity value k occurring in the spectrum contributes one
    component (mu_k, k) with mu_k the unit-weight sum of point masses at the
    clusters of multiplicity exactly k.  Components are mutually singular by
    construction.  Of two mutual conjugate partners the cluster below the
    real axis sits at the exact conjugate of the other, so the measure layer
    pairs atoms exactly where check_selfdual pairs clusters.
    """
    clusters = diagonalize_unitary(U).clusters
    by_mult = {}
    for (lam, mult), j in zip(clusters, _partners(clusters)):
        if lam.imag < 0 and j >= 0:
            lam = np.conj(clusters[j][0])
        by_mult.setdefault(mult, []).append(lam)
    components = []
    for mult in sorted(by_mult):
        points = np.array(by_mult[mult], dtype=complex)
        mu = AtomicMeasure.from_points(points, np.ones(len(points)))
        components.append((mu, mult))
    return MultiplicityModel(components=tuple(components))
