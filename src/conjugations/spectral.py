"""Spectral analysis of unitary matrices: one self-duality decision, the
conjugate-pair canonical form, and the atomic multiplicity model.

Diagonalization is numpy only: one eigh of H = (U + U*)/2, which commutes
with U and maps e^{i theta} to cos theta, so its eigenspace at cos theta is
ker(U - e^{i theta}) + ker(U - e^{-i theta}), the pair subspace the
canonical form is built on.  Within each run of H's eigenvalues chained
within CUT_TOL, U's compression is diagonalized through its Cayley transform.
Within a cluster the basis columns are ordered by the row of their largest
entry, so a diagonal input gives the standard basis in index order.

diagonalize_unitary decides in one pass, at one radius, which clusters
pair and where every cluster's value sits; check_selfdual, canonical_form
and multiplicity_model all read that decision.  Its one residual is
||U - V||_F for V = Q diag(values) Q*, held to half of
membership_threshold(n): for C in C_c(V), ||CUC - U|| <= 2 ||U - V||, so
every member built on the decision commutes with U within the threshold.
The residual is the hypotenuse of schur's off-diagonal norm and an O(n)
distance on its diagonal: no residual forms an n x n product.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotSelfDualError, ToleranceError
from .linalg import CLUSTER_TOL, CUT_TOL, LABEL_TOL, _label_groups, membership_threshold, require_unitary
from .measures import AtomicMeasure, _nearest_angle


@dataclass(frozen=True)
class UnitarySpectrum:
    """The spectral decision on a unitary U: U = V + (U - V) with
    V = basis diag(values) basis*.

    clusters is a tuple of (value, multiplicity) sorted by the argument of
    the value in (-pi, pi]; the columns of basis are grouped in the same
    order.  partner[i] is the index of cluster i's conjugate partner, i
    itself for a cluster at exactly +-1, or -1.  residual is ||U - V||_F.
    """

    clusters: tuple
    partner: tuple
    basis: np.ndarray
    residual: float

    def mismatches(self):
        """(value, multiplicity, conjugate multiplicity) of each cluster whose
        partner carries another multiplicity, 0 when it has no partner."""
        conj = [self.clusters[j][1] if j >= 0 else 0 for j in self.partner]
        return [(lam, m, c) for (lam, m), c in zip(self.clusters, conj) if m != c]


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
        """The one walk over the coordinates: (rows, cols, eigenvalue) per parameter
        block in ConjugationParams order.  Pair j maps its conj(xi_j) coordinates,
        cols, to its xi_j ones, rows; the +-1 blocks have rows == cols."""
        slots = [(xi, m, m) for xi, m in self.pairs] + [(1.0, self.ell, 0), (-1.0, self.kay, 0)]
        out, end = [], 0
        for lam, m, gap in slots:
            out.append((slice(end, end + m), slice(end + gap, end + gap + m), lam))
            end += m + gap
        return out


@dataclass(frozen=True)
class MultiplicityModel:
    """Mutually singular atomic measures with distinct fiber dimensions."""

    components: tuple  # ((AtomicMeasure, fiber_dim), ...)


def schur(U):
    """(t, Q, off) of a unitary U: Q unitary, t = diag(Q*UQ) and off =
    ||UQ - Q diag t||_F.  Q is the eigenbasis of H = (U + U*)/2, each run of
    H's eigenvalues chained within CUT_TOL rotated by the eigenbasis of the
    Cayley transform i(z + S)(z - S)^-1 of S = Q*UQ on the run: Hermitian,
    with S's eigenvectors, monotone on the circle, z = +-1 at least sqrt(2)
    from the run's eigenvalues.  A run's subspace is off by roundoff over its
    cut gap (Davis-Kahan), so off may reach n eps / CUT_TOL.  Worst case, all
    cos theta chain into one run (all angles in (0, 1e-3), say): a whole-matrix
    solve and eigh on top of eigh(H).  A diagonal U gives Q entries exactly 1:
    eigh of a diagonal matrix returns standard basis vectors, S is diagonal."""
    c, Q = np.linalg.eigh((U + U.conj().T) / 2)
    UQ = U @ Q
    runs = np.split(np.arange(len(c)), np.flatnonzero(np.diff(c) > CUT_TOL) + 1)
    for m in {len(b) for b in runs} - {1}:  # runs of one size as one stack
        b = np.array([b for b in runs if len(b) == m])
        Qb, UQb = Q[:, b].transpose(1, 0, 2), UQ[:, b].transpose(1, 0, 2)
        S = Qb.conj().mT @ UQb
        z = np.where(c[b[:, :1, None]] < 0, 1.0, -1.0) * np.eye(m)  # |z - lam| >= sqrt(2)
        A = 1j * np.linalg.solve(z - S, z + S)
        R = np.linalg.eigh((A + A.conj().mT) / 2)[1]
        Q[:, b], UQ[:, b] = (Qb @ R).transpose(1, 0, 2), (UQb @ R).transpose(1, 0, 2)
    t = np.einsum("ij,ij->j", Q.conj(), UQ)
    return t, Q, float(np.linalg.norm(UQ - Q * t))


def _cluster_indices(vals, radius):
    """Connected components of eigenvalues under distance <= radius, chained
    along the circle: sorted by argument, angular neighbours link, and so
    does the wrap-around pair."""
    order = np.argsort(np.angle(vals), kind="stable")
    split = np.abs(np.diff(vals[order])) > radius
    labels = np.empty(len(vals), dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(split)])[: len(vals)]
    if split.any() and abs(vals[order[0]] - vals[order[-1]]) <= radius:
        labels[labels == labels.max()] = 0
    return _label_groups(labels)


def _partners(angles, radius):
    """Index of each cluster's conjugate partner, or -1: the cluster nearest
    to its conjugate within radius (measures._nearest_angle), kept only when
    the partners are mutual.  A cluster may be its own partner."""
    near = _nearest_angle(angles, -angles, radius)
    return np.where(near[near] == np.arange(len(near)), near, -1)


def diagonalize_unitary(U):
    """The spectral decision on a unitary U, as a UnitarySpectrum.

    With r = min(CLUSTER_TOL, membership_threshold(n)/2), eigenvalues
    chained within r form the clusters, and the clusters' normalized means
    are paired once, at r (_partners).  The pairing sets each value: a
    cluster that is its own partner, within r/2 of +-1, is exactly +-1; of
    two partners the lower sits at the exact conjugate of the upper; an
    unpaired cluster keeps its mean.  Clusters are sorted by the argument of
    their value.  Raises ToleranceError when the residual ||U - V||_F
    exceeds membership_threshold(n)/2.
    """
    U = require_unitary(U, "U")
    vals, Q, off = schur(U)
    budget = membership_threshold(len(U)) / 2
    radius = min(CLUSTER_TOL, budget)
    groups = _cluster_indices(vals, radius)
    means = np.array([np.mean(vals[g]) for g in groups], dtype=complex)
    means /= np.abs(means)
    partner = _partners(np.angle(means), radius)
    own = partner == np.arange(len(means))
    lower = (partner >= 0) & ~own & (means.imag < 0)
    values = np.where(lower, np.conj(means[partner]), means)
    values[own] = np.sign(means[own].real)

    order = np.argsort(np.angle(values), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    partner = np.where(partner[order] >= 0, rank[partner[order]], -1)
    lead = np.argmax(np.abs(Q), axis=0) if len(U) else []  # row of each column's largest entry
    cols = [i for k in order for i in sorted(groups[k], key=lead.__getitem__)]
    mults = [len(groups[k]) for k in order]
    residual = float(np.hypot(off, np.linalg.norm(vals[cols] - np.repeat(values[order], mults))))
    if not residual <= budget:
        raise ToleranceError(
            f"spectral residual {residual:.3e} exceeds {budget:.1e}; "
            "eigenvalue clusters are too spread for the requested tolerance"
        )
    return UnitarySpectrum(clusters=tuple(zip(values[order].tolist(), mults)),
                           partner=tuple(partner.tolist()), basis=Q[:, cols], residual=residual)


def check_selfdual(U):
    """Whether every eigenvalue and its conjugate carry equal multiplicity.

    Returns (verdict, mismatches) where each mismatch is a triple
    (eigenvalue, multiplicity, conjugate_multiplicity).
    """
    mismatches = diagonalize_unitary(U).mismatches()
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
    sorted by increasing Arg xi_j in (0, pi), followed by I_ell and -I_kay:
    the clusters' own values, so W* U W misses it by diagonalize_unitary's
    residual.  Raises NotSelfDualError, worded as the CLI prints it, when a
    cluster's multiplicity differs from its partner's.
    """
    spectrum = diagonalize_unitary(U)
    mismatches = spectrum.mismatches()
    if mismatches:
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
            cols += block[i] + block[spectrum.partner[i]]
    cols += plus_cols + minus_cols
    return spectrum.basis[:, cols], BlockLayout(tuple(pairs), len(plus_cols), len(minus_cols))


def layout_diagonal(layout):
    """The diagonal of the block diagonal matrix a BlockLayout describes."""
    diag = np.empty(layout.dim, dtype=complex)
    for rows, cols, lam in layout.blocks:
        diag[rows], diag[cols] = lam, np.conj(lam)
    return diag


def multiplicity_model(U):
    """Group eigenvalue clusters by multiplicity into unit-weight atomic measures.

    Each multiplicity value k occurring in the spectrum contributes one
    component (mu_k, k) with mu_k the unit-weight sum of point masses at the
    clusters' values of multiplicity exactly k.  Components are mutually
    singular by construction.  The values are diagonalize_unitary's, where
    the lower of two partners sits at the exact conjugate of the upper, so
    the measure layer pairs atoms exactly where check_selfdual pairs clusters.
    """
    by_mult = {}
    for lam, mult in diagonalize_unitary(U).clusters:
        by_mult.setdefault(mult, []).append(lam)
    components = []
    for mult in sorted(by_mult):
        points = np.array(by_mult[mult], dtype=complex)
        mu = AtomicMeasure.from_points(points, np.ones(len(points)))
        components.append((mu, mult))
    return MultiplicityModel(components=tuple(components))
