"""Spectral analysis of unitary matrices: eigenvalue clustering, self-duality,
the conjugate-pair canonical form, and the atomic multiplicity model.

Diagonalization goes through the complex Schur form.  For a unitary matrix
the Schur factor is diagonal up to roundoff, so the Schur basis is an exactly
orthonormal eigenbasis and stays deterministic for identical input, which the
downstream parameter round trips rely on.  scipy provides the Schur form and
is imported on the first call only, so importing the package, and commands
such as membership verification that never diagonalize, do not load it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotSelfDualError, ToleranceError
from .linalg import membership_threshold, require_unitary
from .measures import AtomicMeasure

CLUSTER_TOL = 1e-7  # clustering, +-1 snapping and conjugate-pairing radius


@dataclass(frozen=True)
class UnitarySpectrum:
    """Clustered eigenvalues with an orthonormal eigenbasis grouped to match.

    clusters is a tuple of (eigenvalue, multiplicity) sorted by argument in
    (-pi, pi]; the columns of basis are grouped in the same order.
    """

    clusters: tuple
    basis: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[0]

    def eigenvalue_diagonal(self):
        lams = np.array([lam for lam, _ in self.clusters], dtype=complex)
        return np.repeat(lams, [m for _, m in self.clusters])


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


@dataclass(frozen=True)
class MultiplicityModel:
    """Mutually singular atomic measures with distinct fiber dimensions."""

    components: tuple  # ((AtomicMeasure, fiber_dim), ...)


def schur(U):
    """Complex Schur form (T, Q) of U, with U = Q T Q*."""
    from scipy.linalg import schur as scipy_schur

    return scipy_schur(U, output="complex")


def _snap(rep):
    if abs(rep - 1.0) <= CLUSTER_TOL:
        return 1.0 + 0.0j
    if abs(rep + 1.0) <= CLUSTER_TOL:
        return -1.0 + 0.0j
    return rep


def _cluster_indices(vals):
    """Connected components of eigenvalues under distance <= CLUSTER_TOL.

    Chaining is done along the circle: sort by argument and link angular
    neighbors, including the wrap-around pair.
    """
    n = len(vals)
    order = np.argsort(np.angle(vals), kind="stable")
    labels = -np.ones(n, dtype=int)
    current = -1
    for pos, idx in enumerate(order):
        if pos == 0 or abs(vals[idx] - vals[order[pos - 1]]) > CLUSTER_TOL:
            current += 1
        labels[idx] = current
    # wrap-around: merge the last angular group into the first if they touch
    if current > 0 and abs(vals[order[0]] - vals[order[-1]]) <= CLUSTER_TOL:
        labels[labels == labels[order[-1]]] = labels[order[0]]
    groups = {}
    for idx in range(n):
        groups.setdefault(labels[idx], []).append(idx)
    return list(groups.values())


def diagonalize_unitary(U):
    """Cluster the spectrum of a unitary matrix and return basis + clusters.

    Eigenvalues closer than CLUSTER_TOL are merged; the cluster value is the
    normalized mean direction, snapped to +-1 when within CLUSTER_TOL so the
    real blocks of the canonical form are exactly real.  Raises
    ToleranceError when the clustered spectrum misses U by more than
    membership_threshold(n).
    """
    U = require_unitary(U, "U")
    n = U.shape[0]
    T, Q = schur(U)
    vals = np.diagonal(T).copy()

    entries = []
    for idxs in _cluster_indices(vals):
        rep = np.mean(vals[idxs])
        rep = _snap(rep / abs(rep))
        entries.append((rep, tuple(idxs)))
    entries.sort(key=lambda e: np.angle(e[0]))

    cols = [i for _, idxs in entries for i in idxs]
    basis = Q[:, cols]
    clusters = tuple((rep, len(idxs)) for rep, idxs in entries)
    spectrum = UnitarySpectrum(clusters=clusters, basis=basis)

    D = spectrum.eigenvalue_diagonal()
    resid = float(np.linalg.norm(U - (basis * D) @ basis.conj().T))
    thr = membership_threshold(n)
    if resid > thr:
        raise ToleranceError(
            f"spectral reconstruction residual {resid:.3e} exceeds {thr:.1e}; "
            "eigenvalue clusters are too spread for the requested tolerance"
        )
    return spectrum


def _pair_clusters(clusters):
    """Index of the conjugate cluster for each cluster, or -1 when missing."""
    partner = []
    for lam, _ in clusters:
        target = np.conj(lam)
        best, best_d = -1, CLUSTER_TOL
        for j, (mu, _) in enumerate(clusters):
            d = abs(mu - target)
            if d <= best_d:
                best, best_d = j, d
        partner.append(best)
    return partner


def check_selfdual(U):
    """Whether every eigenvalue and its conjugate carry equal multiplicity.

    Returns (verdict, mismatches) where each mismatch is a triple
    (eigenvalue, multiplicity, conjugate_multiplicity).
    """
    clusters = diagonalize_unitary(U).clusters
    return _selfdual_from_clusters(clusters, _pair_clusters(clusters))


def _selfdual_from_clusters(clusters, partner):
    mismatches = []
    for i, (lam, mult) in enumerate(clusters):
        conj_mult = clusters[partner[i]][1] if partner[i] >= 0 else 0
        if conj_mult != mult:
            mismatches.append((lam, mult, conj_mult))
    return not mismatches, mismatches


def canonical_form(U):
    """Basis W and block layout with W* U W block diagonal.

    The target form is diag(xi_j I, conj(xi_j) I) over the conjugate pairs
    sorted by increasing Arg xi_j in (0, pi), followed by I_ell and -I_kay.
    Raises NotSelfDualError when the pairing fails.
    """
    spectrum = diagonalize_unitary(U)
    n = spectrum.dim
    partner = _pair_clusters(spectrum.clusters)
    ok, mismatches = _selfdual_from_clusters(spectrum.clusters, partner)
    if not ok:
        lam, mult, conj_mult = mismatches[0]
        raise NotSelfDualError(
            f"eigenvalue {lam:.6g} multiplicity {mult}, conjugate multiplicity {conj_mult}",
            mismatches,
        )

    offsets = np.cumsum([0] + [m for _, m in spectrum.clusters])

    def block(i):
        return spectrum.basis[:, offsets[i] : offsets[i + 1]]

    pairs, columns = [], []
    plus_cols = minus_cols = None
    for i, (lam, mult) in enumerate(spectrum.clusters):
        if lam == 1.0:
            plus_cols = block(i)
        elif lam == -1.0:
            minus_cols = block(i)
        elif lam.imag > 0:
            pairs.append(((lam, mult), i))
    pairs.sort(key=lambda e: np.angle(e[0][0]))
    for (lam, mult), i in pairs:
        columns.append(block(i))
        columns.append(block(partner[i]))
    if plus_cols is not None:
        columns.append(plus_cols)
    if minus_cols is not None:
        columns.append(minus_cols)

    W = np.hstack(columns) if columns else np.zeros((n, 0), dtype=complex)
    layout = BlockLayout(
        pairs=tuple(e[0] for e in pairs),
        ell=0 if plus_cols is None else plus_cols.shape[1],
        kay=0 if minus_cols is None else minus_cols.shape[1],
    )

    resid = float(np.linalg.norm(W.conj().T @ U @ W - layout_matrix(layout)))
    thr = membership_threshold(n)
    if resid > thr:
        raise ToleranceError(f"canonical form residual {resid:.3e} exceeds {thr:.1e}")
    return W, layout


def layout_matrix(layout):
    """The block diagonal matrix described by a BlockLayout."""
    diag = []
    for xi, m in layout.pairs:
        diag.extend([xi] * m)
        diag.extend([np.conj(xi)] * m)
    diag.extend([1.0] * layout.ell)
    diag.extend([-1.0] * layout.kay)
    return np.diag(np.array(diag, dtype=complex))


def multiplicity_model(U):
    """Group eigenvalue clusters by multiplicity into unit-weight atomic measures.

    Each multiplicity value k occurring in the spectrum contributes one
    component (mu_k, k) with mu_k the unit-weight sum of point masses at the
    clusters of multiplicity exactly k.  Components are mutually singular by
    construction.
    """
    spectrum = diagonalize_unitary(U)
    by_mult = {}
    for lam, mult in spectrum.clusters:
        by_mult.setdefault(mult, []).append(lam)
    components = []
    for mult in sorted(by_mult):
        points = np.array(by_mult[mult], dtype=complex)
        mu = AtomicMeasure.from_points(points, np.ones(len(points)))
        components.append((mu, mult))
    return MultiplicityModel(components=tuple(components))
