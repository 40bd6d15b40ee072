"""Atomic measures on the unit circle and the weighted conjugation machinery.

Measures are finite lists of weighted atoms.  Reflection sends an atom at
angle t to -t; when every non-real atom has a reflected partner the
Radon-Nikodym weights h_k = w_{sigma(k)} / w_k exist and satisfy
h_k * h_{sigma(k)} = 1.  On the weighted sequence space built over the atoms,
the map f -> sqrt(h) * conj(f o conj) is a conjugation commuting with the
coordinate multiplier, and composing it with a pointwise unitary field stays
a conjugation exactly when the field is reflection symmetric.

Elements keep their weights explicit in the inner product; nothing is
rescaled into flat coordinates, so the sqrt(h) factor stays visible in the
operator data.  Only the defect report moves to the weighted orthonormal
coordinates, where each defect is one matrix norm.  A measure here is its
arrays of angles and weights; the CLI reads and writes its JSON form.
"""

from dataclasses import astuple, dataclass

import numpy as np

from .antilinear import ConjugationReport
from .errors import AbsoluteContinuityError, InputError
from .linalg import PAIR_TOL, UNIT_CIRCLE_TOL, _gram_residual, _unique_inverse, threshold, unitarity_defect

THETA_DECIMALS = 12  # canonical angle resolution
_TINY = np.finfo(float).tiny  # smallest normal float: q and 1/q are normal for q in [_TINY, 1/_TINY]


def _wrap_angle(theta):
    """Wrap into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2 * np.pi)


_PI_ROUNDED = float(np.round(np.pi, THETA_DECIMALS))


def canonical_angle(theta):
    """Wrap into (-pi, pi] and round to the canonical 1e-12 grid.

    Angles that round to +-pi become exactly np.pi.  Rounded pi lies 2.07e-13
    beyond pi, so keeping it would leave an atom at -1 off the real axis, and
    keeping its negative would flip sign when wrapped again.
    """
    r = np.round(_wrap_angle(theta), THETA_DECIMALS) + 0.0
    return np.where(np.abs(r) >= _PI_ROUNDED, np.pi, r)


def _unit_points(points):
    """points as a 1-d complex array, each within UNIT_CIRCLE_TOL of the unit circle."""
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    if not np.all(np.abs(np.abs(points) - 1.0) <= UNIT_CIRCLE_TOL):  # NaN fails too
        raise InputError(f"atoms must sit on the unit circle within {UNIT_CIRCLE_TOL:g}")
    return points


def _nearest_angle(angles, targets, radius):
    """For each target angle, the index of the nearest of angles within radius
    in wrapped angular distance, the later index on a tie, or -1.

    The candidates are the angle-sorted angles (with copies shifted by
    +-2 pi) within 2 * radius of the target: a window wide enough for the
    roundoff of the wrap, scanned one step at a time for all targets at once.
    """
    order = np.argsort(angles, kind="stable")
    ring = np.concatenate([angles[order] + s for s in (-2 * np.pi, 0.0, 2 * np.pi)])
    lo = np.searchsorted(ring, targets - 2 * radius)
    hi = np.searchsorted(ring, targets + 2 * radius, side="right")
    nearest, best = np.full(targets.size, -1), np.full(targets.size, radius)
    for step in range(int(np.max(hi - lo, initial=0))):
        j = order[np.minimum(lo + step, len(ring) - 1) % len(angles)]
        d = np.abs(_wrap_angle(angles[j] - targets))
        take = (lo + step < hi) & ((d < best) | ((d == best) & (j > nearest)))
        nearest[take], best[take] = j[take], d[take]
    return nearest


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many weighted atoms on the unit circle, stored as angles."""

    thetas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        thetas = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if thetas.shape != weights.shape or thetas.ndim != 1:
            raise InputError("thetas and weights must be 1-d arrays of equal length")
        if thetas.size and not np.all(np.isfinite(thetas)):
            raise InputError("atom angles must be finite")
        if not np.all(np.isfinite(weights)):
            raise InputError("atom weights must be finite")
        if thetas.size and np.any(weights <= 0):
            raise InputError("atom weights must be strictly positive")
        thetas = canonical_angle(thetas) if thetas.size else thetas
        ranked = np.sort(thetas)  # np.unique would import numpy.ma
        if np.any(ranked[1:] == ranked[:-1]):
            raise InputError("duplicate atoms after canonicalization")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_points(cls, points, weights):
        return cls(np.angle(_unit_points(points)), weights)

    @property
    def size(self):
        return self.thetas.size

    @property
    def points(self):
        return np.exp(1j * self.thetas)


def reflect(mu):
    """The reflected measure: the atom at angle t moves to -t, same weight."""
    return AtomicMeasure(canonical_angle(-mu.thetas), mu.weights.copy())


def conjugate_pairing(mu):
    """Pair each atom with the atom at the conjugate point.

    Returns (sigma, unpaired) where sigma[k] is the partner index (k itself
    for atoms at +-1, -1 for none) and unpaired lists the atoms without one.
    The partner is the atom _nearest_angle finds within PAIR_TOL of the
    conjugate angle; a partner that does not take the atom back is refused.
    """
    sigma = _nearest_angle(mu.thetas, canonical_angle(-mu.thetas), PAIR_TOL)
    paired = np.flatnonzero(sigma >= 0)
    if np.any(sigma[sigma[paired]] != paired):
        raise InputError("ambiguous conjugate pairing: atoms closer than 1e-9")
    return sigma, np.flatnonzero(sigma < 0).tolist()


def _reciprocal_pair(x):
    """(x', y) within three ulps of (x, 1/x) with fl(x' * y) == 1 exactly, or None.

    A correctly rounded quotient pair can miss 1.0 by one ulp; nudging either
    factor by at most three ulps lands the product on 1.0 exactly for every
    normal x > 0 with a normal reciprocal.  Each factor's candidates are its
    value, then 1, 2 and 3 ulps above and below it: a positive float's ulps
    count in its bits.
    """
    def near(v):
        return (np.float64(v).view(np.int64) + np.array([0, 1, -1, 2, -2, 3, -3])).view(np.float64)

    for xc in near(x):
        for y in near(1.0 / xc):
            if xc * y == 1.0:
                return float(xc), float(y)
    return None


def _reciprocal_ratios(mu, ratio):
    """Conjugate pairing sigma and per-atom factors r with r_k * r_sigma(k) == 1.

    For each pair k < sigma(k) the factors are ratio(w_sigma(k) / w_k) and
    its reciprocal, nudged by _reciprocal_pair; atoms at +-1 get 1.  Raises
    AbsoluteContinuityError when a non-real atom lacks a partner, and
    InputError when the raw weight ratio leaves [_TINY, 1/_TINY]: the square
    root of a subnormal ratio is normal, yet _orthonormal_matrix overflows.
    """
    sigma, unpaired = conjugate_pairing(mu)
    if unpaired:
        raise AbsoluteContinuityError(
            f"reflected measure is not absolutely continuous: atom at angle "
            f"{mu.thetas[unpaired[0]]:.12g} has no conjugate partner"
        )
    r = np.ones(mu.size)
    for k in np.nonzero(sigma > np.arange(mu.size))[0]:
        with np.errstate(over="ignore", under="ignore"):
            q = mu.weights[sigma[k]] / mu.weights[k]
        pair = _reciprocal_pair(ratio(q)) if _TINY <= q <= 1 / _TINY else None
        if pair is None:
            raise InputError(f"atom at angle {mu.thetas[k]:.12g}: the weight ratio to its "
                             f"conjugate partner leaves the float range")
        r[k], r[sigma[k]] = pair
    return sigma, r


def radon_nikodym(mu):
    """Per-atom weights h of the reflected measure against the original.

    h_k = w_{sigma(k)} / w_k, with the pair (h_k, h_{sigma(k)}) adjusted by
    at most a few ulps so their product is exactly 1.  Raises
    AbsoluteContinuityError when a non-real atom lacks a partner.
    """
    return _reciprocal_ratios(mu, lambda q: q)[1]


def lattice_join(mu, nu):
    """Atomwise weight sum over the union of the atom sets, sorted by angle."""
    thetas, slot = _unique_inverse(np.concatenate([mu.thetas, nu.thetas]))
    weights = np.bincount(slot, weights=np.concatenate([mu.weights, nu.weights]))
    return AtomicMeasure(thetas, weights)


def lattice_meet(mu, nu):
    """Atomwise minimum over the intersection of the atom sets, sorted by angle."""
    thetas, i, j = np.intersect1d(mu.thetas, nu.thetas, assume_unique=True, return_indices=True)
    return AtomicMeasure(thetas, np.minimum(mu.weights[i], nu.weights[j]))


@dataclass(frozen=True)
class WeightedSpaceElement:
    """A fiber-vector-valued function on the atoms of a measure."""

    measure: AtomicMeasure
    values: np.ndarray  # shape (n_atoms, fiber_dim)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.measure.size:
            raise InputError("values must have one row per atom")
        object.__setattr__(self, "values", values)

    @property
    def fiber_dim(self):
        return self.values.shape[1]


def weighted_inner(f, g):
    """<f, g> = sum_k w_k <f_k, g_k>, linear in the first argument."""
    if f.measure.size != g.measure.size or f.fiber_dim != g.fiber_dim:
        raise InputError("weighted inner product dimension mismatch")
    return complex(np.sum(f.measure.weights * np.sum(f.values * np.conj(g.values), axis=1)))


@dataclass(frozen=True)
class FieldOperator:
    """Per-atom matrix field, optionally antilinear and atom-permuting.

    Acts as (F f)(k) = M_k * f(p(k)) for linear fields and
    (F f)(k) = M_k * conj(f(p(k))) for antilinear ones, where p is the
    point map (identity when None).
    """

    measure: AtomicMeasure
    matrices: np.ndarray  # (n_atoms, r, r)
    antilinear: bool = False
    point_map: np.ndarray | None = None

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[0] != self.measure.size or mats.shape[1] != mats.shape[2]:
            raise InputError("matrices must have shape (n_atoms, r, r)")
        object.__setattr__(self, "matrices", mats)
        if self.point_map is not None:
            pm = np.asarray(self.point_map, dtype=int)
            if pm.shape != (self.measure.size,):
                raise InputError("point_map must index the atoms")
            object.__setattr__(self, "point_map", pm)

    @property
    def fiber_dim(self):
        return self.matrices.shape[1]

    def apply(self, f):
        if f.measure.size != self.measure.size or f.fiber_dim != self.fiber_dim:
            raise InputError("field applied to an element of mismatched shape")
        vals = f.values if self.point_map is None else f.values[self.point_map]
        if self.antilinear:
            vals = np.conj(vals)
        out = np.einsum("kij,kj->ki", self.matrices, vals)
        return WeightedSpaceElement(self.measure, out)


def compose_fields(F, G):
    """The composite field F after G."""
    if F.measure.size != G.measure.size or F.fiber_dim != G.fiber_dim:
        raise InputError("field composition dimension mismatch")
    n = F.measure.size
    pF = F.point_map if F.point_map is not None else np.arange(n)
    pG = G.point_map if G.point_map is not None else np.arange(n)
    mats_inner = G.matrices[pF]
    if F.antilinear:
        mats_inner = np.conj(mats_inner)
    mats = np.einsum("kij,kjl->kil", F.matrices, mats_inner)
    point = pG[pF]
    if np.array_equal(point, np.arange(n)):
        point = None
    return FieldOperator(
        F.measure, mats, antilinear=F.antilinear != G.antilinear, point_map=point
    )


def reflection_conjugation(mu, fiber_dim):
    """The weighted conjugation f -> (k -> sqrt(h_k) * conj(f_{sigma(k)})).

    The fiber conjugation is entrywise.  Any other one, x -> A' conj(x) with
    A' a symmetric unitary, is the constant unitary field A' composed with
    this one (assemble_model's unitary_fields).  The sqrt(h) factors are
    stored as exact reciprocal pairs, so composing the field with itself
    gives the identity to the last ulp.  Commutes with the coordinate
    multiplier and is isometric for the weighted inner product.
    """
    sigma, s = _reciprocal_ratios(mu, np.sqrt)
    mats = s[:, None, None] * np.eye(fiber_dim)[None, :, :]
    return FieldOperator(mu, mats, antilinear=True, point_map=sigma)


def is_reflection_symmetric(field):
    """Whether conj(U_k) = U_{sigma(k)}* at every atom, for a unitary field U.

    This is the exact criterion for the composite of the multiplication field
    with the weighted reflection conjugation to be a conjugation again.
    Returns (verdict, worst_defect); the verdict and the unitarity check on
    the field both use threshold(sqrt(r)) for fiber dimension r.
    """
    if field.antilinear or field.point_map is not None:
        raise InputError("expected a pointwise linear multiplication field")
    r = field.fiber_dim
    mats = field.matrices
    not_unitary = ~(np.linalg.norm(_gram_residual(mats), axis=(1, 2)) <= threshold(np.sqrt(r)))
    if not_unitary.any():
        raise InputError(f"field is not unitary valued at atom {np.argmax(not_unitary)}")
    sigma, unpaired = conjugate_pairing(field.measure)
    if unpaired:
        raise AbsoluteContinuityError(
            "field measure has an unpaired non-real atom; no reflection conjugation exists"
        )
    rhs = np.conj(mats[sigma]).transpose(0, 2, 1)
    worst = float(np.max(np.linalg.norm(np.conj(mats) - rhs, axis=(1, 2)), initial=0.0))
    return worst <= threshold(np.sqrt(r)), worst


def _orthonormal_matrix(field):
    """Matrix of a field in the weighted orthonormal basis (atom-major, fiber-minor).

    In the coordinates c_k = sqrt(w_k) f_k the field acts as c -> A c, or
    c -> A conj(c) when antilinear, where block (k, p(k)) of A is
    sqrt(w_k / w_p(k)) M_k and every other block is zero.
    """
    w = field.measure.weights
    n, r = field.measure.size, field.fiber_dim
    p = field.point_map if field.point_map is not None else np.arange(n)
    blocks = np.zeros((n, r, n, r), dtype=complex)
    blocks[np.arange(n), :, p, :] = np.sqrt(w / w[p])[:, None, None] * field.matrices
    return blocks.reshape(n * r, n * r)


def field_conjugation_report(field):
    """Isometry, involution, and coordinate-commutation defects of a field.

    All three are Frobenius norms of matrices in the weighted orthonormal
    atom basis, so they vanish identically for genuine conjugations
    regardless of the weights.  With A the field's matrix there (see
    _orthonormal_matrix) and D the atom coordinate repeated over the fiber:
    isometry ||A* A - I|| (linalg.unitarity_defect); commutation
    ||A conj(D) - D A|| for antilinear fields and ||A D - D A|| for linear
    ones; involution ||B - I|| with B the matrix of the field composed with
    itself.  B is built from the composed field rather than as A conj(A), so
    the exact reciprocal sqrt(h) pairs of a reflection conjugation give
    exactly 0.
    """
    A = _orthonormal_matrix(field)
    iso = unitarity_defect(A)
    inv = float(np.linalg.norm(_orthonormal_matrix(compose_fields(field, field)) - np.eye(len(A))))
    d = np.repeat(field.measure.points, field.fiber_dim)
    right = np.conj(d) if field.antilinear else d
    comm = float(np.linalg.norm(A * right[None, :] - d[:, None] * A))
    return ConjugationReport(isometry_defect=iso, involution_defect=inv, commutation_defect=comm)


@dataclass(frozen=True)
class DirectSumConjugation:
    """Blockwise antilinear operator over mutually singular components."""

    blocks: tuple  # FieldOperator per component, all antilinear

    def report(self):
        """Worst-case defect report over the blocks."""
        reports = [astuple(field_conjugation_report(blk))[:3] for blk in self.blocks]
        return ConjugationReport(*(max(column) for column in zip(*reports)))


def assemble_model(model, unitary_fields=None):
    """Direct sum of weighted reflection conjugations, one per component.

    Each component of the multiplicity model must pass the absolute
    continuity test, otherwise no commuting conjugation exists and the
    assembly is refused.  Optional per-component unitary fields are composed
    in after checking reflection symmetry; a constant symmetric unitary field
    A' gives the component the fiber conjugation x -> A' conj(x).
    """
    blocks = []
    for i, (mu, r) in enumerate(model.components):
        base = reflection_conjugation(mu, r)
        if unitary_fields is not None and unitary_fields[i] is not None:
            uf = unitary_fields[i]
            ok, defect = is_reflection_symmetric(uf)
            if not ok:
                raise InputError(
                    f"component {i}: field is not reflection symmetric (defect {defect:.3e})"
                )
            blocks.append(compose_fields(uf, base))
        else:
            blocks.append(base)
    return DirectSumConjugation(tuple(blocks))


def invariance_probe(ds, atom_points):
    """Whether the coordinate subspace over the given atoms is mapped into itself.

    atom_points are unit-circle points (InputError otherwise); an atom is
    inside when _nearest_angle finds a point within PAIR_TOL of it.  True is
    guaranteed when the atom set is closed under conjugation.  Mass leaking
    outside the subspace counts once it exceeds threshold(1.0) of the
    image's norm.
    """
    sel_thetas = canonical_angle(np.angle(_unit_points(atom_points)))
    for blk in ds.blocks:
        mu = blk.measure
        inside = _nearest_angle(sel_thetas, mu.thetas, PAIR_TOL) >= 0
        for k in np.flatnonzero(inside):
            for m in range(blk.fiber_dim):
                vals = np.zeros((mu.size, blk.fiber_dim), dtype=complex)
                vals[k, m] = 1.0
                out = blk.apply(WeightedSpaceElement(mu, vals))
                outside_mass = np.sqrt(
                    np.sum(mu.weights[~inside] * np.sum(np.abs(out.values[~inside]) ** 2, axis=1))
                )
                if outside_mass > threshold(1.0) * np.sqrt(max(weighted_inner(out, out).real, 0.0)):
                    return False
    return True
