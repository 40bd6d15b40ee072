import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjugations.errors import AbsoluteContinuityError, InputError
from conjugations.linalg import haar_unitary, symmetric_unitary
from conjugations.measures import (
    PAIR_TOL,
    AtomicMeasure,
    FieldOperator,
    WeightedSpaceElement,
    assemble_model,
    canonical_angle,
    compose_fields,
    conjugate_pairing,
    field_conjugation_report,
    invariance_probe,
    is_reflection_symmetric,
    lattice_join,
    lattice_meet,
    radon_nikodym,
    reflect,
    reflection_conjugation,
    weighted_inner,
)
from conjugations.spectral import MultiplicityModel, multiplicity_model

from random_inputs import random_paired_measure
from _oracles import conjugate_pairing_dense, lattice_join_loop, lattice_meet_loop
from _oracles import reflection_conjugation_with_fiber


def delta(theta, weight=1.0):
    return AtomicMeasure([theta], [weight])


def test_reflect_examples():
    mu = reflect(delta(np.pi / 2))
    assert np.allclose(mu.thetas, [-np.pi / 2])
    fixed = reflect(AtomicMeasure([0.0], [2.0]))
    assert list(fixed.thetas) == [0.0] and list(fixed.weights) == [2.0]
    swapped = reflect(AtomicMeasure([np.pi / 2, -np.pi / 2], [1.0, 3.0]))
    assert np.allclose(sorted(zip(swapped.thetas, swapped.weights)), [(-np.pi / 2, 1.0), (np.pi / 2, 3.0)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_reflect_involution(seed):
    mu = random_paired_measure(np.random.default_rng(seed))
    back = reflect(reflect(mu))
    assert np.array_equal(back.thetas, mu.thetas)
    assert np.array_equal(back.weights, mu.weights)
    assert reflect(mu).weights.sum() == mu.weights.sum()


def test_measure_validation():
    with pytest.raises(InputError):
        AtomicMeasure([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(InputError):
        AtomicMeasure([0.0], [0.0])
    with pytest.raises(InputError):
        AtomicMeasure.from_points([2.0], [1.0])


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_measure_rejects_nonfinite_weights(weight):
    with pytest.raises(InputError, match="atom weights must be finite"):
        AtomicMeasure([0.5, -0.5], [1.0, weight])


def test_radon_nikodym_uniform():
    mu = AtomicMeasure([np.pi / 3, -np.pi / 3, 0.0], [2.0, 2.0, 5.0])
    assert np.array_equal(radon_nikodym(mu), np.ones(3))


def test_radon_nikodym_ratio():
    mu = AtomicMeasure.from_points([1j, -1j], [1.0, 3.0])
    h = radon_nikodym(mu)
    assert h[0] == pytest.approx(3.0)
    assert h[1] == pytest.approx(1.0 / 3.0)
    assert h[0] * h[1] == 1.0


def test_conjugate_pairing_refuses_ambiguous_partners():
    # in the first measure the third atom's nearest conjugate is the first
    # atom, which pairs with the second.  In the second the first atom's
    # conjugate lies 9.85e-10 from both other atoms; the tie goes to the
    # later one, which sits 1.5e-11 from -1 and pairs with itself
    for thetas in ([0.5, -0.5, -0.5000000005], [3.14159265259, -3.141592651605, -3.141592653575]):
        with pytest.raises(InputError, match="^ambiguous conjugate pairing: atoms closer than 1e-9$"):
            conjugate_pairing(AtomicMeasure(thetas, np.ones(3)))


def test_oracles_import_nothing_from_the_library():
    tree = ast.parse((pathlib.Path(__file__).parent / "_oracles.py").read_text())
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "numpy" in modules
    assert not [m for m in modules if m.startswith(".") or m.split(".")[0] == "conjugations"]


def test_conjugate_pairing_matches_dense_oracle(rng):
    # conjugates moved by up to 2 PAIR_TOL, some by exactly PAIR_TOL (1000
    # steps of the 1e-12 angle grid), atoms at and near +-1, duplicates of
    # a conjugate within PAIR_TOL that make the pairing ambiguous
    at_radius = ambiguous = 0
    for _ in range(600):
        n = int(rng.integers(1, 10))
        base = rng.uniform(-np.pi, np.pi, n)
        base[: int(rng.integers(0, 3))] = rng.choice([0.0, np.pi, np.pi - PAIR_TOL, 0.5 * PAIR_TOL - np.pi])
        shift = rng.choice([0.0, 0.5, 1.0, -1.0, 1.5, 2.0]) + rng.uniform(-2, 2, n) * (rng.random(n) < 0.5)
        moved = -base + shift * PAIR_TOL
        thetas = np.unique(canonical_angle(np.concatenate([base, moved[rng.random(n) < 0.8]])))
        mu = AtomicMeasure(rng.permutation(thetas), np.ones(thetas.size))
        sums = np.abs(mu.thetas[:, None] + mu.thetas[None, :])
        at_radius += bool(np.any(np.abs(sums - PAIR_TOL) <= 1e-15))
        try:
            want = conjugate_pairing_dense(mu.thetas, PAIR_TOL)
        except ValueError:
            ambiguous += 1
            with pytest.raises(InputError, match="ambiguous conjugate pairing"):
                conjugate_pairing(mu)
            continue
        sigma, unpaired = conjugate_pairing(mu)
        assert (sigma.tolist(), unpaired) == want
    assert at_radius >= 20 and ambiguous >= 20


def test_radon_nikodym_refuses_unpaired():
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym(delta(np.pi / 2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_radon_nikodym_exact_reciprocals(seed):
    rng = np.random.default_rng(seed)
    mu = random_paired_measure(rng, weight_span=(1e-3, 1e3))
    sigma, unpaired = conjugate_pairing(mu)
    assert not unpaired
    h = radon_nikodym(mu)
    assert np.all(h * h[sigma] == 1.0)
    # values sit within a few ulps of the true weight ratios
    true = mu.weights[sigma] / mu.weights
    assert np.max(np.abs(h / true - 1.0)) < 1e-14


def test_lattice_examples():
    assert lattice_meet(delta(0.0), delta(np.pi)).size == 0
    j = lattice_join(delta(0.0, 1.0), delta(0.0, 2.0))
    assert j.size == 1 and j.weights[0] == 3.0
    m = lattice_meet(
        AtomicMeasure([np.pi / 2, 0.0], [2.0, 1.0]), delta(np.pi / 2, 1.0)
    )
    assert m.size == 1 and m.weights[0] == 1.0 and m.thetas[0] == pytest.approx(np.pi / 2)


def _grid_measure(rng, picked):
    """Atoms at the picked points of a 16-point grid, random weights."""
    thetas = 2 * np.pi * np.flatnonzero(picked) / len(picked)
    return AtomicMeasure(thetas, rng.uniform(0.1, 10.0, thetas.size))


def test_lattice_matches_loop_oracle(rng):
    empty = AtomicMeasure([], [])
    pairs = [(empty, empty), (empty, delta(0.3)), (delta(0.3), empty)]
    for _ in range(200):
        mu = _grid_measure(rng, rng.random(16) < 0.5)
        nu = _grid_measure(rng, rng.random(16) < 0.5)
        half = rng.random(16) < 0.5
        disjoint = (_grid_measure(rng, half), _grid_measure(rng, ~half))
        pairs += [(mu, nu), disjoint, (mu, mu), (random_paired_measure(rng), nu)]
    for mu, nu in pairs:
        for op, loop in ((lattice_join, lattice_join_loop), (lattice_meet, lattice_meet_loop)):
            got, (thetas, weights) = op(mu, nu), loop(mu, nu)
            assert got.thetas.tobytes() == thetas.tobytes()
            assert got.weights.tobytes() == weights.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_lattice_order_relations(seed):
    rng = np.random.default_rng(seed)
    mu, nu = random_paired_measure(rng), random_paired_measure(rng)
    meet, join = lattice_meet(mu, nu), lattice_join(mu, nu)
    wm = dict(zip(meet.thetas, meet.weights))
    wj = dict(zip(join.thetas, join.weights))
    for t, w in wm.items():
        assert w <= dict(zip(mu.thetas, mu.weights)).get(t, np.inf)
        assert w <= dict(zip(nu.thetas, nu.weights)).get(t, np.inf)
    for t, w in zip(mu.thetas, mu.weights):
        assert wj[t] >= w
    for t, w in zip(nu.thetas, nu.weights):
        assert wj[t] >= w


def test_reflection_conjugation_uniform_grid():
    # equal weights: plain reflected conjugation, no weight factor
    mu = AtomicMeasure([np.pi / 3, -np.pi / 3], [2.0, 2.0])
    jsh = reflection_conjugation(mu, 1)
    f = WeightedSpaceElement(mu, np.array([[1.0 + 2j], [3.0 - 1j]]))
    out = jsh.apply(f)
    assert np.allclose(out.values[:, 0], [3.0 + 1j, 1.0 - 2j])


def test_reflection_conjugation_weighted_pair():
    mu = AtomicMeasure.from_points([1j, -1j], [1.0, 3.0])
    jsh = reflection_conjugation(mu, 1)
    f = WeightedSpaceElement(mu, np.array([[1.0 + 1j], [2.0]]))
    out = jsh.apply(f)
    assert np.allclose(out.values[:, 0], [np.sqrt(3.0) * 2.0, (1.0 - 1j) / np.sqrt(3.0)])
    # exact involution thanks to the reciprocal sqrt(h) pairs
    report = field_conjugation_report(jsh)
    assert report.involution_defect == 0.0


def test_reflection_conjugation_real_atoms():
    mu = AtomicMeasure([0.0, np.pi], [1.0, 4.0])
    jsh = reflection_conjugation(mu, 1)
    f = WeightedSpaceElement(mu, np.array([[1j], [2.0 - 1j]]))
    out = jsh.apply(f)
    assert np.allclose(out.values[:, 0], [-1j, 2.0 + 1j])


def test_canonical_angle_pins_pi_exactly():
    assert canonical_angle(np.pi) == np.pi
    assert canonical_angle(-np.pi) == np.pi
    assert canonical_angle(3 * np.pi) == np.pi
    assert canonical_angle(np.pi - 4e-13) == np.round(np.pi - 4e-13, 12)
    assert AtomicMeasure.from_points([-1.0], [1.0]).points[0].imag == np.sin(np.pi)
    thetas = np.concatenate([[np.pi, -np.pi, 0.0, -0.0], np.random.default_rng(3).uniform(-7, 7, 200)])
    once = canonical_angle(thetas)
    assert np.array_equal(canonical_angle(once), once)
    assert np.all((once > -np.pi) & (once <= np.pi))


@pytest.mark.parametrize("fiber", [6, 8])
def test_reflection_conjugation_contract_atom_at_minus_one(rng, fiber):
    # the atom at -1 must sit on the real axis: a 2e-13 offset alone gives a
    # commutation defect of 4e-13 * sqrt(fiber), past 1e-12 from fiber 6 on
    for _ in range(5):
        mu = random_paired_measure(rng, max_pairs=8, with_fixed=False)
        mu = AtomicMeasure(np.append(mu.thetas, np.pi), np.append(mu.weights, 2.5))
        report = field_conjugation_report(reflection_conjugation(mu, fiber))
        assert report.isometry_defect <= 1e-12
        assert report.involution_defect <= 1e-12
        assert report.commutation_defect <= 1e-12


def test_reflection_conjugation_refuses_unpaired():
    with pytest.raises(AbsoluteContinuityError):
        reflection_conjugation(delta(0.3), 1)


def test_reflection_conjugation_contract(rng):
    for _ in range(15):
        mu = random_paired_measure(rng)
        r = int(rng.integers(1, 5))
        jsh = reflection_conjugation(mu, r)
        report = field_conjugation_report(jsh)
        assert report.isometry_defect <= 1e-12
        assert report.involution_defect <= 1e-12
        assert report.commutation_defect <= 1e-12


def test_multiplier_identity_and_coordinate():
    mu = AtomicMeasure.from_points([1j, -1j], [1.0, 2.0])
    f = WeightedSpaceElement(mu, np.array([[1.0], [2.0]]))
    ident = FieldOperator(mu, np.ones((2, 1, 1)))
    assert np.allclose(ident.apply(f).values, f.values)
    coord = FieldOperator(mu, mu.points[:, None, None])
    assert np.allclose(coord.apply(f).values[:, 0], [1j, -2j])


def _paired_unitary_field(mu, r, rng):
    """Unitary field satisfying the reflection symmetry by construction."""
    sigma, unpaired = conjugate_pairing(mu)
    assert not unpaired
    mats = np.zeros((mu.size, r, r), dtype=complex)
    for k in range(mu.size):
        if sigma[k] == k:
            # conj(U) = U* means the block is symmetric
            mats[k] = symmetric_unitary(r, rng)
        elif sigma[k] > k:
            mats[k] = haar_unitary(r, rng)
    for k in range(mu.size):
        if sigma[k] < k:
            mats[k] = mats[sigma[k]].T
    return FieldOperator(mu, mats)


def test_other_fiber_conjugation_is_a_constant_unitary_field(rng):
    # x -> A conj(x) on the fiber is the constant field A composed with the
    # entrywise reflection conjugation, for every symmetric unitary A
    for _ in range(20):
        mu = random_paired_measure(rng, max_pairs=5, weight_span=(0.1, 10.0))
        r = int(rng.integers(1, 5))
        A = symmetric_unitary(r, rng)
        constant = FieldOperator(mu, np.repeat(A[None], mu.size, axis=0))
        field = compose_fields(constant, reflection_conjugation(mu, r))
        mats, point = reflection_conjugation_with_fiber(mu, r, A)
        # the library's sqrt(h) pairs are nudged a few ulps to exact reciprocals
        scale = np.sqrt(mu.weights.max() / mu.weights.min())
        assert field.antilinear
        assert np.array_equal(field.point_map, point)
        assert np.max(np.abs(field.matrices - mats)) <= 1e-15 * scale
        # assemble_model takes the same field as a reflection-symmetric one
        model = MultiplicityModel(components=((mu, r),))
        (block,) = assemble_model(model, unitary_fields=[constant]).blocks
        assert np.array_equal(block.matrices, field.matrices)


def test_reflection_symmetry_criterion():
    mu = AtomicMeasure.from_points([1j, -1j], [1.0, 1.0])
    ok, defect = is_reflection_symmetric(FieldOperator(mu, np.ones((2, 1, 1))))
    assert ok and defect <= 1e-15
    ok, defect = is_reflection_symmetric(FieldOperator(mu, np.array([1.0, -1.0])[:, None, None]))
    assert not ok
    assert defect == pytest.approx(2.0)


def test_reflection_symmetry_even_scalar(rng):
    mu = random_paired_measure(rng)
    sigma, _ = conjugate_pairing(mu)
    vals = np.exp(1j * rng.uniform(-np.pi, np.pi, mu.size))
    vals = vals[sigma] * 0 + (vals + vals[sigma]) / np.abs(vals + vals[sigma])  # even unimodular
    ok, defect = is_reflection_symmetric(FieldOperator(mu, vals[:, None, None]))
    assert ok, defect


def test_reflection_symmetry_matches_conjugation_checks(rng):
    # the pointwise criterion and the operator-level defect suite agree both ways
    for trial in range(12):
        mu = random_paired_measure(rng, max_pairs=4)
        r = int(rng.integers(1, 4))
        jsh = reflection_conjugation(mu, r)
        if trial % 2 == 0:
            field = _paired_unitary_field(mu, r, rng)
        else:
            mats = np.stack([haar_unitary(r, rng) for _ in range(mu.size)])
            field = FieldOperator(mu, mats)
        ok, _ = is_reflection_symmetric(field)
        composed = compose_fields(field, jsh)
        report = field_conjugation_report(composed)
        passes = (
            report.isometry_defect <= 1e-10
            and report.involution_defect <= 1e-10
            and report.commutation_defect <= 1e-10
        )
        assert ok == passes


def _loop_field_report(field):
    """Reference defects, one weighted inner product per pair of basis images.

    Applies the field to each element of the weighted orthonormal basis and
    measures everything through weighted_inner: the Gram matrix of the
    images, the residuals of the field composed with itself, and the
    commutator with the coordinate multiplier.
    """
    mu, r = field.measure, field.fiber_dim
    basis = []
    for k in range(mu.size):
        for m in range(r):
            vals = np.zeros((mu.size, r), dtype=complex)
            vals[k, m] = 1.0 / np.sqrt(mu.weights[k])
            basis.append(WeightedSpaceElement(mu, vals))

    def norm(f, g):
        diff = WeightedSpaceElement(mu, f.values - g.values)
        return np.sqrt(weighted_inner(diff, diff).real)

    images = [field.apply(e) for e in basis]
    gram = np.array([[weighted_inner(a, b) for b in images] for a in images])
    iso = np.linalg.norm(gram - np.eye(len(basis)))
    twice = compose_fields(field, field)
    inv = np.sqrt(sum(norm(twice.apply(e), e) ** 2 for e in basis))
    xi = FieldOperator(mu, mu.points[:, None, None] * np.eye(r))  # the atom coordinate
    comm = np.sqrt(sum(norm(field.apply(xi.apply(e)), xi.apply(field.apply(e))) ** 2 for e in basis))
    return iso, inv, comm


def test_field_report_matches_loop_oracle(rng):
    # reflection conjugations (defects at roundoff), their compositions with
    # non-symmetric unitary fields (defects of order 1), and plain linear fields
    for _ in range(6):
        mu = random_paired_measure(rng, max_pairs=5, weight_span=(0.1, 10.0))
        r = int(rng.integers(1, 4))
        jsh = reflection_conjugation(mu, r)
        field = FieldOperator(mu, np.stack([haar_unitary(r, rng) for _ in range(mu.size)]))
        for op in (jsh, compose_fields(field, jsh), compose_fields(jsh, field), field):
            rep = field_conjugation_report(op)
            got = (rep.isometry_defect, rep.involution_defect, rep.commutation_defect)
            assert np.max(np.abs(np.subtract(got, _loop_field_report(op)))) <= 1e-14


def test_reflection_conjugation_involution_exactly_zero(rng):
    # the reciprocal sqrt(h) pairs make the involution exact for any weights
    for _ in range(300):
        mu = random_paired_measure(rng, max_pairs=6, weight_span=(1e-3, 1e3))
        jsh = reflection_conjugation(mu, int(rng.integers(1, 4)))
        assert field_conjugation_report(jsh).involution_defect == 0.0


def test_reflection_symmetry_matches_per_atom_loop(rng):
    for trial in range(6):
        mu = random_paired_measure(rng, max_pairs=5)
        r = int(rng.integers(1, 4))
        if trial % 2 == 0:
            field = _paired_unitary_field(mu, r, rng)
        else:
            field = FieldOperator(mu, np.stack([haar_unitary(r, rng) for _ in range(mu.size)]))
        sigma, _ = conjugate_pairing(mu)
        loop = max(
            np.linalg.norm(np.conj(field.matrices[k]) - field.matrices[sigma[k]].conj().T)
            for k in range(mu.size)
        )
        assert is_reflection_symmetric(field)[1] == pytest.approx(loop, abs=1e-14)


def test_reflection_symmetry_names_first_non_unitary_atom(rng):
    mu = random_paired_measure(rng, max_pairs=4)
    mats = np.stack([haar_unitary(2, rng) for _ in range(mu.size)])
    mats[2] *= 1.5
    mats[3] *= 0.5
    with pytest.raises(InputError, match="field is not unitary valued at atom 2$"):
        is_reflection_symmetric(FieldOperator(mu, mats))


def test_composed_field_factors_through_adjoint(rng):
    # when the composite is a conjugation it also equals the reflection
    # conjugation followed by the adjoint field
    mu = random_paired_measure(rng, max_pairs=4)
    r = 2
    jsh = reflection_conjugation(mu, r)
    field = _paired_unitary_field(mu, r, rng)
    assert is_reflection_symmetric(field)[0]
    left = compose_fields(field, jsh)
    right = compose_fields(jsh, FieldOperator(mu, np.conj(field.matrices.transpose(0, 2, 1))))
    basis_vals = rng.normal(size=(mu.size, r)) + 1j * rng.normal(size=(mu.size, r))
    f = WeightedSpaceElement(mu, basis_vals)
    assert np.max(np.abs(left.apply(f).values - right.apply(f).values)) <= 1e-12


def test_assemble_model_from_unitary(rng):
    model = multiplicity_model(np.diag([1j, -1j, 1.0, 1.0]))
    ds = assemble_model(model)
    report = ds.report()
    assert report.isometry_defect <= 1e-12
    assert report.involution_defect <= 1e-12
    assert report.commutation_defect <= 1e-12


def test_assemble_model_with_fields(rng):
    model = multiplicity_model(np.diag([1j, -1j, 1.0, 1.0]))
    fields = [
        _paired_unitary_field(mu, r, rng) for mu, r in model.components
    ]
    ds = assemble_model(model, unitary_fields=fields)
    report = ds.report()
    assert report.involution_defect <= 1e-12
    assert report.commutation_defect <= 1e-12


def test_assemble_model_refuses_unpaired():
    model = multiplicity_model(np.diag([1j, 1j]))
    with pytest.raises(AbsoluteContinuityError):
        assemble_model(model)


def test_assemble_single_fixed_atom_fiber():
    model = multiplicity_model(np.diag([1.0, 1.0]))
    (mu, r), = model.components
    q = symmetric_unitary(2, 4)
    field = FieldOperator(mu, q[None, :, :])
    ds = assemble_model(model, unitary_fields=[field])
    assert ds.report().involution_defect <= 1e-12


def test_invariance_probe():
    model = multiplicity_model(np.diag([1j, -1j, 1.0, 1.0]))
    ds = assemble_model(model)
    assert invariance_probe(ds, [1j, -1j])
    assert not invariance_probe(ds, [1j])
    all_atoms = [1j, -1j, 1.0]
    assert invariance_probe(ds, all_atoms)


@pytest.mark.parametrize("point", [3j, 2.0, np.nan])
def test_invariance_probe_refuses_points_off_the_circle(point):
    # 3j would be read as the atom at i and 2.0 as the atom at 1
    ds = assemble_model(multiplicity_model(np.diag([1j, -1j, 1.0, 1.0])))
    with pytest.raises(InputError, match="unit circle"):
        invariance_probe(ds, [point])


def test_invariance_probe_many_members(rng):
    # a conjugation-closed coordinate set stays invariant for every sampled
    # member; a one-sided set already fails on the base conjugation
    mu = AtomicMeasure(
        [0.4, -0.4, 1.1, -1.1, 0.0], [1.0, 2.0, 0.5, 0.7, 1.3]
    )
    model_points = mu.points

    class _Model:
        components = ((mu, 2),)

    closed = [np.exp(0.4j), np.exp(-0.4j), 1.0]
    open_set = [np.exp(0.4j), np.exp(1.1j)]
    for k in range(200):
        field = _paired_unitary_field(mu, 2, np.random.default_rng(k))
        ds = assemble_model(_Model, unitary_fields=[field])
        assert invariance_probe(ds, closed)
        assert invariance_probe(ds, model_points)
    base = assemble_model(_Model)
    assert not invariance_probe(base, open_set)
