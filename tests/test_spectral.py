import numpy as np
import pytest

from conjugations import measures, spectral
from conjugations.errors import InputError, NotSelfDualError, ToleranceError
from conjugations.linalg import haar_unitary, membership_threshold, unitarity_defect
from conjugations.measures import AtomicMeasure, _nearest_angle, assemble_model
from conjugations.measures import conjugate_pairing, invariance_probe, radon_nikodym
from conjugations.spectral import (
    CLUSTER_TOL,
    _cluster_indices,
    _partners,
    canonical_form,
    check_selfdual,
    diagonalize_unitary,
    layout_diagonal,
    multiplicity_model,
    schur,
)
from conjugations.errors import AbsoluteContinuityError

from random_inputs import planted_selfdual
from _oracles import (
    canonical_residual_dense,
    cluster_loop,
    pair_clusters_loop,
    reconstruction_residual_dense,
    schur_spectrum,
)


def _cluster_multiset(spectrum):
    return sorted((round(np.angle(lam), 6), m) for lam, m in spectrum.clusters)


def test_diagonalize_identity():
    spectrum = diagonalize_unitary(np.eye(3))
    assert spectrum.clusters == ((1.0 + 0.0j, 3),)
    assert np.allclose(spectrum.basis, np.eye(3))


def test_diagonalize_clusters():
    spectrum = diagonalize_unitary(np.diag([1j, 1j, -1.0]))
    assert _cluster_multiset(spectrum) == sorted(
        [(round(np.angle(-1 + 0j), 6), 1), (round(np.pi / 2, 6), 2)]
    )


def test_diagonalize_rejects_non_unitary():
    with pytest.raises(InputError):
        diagonalize_unitary(np.diag([2.0, 1.0]))


def test_diagonalize_conjugation_invariant(rng):
    planted = np.array([1j, 1j, np.exp(0.3j), -1.0])
    W = haar_unitary(4, rng)
    U = (W * planted) @ W.conj().T
    spectrum = diagonalize_unitary(U)
    expect = sorted((round(np.angle(v), 6), 1) for v in [np.exp(0.3j), -1.0])
    expect.append((round(np.pi / 2, 6), 2))
    assert _cluster_multiset(spectrum) == sorted(expect)
    D = spectrum.eigenvalue_diagonal()
    assert np.linalg.norm(U - (spectrum.basis * D) @ spectrum.basis.conj().T) <= 1e-8 * 4


def test_selfdual_examples():
    assert check_selfdual(np.diag([1j, -1j]))[0]
    assert check_selfdual(np.eye(5))[0]
    ok, mismatches = check_selfdual(np.diag([1j, 1j]))
    assert not ok
    (lam, mult, conj_mult) = mismatches[0]
    assert abs(lam - 1j) < 1e-9 and mult == 2 and conj_mult == 0


def test_selfdual_matches_adjoint(rng):
    for _ in range(10):
        if rng.random() < 0.5:
            U, *_ = planted_selfdual(rng, max_dim=12)
        else:
            U = haar_unitary(int(rng.integers(2, 9)), rng)
        assert check_selfdual(U)[0] == check_selfdual(U.conj().T)[0]


def test_canonical_form_reorders_pair():
    W, layout = canonical_form(np.diag([-1j, 1j]))
    assert layout.pairs == ((1j, 1),)
    assert layout.ell == 0 and layout.kay == 0
    assert np.allclose(np.abs(W), [[0.0, 1.0], [1.0, 0.0]])
    assert np.linalg.norm(W.conj().T @ np.diag([-1j, 1j]) @ W - np.diag(layout_diagonal(layout))) <= 1e-14


def test_canonical_form_real_blocks():
    W, layout = canonical_form(np.diag([1.0, -1.0]))
    assert layout.pairs == () and layout.ell == 1 and layout.kay == 1
    assert np.allclose(W, np.eye(2))


def test_canonical_form_planted_cluster(rng):
    xi = np.exp(1j * np.pi / 3)
    planted = np.array([xi, xi, np.conj(xi), np.conj(xi)])
    W = haar_unitary(4, rng)
    U = (W * planted) @ W.conj().T
    Wc, layout = canonical_form(U)
    assert len(layout.pairs) == 1
    (lam, mult) = layout.pairs[0]
    assert mult == 2 and abs(lam - xi) < 1e-8
    assert np.linalg.norm(Wc.conj().T @ U @ Wc - np.diag(layout_diagonal(layout))) <= 1e-8 * 4
    assert unitarity_defect(Wc) <= 1e-12


def test_canonical_form_recovers_planted_structure(rng):
    for _ in range(8):
        U, pairs, ell, kay = planted_selfdual(rng, max_dim=24)
        W, layout = canonical_form(U)
        assert layout.ell == ell and layout.kay == kay
        got = sorted((round(float(np.angle(xi)), 6), m) for xi, m in layout.pairs)
        want = sorted((round(a, 6), m) for a, m in pairs)
        assert got == want
        assert np.linalg.norm(W.conj().T @ U @ W - np.diag(layout_diagonal(layout))) <= 1e-8 * U.shape[0]


def test_canonical_form_rejects_non_selfdual():
    with pytest.raises(NotSelfDualError):
        canonical_form(np.diag([1j, 1j]))


def test_canonical_form_dimension_64(rng):
    # fifteen separated pairs of multiplicity two plus both real blocks
    angles = np.linspace(0.1, np.pi - 0.1, 15)
    diag = []
    for a in angles:
        diag.extend([np.exp(1j * a)] * 2 + [np.exp(-1j * a)] * 2)
    diag.extend([1.0, 1.0, -1.0, -1.0])
    diag = np.array(diag, dtype=complex)
    rng.shuffle(diag)
    W0 = haar_unitary(64, rng)
    U = (W0 * diag) @ W0.conj().T
    W, layout = canonical_form(U)
    assert layout.ell == 2 and layout.kay == 2
    assert [m for _, m in layout.pairs] == [2] * 15
    assert np.allclose(sorted(np.angle(xi) for xi, _ in layout.pairs), angles, atol=1e-8)
    assert np.linalg.norm(W.conj().T @ U @ W - np.diag(layout_diagonal(layout))) <= 1e-8 * 64


def test_multiplicity_model_examples():
    model = multiplicity_model(np.diag([1j, -1j, 1.0, 1.0]))
    assert len(model.components) == 2
    (mu1, d1), (mu2, d2) = model.components
    assert d1 == 1 and d2 == 2
    assert np.allclose(sorted(mu1.thetas), [-np.pi / 2, np.pi / 2], atol=1e-11)
    assert list(mu2.thetas) == [0.0]
    assert np.all(mu1.weights == 1.0) and np.all(mu2.weights == 1.0)

    model3 = multiplicity_model(np.eye(3))
    assert len(model3.components) == 1
    assert model3.components[0][1] == 3


def test_multiplicity_model_mutually_singular(rng):
    for _ in range(6):
        U, *_ = planted_selfdual(rng, max_dim=16)
        model = multiplicity_model(U)
        seen = set()
        for mu, _ in model.components:
            atoms = set(np.round(mu.thetas, 9))
            assert not (atoms & seen)
            seen |= atoms


def test_existence_matches_componentwise_continuity(rng):
    # commuting conjugation exists iff every multiplicity component is
    # closed under reflection iff the spectrum is self-dual
    for k in range(12):
        if k % 2 == 0:
            U, *_ = planted_selfdual(rng, max_dim=12)
        else:
            U = haar_unitary(int(rng.integers(2, 9)), rng)
        selfdual = check_selfdual(U)[0]
        components_pass = True
        for mu, _ in multiplicity_model(U).components:
            try:
                radon_nikodym(mu)
            except AbsoluteContinuityError:
                components_pass = False
        assert components_pass == selfdual


def test_unpaired_multiplicity_component():
    model = multiplicity_model(np.diag([1j, 1j]))
    assert len(model.components) == 1
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym(model.components[0][0])


def _rotated(angles, seed):
    """exp(i angles) on the diagonal, in a Haar basis."""
    W = haar_unitary(len(angles), np.random.default_rng(seed))
    return (W * np.exp(1j * np.asarray(angles, dtype=float))) @ W.conj().T


def _noisy_multiplicity(m, eps, seed):
    rng = np.random.default_rng(seed)
    centres = np.repeat([0.7, -0.7, 2.1, -2.1], m)
    return _rotated(np.concatenate([centres + rng.uniform(-eps, eps, centres.size), [0.0, np.pi]]), seed)


def _planted_512(degenerate, seed):
    rng = np.random.default_rng(seed)
    if degenerate:
        angles = np.repeat([0.3, -0.3, 2.0, -2.0, 0.0, np.pi], [100, 100, 50, 50, 100, 112])
    else:
        half = rng.uniform(0.01, np.pi - 0.01, 256)
        angles = np.concatenate([half, -half])
    return _rotated(angles, seed)


def _pair_at(theta, seed):
    return _rotated([theta, -theta, 1.0, -1.0, 0.0, np.pi], seed)


# the three cluster-boundary probes: an exactly self-dual pair 1e-7 apart, two
# exactly self-dual pairs 9e-8 apart, and a pair 5e-8 off self-dual
BOUNDARY_PROBES = [
    ("probe-split-one", np.diag(np.exp([5e-8j, -5e-8j])), "ToleranceError"),
    ("probe-split-two", np.diag(np.exp(1j * np.array([0.5, -0.5, 0.5 + 9e-8, -0.5 - 9e-8]))),
     "ToleranceError"),
    ("probe-off-pair", np.diag(np.exp([0.5j, -(0.5 + 5e-8) * 1j])), "ok"),
]

# two clusters 1.2e-7 apart near exp(-0.5i) that both take exp(0.5i) as their
# conjugate partner, which takes only one of them back
NON_MUTUAL = np.diag(np.exp(1j * np.array([0.5, -(0.5 + 6e-8), -(0.5 - 6e-8), 1, -1, 2, -2])))

# two clusters near 1, 1.8e-7 apart, that both snap to exactly 1: at n = 14
# they are a conjugate pair, at n = 17 their multiplicities are 1 and 2
SNAPPED_TWICE = {
    14: np.diag(np.exp(1j * np.array([9e-8, -9e-8] + [0.5, -0.5] * 6))),
    17: np.diag(np.exp(1j * np.array([9e-8, -9e-8, -9e-8] + [0.5, -0.5] * 7))),
}

AGREEMENT_CASES = (
    [(f"haar-{n}", lambda n=n: haar_unitary(n, np.random.default_rng(n))) for n in (1, 2, 3, 8, 64, 256)]
    + [("planted-generic-512", lambda: _planted_512(False, 5)),
       ("planted-degenerate-512", lambda: _planted_512(True, 6))]
    + [(f"mult{m}-noise{eps:g}", lambda m=m, eps=eps: _noisy_multiplicity(m, eps, 7))
       for m in (2, 3) for eps in (1e-9, 1e-8, 3e-8)]
    + [(f"pair-{t:.6g}", lambda t=t: _pair_at(t, 8)) for t in (1e-4, 1e-6, np.pi - 1e-5)]
    + [("identity", lambda: np.eye(5, dtype=complex)), ("minus-identity", lambda: -np.eye(5, dtype=complex))]
    + [(name, lambda U=U: U) for name, U, _ in BOUNDARY_PROBES]
    + [(name + "-rotated", lambda U=U: _rotated(np.angle(np.diag(U)), 9)) for name, U, _ in BOUNDARY_PROBES]
    + [(f"snapped-twice-{n}", lambda U=U: U) for n, U in SNAPPED_TWICE.items()]
    + [("non-mutual", lambda: NON_MUTUAL), ("non-mutual-rotated", lambda: _rotated(np.angle(np.diag(NON_MUTUAL)), 9))]
)


def _library_spectrum(U):
    try:
        clusters = diagonalize_unitary(U).clusters
    except ToleranceError:
        return "ToleranceError", None, None
    return "ok", clusters, check_selfdual(U)[0]


@pytest.mark.parametrize("make", [c[1] for c in AGREEMENT_CASES], ids=[c[0] for c in AGREEMENT_CASES])
def test_diagonalization_agrees_with_schur_oracle(make):
    U = make()
    n = U.shape[0]
    T, Q = schur(U)
    assert np.linalg.norm(U - Q @ T @ Q.conj().T) <= 1e-12 * n
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 1e-12 * n
    outcome, clusters, selfdual = _library_spectrum(U)
    want_outcome, want_clusters, want_selfdual = schur_spectrum(U, CLUSTER_TOL, membership_threshold(n))
    assert outcome == want_outcome
    if outcome == "ok":
        assert [m for _, m in clusters] == [m for _, m in want_clusters]
        assert np.allclose([lam for lam, _ in clusters], [lam for lam, _ in want_clusters], atol=1e-9)
        assert selfdual == want_selfdual


def _off_normal(eps, seed):
    """A planted self-dual unitary plus noise of norm eps, inside the input
    check's slack: its T has off-diagonal norm about eps."""
    rng = np.random.default_rng(seed)
    U = _pair_at(0.4, seed)
    N = rng.normal(size=U.shape) + 1j * rng.normal(size=U.shape)
    return U + eps * N / np.linalg.norm(N)


RESIDUAL_CASES = AGREEMENT_CASES + [("off-normal-1e-9", lambda: _off_normal(1e-9, 10))]


@pytest.mark.parametrize("make", [c[1] for c in RESIDUAL_CASES], ids=[c[0] for c in RESIDUAL_CASES])
def test_residuals_read_from_t_match_dense_products(make, monkeypatch):
    # with the contract lifted every case yields both residuals; they differ
    # from the multiplied-out ones by Q's own unitarity defect at most
    monkeypatch.setattr(spectral, "membership_threshold", lambda n: np.inf)
    U = make()
    n = U.shape[0]
    spectrum = diagonalize_unitary(U)
    D = spectrum.eigenvalue_diagonal()
    got = spectrum.residual(slice(None), D)
    assert abs(got - reconstruction_residual_dense(U, spectrum.basis, D)) <= 1e-12 * n
    try:
        W, layout = canonical_form(U)
    except NotSelfDualError:
        return
    cols = np.argmax(np.abs(spectrum.basis.conj().T @ W), axis=0)
    assert np.array_equal(W, spectrum.basis[:, cols])
    target = layout_diagonal(layout)
    got = spectrum.residual(cols, target)
    assert abs(got - canonical_residual_dense(U, W, target)) <= 1e-12 * n


@pytest.mark.parametrize("U,outcome", [p[1:] for p in BOUNDARY_PROBES], ids=[p[0] for p in BOUNDARY_PROBES])
def test_boundary_probes_keep_their_outcome(U, outcome):
    # probes that sit at CLUSTER_TOL: refused with exit 4, or called
    # self-dual although the conjugate misses by 5e-8
    got, _, selfdual = _library_spectrum(U)
    assert got == outcome
    if got == "ok":
        assert selfdual


def test_clusters_snapped_to_one_merge():
    # both clusters near 1 become the one +1 block, so W stays square
    W, layout = canonical_form(SNAPPED_TWICE[14])
    assert W.shape == (14, 14) and layout.ell == 2 and layout.kay == 0
    assert diagonalize_unitary(SNAPPED_TWICE[17]).clusters[1] == (1.0 + 0.0j, 3)
    ok, mismatches = check_selfdual(SNAPPED_TWICE[17])
    assert ok and not any(lam == 1.0 for lam, _, _ in mismatches)


def test_partners_must_be_mutual():
    # one of the two clusters near exp(-0.5i) is left without a partner
    ok, mismatches = check_selfdual(NON_MUTUAL)
    assert not ok
    assert [(round(float(np.angle(lam)), 6), m, c) for lam, m, c in mismatches] == [(-0.5, 1, 0)]
    with pytest.raises(NotSelfDualError) as err:
        canonical_form(NON_MUTUAL)
    assert str(err.value) == (
        "C_c(U) is empty: eigenvalue exp(-0.5i) multiplicity 1, conjugate multiplicity 0"
    )


def _off_conjugate(eps):
    return np.diag(np.exp(1j * np.array([0.5, -(0.5 + eps), 1, -1])))


ASSEMBLY_CASES = (
    [(f"off-conjugate-{eps:g}", lambda eps=eps: _off_conjugate(eps), eps < 1e-7)
     for eps in (5e-10, 5e-9, 5e-8, 2e-7)]
    + [(f"off-conjugate-{eps:g}-rotated", lambda eps=eps: _rotated(np.angle(np.diag(_off_conjugate(eps))), 3),
        eps < 1e-7) for eps in (5e-9, 5e-8)]
    + [("non-mutual", lambda: NON_MUTUAL, False)]
    + [(f"planted-{seed}", lambda seed=seed: planted_selfdual(np.random.default_rng(seed), max_dim=12)[0], True)
       for seed in range(4)]
    + [(f"haar-{n}", lambda n=n: haar_unitary(n, np.random.default_rng(n)), False) for n in (2, 5)]
)


@pytest.mark.parametrize("make,selfdual", [c[1:] for c in ASSEMBLY_CASES], ids=[c[0] for c in ASSEMBLY_CASES])
def test_assembly_refused_iff_not_selfdual(make, selfdual):
    # the measure layer pairs atoms at 1e-9; the model puts mutual partners
    # at exact conjugates so that the 1e-7 cluster pairing decides
    U = make()
    assert check_selfdual(U)[0] == selfdual
    try:
        assemble_model(multiplicity_model(U))
        assembled = True
    except AbsoluteContinuityError:
        assembled = False
    assert assembled == selfdual


def _pairing_sets(rng):
    """Unit-circle cluster values: random sets, their conjugates moved by up
    to 2 CLUSTER_TOL, exact duplicates, +-1 and points across the cut at pi."""
    base = np.exp(1j * rng.uniform(-np.pi, np.pi, int(rng.integers(0, 30))))
    moved = np.conj(base) * np.exp(1j * rng.uniform(-2, 2, base.size) * CLUSTER_TOL)
    near_real = np.exp(1j * (rng.choice([0.0, np.pi], 4) + rng.uniform(-2, 2, 4) * CLUSTER_TOL))
    values = np.concatenate([base, moved[rng.random(base.size) < 0.7], near_real[: rng.integers(0, 5)]])
    values = np.concatenate([values, rng.choice(values, int(rng.integers(0, 3)))]) if values.size else values
    return rng.permutation(values)


def _cluster_lookup(values):
    """The spectral pairing's nearest-conjugate lookup, before the mutual rule."""
    return _nearest_angle(np.angle(values), -np.angle(values), CLUSTER_TOL).tolist()


def test_pair_clusters_matches_loop_oracle(rng):
    for _ in range(300):
        values = _pairing_sets(rng)
        assert _cluster_lookup(values) == pair_clusters_loop(values, CLUSTER_TOL)


def test_pair_clusters_near_ties():
    # equal distances go to the later index, a distance just over the
    # radius finds no partner, and the cut at pi pairs across
    t = np.exp(-0.4j)
    step = np.exp(0.5j * CLUSTER_TOL)
    sets = [
        [np.conj(t), t * step, t / step],
        [np.conj(t), t, t, t],
        [np.conj(t), t * np.exp(1.0000001j * CLUSTER_TOL)],
        [np.exp(1j * (np.pi - 4e-8)), np.exp(-1j * (np.pi - 4e-8)), -1.0 + 0j],
        [np.exp(1j * (np.pi - 4e-8)), np.exp(1j * (np.pi - 6e-8))],
        [1.0 + 0j, 1.0 + 0j, np.exp(3e-8j)],
    ]
    for values in sets:
        values = np.array(values, dtype=complex)
        assert _cluster_lookup(values) == pair_clusters_loop(values, CLUSTER_TOL)
    # conj(t) takes the later of the two equal t, so the first t has no
    # mutual partner
    assert _cluster_lookup(np.array([np.conj(t), t, t])) == [2, 0, 0]
    assert _partners(((np.conj(t), 1), (t, 1), (t, 2))) == [2, -1, 0]
    assert _partners(((np.conj(t), 1), (t * np.exp(1.0000001j * CLUSTER_TOL), 1))) == [-1, -1]


@pytest.mark.parametrize("call", [
    lambda U, mu, ds: check_selfdual(U),
    lambda U, mu, ds: canonical_form(U),
    lambda U, mu, ds: multiplicity_model(U),
    lambda U, mu, ds: conjugate_pairing(mu),
    lambda U, mu, ds: invariance_probe(ds, [1j]),
], ids=["check_selfdual", "canonical_form", "multiplicity_model", "conjugate_pairing", "invariance_probe"])
def test_every_pairing_goes_through_one_lookup(monkeypatch, call):
    U = np.diag([1j, -1j, 1.0])
    mu, ds = AtomicMeasure([0.5, -0.5], [1.0, 2.0]), assemble_model(multiplicity_model(U))
    calls = []

    def spy(*args):
        calls.append(args)
        return _nearest_angle(*args)

    monkeypatch.setattr(measures, "_nearest_angle", spy)
    monkeypatch.setattr(spectral, "_nearest_angle", spy)
    call(U, mu, ds)
    assert calls


def test_cluster_indices_matches_loop_oracle(rng):
    # chains of gaps either side of CLUSTER_TOL, some of them across the cut at pi
    for _ in range(300):
        k = int(rng.integers(0, 12))
        steps = rng.choice([0.3, 0.9, 1.1, 5.0], size=k) * CLUSTER_TOL
        start = rng.choice([np.pi - 3 * CLUSTER_TOL, rng.uniform(-np.pi, np.pi)])
        vals = rng.permutation(np.exp(1j * (start + np.cumsum(steps))))
        got = {tuple(int(i) for i in g) for g in _cluster_indices(vals)}
        assert got == {tuple(sorted(g)) for g in cluster_loop(vals, CLUSTER_TOL)}
