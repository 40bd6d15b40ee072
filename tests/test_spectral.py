import contextlib
import io
import json

import numpy as np
import pytest

from conjugations import measures, spectral
from conjugations.cli import matrix_to_dict, run, save_json
from conjugations.errors import InputError, NotSelfDualError, ToleranceError
from conjugations.family import canonical_conjugation, sample, verify_membership
from conjugations.linalg import CUT_TOL, haar_unitary, membership_threshold, unitarity_defect
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
    schur_eigenvalues,
    schur_spectrum,
)


def _cluster_multiset(spectrum):
    return sorted((round(np.angle(lam), 6), m) for lam, m in spectrum.clusters)


def _diagonal(spectrum):
    """V's diagonal in the spectrum's basis: each cluster's value, once per column."""
    return np.repeat([complex(lam) for lam, _ in spectrum.clusters], [m for _, m in spectrum.clusters])


def _radius(n):
    """The clustering and pairing radius of an n x n spectrum."""
    return min(CLUSTER_TOL, membership_threshold(n) / 2)


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
    D = _diagonal(spectrum)
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


def _diag(angles):
    return np.diag(np.exp(1j * np.asarray(angles, dtype=float)))


# the three cluster-boundary probes, each with its exact answer: an exactly
# self-dual pair 1e-7 apart, two exactly self-dual pairs 9e-8 apart, and a
# pair 5e-8 off self-dual
BOUNDARY_PROBES = [
    ("probe-split-one", _diag([5e-8, -5e-8]), True),
    ("probe-split-two", _diag([0.5, -0.5, 0.5 + 9e-8, -0.5 - 9e-8]), True),
    ("probe-off-pair", _diag([0.5, -(0.5 + 5e-8)]), False),
]

# three clusters, exp(0.5i) and two 1.2e-7 apart near exp(-0.5i), each 6e-8
# from its conjugate: at n = 7, r = 3.5e-8 and none pairs; at n = 21, r =
# CLUSTER_TOL and both near exp(-0.5i) take exp(0.5i) as their partner, which
# takes only one of them back
NON_MUTUAL = _diag([0.5, -(0.5 + 6e-8), -(0.5 - 6e-8), 1, -1, 2, -2])
NON_MUTUAL_21 = _diag(np.angle(np.diag(NON_MUTUAL)).tolist() + [0.25, -0.25, 0.75, -0.75, 1.25, -1.25,
                                                                1.75, -1.75, 2.25, -2.25, 2.75, -2.75, 3, -3])

# two clusters near 1, 1.8e-7 apart, more than r at every n here: at even n
# they are a conjugate pair, at odd n their multiplicities are 1 and 2
SNAPPED_TWICE = {
    14: _diag([9e-8, -9e-8] + [0.5, -0.5] * 6),
    17: _diag([9e-8, -9e-8, -9e-8] + [0.5, -0.5] * 7),
    24: _diag([9e-8, -9e-8] + [0.5, -0.5] * 11),
    27: _diag([9e-8, -9e-8, -9e-8] + [0.5, -0.5] * 12),
}

# five pairs, each conjugate 4.9e-8 off, within r = 5e-8 of its partner:
# pairing moves each by 4.9e-8, a residual of 1.1e-7 against 5e-8
ACCUMULATED = _diag([a for k in range(5) for a in (0.3 + 0.5 * k, -(0.3 + 0.5 * k + 4.9e-8))])

# every probe with its exit codes of check, canonical and sample, check's
# verdict after its 0: the exact answers, and 4 where the decision's
# residual exceeds membership_threshold(n)/2
PROBES = (
    [(name, U, "0 T/0/0" if selfdual else "0 F/3/3") for name, U, selfdual in BOUNDARY_PROBES]
    + [(f"snapped-twice-{n}", U, "0 F/3/3" if n % 2 else "0 T/0/0") for n, U in SNAPPED_TWICE.items()]
    + [("non-mutual", NON_MUTUAL, "0 F/3/3"), ("accumulated-10", ACCUMULATED, "4/4/4")]
)

AGREEMENT_CASES = (
    [(f"haar-{n}", lambda n=n: haar_unitary(n, np.random.default_rng(n))) for n in (1, 2, 3, 8, 64, 256)]
    + [("planted-generic-512", lambda: _planted_512(False, 5)),
       ("planted-degenerate-512", lambda: _planted_512(True, 6))]
    + [(f"mult{m}-noise{eps:g}", lambda m=m, eps=eps: _noisy_multiplicity(m, eps, 7))
       for m in (2, 3) for eps in (1e-9, 1e-8, 3e-8)]
    + [(f"pair-{t:.6g}", lambda t=t: _pair_at(t, 8)) for t in (1e-4, 1e-6, np.pi - 1e-5)]
    + [("identity", lambda: np.eye(5, dtype=complex)), ("minus-identity", lambda: -np.eye(5, dtype=complex))]
    + [(name, lambda U=U: U) for name, U, _ in PROBES]
    + [(name + "-rotated", lambda U=U: _rotated(np.angle(np.diag(U)), 9)) for name, U, _ in BOUNDARY_PROBES]
    + [("non-mutual-rotated", lambda: _rotated(np.angle(np.diag(NON_MUTUAL)), 9)),
       ("non-mutual-21", lambda: NON_MUTUAL_21)]
    # a -1 cluster whose mean lies just below the cut at pi: its value -1 sorts last
    + [("minus-one-below-the-cut", lambda: _diag([-np.pi + 2e-9, np.pi - 1e-9, 0.5, -0.5]))]
)


def _library_spectrum(U):
    try:
        clusters = diagonalize_unitary(U).clusters
    except ToleranceError:
        return "ToleranceError", None, None
    return "ok", clusters, check_selfdual(U)[0]


def _assert_agrees_with_oracle(U, off_bound):
    # schur's (t, Q, off) rebuilds U to within off, Q is unitary, and the
    # clusters and verdicts are those of scipy's complex Schur form
    n = U.shape[0]
    t, Q, off = schur(U)
    assert np.linalg.norm(Q * t @ Q.conj().T - U) <= off + 1e-12 * n
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 1e-12 * n
    assert off <= off_bound
    outcome, clusters, selfdual = _library_spectrum(U)
    want_outcome, want_clusters, want_selfdual = schur_spectrum(U, _radius(n), membership_threshold(n) / 2)
    assert outcome == want_outcome
    if outcome == "ok":
        assert [m for _, m in clusters] == [m for _, m in want_clusters]
        assert np.allclose([lam for lam, _ in clusters], [lam for lam, _ in want_clusters], atol=1e-9)
        assert selfdual == want_selfdual
    return t


@pytest.mark.parametrize("make", [c[1] for c in AGREEMENT_CASES], ids=[c[0] for c in AGREEMENT_CASES])
def test_diagonalization_agrees_with_schur_oracle(make):
    U = make()
    _assert_agrees_with_oracle(U, 1e-12 * U.shape[0])


def _one_run(n, seed):
    """A self-dual spectrum whose cos theta all chain within CUT_TOL: n/2
    conjugate pairs at angles evenly spaced in (0, 1e-3)."""
    half = np.linspace(0, 1e-3, n // 2 + 2)[1:-1]
    return _rotated(np.concatenate([half, -half]), seed)


ADVERSARIAL_CASES = (
    [("near-plus-and-minus-one", lambda: _rotated([3e-5, -3e-5, 1e-4, -1e-4, np.pi - 7e-5,
                                                   -np.pi + 7e-5, 1.0, -1.0], 11))]
    + [(f"non-pair-{eps:g}", lambda eps=eps: _rotated([0.7, -0.7 + eps, 1.2, -1.2, 2.5, -2.5], 12))
       for eps in (1e-7, 1e-5, 1e-3)]
    + [("one-run-64", lambda: _one_run(64, 13)), ("one-run-256", lambda: _one_run(256, 14))]
    + [("empty", lambda: np.eye(0, dtype=complex)), ("one", lambda: np.array([[np.exp(0.3j)]]))]
)


@pytest.mark.parametrize("make", [c[1] for c in ADVERSARIAL_CASES], ids=[c[0] for c in ADVERSARIAL_CASES])
def test_schur_agrees_with_the_oracle_on_adversarial_spectra(make):
    # near-conjugate non-pairs whose cos theta differ by more than CUT_TOL sit
    # in two runs: H's eigenvectors mix them by roundoff over the gap (Davis
    # and Kahan), so off is bounded by n eps / CUT_TOL, not by 1e-12 n
    U = make()
    n = U.shape[0]
    t = _assert_agrees_with_oracle(U, 1e-12 * n + n * np.finfo(float).eps / CUT_TOL)
    want = schur_eigenvalues(U)
    gaps = np.abs(t[:, None] - want[None, :])
    assert max(gaps.min(axis=0, initial=np.inf), default=0) <= 1e-12 * n
    assert max(gaps.min(axis=1, initial=np.inf), default=0) <= 1e-12 * n


def test_schur_of_a_diagonal_input_is_the_standard_basis():
    # eigh of a diagonal matrix returns standard basis vectors with entries
    # exactly 1, and every run's compression is diagonal
    angles = np.array([0.5, -0.5, 0.5, 0.0, np.pi, 0.0, -0.5, 2.0, 1e-4, -1e-4])
    U = np.diag(np.exp(1j * angles))
    t, Q, off = schur(U)
    lead = np.argmax(np.abs(Q), axis=0)
    assert np.array_equal(Q, np.eye(len(U))[:, lead]) and off == 0.0
    spectrum = diagonalize_unitary(U)
    rows = np.argmax(np.abs(spectrum.basis), axis=0)
    assert np.array_equal(spectrum.basis, np.eye(len(U))[:, rows])
    ends = np.cumsum([m for _, m in spectrum.clusters])
    for block in np.split(rows, ends[:-1]):  # lead-row order inside each cluster
        assert list(block) == sorted(block)


@pytest.mark.parametrize("gap,runs", [(0.9 * CUT_TOL, [2]), (1.1 * CUT_TOL, [])])
def test_schur_cut_gap(monkeypatch, gap, runs):
    # two eigenvalues whose cos theta differ by 0.9 CUT_TOL share a run, and
    # its Cayley solve; at 1.1 CUT_TOL each is a run of its own, and no solve runs
    sizes = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: sizes.append(a.shape[-1]) or solve(a, b))
    schur(np.diag(np.exp(1j * np.arccos([0.3, 0.3 - gap]))))
    assert sizes == runs


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
    # with the contract lifted every case yields its residual; it differs
    # from the multiplied-out reconstruction and canonical-form residuals by
    # Q's own unitarity defect at most
    monkeypatch.setattr(spectral, "membership_threshold", lambda n: np.inf)
    U = make()
    n = U.shape[0]
    spectrum = diagonalize_unitary(U)
    got = spectrum.residual
    assert abs(got - reconstruction_residual_dense(U, spectrum.basis, _diagonal(spectrum))) <= 1e-12 * n
    try:
        W, layout = canonical_form(U)
    except NotSelfDualError:
        return
    cols = np.argmax(np.abs(spectrum.basis.conj().T @ W), axis=0)
    assert np.array_equal(W, spectrum.basis[:, cols])
    assert abs(got - canonical_residual_dense(U, W, layout_diagonal(layout))) <= 1e-12 * n


@pytest.mark.parametrize("U,selfdual", [p[1:] for p in BOUNDARY_PROBES], ids=[p[0] for p in BOUNDARY_PROBES])
def test_boundary_probes_keep_their_outcome(U, selfdual):
    # probes that sit at CLUSTER_TOL get their exact answers at r(n)
    assert _library_spectrum(U)[::2] == ("ok", selfdual)


def _run_exit_codes(tmp_path, U):
    """'check/canonical/sample' exit codes through run(), check's verdict
    after its 0, with the stderr line count of each command."""
    path = tmp_path / "u.json"
    save_json(path, matrix_to_dict(U))
    codes, lines = [], []
    for argv in (["check", str(path)], ["canonical", str(path)], ["sample", str(path), "--seed", "1"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        if argv[0] == "check" and code == 0:
            code = f"0 {'T' if json.loads(out.getvalue())['selfdual'] else 'F'}"
        codes.append(str(code))
        lines.append(len(err.getvalue().splitlines()))
    return "/".join(codes), lines


@pytest.mark.parametrize("U,codes", [p[1:] for p in PROBES], ids=[p[0] for p in PROBES])
def test_probes_through_run_agree(tmp_path, U, codes):
    # check says self-dual exactly when canonical and sample build a member
    assert _run_exit_codes(tmp_path, U) == (codes, [1, 1, 1])


def _sweep_unitary(rng, family):
    """An n x n unitary, 4 <= n <= 24, diagonal or in a Haar basis, whose
    spectrum sits at the radius r(n): one or two conjugates off by 0.3 to
    3 r (family 0), pairs within 3 r of +-1 (family 1), or multiplicities 2
    and 3 planted under noise up to r (family 2)."""
    n = int(rng.integers(4, 25))
    r, m = _radius(n), n // 2
    centres = rng.uniform(0.2, np.pi - 0.2, m)
    if family == 0:
        off = np.zeros(m)
        off[: rng.integers(1, 3)] = rng.uniform(0.3, 3) * r * rng.choice([-1, 1])
        angles = np.concatenate([centres, -(centres + off)])
    elif family == 1:
        k = int(rng.integers(1, min(3, m) + 1))
        near = rng.choice([0.0, np.pi], k)[:, None] + rng.uniform(-3, 3, (k, 2)) * r
        angles = np.concatenate([near.ravel(), centres[k:], -centres[k:]])
    else:
        half = np.repeat(centres, rng.integers(2, 4, m))[:m]
        eps = rng.uniform(0.1, 1.0) * r
        angles = np.concatenate([half, -half]) + rng.uniform(-eps, eps, 2 * m)
    angles = np.concatenate([angles, rng.choice([0.0, np.pi], n - 2 * m)])
    return _diag(angles) if rng.random() < 0.5 else _rotated(angles, rng)


def _decision(call):
    try:
        return call()
    except NotSelfDualError:
        return False
    except ToleranceError:
        return "ToleranceError"


def test_check_and_canonical_agree_on_a_seeded_sweep():
    # check_selfdual says yes exactly when canonical_form returns, the two
    # miss the residual contract together, and every member built on a yes
    # passes verify_membership
    rng = np.random.default_rng(7)
    seen = set()
    for k in range(300):
        U = _sweep_unitary(rng, k % 3)
        verdict = _decision(lambda: check_selfdual(U)[0])
        assert _decision(lambda: bool(canonical_form(U))) == verdict, k
        seen.add(verdict)
        if verdict is True:
            for C in (canonical_conjugation(U), sample(U, k)):
                assert verify_membership(U, C)[0], k
    assert seen == {True, False, "ToleranceError"}


def test_clusters_near_one_stay_a_pair():
    # the two clusters near 1 are a conjugate pair: one pair block, W square
    W, layout = canonical_form(SNAPPED_TWICE[14])
    assert W.shape == (14, 14) and layout.ell == 0 and layout.kay == 0
    assert [m for _, m in layout.pairs] == [1, 6] and abs(layout.pairs[0][0] - np.exp(9e-8j)) <= 1e-15
    ok, mismatches = check_selfdual(SNAPPED_TWICE[17])
    assert not ok and [(m, c) for _, m, c in mismatches] == [(2, 1), (1, 2)]


def _assert_refused_unpaired(U, mismatches):
    ok, got = check_selfdual(U)
    assert not ok
    assert [(round(float(np.angle(lam)), 6), m, c) for lam, m, c in got] == mismatches
    with pytest.raises(NotSelfDualError) as err:
        canonical_form(U)
    assert str(err.value) == (
        "C_c(U) is empty: eigenvalue exp(-0.5i) multiplicity 1, conjugate multiplicity 0"
    )


def test_partners_must_be_mutual():
    # at n = 7, r = 3.5e-8: no cluster is within r of another's conjugate
    _assert_refused_unpaired(NON_MUTUAL, [(-0.5, 1, 0), (-0.5, 1, 0), (0.5, 1, 0)])


def test_partners_must_be_mutual_at_cluster_tol():
    # at n = 21, r = CLUSTER_TOL: one of the two clusters near exp(-0.5i) is
    # left without a partner
    _assert_refused_unpaired(NON_MUTUAL_21, [(-0.5, 1, 0)])


def _off_conjugate(eps):
    return np.diag(np.exp(1j * np.array([0.5, -(0.5 + eps), 1, -1])))


ASSEMBLY_CASES = (
    [(f"off-conjugate-{eps:g}", lambda eps=eps: _off_conjugate(eps), eps <= _radius(4))
     for eps in (5e-10, 5e-9, 5e-8, 2e-7)]
    + [(f"off-conjugate-{eps:g}-rotated", lambda eps=eps: _rotated(np.angle(np.diag(_off_conjugate(eps))), 3),
        eps <= _radius(4)) for eps in (5e-9, 5e-8)]
    + [("non-mutual", lambda: NON_MUTUAL, False)]
    + [(f"planted-{seed}", lambda seed=seed: planted_selfdual(np.random.default_rng(seed), max_dim=12)[0], True)
       for seed in range(4)]
    + [(f"haar-{n}", lambda n=n: haar_unitary(n, np.random.default_rng(n)), False) for n in (2, 5)]
)


@pytest.mark.parametrize("make,selfdual", [c[1:] for c in ASSEMBLY_CASES], ids=[c[0] for c in ASSEMBLY_CASES])
def test_assembly_refused_iff_not_selfdual(make, selfdual):
    # the measure layer pairs atoms at 1e-9; the model puts mutual partners
    # at exact conjugates so that the cluster pairing at r(n) decides
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
    assert _partners(np.angle([np.conj(t), t, t]), CLUSTER_TOL).tolist() == [2, -1, 0]
    too_far = np.angle([np.conj(t), t * np.exp(1.0000001j * CLUSTER_TOL)])
    assert _partners(too_far, CLUSTER_TOL).tolist() == [-1, -1]


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
        got = {tuple(int(i) for i in g) for g in _cluster_indices(vals, CLUSTER_TOL)}
        assert got == {tuple(sorted(g)) for g in cluster_loop(vals, CLUSTER_TOL)}
