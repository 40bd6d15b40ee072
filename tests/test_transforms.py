from dataclasses import astuple

import numpy as np
import pytest

from conjugations import family
from conjugations.antilinear import is_conjugation
from conjugations.errors import InputError
from conjugations.family import ConjugationParams, decompose, from_params, sample, verify_membership
from conjugations.linalg import haar_unitary, unitarity_defect
from conjugations.spectral import BlockLayout
from conjugations.transforms import (
    FourBlockModel,
    TwoBlockModel,
    calibration_grid,
    dft_eigen_check,
    fourier_conjugation,
    fourier_quadrature,
    hermite_samples,
    hilbert_conjugation,
    real_symmetric_orthogonal,
    require_centered_grid,
)

from _oracles import fourier_scatter, membership_defects_dense, pairing_rule_entrywise
from _oracles import unitarity_defect_dense


def test_model_validation():
    with pytest.raises(InputError):
        FourBlockModel(6)
    with pytest.raises(InputError):
        TwoBlockModel(5)
    F = FourBlockModel(8).matrix()
    assert np.allclose(np.diagonal(F), [(-1j) ** n for n in range(8)])
    for N in (512, 1024):
        # (-i)^n exactly: 4 distinct values, or the class path splits them
        d = np.diagonal(FourBlockModel(N).matrix())
        assert np.array_equal(d, np.round((-1j) ** np.arange(N)))
        assert len(np.unique(d)) == 4


def test_fourier_conjugation_identity_blocks():
    N = 8
    C = fourier_conjugation(N, np.eye(2), np.eye(2), np.eye(2))
    expected = np.zeros((N, N))
    for m in range(2):
        expected[4 * m, 4 * m] = 1.0          # class 1 fixed
        expected[4 * m + 2, 4 * m + 2] = 1.0  # class -1 fixed
        expected[4 * m + 1, 4 * m + 3] = 1.0  # classes -i and i swap
        expected[4 * m + 3, 4 * m + 1] = 1.0
    assert np.array_equal(C.matrix, expected)
    ok, _ = verify_membership(FourBlockModel(N).matrix(), C)
    assert ok


def test_fourier_conjugation_diagonal_ui():
    N = 8
    d = np.diag(np.exp(1j * np.array([0.3, -1.2])))
    C = fourier_conjugation(N, np.eye(2), np.eye(2), d)
    # a diagonal block is its own transpose
    c1, c3 = np.arange(1, N, 4), np.arange(3, N, 4)  # the classes of (-i)^1 and (-i)^3
    assert np.allclose(C.matrix[np.ix_(c1, c3)], d)


def test_fourier_conjugation_random_draws(rng):
    for k in range(20):
        N = int(rng.choice([8, 16, 32, 64]))
        m = N // 4
        C = fourier_conjugation(
            N,
            real_symmetric_orthogonal(m, rng),
            real_symmetric_orthogonal(m, rng),
            haar_unitary(m, rng),
        )
        F = FourBlockModel(N).matrix()
        passed, report = verify_membership(F, C, threshold=1e-12 * N)
        assert passed, report
        assert is_conjugation(C)[0]


def test_fourier_conjugation_validation(rng):
    with pytest.raises(InputError):
        fourier_conjugation(6, np.eye(1), np.eye(1), np.eye(1))
    m = 2
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # orthogonal, real, NOT symmetric
    with pytest.raises(InputError):
        fourier_conjugation(8, rot, np.eye(m), np.eye(m))
    with pytest.raises(InputError):
        fourier_conjugation(8, np.eye(m) * 1j, np.eye(m), np.eye(m))
    with pytest.raises(InputError):
        fourier_conjugation(8, np.eye(m), np.eye(m), 2 * np.eye(m))


def test_fourier_real_blocks_are_checked_once():
    # shape and real entries are the transform's own checks; orthogonality
    # and symmetry are the family engine's, with its messages
    eye, rot = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
    for O1, O2, message in [
        (np.eye(3), eye, "O1 must be 2x2"),
        (eye * 1j, eye, "O1 must have real entries"),
        (rot, eye, "q_plus is not symmetric"),
        (2 * eye, eye, "q_plus is not unitary"),
        (eye, rot, "q_minus is not symmetric"),
    ]:
        with pytest.raises(InputError, match=message):
            fourier_conjugation(8, O1, O2, eye)


def test_fourier_decompose_real_blocks(rng):
    # the +-1 blocks recovered from our draws satisfy the real-entry
    # condition and come back as the very reflections that went in
    N = 16
    m = N // 4
    O1 = real_symmetric_orthogonal(m, rng)
    O2 = real_symmetric_orthogonal(m, rng)
    Ui = haar_unitary(m, rng)
    C = fourier_conjugation(N, O1, O2, Ui)
    F = FourBlockModel(N).matrix()
    params = decompose(F, C)
    assert np.max(np.abs(params.q_plus.imag)) <= 1e-10
    assert np.max(np.abs(params.q_minus.imag)) <= 1e-10
    assert np.linalg.norm(params.q_plus - params.q_plus.T) <= 1e-10
    assert np.allclose(params.q_plus, O1, atol=1e-10)
    assert np.allclose(params.q_minus, O2, atol=1e-10)


def test_real_symmetric_orthogonal_properties(rng):
    for n in (1, 2, 5):
        O = real_symmetric_orthogonal(n, rng)
        assert np.linalg.norm(O - O.T) <= 1e-14
        assert unitarity_defect(O) <= 1e-12
        assert np.linalg.norm(O @ O - np.eye(n)) <= 1e-12


def test_hilbert_conjugation_swap():
    C = hilbert_conjugation(4, np.eye(2))
    expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.array_equal(C.matrix, expected)


def test_hilbert_conjugation_random(rng):
    for _ in range(10):
        N = int(rng.choice([2, 6, 10, 16]))
        C = hilbert_conjugation(N, haar_unitary(N // 2, rng))
        H = TwoBlockModel(N).matrix()
        passed, report = verify_membership(H, C, threshold=1e-12 * N)
        assert passed, report


def test_hilbert_conjugation_validation():
    with pytest.raises(InputError):
        hilbert_conjugation(5, np.eye(2))
    with pytest.raises(InputError):
        hilbert_conjugation(4, 2 * np.eye(2))


def test_hilbert_family_cross_check(rng):
    # the sampled matrix family of diag(iI, -iI) and the hilbert blocks are
    # the same set of operators, both directions
    N = 12
    m = N // 2
    H = TwoBlockModel(N).matrix()
    for seed in range(25):
        member = sample(H, seed)
        A = member.matrix
        assert np.max(np.abs(A[:m, :m])) <= 1e-12
        assert np.max(np.abs(A[m:, m:])) <= 1e-12
        B = A[m:, :m]
        rebuilt = hilbert_conjugation(N, B)
        assert np.max(np.abs(rebuilt.matrix - A)) <= 1e-10
    for seed in range(25):
        Ui = haar_unitary(m, np.random.default_rng(seed))
        C = hilbert_conjugation(N, Ui)
        ok, _ = verify_membership(H, C)
        assert ok
        params = decompose(H, C)
        assert np.allclose(params.v_blocks[0], Ui.T, atol=1e-10)


def test_pairing_rule_is_transpose(rng):
    # the entrywise pairing oracle gives the block each built transform
    # conjugation pairs with Ui
    blocks = [np.diag([1j, 1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]])]
    blocks += [haar_unitary(3, rng) for _ in range(5)]
    for Ui in blocks:
        m = Ui.shape[0]
        oracle = pairing_rule_entrywise(Ui)
        F = fourier_conjugation(4 * m, np.eye(m), np.eye(m), Ui).matrix
        c1, c3 = np.arange(1, 4 * m, 4), np.arange(3, 4 * m, 4)
        assert np.array_equal(F[np.ix_(c3, c1)], Ui)
        assert np.max(np.abs(F[np.ix_(c1, c3)] - oracle)) <= 1e-15
        H = hilbert_conjugation(2 * m, Ui).matrix
        assert np.array_equal(H[m:, :m], Ui)
        assert np.max(np.abs(H[:m, m:] - oracle)) <= 1e-15


@pytest.mark.parametrize("N", [4, 8, 64])
def test_fourier_conjugation_is_the_family_member(rng, N):
    # the same operator as from_params on the fixed layout, with the basis
    # that sends the slots (i, -i, 1, -1) to the classes 3, 1, 0, 2
    m = N // 4
    O1, O2 = real_symmetric_orthogonal(m, rng), real_symmetric_orthogonal(m, rng)
    Ui = haar_unitary(m, rng)
    W = np.eye(N)[:, np.concatenate([np.arange(k, N, 4) for k in (3, 1, 0, 2)])]
    member = from_params(BlockLayout(((1j, m),), m, m), W, ConjugationParams((Ui,), O1, O2))
    assert np.array_equal(fourier_conjugation(N, O1, O2, Ui).matrix, member.matrix)


@pytest.mark.parametrize("N", [4, 16, 512])
def test_fourier_conjugation_equals_the_class_order_scatter(rng, N):
    m = N // 4
    O1, O2 = real_symmetric_orthogonal(m, rng), real_symmetric_orthogonal(m, rng)
    Ui = haar_unitary(m, rng)
    assert np.array_equal(fourier_conjugation(N, O1, O2, Ui).matrix, fourier_scatter(O1, O2, Ui))


def transform_models_512(rng):
    N, m = 512, 128
    fourier = fourier_conjugation(
        N, real_symmetric_orthogonal(m, rng), real_symmetric_orthogonal(m, rng), haar_unitary(m, rng)
    )
    hilbert = hilbert_conjugation(N, haar_unitary(N // 2, rng))
    return N, ((fourier, FourBlockModel(N).matrix()), (hilbert, TwoBlockModel(N).matrix()))


def test_transform_model_defects_match_the_dense_products(rng):
    # the class path sums its blocks in another order than the dense
    # products, so the two agree within 1e-14 N, not bitwise
    N, models = transform_models_512(rng)
    for C, U in models:
        ok, report = verify_membership(U, C, threshold=1e-12 * N)
        assert ok
        assert unitarity_defect(U) == unitarity_defect_dense(U)
        dense = membership_defects_dense(C.matrix, U)
        for got, want in zip(astuple(report), dense):
            assert abs(got - want) <= 1e-14 * N


def test_transform_model_checks_take_the_class_path(rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_membership fell back to the dense products")

    for name in ("is_conjugation", "commutation_defect", "symmetry_defect"):
        monkeypatch.setattr(family, name, refuse)
    N, models = transform_models_512(rng)
    for C, U in models:
        assert verify_membership(U, C, threshold=1e-12 * N)[0]


@pytest.mark.parametrize("N", [2, 6, 64])
def test_hilbert_conjugation_is_the_family_member(rng, N):
    m = N // 2
    Ui = haar_unitary(m, rng)
    params = ConjugationParams((Ui.T,), np.eye(0), np.eye(0))
    member = from_params(BlockLayout(((1j, m),), 0, 0), np.eye(N), params)
    assert np.array_equal(hilbert_conjugation(N, Ui).matrix, member.matrix)


def test_hermite_orthonormality_refines():
    offdiags = []
    for N in (64, 256):
        grid = calibration_grid(N)
        h, _ = hermite_samples(10, grid)
        dx = grid[1] - grid[0]
        w = np.full(N, dx)
        w[0] = w[-1] = dx / 2
        gram = (h * w) @ h.T
        offdiags.append(np.max(np.abs(gram - np.eye(11))))
    assert offdiags[1] < offdiags[0]
    assert offdiags[1] <= 1e-10


def test_hermite_parity():
    grid = calibration_grid(128)
    h, _ = hermite_samples(1, grid)
    dx = grid[1] - grid[0]
    assert abs(np.sum(h[0] * h[1]) * dx) <= 1e-14


def test_hermite_support_flags():
    tight = np.linspace(-2.0, 2.0, 64)
    _, supported = hermite_samples(12, tight)
    assert not supported[12]  # turning point far beyond the window
    for N in (128, 256, 512):
        _, supported = hermite_samples(8, calibration_grid(N))
        assert supported.all()


def test_grid_validation():
    with pytest.raises(InputError):
        require_centered_grid(np.array([0.0, 1.0, 3.0]))
    with pytest.raises(InputError):
        require_centered_grid(np.array([-1.0, 0.0, 2.0]))
    x, dx = require_centered_grid(np.linspace(-3, 3, 7))
    assert dx == pytest.approx(1.0)


def test_dft_eigen_check_refines():
    for n in (0, 3, 8):
        res = [dft_eigen_check(n, calibration_grid(N)).residual for N in (64, 128, 256)]
        assert res[0] >= res[1] >= res[2]
    out = dft_eigen_check(0, calibration_grid(128))
    assert out.grid_supported


def test_fourier_quadrature_approximates_eigenvalue():
    grid = calibration_grid(256)
    G = fourier_quadrature(grid)
    h, _ = hermite_samples(2, grid)
    assert np.linalg.norm(G @ h[2] - (-1j) ** 2 * h[2]) / np.linalg.norm(h[2]) <= 1e-9
