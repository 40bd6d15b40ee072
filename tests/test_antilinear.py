import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjugations.antilinear import (
    AntilinearOperator,
    commutation_defect,
    is_conjugation,
    symmetry_defect,
    transport,
)
from conjugations.errors import InputError
from conjugations.linalg import _diagonal_entries, haar_unitary, symmetric_unitary
from conjugations.linalg import unitarity_defect

from _oracles import apply_cuc_on_basis, cuc_defects_dense, unitarity_defect_dense

SWAP = AntilinearOperator([[0.0, 1.0], [1.0, 0.0]])


def test_apply_swap():
    # by hand: A conj((1, i)) = A (1, -i) = (-i, 1)
    assert np.allclose(SWAP.matrix @ np.conj([1.0, 1j]), [-1j, 1.0])
    assert not callable(SWAP)  # the operator is its matrix A, applied as A conj(x)


def test_apply_dimension_mismatch():
    # an operator is only ever measured against, or moved by, a matrix of its own size
    for call in (lambda: commutation_defect(SWAP, np.eye(3)),
                 lambda: symmetry_defect(SWAP, np.eye(3)),
                 lambda: transport(SWAP, np.eye(3))):
        with pytest.raises(InputError, match="dimension mismatch"):
            call()


@settings(max_examples=30, deadline=None)
@given(
    re=st.floats(-5, 5),
    im=st.floats(-5, 5),
    seed=st.integers(0, 10**6),
)
def test_antilinearity(re, im, seed):
    rng = np.random.default_rng(seed)
    C = AntilinearOperator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    y = rng.normal(size=3) + 1j * rng.normal(size=3)
    alpha = re + 1j * im
    A = C.matrix
    lhs = A @ np.conj(x + alpha * y)
    rhs = A @ np.conj(x) + np.conj(alpha) * (A @ np.conj(y))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_is_conjugation_basics():
    assert is_conjugation(AntilinearOperator(np.eye(3)))[0]
    assert is_conjugation(SWAP)[0]
    ok, report = is_conjugation(AntilinearOperator([[0.0, 1.0], [-1.0, 0.0]]))
    assert not ok
    # A conj(A) = -I for the antisymmetric swap, so the involution defect is ||2I||
    assert report.involution_defect == pytest.approx(2 * np.sqrt(2))


def test_conjugation_inner_product_rule(rng):
    # <Cx, Cy> = <y, x> for conjugations
    for _ in range(10):
        C = AntilinearOperator(symmetric_unitary(4, rng))
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        A = C.matrix
        lhs = np.vdot(A @ np.conj(y), A @ np.conj(x))  # <Cx, Cy>, vdot conjugates its first arg
        rhs = np.vdot(x, y)  # <y, x>
        assert abs(lhs - rhs) < 1e-10


def test_transport_identity():
    C = transport(SWAP, np.eye(2))
    assert np.allclose(C.matrix, SWAP.matrix)


def test_transport_preserves_conjugation(rng):
    for _ in range(10):
        C = AntilinearOperator(symmetric_unitary(5, rng))
        W = haar_unitary(5, rng)
        assert is_conjugation(transport(C, W))[0]


def test_transport_round_trip(rng):
    C = AntilinearOperator(symmetric_unitary(4, rng))
    W = haar_unitary(4, rng)
    back = transport(transport(C, W), W.conj().T)
    assert np.linalg.norm(back.matrix - C.matrix) <= 1e-12


def test_transport_rejects_non_unitary():
    with pytest.raises(InputError):
        transport(SWAP, np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_commutation_defect_examples():
    U = np.diag([1j, -1j])
    assert commutation_defect(SWAP, U) == 0.0
    assert commutation_defect(AntilinearOperator(np.eye(3)), np.eye(3)) == 0.0
    # J against diag(i, i): conj(U) = -U so the defect is ||2U|| = 2 sqrt(2)
    d = commutation_defect(AntilinearOperator(np.eye(2)), np.diag([1j, 1j]))
    assert d == pytest.approx(2 * np.sqrt(2))


def test_symmetry_defect_examples():
    assert symmetry_defect(AntilinearOperator(np.eye(1)), np.diag([1j])) == 0.0
    # swap commutes with diag(i, -i), so its symmetric defect is ||U - U*||
    d = symmetry_defect(SWAP, np.diag([1j, -1j]))
    assert d == pytest.approx(2 * np.sqrt(2))


def test_defects_measure_non_unitary_u(rng):
    # unitarity is verify_membership's check; the defects are the plain norms
    n = 4
    C = AntilinearOperator(symmetric_unitary(n, rng))
    U = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    cuc = apply_cuc_on_basis(C.matrix, U)
    assert commutation_defect(C, U) == pytest.approx(np.linalg.norm(cuc - U), rel=1e-12)
    assert symmetry_defect(C, U) == pytest.approx(np.linalg.norm(cuc - U.conj().T), rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_diagonal_u_defects_match_the_dense_products(rng, n):
    # generic phases: the diagonal unitarity defect rounds like the dense
    # product only up to the order of its sums; the commutation and symmetry
    # defects are the dense products for any U
    U = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
    C = AntilinearOperator(symmetric_unitary(n, rng) if n else np.zeros((0, 0)))
    assert _diagonal_entries(U) is not None
    tol = 1e-14 * max(n, 1)
    assert abs(unitarity_defect(U) - unitarity_defect_dense(U)) <= tol
    got = (commutation_defect(C, U), symmetry_defect(C, U))
    for a, b in zip(got, cuc_defects_dense(C.matrix, U)):
        assert abs(a - b) <= tol


def test_one_off_diagonal_entry_takes_the_dense_path(rng):
    n = 7
    U = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
    U[0, 1] = 1e-300
    C = AntilinearOperator(symmetric_unitary(n, rng))
    assert _diagonal_entries(U) is None
    assert unitarity_defect(U) == unitarity_defect_dense(U)
    assert (commutation_defect(C, U), symmetry_defect(C, U)) == cuc_defects_dense(C.matrix, U)


def test_spectral_symmetric_factorization(rng):
    # J1 = W J W* satisfies J1 U J1 = U*, and J2 = J1 o U completes U = J1 J2
    n = 5
    W = haar_unitary(n, rng)
    U = (W * np.exp(1j * rng.uniform(-np.pi, np.pi, n))) @ W.conj().T
    J1 = transport(AntilinearOperator(np.eye(n)), W)
    assert symmetry_defect(J1, U) <= 1e-12
    J2 = AntilinearOperator(J1.matrix @ np.conj(U))  # J1 o U: antilinear, matrix A conj(U)
    assert is_conjugation(J2)[0]
    assert np.linalg.norm(J1.matrix @ np.conj(J2.matrix) - U) <= 1e-12  # J1 o J2, linear


def test_commuting_iff_adjoint_commuting(rng):
    # C U C = U and C U* C = U* hold or fail together
    from conjugations.family import sample

    W = haar_unitary(4, rng)
    U = (W * np.array([1j, -1j, np.exp(0.4j), np.exp(-0.4j)])) @ W.conj().T
    member = sample(U, 5)
    assert commutation_defect(member, U) <= 1e-10
    assert commutation_defect(member, U.conj().T) <= 1e-10
    outsider = AntilinearOperator(symmetric_unitary(4, rng))
    d1 = commutation_defect(outsider, U)
    d2 = commutation_defect(outsider, U.conj().T)
    assert d1 > 1e-3 and d2 > 1e-3


def test_uc_conjugation_iff_symmetric(rng):
    # U C is a conjugation exactly when C U C = U*
    n = 3
    for k in range(20):
        W = haar_unitary(n, rng)
        U = (W * np.exp(1j * rng.uniform(-np.pi, np.pi, n))) @ W.conj().T
        if k % 2 == 0:
            C = transport(AntilinearOperator(np.eye(n)), W)  # symmetric for U
        else:
            C = AntilinearOperator(symmetric_unitary(n, rng))
        UC = AntilinearOperator(U @ C.matrix)  # U o C: antilinear, matrix U A
        sym = symmetry_defect(C, U)
        assert is_conjugation(UC)[0] == (sym <= 1e-9)


def test_commutation_defect_matches_basis_evaluation(rng):
    # defect formula agrees with evaluating C U C on the standard basis
    for _ in range(25):
        r, a, b = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
        A = np.array(
            [
                [np.cos(r) * np.exp(1j * a), np.sin(r) * np.exp(1j * b)],
                [np.sin(r) * np.exp(1j * b), -np.cos(r) * np.exp(1j * (2 * b - a))],
            ]
        )
        C = AntilinearOperator(A)
        W = haar_unitary(2, rng)
        U = (W * np.exp(1j * rng.uniform(-np.pi, np.pi, 2))) @ W.conj().T
        direct = np.linalg.norm(apply_cuc_on_basis(C.matrix, U) - U)
        assert commutation_defect(C, U) == pytest.approx(direct, abs=1e-12)
