import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjugations.errors import InputError
from conjugations.linalg import (
    _diagonal_entries,
    _unique_inverse,
    four_unitary_split,
    haar_unitary,
    operator_norm,
    symmetric_unitary,
    unitarity_defect,
)

from _oracles import four_unitary_split_kept


def test_unitarity_defect_identity():
    assert unitarity_defect(np.eye(3)) == 0.0


def test_unitarity_defect_scalar():
    # 1x1 matrix [2]: M*M - 1 = 3
    assert unitarity_defect([[2.0]]) == pytest.approx(3.0, abs=1e-15)


def test_unitarity_defect_rejects_nonsquare():
    with pytest.raises(InputError):
        unitarity_defect(np.ones((2, 3)))


def test_unitarity_defect_rejects_nan():
    with pytest.raises(InputError):
        unitarity_defect([[np.nan]])


def test_haar_unitary_scalar_is_unimodular():
    u = haar_unitary(1, 7)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-15


def test_haar_unitary_deterministic():
    assert np.array_equal(haar_unitary(4, 123), haar_unitary(4, 123))


def test_haar_unitary_rejects_zero():
    with pytest.raises(InputError):
        haar_unitary(0, 1)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_haar_unitary_defect(n, seed):
    assert unitarity_defect(haar_unitary(n, seed)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_symmetric_unitary_properties(n, seed):
    q = symmetric_unitary(n, seed)
    assert np.linalg.norm(q - q.T) == 0.0
    assert unitarity_defect(q) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sampler_trace_moments_follow_haar_and_coe(m):
    # Haar: E tr V = 0 and E|tr V|^2 = 1; COE (S = V V^t): E|tr S|^2 = 2m/(m+1).
    # Dropping the QR phase correction moves E tr V to about -0.6 to -1.
    # With the measured variances of |tr V|^2 (1) and |tr S|^2 (up to 2.1 at
    # m = 3), each bound of 0.1 on a mean of 4,000 draws sits at least 4.4
    # standard errors out; by a normal approximation a fresh seed fails about
    # once in 10^5 runs, the COE bound at m = 3 nearly all of it.  The seeds
    # below are fixed, so the test itself is deterministic.
    draws = 4000
    rng = np.random.default_rng(20261020 + m)
    tr_v = np.array([np.trace(haar_unitary(m, rng)) for _ in range(draws)])
    tr_s = np.array([np.trace(symmetric_unitary(m, rng)) for _ in range(draws)])
    assert abs(tr_v.mean()) <= 0.1
    assert abs(np.mean(np.abs(tr_v) ** 2) - 1.0) <= 0.1
    assert abs(np.mean(np.abs(tr_s) ** 2) - 2 * m / (m + 1)) <= 0.1


def test_four_unitary_split_identity():
    scale, (u1, u2, u3, u4) = four_unitary_split(np.eye(3))
    assert scale == pytest.approx(0.5)
    assert np.allclose(u1, np.eye(3)) and np.allclose(u2, np.eye(3))
    assert np.allclose(u3, 1j * 0 + np.eye(3)) and np.allclose(u4, -np.eye(3))


def test_four_unitary_split_zero():
    scale, factors = four_unitary_split(np.zeros((2, 2)))
    assert scale == 0.0
    assert np.allclose(scale * sum(factors), 0.0)


def test_four_unitary_split_random(rng):
    for _ in range(20):
        n = int(rng.integers(1, 17))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        scale, factors = four_unitary_split(A)
        assert scale == pytest.approx(operator_norm(A) / 2)
        resid = np.linalg.norm(A - scale * sum(factors))
        assert resid <= 1e-9 * (1 + np.linalg.norm(A))
        for u in factors:
            assert unitarity_defect(u) <= 1e-9


@pytest.mark.parametrize("n", [*range(1, 20), 64])
def test_four_unitary_split_keeps_the_bits_of_the_construction(n):
    A = np.random.default_rng(n).standard_normal((n, n, 2)) @ [1, 1j]
    scale, factors = four_unitary_split(A)
    want_scale, want = four_unitary_split_kept(A)
    assert scale == want_scale
    for got, kept in zip(factors, want):
        assert got.tobytes() == kept.tobytes()


def test_four_unitary_split_scratch_stays_bounded():
    # the four 1 MiB factors, and while a pair forms its eigenvectors, their
    # adjoint and one scaled copy: H and K are never alive together
    A = np.random.default_rng(256).standard_normal((256, 256, 2)) @ [1, 1j]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        four_unitary_split(A)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_diagonal_entries_counts_nonzero_parts():
    D = np.diag([1.0, 1j, 0.0])
    assert _diagonal_entries(D) is not None
    for i, j, value in ((0, 1, 1e-300), (2, 0, 1e-300j), (1, 2, np.nan), (1, 0, np.nan * 1j)):
        off = D.copy()
        off[i, j] = value
        assert _diagonal_entries(off) is None
    signed = D.copy()
    signed[0, 2] = -0.0
    assert _diagonal_entries(signed) is not None


@pytest.mark.parametrize("kind", ["complex", "int"])
def test_unique_inverse_is_np_unique(kind, rng):
    # the grouping the diagonal block engine keys its classes by: same
    # sorted values and labels as np.unique, which imports numpy.ma
    for size in (0, 1, 7, 200):
        if kind == "complex":
            x = np.exp(1j * rng.choice([0.0, 0.5, -0.5, np.pi, 2.0], size))
            x[: size // 3] = np.conj(x[: size // 3])
        else:
            x = rng.integers(-3, 4, size) * 1000 + rng.integers(0, 2, size)
        values, inverse = _unique_inverse(x)
        want_values, want_inverse = np.unique(x, return_inverse=True)
        assert values.tobytes() == want_values.tobytes()
        assert np.array_equal(inverse, want_inverse) and inverse.dtype == np.intp
