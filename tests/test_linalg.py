import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjugations.errors import InputError
from conjugations.family import ConjugationParams, layout_conjugation
from conjugations.linalg import (
    SPLIT_TOL,
    _diagonal_entries,
    _gram_residual,
    _unique_inverse,
    four_unitary_split,
    haar_unitary,
    symmetric_unitary,
    unitarity_defect,
)
from conjugations.measures import AtomicMeasure, FieldOperator, assemble_model, is_reflection_symmetric
from conjugations.shifts import SymbolParams, UMultiplierConjugation, squared_shift_conjugation
from conjugations.spectral import BlockLayout, MultiplicityModel

from _oracles import four_unitary_split_svd


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
    assert np.allclose(u3, 1j * np.eye(3)) and np.allclose(u4, -1j * np.eye(3))


def test_four_unitary_split_zero():
    scale, factors = four_unitary_split(np.zeros((2, 2)))
    assert scale == 0.0
    assert np.allclose(scale * sum(factors), 0.0)


def test_four_unitary_split_random(rng):
    for _ in range(20):
        n = int(rng.integers(1, 17))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        scale, factors = four_unitary_split(A)
        assert scale == pytest.approx(np.linalg.norm(A, 2) / 2)
        resid = np.linalg.norm(A - scale * sum(factors))
        assert resid <= 1e-9 * (1 + np.linalg.norm(A))
        for u in factors:
            assert unitarity_defect(u) <= 1e-9


@pytest.mark.parametrize("n", [*range(1, 20), 64])
def test_four_unitary_split_keeps_the_bits_of_the_construction(n):
    A = np.random.default_rng(n).standard_normal((n, n, 2)) @ [1, 1j]
    scale, factors = four_unitary_split(A)
    want_scale, want = four_unitary_split_svd(A)
    assert scale == want_scale
    for got, kept in zip(factors, want):
        assert got.tobytes() == kept.tobytes()


def _structured_inputs():
    rng = np.random.default_rng(29)
    G = rng.standard_normal((6, 6, 2)) @ [1, 1j]
    v = rng.standard_normal((5, 2)) @ [1, 1j]
    w = rng.standard_normal((5, 2)) @ [1, 1j]
    return {
        "hermitian": G + G.conj().T,
        "unitary": haar_unitary(6, 29),  # t = 1: U1 = U2
        "rank_1": np.outer(v, w.conj()),  # t = 0 beyond the first value
        "tiny_diagonal": 1e-300 * np.diag([3.0, -1.0, 0.5j, 2.0]),
        "n_1": np.array([[2.0 - 3.0j]]),
    }


@pytest.mark.parametrize("kind", sorted(_structured_inputs()))
def test_four_unitary_split_structured_inputs(kind):
    A = _structured_inputs()[kind]
    n = len(A)
    scale, factors = four_unitary_split(A)
    assert scale == np.linalg.svd(A)[1][0] / 2
    assert np.linalg.norm(A - scale * sum(factors)) <= SPLIT_TOL * (1 + np.linalg.norm(A))
    for u in factors:
        assert unitarity_defect(u) <= SPLIT_TOL
    # the factors sum to 2A/sigma_1, whatever the scale of A
    assert np.linalg.norm(sum(factors) - A / scale) <= 1e-12 * n


@pytest.mark.parametrize("A", [np.full((2, 2), 1.5e308), np.full((5, 5), 1.5e308),
                               np.full((2, 2), 1.5e308 + 1.5e308j)], ids=["n2", "n5", "complex"])
def test_four_unitary_split_refuses_an_overflowing_norm(A):
    # finite entries whose ||A||_2 is not a finite float: refused, with no
    # warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^the four-unitary split overflowed$"):
            four_unitary_split(A)


def test_four_unitary_split_scratch_stays_bounded():
    # the SVD's X and Y*, one scratch array the first three factors share,
    # and the four 1 MiB factors: 6.02 MiB.  tracemalloc does not see gesdd's
    # workspace (its rwork of 5n^2 + 7n reals is 2.6 MB at n = 256), which
    # numpy's linalg allocates outside the traced allocator
    A = np.random.default_rng(256).standard_normal((256, 256, 2)) @ [1, 1j]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        four_unitary_split(A)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_four_unitary_split_resident_rise_stays_bounded():
    # what tracemalloc misses: the rise of the process's resident high-water
    # mark over one split at n = 256, gesdd's workspace included, in a fresh
    # process after a warm-up split at n = 8 has loaded LAPACK.  It read
    # 5.5-6.3 MiB on a 2-core x86-64 host under one and two OpenBLAS
    # threads; 8 MiB leaves 1.7 MiB of headroom for the allocator's page reuse
    code = (
        "import resource, numpy as np\n"
        "from conjugations.linalg import four_unitary_split\n"
        "rng = np.random.default_rng(256)\n"
        "four_unitary_split(rng.standard_normal((8, 8)) + 0j)\n"
        "A = rng.standard_normal((256, 256, 2)) @ [1, 1j]\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "four_unitary_split(A)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) * 1024 <= 8 * 2**20  # ru_maxrss is in KiB on Linux


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


def test_gram_residual_is_the_dense_formula_per_matrix(rng):
    # unitarity_defect's goldens print this residual's norm: bit for bit the
    # dense S*S - I, for one matrix and for each matrix of a stack
    S = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    stacked = _gram_residual(S)
    for k in range(3):
        want = S[k].conj().T @ S[k] - np.eye(5)
        assert _gram_residual(S[k]).tobytes() == want.tobytes()
        assert np.allclose(stacked[k], want, rtol=0, atol=1e-12)


def _with_bad(shape, bad, where=0):
    a = np.ones(shape, dtype=complex)
    a.flat[where] = bad
    return a


def _symbol(bad, name):
    fields = {"s": np.full(4, 0.5), "alpha": np.zeros(4), "beta": np.zeros(4), "gamma": np.zeros(4)}
    fields[name] = _with_bad(4, bad, 1).real
    return squared_shift_conjugation(SymbolParams(**fields), 8).isometry_defect()


_MU = AtomicMeasure(np.array([0.5, -0.5]), np.array([1.0, 2.0]))
NONFINITE_CASES = {
    "pair block": lambda bad: layout_conjugation(BlockLayout(((1j, 1),), 1, 0), ConjugationParams(
        (_with_bad((1, 1), bad),), np.eye(1), np.zeros((0, 0)))),
    "q_plus": lambda bad: layout_conjugation(BlockLayout(((1j, 1),), 2, 0), ConjugationParams(
        (np.eye(1),), _with_bad((2, 2), bad, 3), np.zeros((0, 0)))),
    "measure field": lambda bad: is_reflection_symmetric(
        FieldOperator(_MU, _with_bad((2, 1, 1), bad, 1))),
    "assembled field": lambda bad: assemble_model(MultiplicityModel(((_MU, 1),)),
                                                  [FieldOperator(_MU, _with_bad((2, 1, 1), bad))]),
    "grid multiplier": lambda bad: UMultiplierConjugation(_with_bad(8, bad, 3)),
    "symbol s": lambda bad: _symbol(bad, "s"),
    "symbol alpha": lambda bad: _symbol(bad, "alpha"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case", NONFINITE_CASES)
def test_every_unitarity_check_refuses_nonfinite_blocks(case, bad):
    # each check compares not (defect <= bound), so a NaN or inf block is
    # an input error: not accepted, not a LinAlgError, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            NONFINITE_CASES[case](bad)
