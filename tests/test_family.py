import contextlib
import io
import json
import pathlib
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conjugations import antilinear, family, linalg
from conjugations.antilinear import (
    AntilinearOperator,
    _block_report,
    commutation_defect,
    is_conjugation,
    transport,
)
from conjugations.cli import matrix_from_dict, matrix_to_dict, run, save_json
from conjugations.errors import InputError, MembershipError, NotSelfDualError
from conjugations.family import (
    ConjugationParams,
    canonical_conjugation,
    decompose,
    from_params,
    identity_params,
    layout_conjugation,
    sample,
    verify_membership,
)
from conjugations.linalg import haar_unitary, membership_threshold, symmetric_unitary
from conjugations.spectral import BlockLayout, canonical_form, layout_diagonal
from conjugations.transforms import TwoBlockModel, hilbert_conjugation

from random_inputs import planted_selfdual
from _oracles import (
    brute_force_2x2_members,
    decompose_loop,
    membership_defects_dense,
    min_commutation_defect_3x3,
)


def test_canonical_real_spectrum():
    C = canonical_conjugation(np.diag([1.0, -1.0]))
    assert np.allclose(C.matrix, np.eye(2))


def test_canonical_conjugate_pair():
    C = canonical_conjugation(np.diag([1j, -1j]))
    assert np.allclose(C.matrix, [[0.0, 1.0], [1.0, 0.0]])


def test_canonical_refuses_non_selfdual():
    with pytest.raises(NotSelfDualError):
        canonical_conjugation(np.diag([1j, 1j]))


@pytest.mark.parametrize("build", [
    lambda U: sample(U, 1),
    canonical_conjugation,
    lambda U: decompose(U, AntilinearOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))),
], ids=["sample", "canonical_conjugation", "decompose"])
def test_empty_family_error_is_the_cli_text(build):
    with pytest.raises(NotSelfDualError) as err:
        build(np.diag([1j, 1j]))
    assert str(err.value) == "C_c(U) is empty: eigenvalue i multiplicity 2, conjugate multiplicity 0"


def test_canonical_on_random_selfdual(rng):
    for _ in range(10):
        U, *_ = planted_selfdual(rng, max_dim=20)
        n = U.shape[0]
        C = canonical_conjugation(U)
        passed, report = verify_membership(U, C)
        assert passed
        assert report.commutation_defect <= 1e-9 * n


def test_from_params_identity_matches_canonical(rng):
    U, *_ = planted_selfdual(rng, max_dim=16)
    W, layout = canonical_form(U)
    C = from_params(layout, W, identity_params(layout))
    assert np.allclose(C.matrix, canonical_conjugation(U).matrix)


def test_from_params_single_phase():
    U = np.diag([1j, -1j])
    W, layout = canonical_form(U)
    v = np.exp(0.7j)
    C = from_params(layout, W, ConjugationParams((np.array([[v]]),), np.zeros((0, 0)), np.zeros((0, 0))))
    assert np.allclose(C.matrix, [[0.0, v], [v, 0.0]])
    assert commutation_defect(C, U) <= 1e-12


def test_from_params_rejects_bad_blocks():
    U = np.diag([1.0, 1.0])
    W, layout = canonical_form(U)
    bad = ConjugationParams((), np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((0, 0)))
    with pytest.raises(InputError):
        from_params(layout, W, bad)  # antisymmetric q_plus
    with pytest.raises(InputError):
        from_params(layout, W, ConjugationParams((), 2 * np.eye(2), np.zeros((0, 0))))
    with pytest.raises(InputError, match=r"^q_plus must be 2x2, got \(2,\)$"):
        layout_conjugation(BlockLayout(((1j, 1),), 2, 0),
                           ConjugationParams((np.eye(1),), np.ones(2), np.zeros((0, 0))))


@pytest.mark.parametrize("change,message", [
    ({2: 2}, "pair block 2 is not unitary"),
    ({1: 2, 2: 2}, "pair block 1 is not unitary"),
    ({0: 2, 2: np.eye(3)}, "pair block 0 is not unitary"),
    ({2: np.eye(3)}, r"pair block 2 must be 2x2, got \(3, 3\)"),
    ({1: np.nan, 2: 2}, "matrix contains non-finite entries"),
    ({1: 2, 2: np.inf}, "pair block 1 is not unitary"),
    # blocks are sized by their shape, so a 0-d or 1-d block gets the shape refusal
    ({1: np.array(1j)}, r"pair block 1 must be 1x1, got \(\)"),
    ({0: np.ones(2)}, r"pair block 0 must be 2x2, got \(2,\)"),
])
def test_pair_block_errors_name_the_first_failing_block(change, message):
    # blocks 0 and 2 share a size and are checked in one stacked product; the
    # error is still the first in block order, as a per-block loop gives it
    layout = BlockLayout(((1j, 2), (0.5 + 0.5j, 1), (-0.5 + 0.1j, 2)), 0, 0)
    blocks = [haar_unitary(2, 1), np.array([[1j]]), haar_unitary(2, 2)]
    for j, how in change.items():
        blocks[j] = how if isinstance(how, np.ndarray) else how * blocks[j]
    params = ConjugationParams(tuple(blocks), np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(InputError, match=f"^{message}$"):
        layout_conjugation(layout, params)


def test_sample_deterministic(rng):
    U, *_ = planted_selfdual(rng, max_dim=12)
    assert np.array_equal(sample(U, 42).matrix, sample(U, 42).matrix)


def test_sample_members_verify(rng):
    for k in range(20):
        U, *_ = planted_selfdual(rng, max_dim=16)
        C = sample(U, k)
        ok, report = verify_membership(U, C)
        assert ok, report
        assert is_conjugation(C)[0]


def test_sample_identity_operator(rng):
    # the family of the identity is every symmetric unitary in front of
    # entrywise conjugation
    C = sample(np.eye(5), 9)
    A = C.matrix
    assert np.linalg.norm(A - A.T) <= 1e-12
    assert is_conjugation(C)[0]
    assert commutation_defect(C, np.eye(5)) <= 1e-12


def test_decompose_canonical_gives_identity_params(rng):
    U, *_ = planted_selfdual(rng, max_dim=16)
    W, layout = canonical_form(U)
    params = decompose(U, canonical_conjugation(U))
    for v, (_, m) in zip(params.v_blocks, layout.pairs):
        assert np.allclose(v, np.eye(m), atol=1e-10)
    assert np.allclose(params.q_plus, np.eye(layout.ell), atol=1e-10)
    assert np.allclose(params.q_minus, np.eye(layout.kay), atol=1e-10)


def test_decompose_reads_phase():
    U = np.diag([1j, -1j])
    v = np.exp(1.1j)
    params = decompose(U, AntilinearOperator([[0.0, v], [v, 0.0]]))
    assert params.v_blocks[0].shape == (1, 1)
    assert abs(params.v_blocks[0][0, 0] - v) < 1e-10


def test_decompose_rejects_anticommuting():
    # plain conjugation flips diag(i, -i) to its adjoint, so it is not a member
    with pytest.raises(MembershipError):
        decompose(np.diag([1j, -1j]), AntilinearOperator(np.eye(2)))


def test_decompose_rejects_non_conjugation():
    with pytest.raises(InputError):
        decompose(np.diag([1j, -1j]), AntilinearOperator([[0.0, 1.0], [-1.0, 0.0]]))


def test_decompose_rejects_dimension_mismatch():
    U = np.diag([np.exp(0.5j), np.exp(-0.5j), 1.0, -1.0])
    with pytest.raises(InputError, match="^operator dimensions do not match$"):
        decompose(U, AntilinearOperator([[0.0, 1.0], [1.0, 0.0]]))


def test_decompose_n1_window_between_bounds():
    # at n = 1 is_conjugation's bound 1.01e-8 exceeds thr = 1e-8; C inside
    # that window fails verify_membership on its isometry defect, and
    # decompose, which takes verify's verdict, refuses it as well
    U, C = np.eye(1), AntilinearOperator([[1 + 5.02e-9]])
    assert 1e-8 < is_conjugation(C)[1].isometry_defect <= 1.01e-8
    assert not verify_membership(U, C)[0]
    with pytest.raises(InputError, match="^C is not a conjugation$"):
        decompose(U, C)


@pytest.mark.parametrize("scale", [1 + 5e-9, 1 + 8e-9])
def test_decompose_returns_only_what_from_params_rebuilds(scale):
    # pair block 0 (1 x 1) scaled off the unit circle: its unitarity defect
    # 2(scale - 1) meets from_params' bound 1.01e-8 at 5e-9 and misses it at
    # 8e-9, while verify passes both; decompose returns the polar factor,
    # which from_params accepts and which rebuilds a member within thr of C
    U = np.diag(np.exp(1j * np.array([0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 0.0, np.pi])))
    W, layout = canonical_form(U)
    V = layout_conjugation(layout, identity_params(layout)).matrix
    V[:2, :2] *= scale
    C = transport(AntilinearOperator(V), W)
    assert verify_membership(U, C)[0]
    params = decompose(U, C)
    assert abs(abs(params.v_blocks[0][0, 0]) - 1) <= 1e-15
    rebuilt = from_params(layout, W, params)
    assert verify_membership(U, rebuilt)[0]
    assert np.linalg.norm(rebuilt.matrix - C.matrix) <= membership_threshold(len(U))


def _noisy_members(rng, eps):
    """Members of planted families with n <= 24, moved by noise of norm eps:
    transported by exp(i eps H), which leaves a conjugation off the block
    structure; asymmetric noise anywhere; and, in the canonical basis, noise
    on one pair's lower block alone, which the projection averages with the
    upper, or on the real blocks alone when there is no pair."""
    for k in range(24):
        U, *_ = planted_selfdual(rng, max_dim=24)
        n = U.shape[0]
        W, layout = canonical_form(U)
        C = sample(U, k)
        N = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        N *= eps / np.linalg.norm(N)
        w, Q = np.linalg.eigh(N + N.conj().T)
        yield U, transport(C, (Q * np.exp(1j * w)) @ Q.conj().T)
        yield U, AntilinearOperator(C.matrix + N)
        V = W.conj().T @ C.matrix @ np.conj(W)
        if layout.pairs:
            m = layout.pairs[0][1]
            V[m : 2 * m, :m] += N[:m, :m] * eps / np.linalg.norm(N[:m, :m])
        else:
            V *= 1 + eps
        yield U, AntilinearOperator(W @ V @ W.T)


def _outcome(call, U, C):
    try:
        return call(U, C)
    except (InputError, MembershipError) as e:
        return type(e).__name__


def _conjugate_gap(layout):
    """g = min |lam_i - conj(lam_j)| over the layout's eigenvalues, zero
    distances left out: the entries of V = W* A conj(W) where a member is
    zero are those whose lam_i - conj(lam_j) is nonzero."""
    lam = layout_diagonal(layout)
    gaps = np.abs(lam[:, None] - np.conj(lam))
    return gaps[gaps > 0].min(initial=2.0)


def test_noisy_members_decompose_as_the_loop_oracle_and_rebuild(rng):
    # members under noise near thr get the oracle's outcome and, within
    # 1e-12 n, its projected parameters, with exactly symmetric real blocks;
    # whatever decompose returns rebuilds a member that passes verify.  The
    # distance from C is within thr for all but the transported members of
    # close spectra: V conj(D) - D V is (C U C - U) V plus an involution
    # term, so an entry off the structure is at most (comm + inv)/g, and no
    # member lies nearer C than those entries.  It is asserted within twice
    # (iso + inv + comm)/g; this sweep reaches 1.0 times it, and 2.4 thr
    seen = set()
    for eps in (1e-9, 1e-8, 3e-8, 1e-7):
        for U, C in _noisy_members(rng, eps):
            n = len(U)
            got = _outcome(decompose, U, C)
            want = _outcome(lambda U, C: decompose_loop(U, C, canonical_form), U, C)
            if isinstance(want, str):
                assert got == want
                seen.add(want)
                continue
            seen.add("ok")
            v_blocks, q_plus, q_minus = want
            assert len(got.v_blocks) == len(v_blocks)
            for a, b in zip(got.v_blocks + (got.q_plus, got.q_minus), v_blocks + [q_plus, q_minus]):
                assert np.linalg.norm(a - b) <= 1e-12 * n
            assert np.array_equal(got.q_plus, got.q_plus.T)
            assert np.array_equal(got.q_minus, got.q_minus.T)
            W, layout = canonical_form(U)
            rebuilt = from_params(layout, W, got)
            assert verify_membership(U, rebuilt)[0]
            report = verify_membership(U, C)[1]
            defects = report.isometry_defect + report.involution_defect + report.commutation_defect
            distance = np.linalg.norm(rebuilt.matrix - C.matrix)
            assert distance <= 2 * defects / _conjugate_gap(layout) + 1e-14 * n
    assert seen == {"ok", "InputError", "MembershipError"}


def test_decompose_note_reports_the_rebuilt_distance(rng, tmp_path):
    # the sweep's member whose rebuild lies farthest from C, more than twice
    # thr (n = 8, a pair 0.12 from -1): decompose's one stderr line ends with
    # ||from_params(layout, W, params) - C||_F, and stdout holds the parameters
    farthest = (0.0, None)
    for eps in (1e-9, 1e-8, 3e-8, 1e-7):
        for U, C in _noisy_members(rng, eps):
            if isinstance(params := _outcome(decompose, U, C), str):
                continue
            W, layout = canonical_form(U)
            distance = np.linalg.norm(from_params(layout, W, params).matrix - C.matrix)
            farthest = max(farthest, (distance / membership_threshold(len(U)), (U, C, distance)),
                           key=lambda f: f[0])
    ratio, (U, C, distance) = farthest
    assert ratio > 2
    u, c = tmp_path / "u.json", tmp_path / "c.json"
    save_json(u, matrix_to_dict(U))
    save_json(c, matrix_to_dict(C.matrix))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run(["decompose", str(u), str(c)]) == 0
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().endswith(f", rebuilt member {distance:.3e} from C\n")
    params = decompose(U, C)
    got = [matrix_from_dict(v, "v") for v in json.loads(out.getvalue())["v_blocks"]]
    assert len(got) == len(params.v_blocks) and all(map(np.array_equal, got, params.v_blocks))


def test_decompose_takes_verify_verdict_on_a_noisy_sweep():
    # U = diag(e^{+-0.5i}, e^{+-i}, e^{+-2i}, 1, -1) and 300 sampled members
    # plus symmetric noise of norm 10^-9.5 n to 10^-6.5 n: decompose returns
    # exactly when verify_membership passes
    U = np.diag(np.exp(1j * np.array([0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 0.0, np.pi])))
    n = len(U)
    rng = np.random.default_rng(0)
    outcomes = set()
    for k in range(300):
        N = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        N += N.T
        N *= 10 ** rng.uniform(-9.5, -6.5) * n / np.linalg.norm(N)
        C = AntilinearOperator(sample(U, k).matrix + N)
        passed = verify_membership(U, C)[0]
        returned = not isinstance(_outcome(decompose, U, C), str)
        assert returned == passed
        outcomes.add(passed)
    assert outcomes == {True, False}


def test_round_trip_params(rng):
    for k in range(10):
        U, *_ = planted_selfdual(rng, max_dim=24)
        W, layout = canonical_form(U)
        params = ConjugationParams(
            tuple(haar_unitary(m, rng) for _, m in layout.pairs),
            symmetric_unitary(layout.ell, rng) if layout.ell else np.zeros((0, 0)),
            symmetric_unitary(layout.kay, rng) if layout.kay else np.zeros((0, 0)),
        )
        C = from_params(layout, W, params)
        got = decompose(U, C)
        for a, b in zip(got.v_blocks, params.v_blocks):
            assert np.linalg.norm(a - b) <= 1e-8
        assert np.linalg.norm(got.q_plus - params.q_plus) <= 1e-8
        assert np.linalg.norm(got.q_minus - params.q_minus) <= 1e-8


def test_decompose_members_built_off_parametrization(rng):
    # members produced by commutant transport of the canonical member still
    # decompose, and the recovered parameters rebuild the same operator
    for _ in range(6):
        U, *_ = planted_selfdual(rng, max_dim=16)
        n = U.shape[0]
        W, layout = canonical_form(U)
        # unitary commuting with U: block diagonal in the eigenbasis
        blocks = []
        for xi, m in layout.pairs:
            blocks.extend([haar_unitary(m, rng), haar_unitary(m, rng)])
        if layout.ell:
            blocks.append(haar_unitary(layout.ell, rng))
        if layout.kay:
            blocks.append(haar_unitary(layout.kay, rng))
        R = W @ _block_diag(blocks, n) @ W.conj().T
        C = transport(canonical_conjugation(U), R)
        ok, _ = verify_membership(U, C)
        assert ok
        params = decompose(U, C)
        rebuilt = from_params(layout, W, params)
        assert np.linalg.norm(rebuilt.matrix - C.matrix) <= 1e-8 * n


def _block_diag(blocks, n):
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        m = b.shape[0]
        out[pos : pos + m, pos : pos + m] = b
        pos += m
    return out


def test_verify_membership_judgements(rng):
    U, *_ = planted_selfdual(rng, max_dim=12)
    ok, _ = verify_membership(U, canonical_conjugation(U))
    assert ok
    assert verify_membership(np.eye(3), AntilinearOperator(np.eye(3)))[0]
    W = haar_unitary(2, rng)
    V = (W * np.array([1j, -1j])) @ W.conj().T
    ok, report = verify_membership(V, AntilinearOperator(np.eye(2)))
    assert not ok and report.commutation_defect > 1e-3


def test_verify_membership_rejects_non_unitary_u():
    with pytest.raises(InputError, match=r"^U is not unitary: defect 3\.000e\+00$"):
        verify_membership(np.diag([2.0, 1.0]), AntilinearOperator(np.eye(2)))


def test_verify_membership_reads_a_dense_u_once(rng):
    U, *_ = planted_selfdual(rng, max_dim=12)
    W = haar_unitary(U.shape[0], rng)
    U, C = W @ U @ W.conj().T, transport(canonical_conjugation(U), W)
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    looked = mock.Mock(wraps=linalg._diagonal_entries)
    with mock.patch.object(linalg, "_diagonal_entries", looked), \
            mock.patch.object(family, "_diagonal_entries", looked):
        assert verify_membership(U, C)[0]
        with pytest.raises(InputError, match=r"^U is not unitary: defect 1\.732e\+00$"):
            verify_membership(bad, AntilinearOperator(np.eye(2)))
    # is_conjugation also looks at C's own matrix; count the looks at U
    on = [c.args[0] for c in looked.call_args_list]
    assert [sum(np.array_equal(A, V) for A in on) for V in (U, bad)] == [1, 1]


def planted_classes(pair_sizes, ell, kay, lone, kind, seed):
    """(U, A): U diagonal with conjugate pair classes of the given sizes, +1
    and -1 classes of sizes ell and kay, and a class of size lone without a
    conjugate partner; A zero off the blocks pairing each class with its
    conjugate's.  kind "member" places a sampled member of the family (the
    lone class's rows and columns stay zero), "noisy" adds noise on those
    blocks, "random" fills them at random.  Both are then permuted."""
    rng = np.random.default_rng(seed)
    lams = np.exp(1j * rng.uniform(0.1, 3.0, len(pair_sizes)))
    d = np.concatenate(
        [np.repeat([lam, np.conj(lam)], m) for lam, m in zip(lams, pair_sizes)]
        + [np.ones(ell), -np.ones(kay), np.full(lone, np.exp(-1j * rng.uniform(0.1, 3.0)))]
    )
    n = len(d)
    blocks = d[None, :] == np.conj(d)[:, None]
    layout = BlockLayout(tuple(zip(lams, pair_sizes)), ell, kay)
    params = ConjugationParams(
        tuple(haar_unitary(m, rng) for m in pair_sizes),
        symmetric_unitary(ell, rng) if ell else np.eye(0),
        symmetric_unitary(kay, rng) if kay else np.eye(0),
    )
    A = np.zeros((n, n), dtype=complex)
    A[: layout.dim, : layout.dim] = layout_conjugation(layout, params).matrix
    noise = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * blocks
    if kind == "noisy":
        A += 10.0 ** rng.uniform(-10, -6) * noise
    elif kind == "random":
        A = noise / np.sqrt(max(n, 1))
    perm = rng.permutation(n)
    return np.diag(d[perm]), A[np.ix_(perm, perm)]


def assert_dense_verdict(got, report, A, U, tol):
    dense = membership_defects_dense(A, U)
    for value, want in zip(astuple(report), dense):
        assert abs(value - want) <= tol
    thr = membership_threshold(len(U))
    assert got == all(x <= thr for x in dense[:3])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=3),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 3),
    st.sampled_from(["member", "noisy", "random"]),
    st.integers(0, 2**32 - 1),
)
@example([], 0, 0, 0, "member", 0)
@example([], 1, 0, 0, "member", 1)
@example([], 0, 1, 0, "random", 2)
@example([], 0, 0, 1, "member", 3)
@example([1], 0, 0, 0, "member", 4)
@example([], 1, 1, 3, "noisy", 84981923)
def test_class_path_matches_the_dense_products(pair_sizes, ell, kay, lone, kind, seed):
    U, A = planted_classes(pair_sizes, ell, kay, lone, kind, seed)
    n = len(U)
    C = AntilinearOperator(A)
    dense_path = mock.Mock(side_effect=AssertionError("fell back to the dense products"))
    with mock.patch.object(family, "_dense_report", dense_path):
        got, report = verify_membership(U, C)
    assert_dense_verdict(got, report, A, U, 1e-14 * max(n, 1))
    if kind == "member" and not lone:
        assert got
    # one entry off the pairing blocks, however tiny, takes the dense path.
    # It sits off the diagonal: unitarity_defect reads a diagonal A's
    # isometry defect from the diagonal alone, which rounds differently
    d = np.diagonal(U)
    off = np.argwhere((d[None, :] != np.conj(d)[:, None]) & ~np.eye(n, dtype=bool))
    if len(off):
        i, j = off[seed % len(off)]
        A[i, j] = 1e-300
        got, report = verify_membership(U, AntilinearOperator(A))
        assert astuple(report) == membership_defects_dense(A, U)
        assert_dense_verdict(got, report, A, U, 0.0)


def uneven_classes(seed, off):
    """(U, A): U diagonal with lam twice and conj(lam) once, mu once and
    conj(mu) twice, a class of size 2 without conjugate partner and a +1
    class, permuted; A random on the blocks pairing each class with its
    conjugate's, which have shapes (2, 1), (1, 2), (2, 0) and (1, 1), and
    with one entry of size 1e-3 in each block position of `off` (row class,
    column class, as indices into the unpermuted diagonal)."""
    rng = np.random.default_rng(seed)
    lam, mu, lone = np.exp(1j * rng.uniform(0.1, 3.0, 3))
    d = np.array([lam, lam, np.conj(lam), mu, np.conj(mu), np.conj(mu), lone, lone, 1.0])
    n = len(d)
    blocks = d[None, :] == np.conj(d)[:, None]
    A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * blocks / 3
    for i, j in off:
        A[i, j] = 1e-3
    perm = rng.permutation(n)
    return np.diag(d[perm]), A[np.ix_(perm, perm)]


def engine_inputs(d):
    """Classes, conjugate partners and values of a diagonal, one value at a time."""
    values, classes = np.unique(d, return_inverse=True)
    partner = [[j for j, w in enumerate(values) if w == np.conj(v)] for v in values]
    return classes, np.array([p[0] if p else -1 for p in partner], dtype=int), values


ENGINE_CASES = [planted_classes(*args) for args in (
    ([1, 2], 1, 1, 0, "member", 11),
    ([1, 1, 1, 1], 0, 2, 1, "noisy", 12),
    ([3, 1, 2], 2, 0, 2, "random", 13),
    ([1] * 9, 1, 1, 0, "random", 14),
    ([2, 2, 2, 5], 3, 1, 3, "noisy", 15),
)] + [uneven_classes(seed, off) for seed, off in (
    (21, ()),
    (22, ((6, 7),)),  # inside the lone class's own block
    (23, ((0, 1), (8, 2))),  # lam with lam, the +1 class with conj(lam)
    (24, ((3, 3),)),
)]


@pytest.mark.parametrize("batch", [1, 4, antilinear._BATCH])
@pytest.mark.parametrize("case", range(len(ENGINE_CASES)))
def test_block_engine_matches_the_dense_products(monkeypatch, batch, case):
    # batches of 1 and 4 entries split groups of equal block shape at chunk
    # boundaries; the default stacks each group whole
    monkeypatch.setattr(antilinear, "_BATCH", batch)
    U, A = ENGINE_CASES[case]
    n, d = len(U), np.diagonal(U)
    report = _block_report(A, *engine_inputs(d))
    assert (report is None) == A[d[None, :] != np.conj(d)[:, None]].any()
    dense = membership_defects_dense(A, U)
    verdict, checked = verify_membership(U, AntilinearOperator(A))
    assert verdict == all(x <= membership_threshold(n) for x in dense[:3])
    if report is None:  # off the blocks: the dense products, bit for bit
        assert astuple(checked) == dense
    else:
        assert all(abs(x - want) <= 1e-14 * n for x, want in zip(astuple(report), dense))
        assert astuple(checked) == astuple(report)


def uneven_large_classes(seed, big, small):
    """(U, A): U diagonal with lam big times and conj(lam) small times, so the
    two classes' blocks are big x small and small x big, beside classes of mu
    and conj(mu) three times each and a +1 class of 2; A random on the
    blocks, permuted."""
    rng = np.random.default_rng(seed)
    lam, mu = np.exp(1j * rng.uniform(0.1, 3.0, 2))
    d = np.repeat([lam, np.conj(lam), mu, np.conj(mu), 1.0], [big, small, 3, 3, 2])
    n = len(d)
    blocks = d[None, :] == np.conj(d)[:, None]
    A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * blocks / np.sqrt(n)
    perm = rng.permutation(n)
    return np.diag(d[perm]), A[np.ix_(perm, perm)]


# every case has a class with m * max(m, w) > _BATCH: 150 rows run as one
# panel of their own, 185 and 200 rows as a full and a partial panel
LARGE_CASES = [
    planted_classes([150], 185, 0, 2, "noisy", 31),  # w = m
    planted_classes([200], 150, 0, 2, "random", 32),
    uneven_large_classes(33, 150, 140),  # w != m
    uneven_large_classes(34, 200, 190),
]


@pytest.mark.parametrize("case", range(len(LARGE_CASES)))
def test_block_engine_row_panels_match_the_dense_products(case):
    # the default _BATCH, against the dense products
    U, A = LARGE_CASES[case]
    n, d = len(U), np.diagonal(U)
    assert np.bincount(engine_inputs(d)[0]).max() ** 2 > antilinear._BATCH
    report = _block_report(A, *engine_inputs(d))
    assert report is not None
    got, dense = astuple(report), membership_defects_dense(A, U)
    assert all(abs(x - want) <= 1e-14 * n for x, want in zip(got, dense))
    assert astuple(verify_membership(U, AntilinearOperator(A))[1]) == got


def hilbert_member(N, off):
    """(U, A): the N-point Hilbert model and a member, with an entry off
    its blocks (the i class with itself) when off is nonzero."""
    A = hilbert_conjugation(N, haar_unitary(N // 2, N)).matrix.copy()
    A[0, 0] = off
    return TwoBlockModel(N).matrix(), A


@pytest.mark.parametrize("off", [0.0, 1e-3])
def test_off_block_member_skips_the_block_products(off):
    # the block products are the engine's np.matmul calls; the dense ones use @
    U, A = hilbert_member(512, off)
    products = mock.Mock(wraps=np.matmul)
    dense = mock.Mock(wraps=antilinear._dense_report)
    with mock.patch.object(np, "matmul", products):
        with mock.patch.object(family, "_dense_report", dense):
            got, report = verify_membership(U, AntilinearOperator(A))
    assert (products.call_count > 0) == (off == 0.0)
    assert dense.call_count == (off != 0.0)
    assert got == (off == 0.0)
    if off:
        assert astuple(report) == membership_defects_dense(A, U)


def test_block_engine_scratch_stays_bounded():
    # the gathered blocks (2 MiB) and one panel of residuals: no copy of the
    # partner block or of its conjugate, no residual of a whole class
    U, A = hilbert_member(512, 0.0)
    C = AntilinearOperator(A)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_membership(U, C)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_membership_invariant_under_transport(rng):
    for _ in range(6):
        U, *_ = planted_selfdual(rng, max_dim=12)
        n = U.shape[0]
        W = haar_unitary(n, rng)
        C = sample(U, 3) if n % 2 == 0 else AntilinearOperator(symmetric_unitary(n, rng))
        before, _ = verify_membership(U, C, threshold=1e-7 * n)
        after, _ = verify_membership(W @ U @ W.conj().T, transport(C, W), threshold=1e-7 * n)
        assert before == after


def test_brute_force_family_2x2():
    # the commuting symmetric unitaries of diag(i, -i) on the grid are
    # exactly the antidiagonal phases [[0, v], [v, 0]]
    found = brute_force_2x2_members(1j, -1j, thresh=1e-6, n_r=31, n_phase=72)
    assert found
    U = np.diag([1j, -1j])
    W, layout = canonical_form(U)
    for A in found:
        assert abs(A[0, 0]) <= 1e-9 and abs(A[1, 1]) <= 1e-9
        v = A[0, 1]
        member = from_params(
            layout, W, ConjugationParams((np.array([[v]]),), np.zeros((0, 0)), np.zeros((0, 0)))
        )
        assert np.linalg.norm(member.matrix - A) <= 1e-6


def test_brute_force_finds_nothing_for_non_selfdual():
    assert brute_force_2x2_members(1j, 1j, thresh=1e-6, n_r=31, n_phase=72) == []


def test_search_3x3_dichotomy():
    good = min_commutation_defect_3x3(np.diag([1j, -1j, 1.0]), seed=0, n_starts=12)
    bad = min_commutation_defect_3x3(np.diag([1j, 1j, -1.0]), seed=0, n_starts=12)
    assert good <= 1e-6
    assert bad > 1e-3


def test_readme_library_sketch_runs():
    # the python block under README's "## Library sketch", run as written
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    sketch = readme.split("\n## Library sketch\n", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(compile(sketch.split("\n```", 1)[0], "README.md", "exec"), namespace)
    assert namespace["ok"]
