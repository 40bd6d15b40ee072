import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from conjugations.antilinear import _block_report
from conjugations.errors import InputError
from conjugations.family import sample
from conjugations.shifts import (
    ModelConjugation,
    SymbolParams,
    UMultiplierConjugation,
    analyze,
    conjugate_indices,
    extract_symbol,
    grid_arguments,
    grid_points,
    squared_shift_conjugation,
    symbol_field,
    synthesize,
)

from _oracles import membership_defects_dense, shift_apply_fft, shift_defects_dense


def random_grid(rng, M):
    return rng.normal(size=M) + 1j * rng.normal(size=M)


def random_params(rng, L):
    return SymbolParams(
        rng.uniform(0.0, 1.0, L),
        rng.uniform(-np.pi, np.pi, L),
        rng.uniform(-np.pi, np.pi, L),
        rng.uniform(-np.pi, np.pi, L),
    )


def test_analyze_constant():
    c0, c1 = analyze(np.ones(8), 2)
    assert np.allclose(c0, 1.0) and np.allclose(c1, 0.0)


def test_analyze_coordinate():
    M = 8
    c0, c1 = analyze(grid_points(M), 2)
    assert np.allclose(c0, 0.0, atol=1e-14) and np.allclose(c1, 1.0)


def test_analyze_synthesize_round_trip(rng):
    M, d = 32, 4
    f = random_grid(rng, M)
    comps = analyze(f, d)
    back = synthesize(comps)
    assert np.max(np.abs(back - f)) <= 1e-13
    # splitting identity at every grid point: f(xi) = sum_j xi^j f_j(xi^d),
    # where xi_m^d is the point at index m mod M/d of the quotient grid
    m = np.arange(M)
    xi = grid_points(M)
    direct = sum(xi**j * comps[j][m % (M // d)] for j in range(d))
    assert np.max(np.abs(direct - f)) <= 1e-12


def test_parseval(rng):
    f = random_grid(rng, 24)
    comps = analyze(f, 3)
    # the normalized grid norm: counting measure divided by the order
    assert np.mean(np.abs(f) ** 2) == pytest.approx(np.mean(np.abs(comps) ** 2, axis=-1).sum(), abs=1e-13)


def test_analyze_rejects_bad_degree():
    with pytest.raises(InputError, match="degree 3 must divide the grid order 8"):
        analyze(np.ones(8), 3)
    with pytest.raises(InputError, match="degree 0 must divide"):
        analyze(np.ones((2, 8)), 0)


@pytest.mark.parametrize("values", [np.zeros(0), np.zeros((3, 0)), np.array(1.0)], ids=["0", "3x0", "scalar"])
def test_analyze_rejects_empty_grid(values):
    with pytest.raises(InputError, match="grid order must be at least 1"):
        analyze(values, 1)


@pytest.mark.parametrize("components", [np.ones(4), np.zeros((0, 3)), np.zeros((2, 0))], ids=["1d", "0x3", "2x0"])
def test_synthesize_rejects_shapeless_components(components):
    with pytest.raises(InputError, match="components must have shape"):
        synthesize(components)


@pytest.mark.parametrize("M", [2, 6, 24, 1024])
def test_batch_transforms_act_row_by_row(rng, M):
    # a batch with the grid axis last is analyzed one grid function at a time,
    # bit for bit, and synthesize reads d off the leading component axis
    batch = rng.normal(size=(5, M)) + 1j * rng.normal(size=(5, M))
    for d in (d for d in range(1, M + 1) if M % d == 0):
        comps = analyze(batch, d)
        assert comps.shape == (d, 5, M // d)
        for i in range(5):
            assert np.array_equal(comps[:, i], analyze(batch[i], d))
        assert np.max(np.abs(synthesize(comps) - batch)) <= 1e-13


def test_shift_conjugation_plain():
    M = 8
    C = UMultiplierConjugation(np.ones(M))
    f = np.arange(M) + 1j
    rev = conjugate_indices(M)
    assert np.allclose(C.u * np.conj(f[rev]), np.conj(f[rev]))  # the action f -> u conj(f o conj)
    assert C.involution_defect() == 0.0
    assert C.commutation_defect() == 0.0


def test_shift_conjugation_even_phase(rng):
    for M in (16, 128, 4096):
        t = grid_arguments(M)
        C = UMultiplierConjugation(np.exp(1j * np.cos(t)))
        assert C.isometry_defect() <= 1e-12
        assert C.involution_defect() <= 1e-12
        assert C.commutation_defect() <= 1e-12


def test_shift_conjugation_rejects_odd_symbol():
    M = 16
    with pytest.raises(InputError):
        UMultiplierConjugation(grid_points(M))  # u(xi) = xi is odd
    with pytest.raises(InputError):
        UMultiplierConjugation(2 * np.ones(M))  # not unimodular


def test_shift_conjugation_symbol_window():
    # u is checked as a field of 1x1 blocks, at the ABS_TOL window of the 2x2 symbols
    M = 16
    C = UMultiplierConjugation(np.full(M, 1.0 + 2e-11))
    assert C.isometry_defect() <= 1e-9
    with pytest.raises(InputError, match="unitarity"):
        UMultiplierConjugation(np.full(M, 1.0 + 1e-9))
    for u in (np.ones((2, M)), np.ones(0), np.array(1.0)):
        with pytest.raises(InputError, match="non-empty 1-d grid array"):
            UMultiplierConjugation(u)


def test_symbol_field_top_row():
    L = 8
    t = grid_arguments(L)
    params = SymbolParams(np.ones(L), np.zeros(L), np.zeros(L), np.zeros(L))
    phi = symbol_field(params)
    assert np.allclose(phi[:, 0, 0], 1.0)
    assert np.allclose(phi[:, 0, 1], 0.0)
    assert np.allclose(phi[:, 1, 1], -1.0)
    params0 = SymbolParams(np.zeros(L), np.zeros(L), np.zeros(L), np.zeros(L))
    phi0 = symbol_field(params0)
    assert np.allclose(phi0[:, 0, 1], 1.0) and np.allclose(phi0[:, 1, 0], 1.0)
    assert np.allclose(phi0[:, 0, 0], 0.0) and np.allclose(phi0[:, 1, 1], 0.0)


def test_symbol_field_unitary_and_reflection_compatible(rng):
    L = 32
    phi = symbol_field(random_params(rng, L))
    rev = conjugate_indices(L)
    assert np.max(np.abs(np.einsum("kji,kjl->kil", np.conj(phi), phi) - np.eye(2))) <= 1e-12
    assert np.max(np.abs(phi.transpose(0, 2, 1) - phi[rev])) <= 1e-12


def test_symbol_field_rejects_bad_modulus():
    with pytest.raises(InputError):
        SymbolParams(np.array([1.5]), np.zeros(1), np.zeros(1), np.zeros(1))


def test_squared_shift_top_family(rng):
    # s = 1, phases 0: C f = f_1^#(xi^2) - xi f_2^#(xi^2)
    M = 16
    params = SymbolParams(np.ones(M // 2), *(np.zeros(M // 2),) * 3)
    C = squared_shift_conjugation(params, M)
    f = random_grid(rng, M)
    c0, c1 = analyze(f, 2)
    revh = conjugate_indices(M // 2)
    expect = synthesize([np.conj(c0[revh]), -np.conj(c1[revh])])
    assert np.max(np.abs(C.apply(f) - expect)) <= 1e-13


@pytest.mark.parametrize("M", [8, 64, 512, 2048])
def test_squared_shift_presets(M):
    tau = grid_arguments(M // 2)
    zeros = np.zeros(M // 2)
    sincos = SymbolParams(np.sin(np.abs(tau)), zeros, zeros, zeros)
    lam = SymbolParams(np.full(M // 2, 0.5), np.abs(tau), zeros, zeros)
    for params in (sincos, lam):
        C = squared_shift_conjugation(params, M)
        assert C.isometry_defect() <= 1e-11
        assert C.involution_defect() <= 1e-11
        assert C.commutation_defect() <= 1e-11


def _defects(C):
    return np.array([C.isometry_defect(), C.involution_defect(), C.commutation_defect()])


def fiber_report(A, M):
    """The block engine's report, or None off its blocks, for an order-M grid
    conjugation with matrix A: the fibers (p, p + M/2) of xi -> xi^2 as
    classes, each paired with its reflection and carrying xi^2."""
    half = M // 2
    return _block_report(A, np.tile(np.arange(half), 2), conjugate_indices(half), grid_points(half))


@pytest.mark.parametrize("M", [8, 16, 64, 256])
def test_squared_shift_defects_match_dense_oracle(rng, M):
    tau = grid_arguments(M // 2)
    zeros = np.zeros(M // 2)
    for params in (
        SymbolParams(np.sin(np.abs(tau)), zeros, zeros, zeros),
        SymbolParams(np.full(M // 2, 0.5), np.abs(tau), zeros, zeros),
        random_params(rng, M // 2),
        random_params(rng, M // 2),
    ):
        C = squared_shift_conjugation(params, M)
        dense = shift_defects_dense(C.matrix(), M)
        assert np.max(np.abs(_defects(C) - dense)) <= 1e-13
        # the dense action of a built model lives on the 2x2 fiber blocks alone
        off = C.matrix().copy()
        rows = conjugate_indices(M // 2)
        for p in range(M // 2):
            off[np.ix_([rows[p], rows[p] + M // 2], [p, p + M // 2])] = 0.0
        report = fiber_report(C.matrix(), M)
        assert not off.any() and report is not None
        assert astuple(report)[:3] == tuple(_defects(C))


@pytest.mark.parametrize("M", [2, 4, 6, 16, 1024])
def test_model_apply_matches_fft_oracle(rng, M):
    C = squared_shift_conjugation(random_params(rng, M // 2), M)
    wide = rng.normal(size=(3, 2 * M)) + 1j * rng.normal(size=(3, 2 * M))
    inputs = (
        np.eye(M, dtype=complex),
        rng.normal(size=(3, M)) + 1j * rng.normal(size=(3, M)),
        rng.normal(size=M) + 1j * rng.normal(size=M),
        wide[:, ::2],  # a non-contiguous view
    )
    for values in inputs:
        kept = values.copy()
        got = C.apply(values)
        assert got.shape == values.shape
        assert np.array_equal(got, shift_apply_fft(C.phi, values))
        assert np.array_equal(values, kept)


def test_model_apply_peak_memory(rng):
    M = 1024
    C = squared_shift_conjugation(random_params(rng, M // 2), M)
    eye = np.eye(M, dtype=complex)
    tracemalloc.start()
    try:
        C.apply(eye)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * M * M * 16, peak / (M * M * 16)


class LeakyConjugation(ModelConjugation):
    """A model whose apply also sends 1e-6 of each grid value to the next grid
    point, which is off its fiber's image whenever M/2 is even."""

    def apply(self, values):
        values = np.asarray(values, dtype=complex)
        return super().apply(values) + 1e-6 * np.roll(np.conj(values), 1, axis=-1)


@pytest.mark.parametrize("M", [8, 64, 1028])
def test_off_fiber_leak_raises_every_defect(rng, M):
    C = LeakyConjugation(symbol_field(random_params(rng, M // 2)))
    exact = shift_defects_dense(C.matrix(), M)
    got = _defects(C)
    assert np.all(got >= np.array(exact) * (1 - 1e-12)) and np.all(got > 1e-7), (got, exact)


@pytest.mark.parametrize("cls,M", [
    (ModelConjugation, 2),
    (ModelConjugation, 16),
    (ModelConjugation, 1030),  # 34 identity blocks, the last one 7 rows
    (ModelConjugation, 2048),
    (LeakyConjugation, 16),
    (LeakyConjugation, 1030),
])
def test_blocked_matrix_matches_unblocked_apply(rng, cls, M):
    C = cls(symbol_field(random_params(rng, M // 2)))
    dense = C.apply(np.eye(M, dtype=complex)).T
    assert np.array_equal(C.matrix(), dense)
    report = fiber_report(dense, M)
    assert (report is None) == (cls is LeakyConjugation)
    if report is None:  # off the fibers: the dense products against diag(xi^2), bit for bit
        D = np.diag(grid_points(M // 2)[np.arange(M) % (M // 2)])
        assert tuple(_defects(C)) == membership_defects_dense(dense, D)[:3]
    else:
        assert tuple(_defects(C)) == astuple(report)[:3]


def test_defects_release_the_dense_action(rng):
    # the defects build A once and keep only the report
    M = 1024
    C = squared_shift_conjugation(random_params(rng, M // 2), M)
    tracemalloc.start()
    try:
        _defects(C)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 16 * M * 16, held / (M * 16)


def test_model_matrix_peak_memory(rng):
    M = 1024
    C = squared_shift_conjugation(random_params(rng, M // 2), M)
    tracemalloc.start()
    try:
        C.matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * M * M * 16, peak / (M * M * 16)


def test_squared_shift_random_params(rng):
    for M in (8, 32, 128):
        C = squared_shift_conjugation(random_params(rng, M // 2), M)
        assert C.isometry_defect() <= 1e-11
        assert C.involution_defect() <= 1e-11
        assert C.commutation_defect() <= 1e-11


def test_sincos_matches_literal_multiplier_on_quarter_arc():
    # where all branch choices agree (|t| < pi/4) the first component
    # multiplier is sin(2|t|) + xi cos(2t)
    M = 64
    tau = grid_arguments(M // 2)
    params = SymbolParams(np.sin(np.abs(tau)), *(np.zeros(M // 2),) * 3)
    C = squared_shift_conjugation(params, M)
    t = grid_arguments(M)
    xi = grid_points(M)
    delta0 = synthesize([np.ones(M // 2), np.zeros(M // 2)])
    m1 = C.apply(delta0)  # f_1 = 1 is reflection invariant, so this is the multiplier
    mask = np.abs(t) < np.pi / 4
    literal = np.sin(2 * np.abs(t)) + xi * np.cos(2 * t)
    assert np.max(np.abs(m1[mask] - literal[mask])) <= 1e-12


def test_squared_shift_parity_errors():
    with pytest.raises(InputError):
        squared_shift_conjugation(SymbolParams(*(np.zeros(4),) * 4), 9)
    with pytest.raises(InputError):
        squared_shift_conjugation(SymbolParams(*(np.zeros(3),) * 4), 8)


def test_model_conjugation_reads_its_order_from_the_symbol(rng):
    phi = symbol_field(random_params(rng, 5))
    assert ModelConjugation(phi).order == 10
    with pytest.raises(InputError, match="grid order must be at least 1"):
        ModelConjugation(np.zeros((0, 2, 2)))
    with pytest.raises(InputError, match=r"symbol must have shape \(5, 2, 2\)"):
        ModelConjugation(phi[:, :1])


def test_extract_symbol_completeness(rng):
    # a random member of the commuting family of the squared shift, produced
    # by the matrix-family sampler, carries a pointwise 2x2 symbol that is
    # unitary, reflection compatible, and rebuilds the same operator
    for M, seed in ((16, 1), (64, 7)):
        D = np.diag(grid_points(M) ** 2)
        member = sample(D, seed)
        phi = extract_symbol(lambda v: member.matrix @ np.conj(v), M)
        rev = conjugate_indices(M // 2)
        assert np.max(np.abs(phi.transpose(0, 2, 1) - phi[rev])) <= 1e-8
        assert np.max(np.abs(np.einsum("kji,kjl->kil", np.conj(phi), phi) - np.eye(2))) <= 1e-8
        rebuilt = ModelConjugation(phi)
        assert np.max(np.abs(rebuilt.matrix() - member.matrix)) <= 1e-8


def _loop_extract_symbol(apply_fn, order):
    """Reference extraction: one apply_fn call per delta of each model component."""
    half = order // 2
    rev = conjugate_indices(half)
    phi = np.empty((half, 2, 2), dtype=complex)
    for j in range(2):
        for p in range(half):
            comps = np.zeros((2, half), dtype=complex)
            comps[j, p] = 1.0
            out = analyze(apply_fn(synthesize(comps)), 2)
            # the delta at z_p lands at conj(z_p) = z_{rev[p]}
            phi[rev[p], :, j] = out[:, rev[p]]
    return phi


def test_extract_symbol_matches_loop_oracle(rng):
    calls = []

    def counted(fn):
        def wrapped(v):
            calls.append(np.shape(v))
            return fn(v)
        return wrapped

    for M in (8, 64, 1024):
        C = squared_shift_conjugation(random_params(rng, M // 2), M)
        calls.clear()
        phi = extract_symbol(counted(C.apply), M)
        assert calls == [(M,), (M,)]
        assert np.max(np.abs(phi - _loop_extract_symbol(C.apply, M))) <= 1e-13
        assert np.max(np.abs(phi - C.phi)) <= 1e-13
    M = 64
    member = sample(np.diag(grid_points(M) ** 2), 11)
    apply_member = lambda v: member.matrix @ np.conj(v)  # noqa: E731
    phi = extract_symbol(apply_member, M)
    assert np.max(np.abs(phi - _loop_extract_symbol(apply_member, M))) <= 1e-13


def test_model_conjugation_matches_grid_member(rng):
    # the squared-shift model conjugations are members of the matrix family
    from conjugations.family import verify_membership
    from conjugations.antilinear import AntilinearOperator

    M = 32
    C = squared_shift_conjugation(random_params(rng, M // 2), M)
    D = np.diag(grid_points(M) ** 2)
    ok, report = verify_membership(D, AntilinearOperator(C.matrix()))
    assert ok, report


def test_semicircle_subspace_invariance(rng):
    # grid version of the folded-support subspaces: supported where |t| < pi/2
    # and even across conjugation; invariant for every multiplier conjugation
    M = 64
    t = grid_arguments(M)
    rev = conjugate_indices(M)
    for seed in range(20):
        g = np.where(np.abs(t) < np.pi / 2, rng.normal(size=M) + 1j * rng.normal(size=M), 0.0)
        g = (g + g[rev]) / 2  # even part, still supported on the arc
        phase = rng.uniform(-np.pi, np.pi, M)
        u = np.exp(1j * (phase + phase[rev]) / 2)  # even unimodular
        C = UMultiplierConjugation(u)
        out = C.u * np.conj(g[rev])  # the action f -> u conj(f o conj)
        assert np.max(np.abs(out[np.abs(t) >= np.pi / 2])) <= 1e-14
        assert np.max(np.abs(out - out[rev])) <= 1e-12

