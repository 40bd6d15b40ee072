"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.
"""

import contextlib
import io
import json
import pathlib

import numpy as np

from conjugations.errors import AbsoluteContinuityError, NotSelfDualError
from conjugations.family import (
    ConjugationParams,
    canonical_conjugation,
    decompose,
    from_params,
    sample,
    verify_membership,
)
from conjugations.linalg import (
    four_unitary_split,
    haar_unitary,
    symmetric_unitary,
    unitarity_defect,
)
from conjugations.measures import (
    AtomicMeasure,
    FieldOperator,
    compose_fields,
    conjugate_pairing,
    field_conjugation_report,
    is_reflection_symmetric,
    radon_nikodym,
    reflection_conjugation,
)
from conjugations.shifts import (
    ModelConjugation,
    SymbolParams,
    UMultiplierConjugation,
    conjugate_indices,
    extract_symbol,
    grid_arguments,
    grid_points,
    squared_shift_conjugation,
)
from conjugations.spectral import canonical_form, check_selfdual
from conjugations.transforms import (
    FourBlockModel,
    TwoBlockModel,
    calibration_grid,
    dft_eigen_check,
    fourier_conjugation,
    hilbert_conjugation,
    real_symmetric_orthogonal,
)

from random_inputs import planted_selfdual, random_paired_measure
from _oracles import brute_force_2x2_members, pairing_rule_entrywise

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_existence_dichotomy():
    rng = np.random.default_rng(101)
    worst = 0.0
    agree = True
    for k in range(200):
        if k % 2 == 0:
            U, *_ = planted_selfdual(rng, max_dim=32)
        else:
            U = haar_unitary(int(rng.integers(2, 33)), rng)
        n = U.shape[0]
        selfdual = check_selfdual(U)[0]
        try:
            C = canonical_conjugation(U)
            constructed = True
        except NotSelfDualError:
            constructed = False
        agree = agree and (constructed == selfdual)
        if constructed:
            _, rep = verify_membership(U, C)
            defect = max(rep.isometry_defect, rep.involution_defect, rep.commutation_defect)
            worst = max(worst, defect / (1e-9 * n))
    ok = agree and worst <= 1.0
    _report(1, "existence dichotomy on 200 unitaries, defects <= 1e-9 n", ok,
            f"worst defect ratio {worst:.3f}")


def test_criterion_02_brute_force_completeness_2x2():
    U = np.diag([1j, -1j])
    found = brute_force_2x2_members(1j, -1j, thresh=1e-6, n_r=91, n_phase=360)
    # dedupe the grid hits (the corner phase is free once the modulus vanishes)
    stacked = np.round(np.stack(found).reshape(len(found), 4), 8)
    unique = np.unique(stacked, axis=0).reshape(-1, 2, 2)

    W, layout = canonical_form(U)
    phases = np.exp(2j * np.pi * np.arange(360) / 360)
    images = np.stack(
        [
            from_params(
                layout, W, ConjugationParams((np.array([[v]]),), np.zeros((0, 0)), np.zeros((0, 0)))
            ).matrix
            for v in phases
        ]
    )
    d1 = 0.0  # every found solution is one of the images
    for A in unique:
        d1 = max(d1, float(np.min(np.linalg.norm(images - A, axis=(1, 2)))))
    d2 = 0.0  # every image shows up among the found solutions
    for B in images:
        d2 = max(d2, float(np.min(np.linalg.norm(unique - B, axis=(1, 2)))))
    none_for_bad = brute_force_2x2_members(1j, 1j, thresh=1e-6, n_r=91, n_phase=360) == []
    ok = d1 <= 1e-6 and d2 <= 1e-6 and none_for_bad
    _report(2, "n=2 brute force equals the one-phase family", ok,
            f"set distances {d1:.2e}/{d2:.2e}, empty for diag(i,i): {none_for_bad}")


def test_criterion_03_parameter_round_trip():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        U, *_ = planted_selfdual(rng, max_dim=32)
        W, layout = canonical_form(U)
        params = ConjugationParams(
            tuple(haar_unitary(m, rng) for _, m in layout.pairs),
            symmetric_unitary(layout.ell, rng) if layout.ell else np.zeros((0, 0)),
            symmetric_unitary(layout.kay, rng) if layout.kay else np.zeros((0, 0)),
        )
        got = decompose(U, from_params(layout, W, params))
        err = 0.0
        for a, b in zip(got.v_blocks, params.v_blocks):
            err = max(err, float(np.max(np.abs(a - b))))
        if layout.ell:
            err = max(err, float(np.max(np.abs(got.q_plus - params.q_plus))))
        if layout.kay:
            err = max(err, float(np.max(np.abs(got.q_minus - params.q_minus))))
        worst = max(worst, err)
    ok = worst <= 1e-8
    _report(3, "decompose o from_params = identity on 100 models", ok, f"worst {worst:.2e}")


def test_criterion_04_radon_nikodym_fuzz():
    rng = np.random.default_rng(404)
    exact = True
    refusals_correct = True
    for k in range(1000):
        mu = random_paired_measure(rng, max_pairs=30, weight_span=(1e-3, 1e3))
        spiked = k % 2 == 1
        if spiked:
            # inject one unpaired non-real atom at a fresh angle
            extra = 2.9 + rng.uniform(0, 0.2)
            mu = AtomicMeasure(
                np.append(mu.thetas, extra), np.append(mu.weights, rng.uniform(0.5, 2.0))
            )
        assert mu.size <= 64
        try:
            h = radon_nikodym(mu)
            refused = False
        except AbsoluteContinuityError:
            refused = True
        if refused != spiked:
            refusals_correct = False
        if not refused:
            sigma, _ = conjugate_pairing(mu)
            if not np.all(h * h[sigma] == 1.0):
                exact = False
    ok = exact and refusals_correct
    _report(4, "1000-measure fuzz: h h(conj) == 1 exactly, refusal iff unpaired", ok)


def test_criterion_05_weighted_conjugation_contract():
    rng = np.random.default_rng(505)
    worst = 0.0
    equivalence = True
    for k in range(100):
        mu = random_paired_measure(rng, max_pairs=15, weight_span=(0.1, 10.0))
        assert mu.size <= 32
        r = int(rng.integers(1, 5))
        jsh = reflection_conjugation(mu, r)
        rep = field_conjugation_report(jsh)
        worst = max(worst, rep.isometry_defect, rep.involution_defect, rep.commutation_defect)

        sigma, _ = conjugate_pairing(mu)
        mats = np.zeros((mu.size, r, r), dtype=complex)
        symmetric_draw = k % 2 == 0
        for i in range(mu.size):
            if sigma[i] == i:
                mats[i] = symmetric_unitary(r, rng) if symmetric_draw else haar_unitary(r, rng)
            elif sigma[i] > i:
                mats[i] = haar_unitary(r, rng)
        for i in range(mu.size):
            if sigma[i] < i:
                # entrywise fiber conjugation: the reflected value must be the transpose
                mats[i] = mats[sigma[i]].T if symmetric_draw else haar_unitary(r, rng)
        field = FieldOperator(mu, mats)
        ok_criterion, _ = is_reflection_symmetric(field)
        comp_rep = field_conjugation_report(compose_fields(field, jsh))
        passes = (
            comp_rep.isometry_defect <= 1e-10
            and comp_rep.involution_defect <= 1e-10
            and comp_rep.commutation_defect <= 1e-10
        )
        if ok_criterion != passes:
            equivalence = False
    ok = worst <= 1e-12 and equivalence
    _report(5, "weighted conjugation defects <= 1e-12 and symmetry criterion equivalence", ok,
            f"worst defect {worst:.2e}")


def test_criterion_06_grid_families():
    rng = np.random.default_rng(606)
    worst = 0.0
    # scalar multiplier conjugations
    for M in (64, 512, 2048):
        phase = rng.uniform(-np.pi, np.pi, M)
        u = np.exp(1j * (phase + phase[conjugate_indices(M)]) / 2)
        C = UMultiplierConjugation(u)
        worst = max(worst, C.isometry_defect(), C.involution_defect(), C.commutation_defect())
    # named preset families at full size, random parameters at medium sizes
    tau = grid_arguments(1024)
    zeros = np.zeros(1024)
    presets = [
        SymbolParams(np.sin(np.abs(tau)), zeros, zeros, zeros),
        SymbolParams(np.full(1024, 0.5), np.abs(tau), zeros, zeros),
    ]
    for params in presets:
        C = squared_shift_conjugation(params, 2048)
        worst = max(worst, C.isometry_defect(), C.involution_defect(), C.commutation_defect())
    for M in (16, 128, 512):
        half = M // 2
        params = SymbolParams(
            rng.uniform(0, 1, half),
            rng.uniform(-np.pi, np.pi, half),
            rng.uniform(-np.pi, np.pi, half),
            rng.uniform(-np.pi, np.pi, half),
        )
        C = squared_shift_conjugation(params, M)
        worst = max(worst, C.isometry_defect(), C.involution_defect(), C.commutation_defect())
    defects_ok = worst <= 1e-11

    # completeness: a sampled member of the matrix family on the grid
    # operator decomposes into a reflection-compatible unitary symbol
    M = 64
    member = sample(np.diag(grid_points(M) ** 2), 2026)
    phi = extract_symbol(lambda v: member.matrix @ np.conj(v), M)
    rev = conjugate_indices(M // 2)
    sym = float(np.max(np.abs(phi.transpose(0, 2, 1) - phi[rev])))
    unit = float(np.max(np.abs(np.einsum("kji,kjl->kil", np.conj(phi), phi) - np.eye(2))))
    rebuild = float(np.max(np.abs(ModelConjugation(phi).matrix() - member.matrix)))
    extract_ok = sym <= 1e-8 and unit <= 1e-8 and rebuild <= 1e-8
    ok = defects_ok and extract_ok
    _report(6, "grid families defect suites <= 1e-11 and symbol extraction <= 1e-8", ok,
            f"worst defect {worst:.2e}, extraction {max(sym, unit, rebuild):.2e}")


def test_criterion_07_transform_families():
    # pairing rule confirmed from its definition before being assumed
    rng = np.random.default_rng(707)
    rule = 0.0
    for _ in range(10):
        Ui = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rule = max(rule, float(np.max(np.abs(pairing_rule_entrywise(Ui) - Ui.T))))
    rule_ok = rule <= 1e-15

    worst = 0.0
    for k in range(100):
        N = int(rng.choice([8, 16, 32, 64]))
        m = N // 4
        C = fourier_conjugation(
            N,
            real_symmetric_orthogonal(m, rng),
            real_symmetric_orthogonal(m, rng),
            haar_unitary(m, rng),
        )
        _, rep = verify_membership(FourBlockModel(N).matrix(), C)
        worst = max(worst, rep.isometry_defect, rep.involution_defect, rep.commutation_defect)
    for k in range(100):
        N = int(rng.choice([2, 6, 10, 26, 50]))
        C = hilbert_conjugation(N, haar_unitary(N // 2, rng))
        _, rep = verify_membership(TwoBlockModel(N).matrix(), C)
        worst = max(worst, rep.isometry_defect, rep.involution_defect, rep.commutation_defect)
    ok = rule_ok and worst <= 1e-12
    _report(7, "transform families: pairing oracle <= 1e-15, defects <= 1e-12", ok,
            f"rule {rule:.1e}, worst defect {worst:.2e}")


def test_criterion_08_four_unitary_split():
    rng = np.random.default_rng(808)
    ok = True
    worst_resid, worst_defect = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if rng.random() < 0.1:
            A = np.zeros((n, n))
        scale, factors = four_unitary_split(A)
        resid = float(np.linalg.norm(A - scale * sum(factors)))
        bound = 1e-9 * (1.0 + float(np.linalg.norm(A)))
        defect = max(unitarity_defect(u) for u in factors)
        worst_resid = max(worst_resid, resid / bound)
        worst_defect = max(worst_defect, defect)
        ok = ok and resid <= bound and defect <= 1e-9
    _report(8, "four-unitary reconstruction on 100 matrices", ok,
            f"worst residual ratio {worst_resid:.3f}, worst factor defect {worst_defect:.2e}")


def test_criterion_09_hermite_cross_check():
    with open(FIXTURES / "dft_residuals.json") as fh:
        fixture = json.load(fh)
    sizes = fixture["grid_sizes"]
    monotone = True
    within_fixture = True
    fresh = {}
    for N in sizes:
        grid = calibration_grid(N)
        fresh[N] = [dft_eigen_check(n, grid).residual for n in range(fixture["n_max"] + 1)]
        recorded = fixture["residuals"][str(N)]
        for a, b in zip(fresh[N], recorded):
            if abs(a - b) > 0.10 * b:
                within_fixture = False
    for n in range(fixture["n_max"] + 1):
        chain = [fresh[N][n] for N in sizes]
        if not (chain[0] >= chain[1] >= chain[2]):
            monotone = False
    ok = monotone and within_fixture
    _report(9, "Hermite residuals monotone over 128/256/512 and match fixture within 10%", ok)


def test_criterion_10_cli_goldens():
    from conjugations.cli import run

    with open(GOLDEN / "cases.json") as fh:
        cases = json.load(fh)
    inputs = GOLDEN / "inputs"
    all_ok = True
    for case in cases:
        argv = [a.replace("{IN}", str(inputs)) for a in case["argv"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        expected = (GOLDEN / "expected" / f"{case['name']}.out").read_text()
        if code != case["exit_code"] or buf.getvalue().replace(str(inputs), "{IN}") != expected:
            all_ok = False
    # the refusal message for the empty family is pinned verbatim
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run(["canonical", str(inputs / "u_bad.json")])
    message_ok = (
        code == 3
        and json.loads(buf.getvalue())["error"]["message"]
        == "C_c(U) is empty: eigenvalue i multiplicity 2, conjugate multiplicity 0"
    )
    ok = all_ok and message_ok
    _report(10, "CLI goldens byte-identical and exit taxonomy honored", ok)
