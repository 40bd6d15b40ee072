#!/usr/bin/env python3
"""Time the block-defect checks and print one JSON line.

Each case reads [best of 30 runs in milliseconds, tracemalloc peak of one
more run in MiB]; the peak counts what the case allocates beyond its
prebuilt inputs, output included:

- verify_n{16,64,512}: verify_membership of a member against a diagonal U
  with n/2 distinct conjugate pairs, one class per eigenvalue;
- fourier_512, hilbert_512, hilbert_1024: the transform model checks, as
  the benchmark's models workload runs them at N = 512;
- fourier_512_build: fourier_conjugation at N = 512 from prebuilt blocks;
- family_256.{identity_params,layout_conjugation,decompose}: the family
  engine's walk over the blocks of a Haar-rotated n = 256 unitary with 126
  simple conjugate pairs and +-1 blocks of size 2, the shape of the
  benchmark's cli-roundtrip input; decompose reads a seeded sample;
- hilbert_512_off: the N = 512 Hilbert member with one entry of 1e-3 off
  its blocks, which verify_membership checks on the dense path;
- shift_1024: the order-1024 squared-shift model built from random
  parameters, then its three defects;
- measure_report_{32,130}x4: field_conjugation_report of a Haar unitary
  field composed with the weighted reflection conjugation, over 32 and 130
  atoms (conjugate pairs only, weights in [0.1, 10]) with fiber 4; the
  benchmark's models workload reports on 32 atoms with fiber 4.

The line also carries the numpy version and the CPU count, so numbers from
two checkouts compare only when both lines come from the same host.
Run with the library on the path: PYTHONPATH=src python3 scripts/time_defects.py
"""

import json
import os
import time
import tracemalloc

import numpy as np

from conjugations.antilinear import AntilinearOperator
from conjugations.family import decompose, identity_params, layout_conjugation, sample
from conjugations.family import verify_membership
from conjugations.linalg import haar_unitary
from conjugations.measures import AtomicMeasure, FieldOperator, compose_fields
from conjugations.measures import field_conjugation_report, reflection_conjugation
from conjugations.shifts import SymbolParams, squared_shift_conjugation
from conjugations.spectral import BlockLayout, canonical_form, layout_diagonal
from conjugations.transforms import FourBlockModel, TwoBlockModel, fourier_conjugation
from conjugations.transforms import hilbert_conjugation, real_symmetric_orthogonal

RUNS = 30


def best_ms(fn):
    best = float("inf")
    for _ in range(RUNS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 4)


def peak_mib(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return round((tracemalloc.get_traced_memory()[1] - base) / 2**20, 2)
    finally:
        tracemalloc.stop()


def pairs_case(n):
    thetas = np.linspace(0.1, 3.0, n // 2)
    layout = BlockLayout(tuple((np.exp(1j * t), 1) for t in thetas), 0, 0)
    U = np.diag(layout_diagonal(layout))
    C = layout_conjugation(layout, identity_params(layout))
    return lambda: verify_membership(U, C)


def fourier_case(N, rng):
    m = N // 4
    fourier = fourier_conjugation(
        N, real_symmetric_orthogonal(m, rng), real_symmetric_orthogonal(m, rng), haar_unitary(m, rng)
    )
    F = FourBlockModel(N).matrix()
    return lambda: verify_membership(F, fourier)


def fourier_build_case(N, rng):
    m = N // 4
    O1, O2 = real_symmetric_orthogonal(m, rng), real_symmetric_orthogonal(m, rng)
    Ui = haar_unitary(m, rng)
    return lambda: fourier_conjugation(N, O1, O2, Ui)


def family_cases(rng):
    thetas = np.linspace(0.1, 3.0, 126)
    angles = np.concatenate([thetas, -thetas, [0.0, 0.0, np.pi, np.pi]])
    W = haar_unitary(256, rng)
    U = (W * np.exp(1j * angles)) @ W.conj().T
    C = sample(U, 1)
    layout = canonical_form(U)[1]
    params = identity_params(layout)
    return {"family_256.identity_params": lambda: identity_params(layout),
            "family_256.layout_conjugation": lambda: layout_conjugation(layout, params),
            "family_256.decompose": lambda: decompose(U, C)}


def hilbert_case(N, rng, off=False):
    A = hilbert_conjugation(N, haar_unitary(N // 2, rng)).matrix.copy()
    if off:
        A[0, 0] = 1e-3  # the i class with itself: off the blocks pairing i with -i
    H, C = TwoBlockModel(N).matrix(), AntilinearOperator(A)
    return lambda: verify_membership(H, C)


def shift_case(M, rng):
    L = M // 2
    params = SymbolParams(rng.uniform(0.0, 1.0, L), *rng.uniform(-np.pi, np.pi, (3, L)))

    def run():
        C = squared_shift_conjugation(params, M)
        C.isometry_defect(), C.involution_defect(), C.commutation_defect()

    return run


def measure_report_case(n_atoms, r, rng):
    angles = np.linspace(0.1, 3.0, n_atoms // 2)
    mu = AtomicMeasure(np.concatenate([angles, -angles]), rng.uniform(0.1, 10.0, n_atoms))
    haar = FieldOperator(mu, np.stack([haar_unitary(r, rng) for _ in range(n_atoms)]))
    field = compose_fields(haar, reflection_conjugation(mu, r))
    return lambda: field_conjugation_report(field)


def main():
    rng = np.random.default_rng(20261019)
    cases = {f"verify_n{n}": pairs_case(n) for n in (16, 64, 512)}
    cases.update(fourier_512=fourier_case(512, rng), hilbert_512=hilbert_case(512, rng),
                 shift_1024=shift_case(1024, rng), hilbert_1024=hilbert_case(1024, rng),
                 hilbert_512_off=hilbert_case(512, rng, off=True),
                 fourier_512_build=fourier_build_case(512, rng))
    cases.update(family_cases(rng))
    cases.update({f"measure_report_{n}x4": measure_report_case(n, 4, rng) for n in (32, 130)})
    line = {"numpy": np.__version__, "cpus": os.cpu_count()}
    line.update({name: [best_ms(fn), peak_mib(fn)] for name, fn in cases.items()})
    print(json.dumps(line))


if __name__ == "__main__":
    main()
