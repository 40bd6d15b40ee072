#!/usr/bin/env python3
"""Time the block-defect checks and print one JSON line.

Each case is the best of 30 runs in milliseconds:

- verify_n{16,64,512}: verify_membership of a member against a diagonal U
  with n/2 distinct conjugate pairs, one class per eigenvalue;
- fourier_512, hilbert_512: the N = 512 transform model checks, as the
  benchmark's models workload runs them;
- shift_1024: the order-1024 squared-shift model built from random
  parameters, then its three defects.

The line also carries the numpy version and the CPU count, so numbers from
two checkouts compare only when both lines come from the same host.
Run with the library on the path: PYTHONPATH=src python3 scripts/time_defects.py
"""

import json
import os
import time

import numpy as np

from conjugations.family import identity_params, layout_conjugation, verify_membership
from conjugations.linalg import haar_unitary
from conjugations.shifts import SymbolParams, squared_shift_conjugation
from conjugations.spectral import BlockLayout, layout_diagonal
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


def pairs_case(n):
    thetas = np.linspace(0.1, 3.0, n // 2)
    layout = BlockLayout(tuple((np.exp(1j * t), 1) for t in thetas), 0, 0)
    U = np.diag(layout_diagonal(layout))
    C = layout_conjugation(layout, identity_params(layout))
    return lambda: verify_membership(U, C)


def transform_cases(N, rng):
    m = N // 4
    fourier = fourier_conjugation(
        N, real_symmetric_orthogonal(m, rng), real_symmetric_orthogonal(m, rng), haar_unitary(m, rng)
    )
    hilbert = hilbert_conjugation(N, haar_unitary(N // 2, rng))
    F, H = FourBlockModel(N).matrix(), TwoBlockModel(N).matrix()
    return lambda: verify_membership(F, fourier), lambda: verify_membership(H, hilbert)


def shift_case(M, rng):
    L = M // 2
    params = SymbolParams(rng.uniform(0.0, 1.0, L), *rng.uniform(-np.pi, np.pi, (3, L)))

    def run():
        C = squared_shift_conjugation(params, M)
        C.isometry_defect(), C.involution_defect(), C.commutation_defect()

    return run


def main():
    rng = np.random.default_rng(20261019)
    fourier, hilbert = transform_cases(512, rng)
    cases = {f"verify_n{n}": pairs_case(n) for n in (16, 64, 512)}
    cases.update(fourier_512=fourier, hilbert_512=hilbert, shift_1024=shift_case(1024, rng))
    line = {"numpy": np.__version__, "cpus": os.cpu_count()}
    line.update({name: best_ms(fn) for name, fn in cases.items()})
    print(json.dumps(line))


if __name__ == "__main__":
    main()
