#!/usr/bin/env python3
"""Time the block-defect checks and print one JSON line.

Each case reads [best of 30 runs in milliseconds, tracemalloc peak of one
more run in MiB]; the peak counts what the case allocates beyond its
prebuilt inputs, output included:

- verify_n{16,64,512}: verify_membership of a member against a diagonal U
  with n/2 distinct conjugate pairs, one class per eigenvalue;
- fourier_512, hilbert_512, hilbert_1024: the transform model checks, as
  the benchmark's models workload runs them at N = 512;
- hilbert_512_off: the N = 512 Hilbert member with one entry of 1e-3 off
  its blocks, which verify_membership checks on the dense path;
- shift_1024: the order-1024 squared-shift model built from random
  parameters, then its three defects.

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


def main():
    rng = np.random.default_rng(20261019)
    cases = {f"verify_n{n}": pairs_case(n) for n in (16, 64, 512)}
    cases.update(fourier_512=fourier_case(512, rng), hilbert_512=hilbert_case(512, rng),
                 shift_1024=shift_case(1024, rng), hilbert_1024=hilbert_case(1024, rng),
                 hilbert_512_off=hilbert_case(512, rng, off=True))
    line = {"numpy": np.__version__, "cpus": os.cpu_count()}
    line.update({name: [best_ms(fn), peak_mib(fn)] for name, fn in cases.items()})
    print(json.dumps(line))


if __name__ == "__main__":
    main()
