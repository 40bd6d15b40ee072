#!/usr/bin/env python3
"""Survey the commuting-conjugation machinery on random inputs.

Draws self-dual and generic unitaries, walks the construct / sample /
decompose pipeline plus the measure, grid, and transform families, and
tabulates the worst defects seen.  Useful as a quick end-to-end health check
and for eyeballing how the defects scale with dimension.
"""

import argparse

import numpy as np

from conjugations.errors import NotSelfDualError
from conjugations.family import canonical_conjugation, decompose, from_params, sample, verify_membership
from conjugations.linalg import haar_unitary
from conjugations.measures import field_conjugation_report, reflection_conjugation
from conjugations.shifts import (
    SymbolParams,
    UMultiplierConjugation,
    conjugate_indices,
    grid_points,
    squared_shift_conjugation,
)
from conjugations.spectral import canonical_form, check_selfdual
from conjugations.transforms import (
    FourBlockModel,
    TwoBlockModel,
    fourier_conjugation,
    hilbert_conjugation,
    real_symmetric_orthogonal,
)

from random_inputs import planted_selfdual, random_paired_measure


def survey_matrices(rng, rounds, max_dim):
    worst = {"canonical": 0.0, "sample": 0.0, "roundtrip": 0.0}
    empty = 0
    for k in range(rounds):
        if k % 2 == 0:
            U, *_ = planted_selfdual(rng, max_dim=max_dim)
        else:
            U = haar_unitary(int(rng.integers(2, max_dim + 1)), rng)
        n = U.shape[0]
        try:
            C = canonical_conjugation(U)
        except NotSelfDualError:
            empty += 1
            assert not check_selfdual(U)[0]
            continue
        _, rep = verify_membership(U, C)
        worst["canonical"] = max(worst["canonical"], rep.commutation_defect / n)
        member = sample(U, int(rng.integers(0, 2**31)))
        _, rep = verify_membership(U, member)
        worst["sample"] = max(worst["sample"], rep.commutation_defect / n)
        W, layout = canonical_form(U)
        rebuilt = from_params(layout, W, decompose(U, member))
        worst["roundtrip"] = max(
            worst["roundtrip"], float(np.max(np.abs(rebuilt.matrix - member.matrix))) / n
        )
    return worst, empty


def survey_measures(rng, rounds):
    worst = 0.0
    for _ in range(rounds):
        mu = random_paired_measure(rng)
        rep = field_conjugation_report(reflection_conjugation(mu, int(rng.integers(1, 5))))
        worst = max(worst, rep.isometry_defect, rep.involution_defect, rep.commutation_defect)
    return worst


def survey_grids(rng, order):
    t = np.angle(grid_points(order))
    rev = conjugate_indices(order)
    phase = rng.uniform(-np.pi, np.pi, order)
    u = np.exp(1j * (phase + phase[rev]) / 2)
    uc = UMultiplierConjugation(u)
    half = order // 2
    params = SymbolParams(
        rng.uniform(0, 1, half),
        rng.uniform(-np.pi, np.pi, half),
        rng.uniform(-np.pi, np.pi, half),
        rng.uniform(-np.pi, np.pi, half),
    )
    mc = squared_shift_conjugation(params, order)
    return max(
        uc.isometry_defect(), uc.involution_defect(), uc.commutation_defect(),
        mc.isometry_defect(), mc.involution_defect(), mc.commutation_defect(),
    )


def survey_transforms(rng, size):
    m = size // 4
    Cf = fourier_conjugation(
        size,
        real_symmetric_orthogonal(m, rng),
        real_symmetric_orthogonal(m, rng),
        haar_unitary(m, rng),
    )
    _, rf = verify_membership(FourBlockModel(size).matrix(), Cf)
    Ch = hilbert_conjugation(size, haar_unitary(size // 2, rng))
    _, rh = verify_membership(TwoBlockModel(size).matrix(), Ch)
    return max(
        rf.isometry_defect, rf.involution_defect, rf.commutation_defect,
        rh.isometry_defect, rh.involution_defect, rh.commutation_defect,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--max-dim", type=int, default=32)
    parser.add_argument("--grid-order", type=int, default=256)
    parser.add_argument("--transform-size", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    worst, empty = survey_matrices(rng, args.rounds, args.max_dim)
    print(f"matrices ({args.rounds} draws, {empty} with empty families):")
    for key, val in worst.items():
        print(f"  {key:10s} worst defect / n = {val:.3e}")
    print(f"measures   worst defect = {survey_measures(rng, args.rounds):.3e}")
    print(f"grids      worst defect = {survey_grids(rng, args.grid_order):.3e}")
    print(f"transforms worst defect = {survey_transforms(rng, args.transform_size):.3e}")


if __name__ == "__main__":
    main()
