"""Workload definitions: seeded job inputs and the library calls one job makes.

Library functions are called through their module (``family.sample``, not a
name imported from it), so the wrappers spans.install puts on module
attributes see every call the benchmark makes.
"""

import json
import os
import subprocess
import time

import numpy as np

import inputs
from checker import transform_contract

HERMITE_N, HERMITE_GRID = 8, 512  # the Hermite check of acceptance criterion 9

# Matrix sizes of the full workloads; the benchmark's tests pass smaller ones.
SIZES = {
    "cli-roundtrip": 256,
    "lib-generic": 256,
    "lib-degenerate": 512,
    # measure pairs, fiber, grid order, transform size, Ginibre size
    "models": (15, 4, 1024, 512, 256),
}
TINY_SIZES = {
    "cli-roundtrip": 8,
    "lib-generic": 8,
    "lib-degenerate": 20,
    "models": (3, 2, 16, 16, 4),
}
WORKLOADS = tuple(SIZES)


def make_input(workload, rng, size):
    """Inputs of one job, drawn from rng; size is SIZES[workload] or smaller."""
    if workload == "lib-generic":
        U, planted = inputs.generic_unitary(rng, size)
    elif workload == "lib-degenerate":
        U, planted = inputs.degenerate_unitary(rng, size)
    elif workload == "cli-roundtrip":
        # distinct pairs plus two-dimensional +1 and -1 blocks, so the CLI
        # also samples symmetric unitary blocks and snaps clusters to +-1
        U, planted = inputs.planted_selfdual(rng, [1] * (size // 2 - 2), 2, 2)
    if workload != "models":
        inp = {"U": U, "planted": planted, "sample_seed": int(rng.integers(2**31))}
        if workload == "cli-roundtrip":
            inp["V"] = inputs.haar_unitary(size, rng)
        return inp
    npairs, fiber, order, tsize, gsize = size
    m = tsize // 4
    return {
        "measure": inputs.paired_measure(rng, npairs),
        "fiber": fiber,
        "field": inputs.reflection_symmetric_field(rng, npairs, fiber),
        "order": order,
        "symbol": inputs.symbol_params(rng, order // 2),
        "tsize": tsize,
        "fourier": (
            inputs.real_symmetric_orthogonal(m, rng),
            inputs.real_symmetric_orthogonal(m, rng),
            inputs.haar_unitary(m, rng),
        ),
        "hilbert": inputs.haar_unitary(tsize // 2, rng),
        "ginibre": rng.standard_normal((gsize, gsize)) + 1j * rng.standard_normal((gsize, gsize)),
    }


def matrix_job(inp):
    """sample, verify_membership, decompose, canonical_form + from_params rebuild."""
    from conjugations import family, spectral

    U = inp["U"]
    C = family.sample(U, inp["sample_seed"])
    passed, _ = family.verify_membership(U, C)
    params = family.decompose(U, C)
    W, layout = spectral.canonical_form(U)
    rebuilt = family.from_params(layout, W, params)
    return {
        "C": C.matrix,
        "rebuilt": rebuilt.matrix,
        "passed": passed,
        "layout": (tuple(m for _, m in layout.pairs), layout.ell, layout.kay),
    }


def models_job(inp):
    """Measure model, squared-shift grid model, transform models, Hermite check, split."""
    from conjugations import family, linalg, measures, shifts, spectral, transforms

    out = {}
    thetas, weights = inp["measure"]
    mu = measures.AtomicMeasure(thetas, weights)
    field = measures.FieldOperator(mu, inp["field"])
    model = spectral.MultiplicityModel(components=((mu, inp["fiber"]),))
    ds = measures.assemble_model(model, unitary_fields=[field])
    out["assembled"] = ds
    rep = ds.report()
    out["measure_defects"] = (rep.isometry_defect, rep.involution_defect, rep.commutation_defect)
    npairs = (thetas.size - 2) // 2
    points = np.exp(1j * thetas)
    # the first pair with its conjugate is invariant; the first atom alone is not
    out["probe_closed"] = measures.invariance_probe(ds, points[[0, npairs]])
    out["probe_open"] = measures.invariance_probe(ds, points[[0]])

    order = inp["order"]
    conj = shifts.squared_shift_conjugation(shifts.SymbolParams(*inp["symbol"]), order)
    out["shift_defects"] = (
        conj.isometry_defect(),
        conj.involution_defect(),
        conj.commutation_defect(),
    )
    out["shift"] = conj
    out["extracted"] = shifts.extract_symbol(conj.apply, order)

    N = inp["tsize"]
    fourier = transforms.fourier_conjugation(N, *inp["fourier"])
    hilbert = transforms.hilbert_conjugation(N, inp["hilbert"])
    out["transforms"] = []
    for C, model_matrix in (
        (fourier, transforms.FourBlockModel(N).matrix()),
        (hilbert, transforms.TwoBlockModel(N).matrix()),
    ):
        passed, _ = family.verify_membership(model_matrix, C, threshold=transform_contract(N))
        out["transforms"].append((C.matrix, passed))

    res = transforms.dft_eigen_check(HERMITE_N, transforms.calibration_grid(HERMITE_GRID))
    out["hermite"] = (res.residual, res.grid_supported)

    out["split"] = (inp["ginibre"],) + linalg.four_unitary_split(inp["ginibre"])
    return out


def models_operators(inp, out):
    """Replace the live operators in a models job's outputs by their dense action.

    Runs after the job's clock stops.  The assembled measure conjugation
    becomes the images of the weighted orthonormal basis, the squared-shift
    conjugation its matrix on the grid, so checker.py can recompute every
    defect with numpy.
    """
    from conjugations import measures

    (block,) = out.pop("assembled").blocks
    weights = inp["measure"][1]
    n, r = weights.size, inp["fiber"]
    images = np.empty((n * r, n, r), dtype=complex)
    for j in range(n * r):
        vals = np.zeros((n, r), dtype=complex)
        vals[j // r, j % r] = 1.0 / np.sqrt(weights[j // r])
        images[j] = block.apply(measures.WeightedSpaceElement(block.measure, vals)).values
    out["measure_images"] = images
    out["shift_matrix"] = out.pop("shift").apply(np.eye(inp["order"], dtype=complex)).T
    return out


CLI_TIMEOUT_S = 150  # per CLI process; a hung child fails its job


def write_cli_inputs(inp, workdir):
    """Write U and V in the CLI matrix format; return the paths a job uses."""
    paths = {k: os.path.join(workdir, f"{k}.json") for k in "UVCP"}
    for k in "UV":
        with open(paths[k], "w") as fh:
            fh.write(json.dumps(inputs.matrix_json(inp[k])))
    return paths


def cli_argvs(paths, sample_seed):
    """The four commands of one round trip; the last one must be refused."""
    U, V, C, P = (paths[k] for k in "UVCP")
    return [
        ["sample", U, "--seed", str(sample_seed), "-o", C],
        ["verify", U, C],
        ["decompose", U, C, "-o", P],
        ["canonical", V],
    ]


def cli_job(argvs, launcher):
    """Run the commands one process at a time.

    Returns (command, exit code, stdout, start, end) per step; launcher maps
    a CLI argv to the full process command line.
    """
    steps = []
    for argv in argvs:
        start = time.perf_counter()
        proc = subprocess.run(launcher(argv), capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        steps.append((argv[0], proc.returncode, proc.stdout, start, time.perf_counter()))
    return steps


def cli_bytes(paths, steps):
    """Bytes the CLI read from files and wrote to files and stdout in one job."""
    size = {k: os.path.getsize(paths[k]) for k in "UVCP" if os.path.exists(paths[k])}
    read = size["U"] * 3 + size.get("C", 0) * 2 + size["V"]
    written = size.get("C", 0) + size.get("P", 0) + sum(len(s[2].encode()) for s in steps)
    return read, written
