"""Relations the theorem's symmetries give without an oracle.

For a unitary R, C_c(R U R*) = R C_c(U) R*, whose matrices are R A R^t;
U^t has U's spectrum; and taking adjoints of C U C = U gives
C_c(U*) = C_c(U).  The U <-> U* exit-code relation is left out: the
self-duality verdict on U and on U* can differ near its cluster boundary.
"""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conjugations.antilinear import AntilinearOperator
from conjugations.cli import matrix_to_dict, run, save_json
from conjugations.family import canonical_conjugation, decompose, from_params, sample
from conjugations.family import verify_membership
from conjugations.linalg import haar_unitary
from conjugations.spectral import canonical_form

from random_inputs import planted_selfdual


def exit_codes(path):
    codes = []
    for command in (["check"], ["canonical"], ["sample", "--seed", "3"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(run([*command, str(path)]))
    return codes


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_exit_codes_agree_on_transpose_and_rotation(tmp_path_factory, seed):
    # a self-dual U, and the same U turned by a random phase, which is not
    # self-dual: each gives the same exit codes as its transpose and as R U R*
    rng = np.random.default_rng(seed)
    U = planted_selfdual(rng, max_dim=10)[0]
    R = haar_unitary(len(U), rng)
    folder = tmp_path_factory.mktemp("metamorphic")
    for base in (U, np.exp(1j * rng.uniform(0.1, 3.0)) * U):
        codes = []
        for name, V in (("u", base), ("ut", base.T), ("rur", R @ base @ R.conj().T)):
            save_json(folder / f"{name}.json", matrix_to_dict(V))
            codes.append(exit_codes(folder / f"{name}.json"))
        assert codes[0] == codes[1] == codes[2]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_members_pass_against_the_adjoint_and_the_rotated_unitary(seed):
    rng = np.random.default_rng(seed)
    U = planted_selfdual(rng, max_dim=12)[0]
    R = haar_unitary(len(U), rng)
    rotated = R @ U @ R.conj().T
    for C in (canonical_conjugation(U), sample(U, int(rng.integers(2**31)))):
        assert verify_membership(U.conj().T, C)[0]
        moved = AntilinearOperator(R @ C.matrix @ R.T)
        assert verify_membership(rotated, moved)[0]
        W, layout = canonical_form(rotated)
        assert verify_membership(rotated, from_params(layout, W, decompose(rotated, moved)))[0]
