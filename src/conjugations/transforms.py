"""Coordinate models of the Fourier and Hilbert transforms with their
commuting conjugation families, plus a sampled-grid Hermite cross-check.

The transform models live in eigencoordinates, where both operators are
diagonal with four (respectively two) eigenvalue classes.  Their families are
the general family of family.layout_conjugation on a fixed BlockLayout, one
conjugate pair (i, -i) plus the real classes:

- Fourier, spectrum (1, -i, -1, i): BlockLayout(((1j, m),), m, m) with
  m = N/4; Ui fills the pair block (it maps the -i class to the i class),
  O1 and O2 fill the +1 and -1 blocks, each written straight to the strided
  positions of its classes.
- Hilbert, spectrum (i, -i): BlockLayout(((1j, N/2),), 0, 0), already in
  class order; the pair block is Ui^t, since Ui maps the i half to the -i
  half.

The real blocks O1, O2 are restricted to the real symmetric orthogonal
sub-family (reflections), a documented subset of the symmetric unitaries the
general family allows there.  The analytic side is represented only through
the quadrature cross-check, which verifies that sampled Hermite functions are
approximate (-i)^n eigenvectors of a centered discrete Fourier operator with
residuals that shrink under grid refinement.
"""

from dataclasses import dataclass

import numpy as np

from .antilinear import AntilinearOperator
from .errors import InputError
from .family import ConjugationParams, _validate_params, layout_conjugation
from .linalg import DECAY_RATIO, GRID_TOL, threshold
from .spectral import BlockLayout


@dataclass(frozen=True)
class FourBlockModel:
    """Diagonal model of the Fourier transform: e_n is an eigenvector for
    (-i)^n, classes indexed by n mod 4, each of size N/4."""

    size: int

    def __post_init__(self):
        if self.size <= 0 or self.size % 4:
            raise InputError("four-block model size must be a positive multiple of 4")

    def matrix(self):
        # (-i)^n read from a table: the power rounds off the axes for n > 64
        return np.diag(np.array([1, -1j, -1, 1j])[np.arange(self.size) % 4])


@dataclass(frozen=True)
class TwoBlockModel:
    """Diagonal model of the Hilbert transform: i on the first half of the
    basis, -i on the second."""

    size: int

    def __post_init__(self):
        if self.size <= 0 or self.size % 2:
            raise InputError("two-block model size must be a positive even number")

    def matrix(self):
        half = self.size // 2
        return np.diag(np.concatenate([np.full(half, 1j), np.full(half, -1j)]))


def _require_real(O, m, name):
    """O as a real m x m array.  Orthogonality and symmetry are the family
    engine's checks on the real blocks (q_plus / q_minus)."""
    O = np.asarray(O, dtype=complex)
    if O.shape != (m, m):
        raise InputError(f"{name} must be {m}x{m}, got {O.shape}")
    if m and np.max(np.abs(O.imag)) > threshold(np.sqrt(m)):
        raise InputError(f"{name} must have real entries")
    return O.real


def fourier_conjugation(N, O1, O2, Ui):
    """Commuting conjugation of the diagonal Fourier model.

    In class order (1, -i, -1, i) the matrix of the antilinear part is

        [ O1  0   0   0    ]
        [ 0   0   0   Ui^t ]
        [ 0   0   O2  0    ]
        [ 0   Ui  0   0    ]

    with O1, O2 real symmetric orthogonal on the real eigenvalue classes (the
    explicit sub-family kept here) and Ui an arbitrary unitary mapping the -i
    class to the i class.  The parameters are those of the family engine on
    BlockLayout(((1j, N/4),), N/4, N/4) with pair block Ui, checked by its
    _validate_params; class k holds the indices k::4, where the four nonzero
    blocks are written directly.
    """
    FourBlockModel(N)
    m = N // 4
    params = ConjugationParams((Ui,), _require_real(O1, m, "O1"), _require_real(O2, m, "O2"))
    _validate_params(BlockLayout(pairs=((1j, m),), ell=m, kay=m), params)
    (Ui,) = params.v_blocks
    A = np.zeros((N, N), dtype=complex)
    A[0::4, 0::4] = params.q_plus
    A[1::4, 3::4] = Ui.T
    A[2::4, 2::4] = params.q_minus
    A[3::4, 1::4] = Ui
    return AntilinearOperator(A)


def hilbert_conjugation(N, Ui):
    """Commuting conjugation of the diagonal Hilbert model.

    Block antidiagonal [[0, Ui^t], [Ui, 0]] in front of entrywise
    conjugation; Ui is an arbitrary unitary mapping the i half to the -i
    half.  Built by layout_conjugation on BlockLayout(((1j, N/2),), 0, 0)
    with pair block Ui^t; the layout's slots are already in class order.
    """
    TwoBlockModel(N)
    layout = BlockLayout(pairs=((1j, N // 2),), ell=0, kay=0)
    params = ConjugationParams((np.transpose(Ui),), np.eye(0), np.eye(0))
    return layout_conjugation(layout, params)


def real_symmetric_orthogonal(n, seed):
    """Random real symmetric orthogonal matrix (a random reflection).

    Built as Q diag(+-1) Q^t with Q Haar real orthogonal; these are exactly
    the real orthogonal matrices that square to the identity.
    """
    if n < 1:
        raise InputError("real_symmetric_orthogonal needs n >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diagonal(r))
    signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
    s = (q * signs) @ q.T
    return (s + s.T) / 2


def require_centered_grid(grid):
    """Validate a uniform grid symmetric about zero and return (x, dx)."""
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InputError("grid must be a 1-d array with at least two points")
    dx = np.diff(x)
    if np.max(np.abs(dx - dx[0])) > GRID_TOL * abs(dx[0]):
        raise InputError("grid must be uniform")
    if np.max(np.abs(x + x[::-1])) > GRID_TOL * abs(dx[0]):
        raise InputError("grid must be symmetric about zero")
    return x, float(dx[0])


def hermite_samples(n_max, grid):
    """Sampled orthonormal Hermite functions h_0..h_n_max with support flags.

    The three-term recurrence on the weighted functions
    h_{n+1} = x sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1} is stable because
    the Gaussian weight is carried along.  A function whose mass has not
    decayed at the grid boundary gets its flag cleared instead of raising;
    its samples are still returned.
    """
    if n_max < 0:
        raise InputError("n_max must be nonnegative")
    x, _ = require_centered_grid(grid)
    h = np.zeros((n_max + 1, x.size))
    h[0] = np.pi ** -0.25 * np.exp(-x * x / 2)
    if n_max >= 1:
        h[1] = np.sqrt(2.0) * x * h[0]
    for n in range(1, n_max):
        h[n + 1] = np.sqrt(2.0 / (n + 1)) * x * h[n] - np.sqrt(n / (n + 1)) * h[n - 1]
    peak = np.max(np.abs(h), axis=1)
    edge = np.maximum(np.abs(h[:, 0]), np.abs(h[:, -1]))
    # two decades of decay before the boundary; oscillation spilling over the
    # edge (turning point beyond the grid) lands at ratios near one
    supported = edge <= DECAY_RATIO * np.where(peak > 0, peak, 1.0)
    return h, supported


def fourier_quadrature(grid):
    """Centered discrete Fourier operator: the transform integral by quadrature.

    G[k, j] = dx / sqrt(2 pi) * exp(-i x_k x_j), the Riemann sum for the
    Fourier-Plancherel integral evaluated back on the same grid.
    """
    x, dx = require_centered_grid(grid)
    return (dx / np.sqrt(2 * np.pi)) * np.exp(-1j * np.outer(x, x))


@dataclass(frozen=True)
class EigenCheckResult:
    residual: float
    grid_supported: bool


def dft_eigen_check(n, grid):
    """Relative residual of the sampled h_n as a (-i)^n eigenvector.

    residual = ||G h_n - (-i)^n h_n|| / ||h_n|| for the quadrature operator
    G on the grid.  No fixed tolerance is promised; the meaningful property
    is that the residual shrinks as the grid is refined, until roundoff.
    """
    h, supported = hermite_samples(n, grid)
    G = fourier_quadrature(grid)
    hn = h[n]
    residual = float(np.linalg.norm(G @ hn - (-1j) ** n * hn) / np.linalg.norm(hn))
    return EigenCheckResult(residual=residual, grid_supported=bool(supported[n]))


def calibration_grid(N):
    """Refinement family for the eigen check: extent 1.8 N^(1/4), N points.

    Growing the extent like N^(1/4) keeps the truncation error visible and
    strictly shrinking over practical grid sizes; the self-dual spacing
    sqrt(2 pi / N) would hit the roundoff floor before N = 128 and turn the
    refinement property into noise.
    """
    if N < 2:
        raise InputError("calibration grid needs at least two points")
    L = 1.8 * N ** 0.25
    return np.linspace(-L, L, N)
