"""Exact function models on the M-th roots of unity.

Truncating the bilateral shift to finitely many Fourier modes destroys
unitarity, but multiplication by the coordinate on the roots-of-unity grid is
exactly unitary and every identity used here is pointwise, so it holds on the
grid without discretization error.  The grid point j is e^{2 pi i j / M}, and
the grid is closed under complex conjugation via j -> (M - j) mod M.  A grid
function is a complex array with the grid axis last, so one call takes a
single function or a batch.

For a divisor d of M, a grid function splits uniquely as
f(xi) = sum_j xi^j f_j(xi^d) with the components living on the order-M/d
grid; analyze/synthesize implement the two directions through length-d DFTs
across the fibers of xi -> xi^d, the components stacked on a leading axis.
"""

from dataclasses import dataclass

import numpy as np

from .antilinear import _block_report
from .errors import InputError
from .linalg import ABS_TOL

_BLOCK_BYTES = 1 << 19  # bytes of identity rows per apply call in ModelConjugation.matrix


def grid_points(order):
    return np.exp(2j * np.pi * np.arange(order) / order)


def grid_arguments(order):
    """Arguments of the grid points in (-pi, pi]."""
    t = 2 * np.pi * np.arange(order) / order
    return np.where(t > np.pi, t - 2 * np.pi, t)


def conjugate_indices(order):
    return (-np.arange(order)) % order


def analyze(values, d):
    """Split grid functions into their d model components, f(xi) = sum_j xi^j f_j(xi^d).

    values has the grid axis last; the result has shape (d, ..., M/d).
    """
    values = np.asarray(values, dtype=complex)
    M = values.shape[-1] if values.ndim else 0
    if M < 1:
        raise InputError("grid order must be at least 1")
    if d < 1 or M % d != 0:
        raise InputError(f"degree {d} must divide the grid order {M}")
    Md = M // d
    fibers = values.reshape(values.shape[:-1] + (d, Md))
    g = np.fft.fft(fibers, axis=-2) / d
    twiddle = np.exp(-2j * np.pi * np.outer(np.arange(d), np.arange(Md)) / M)
    return np.moveaxis(g * twiddle, -2, 0)


def synthesize(components):
    """Inverse of analyze, with d read from the first axis; exact on the grid and norm preserving."""
    components = np.asarray(components, dtype=complex)
    if components.ndim < 2 or components.size == 0:
        raise InputError(f"components must have shape (d, ..., M/d), got {components.shape}")
    d, Md = components.shape[0], components.shape[-1]
    M = d * Md
    twiddle = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(Md)) / M)
    tw = twiddle.reshape((d,) + (1,) * (components.ndim - 2) + (Md,))
    g = np.moveaxis(components * tw, 0, -2)
    fibers = np.fft.ifft(g, axis=-2) * d
    return fibers.reshape(fibers.shape[:-2] + (M,))


class UMultiplierConjugation:
    """C f(xi) = u(xi) conj(f(conj xi)) for a unimodular, conjugation-symmetric u.

    Commutes with multiplication by the coordinate; defects are available in
    closed form because the operator permutes and scales grid coordinates.
    """

    def __init__(self, u):
        u = np.asarray(u, dtype=complex)
        if u.ndim != 1 or u.size == 0:
            raise InputError(f"u must be a non-empty 1-d grid array, got shape {u.shape}")
        self.order = u.size
        self.u = _check_symbol(u[:, None, None], self.order, 1)[:, 0, 0]
        self._rev = conjugate_indices(self.order)

    def isometry_defect(self):
        return float(np.sqrt(np.sum((np.abs(self.u) ** 2 - 1.0) ** 2)))

    def involution_defect(self):
        return float(np.linalg.norm(self.u * np.conj(self.u[self._rev]) - 1.0))

    def commutation_defect(self):
        # C M_xi C is diagonal with entries u_j conj(u_{rev j}) xi_j
        xi = grid_points(self.order)
        return float(np.linalg.norm(self.u * np.conj(self.u[self._rev]) * xi - xi))


@dataclass(frozen=True)
class SymbolParams:
    """Modulus/phase samples (s, alpha, beta, gamma) on an order-L grid.

    Only the values at nonnegative arguments matter: the symbol is built from
    the samples at |t|, which bakes in the conjugation symmetry.
    """

    s: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("s", "alpha", "beta", "gamma"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 1:
                raise InputError(f"{name} must be a 1-d array")
            arrays[name] = a
        L = arrays["s"].shape[0]
        if any(a.shape[0] != L for a in arrays.values()):
            raise InputError("parameter arrays must share one length")
        if L and (arrays["s"].min() < 0.0 or arrays["s"].max() > 1.0):
            raise InputError("s must take values in [0, 1]")
        for name, a in arrays.items():
            object.__setattr__(self, name, a)

    @property
    def order(self):
        return self.s.shape[0]


def symbol_field(params):
    """Pointwise 2x2 unitary field on the grid, reflection compatible.

    At nonnegative arguments t the entries read

        [ e^{i alpha} s          e^{i beta} c        ]
        [ e^{i gamma} c         -e^{i(beta+gamma-alpha)} s ]

    with c = sqrt(1 - s^2), all four functions sampled at |t|.  The involution
    of the assembled operator forces the transpose relation
    phi(conj z) = phi(z)^t, so the off-diagonal phases trade places on the
    lower semicircle and average at the fixed points +-1 (where the value
    must be a symmetric unitary).  When beta = gamma the field is the plain
    |t|-symmetrized template at every point.
    """
    L = params.order
    ar = np.arange(L)
    idx = np.minimum(ar, (L - ar) % L)
    s = params.s[idx]
    c = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    a, b, g = params.alpha[idx], params.beta[idx], params.gamma[idx]
    fixed = (ar == 0) | (2 * ar == L)  # conjugation fixed points: arguments 0 and pi
    lower = (~fixed) & (ar > L - ar)  # negative argument
    p12 = np.where(lower, g, b)
    p21 = np.where(lower, b, g)
    mid = (b + g) / 2
    p12 = np.where(fixed, mid, p12)
    p21 = np.where(fixed, mid, p21)
    phi = np.empty((L, 2, 2), dtype=complex)
    phi[:, 0, 0] = np.exp(1j * a) * s
    phi[:, 0, 1] = np.exp(1j * p12) * c
    phi[:, 1, 0] = np.exp(1j * p21) * c
    phi[:, 1, 1] = -np.exp(1j * (b + g - a)) * s
    return phi


def _check_symbol(phi, order, block):
    """phi as a complex (order, block, block) field, unitary and reflection
    compatible, phi(conj xi) = phi(xi)^t, within ABS_TOL max-abs."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (order, block, block):
        raise InputError(f"symbol must have shape ({order}, {block}, {block})")
    rev = conjugate_indices(order)
    sym = float(np.max(np.abs(phi.transpose(0, 2, 1) - phi[rev])))
    eye = np.eye(block)
    unit = float(
        np.max(np.abs(np.einsum("kji,kjl->kil", np.conj(phi), phi) - eye[None, :, :]))
    )
    if sym > ABS_TOL or unit > ABS_TOL:
        raise InputError(
            f"symbol is not a reflection-compatible unitary field "
            f"(transpose symmetry {sym:.3e}, unitarity {unit:.3e})"
        )
    return phi


class ModelConjugation:
    """Conjugation commuting with multiplication by xi^2 on the order-M grid.

    Splits a grid function into its two model components, reflects and
    conjugates them, mixes with the 2x2 symbol on the half-order grid, and
    reassembles: C f = sum_j (f_j^# o psi) sum_k h_k (phi_{k j} o psi) with
    psi the coordinate square and h_k the wandering basis 1, xi.
    """

    def __init__(self, phi, order):
        if order < 1:
            raise InputError("grid order must be at least 1")
        if order % 2 != 0:
            raise InputError("grid order must be even for the squared-shift model")
        self.order = order
        self.phi = _check_symbol(phi, order // 2, 2)
        half = order // 2
        self._rev_half = conjugate_indices(half)
        self._gather = np.concatenate((self._rev_half, half + self._rev_half))
        p = np.arange(half)
        # component 1's twiddles in analyze (conjugated, reflected) and synthesize
        self._twiddle_in = np.conj(np.exp(-2j * np.pi * p / order))[self._rev_half]
        self._twiddle_out = np.exp(2j * np.pi * p / order)
        self._defects = None

    def apply(self, values):
        """C f on a batch of grid functions, grid axis last; values is not modified.

        One radix-2 butterfly per fiber {p, p + M/2} of xi -> xi^2, with no
        FFT: the conjugated values a, b on the reflected fiber give the
        reflected model components (a + b)/2 and (a - b)/2 times a twiddle,
        the 2x2 symbol mixes them into g_0, g_1, and the inverse butterfly
        g_0 +- xi g_1 writes the two halves of the output.  The steps are
        those of analyze and synthesize, so the values agree with them bit
        for bit up to the sign of zeros.  Besides the output the only scratch
        is the gathered copy of the input: a batch of k grid functions takes
        2 k M complex numbers, 2 M^2 for apply(eye).
        """
        values = np.asarray(values, dtype=complex)
        if values.shape[-1] != self.order:
            raise InputError("grid size mismatch")
        # a single grid function runs as a batch of one: at M = 2 numpy rounds
        # complex products of length-1 vectors differently from batched ones
        batch = values.reshape(1, -1) if values.ndim == 1 else values
        half = self.order // 2
        phi = self.phi
        gathered = batch[..., self._gather]
        np.conjugate(gathered, out=gathered)
        out = np.empty_like(gathered)
        a, b = gathered[..., :half], gathered[..., half:]
        lo, hi = out[..., :half], out[..., half:]
        np.add(a, b, out=lo)
        np.multiply(lo, 0.5, out=lo)  # lo = reflected component 0
        np.subtract(a, b, out=b)
        np.multiply(b, 0.5, out=b)
        np.multiply(b, self._twiddle_in, out=b)  # b = reflected component 1
        np.multiply(phi[:, 0, 0], lo, out=a)
        np.multiply(phi[:, 0, 1], b, out=hi)
        np.add(a, hi, out=a)  # a = g_0
        np.multiply(phi[:, 1, 0], lo, out=hi)
        np.multiply(phi[:, 1, 1], b, out=b)
        np.add(hi, b, out=b)
        np.multiply(b, self._twiddle_out, out=b)  # b = xi g_1 on the first half-grid
        np.add(a, b, out=lo)
        np.subtract(a, b, out=hi)  # xi at p + M/2 is -xi at p
        return out.reshape(values.shape)

    def matrix(self):
        """The dense action A = apply(eye).T, built anew on each call, not cached: apply
        runs on blocks of about _BLOCK_BYTES of identity rows, so A peaks near 1.1 M^2."""
        M = self.order
        A = np.empty((M, M), dtype=complex)
        r = max(1, _BLOCK_BYTES // (16 * M))
        for s in range(0, M, r):
            A[:, s : s + r] = self.apply(np.eye(min(r, M - s), M, s, dtype=complex)).T
        return A

    def _report(self):
        """_block_report of matrix(), built once and released, on the fibers (p, p + M/2)
        paired with their reflections and carrying xi^2; only the report is kept."""
        if self._defects is None:
            half = self.order // 2
            fiber, w = np.arange(self.order) % half, grid_points(half)  # xi^2 on each fiber
            self._defects = _block_report(self.matrix(), fiber, self._rev_half, w)[0]
        return self._defects

    def isometry_defect(self):
        return self._report().isometry_defect

    def involution_defect(self):
        return self._report().involution_defect

    def commutation_defect(self):
        return self._report().commutation_defect


def squared_shift_conjugation(params, order):
    """Model conjugation for the squared shift from modulus/phase parameters.

    The parameter grid carries one sample per point of the half-order grid,
    where the symbol lives after composing with the coordinate square.
    """
    if order % 2 != 0:
        raise InputError("grid order must be even for the squared-shift model")
    if params.order != order // 2:
        raise InputError(
            f"parameter arrays must live on the half grid: expected length "
            f"{order // 2}, got {params.order}"
        )
    return ModelConjugation(symbol_field(params), order)


def extract_symbol(apply_fn, order):
    """Read the 2x2 symbol of a grid conjugation commuting with the squared shift.

    apply_fn maps one grid function (a length-order array) to its image.
    Precondition: the operator commutes with multiplication by xi^2.  Then
    the image of the delta at z in component j is supported at conj(z) with
    the j-th symbol column as coefficients, so the images of different
    deltas never overlap.  Probing component j with the sum of the deltas at
    every half-grid point, which is the grid function xi^j, reads the whole
    j-th column in one call: apply_fn runs exactly twice.  For an operator
    that does not commute with xi^2 the result is not its symbol.
    """
    if order % 2 != 0:
        raise InputError("grid order must be even")
    probes = (np.ones(order, dtype=complex), grid_points(order))
    images = np.stack([apply_fn(probe) for probe in probes])
    out = analyze(images, 2)  # out[i, j]: component i of the image of xi^j
    return np.moveaxis(out, -1, 0)
