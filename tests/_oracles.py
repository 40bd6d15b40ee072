"""Independent brute-force oracles.

Nothing here imports the library (an ast test holds this); the two oracles
that evaluate through a library call take it as an argument.  Nothing here
shares code with the library paths under test: membership is
searched by gridding or minimizing over explicitly parametrized symmetric
unitaries, the transform pairing rule is evaluated straight from its
defining inner products, the spectrum is clustered and paired, one
eigenvalue at a time, from scipy's complex Schur form, the unitarity,
involution and commutation defects, the squared-shift defects and the spectral residuals
are the dense matrix products they are defined by, the Fourier model is
scattered into class order entry by entry, and the measure lattice and the
reflection conjugation are per-atom loops, atoms are paired through a dense
distance matrix, four_unitary_split_svd is the
four-unitary construction from one SVD, each factor from a fresh copy, and
decompose's projection takes each block's polar factor from its own SVD.
"""

import numpy as np
from scipy.linalg import schur
from scipy.optimize import minimize


def brute_force_2x2_members(u1, u2, thresh=1e-6, n_r=91, n_phase=360):
    """All symmetric unitary A on the grid with ||A conj(U) conj(A) - U|| <= thresh.

    U = diag(u1, u2).  A 2x2 symmetric unitary is a = cos(r) e^{i alpha},
    b = sin(r) e^{i beta}, c = -cos(r) e^{i(2 beta - alpha)}; the two free
    phases run over n_phase points each and the modulus angle r over an
    inclusive grid in [0, pi/2].
    """
    alphas = 2 * np.pi * np.arange(n_phase) / n_phase
    betas = 2 * np.pi * np.arange(n_phase) / n_phase
    found = []
    for r in np.linspace(0.0, np.pi / 2, n_r):
        a = np.cos(r) * np.exp(1j * alphas)[:, None]
        b = np.sin(r) * np.exp(1j * betas)[None, :]
        c = -np.cos(r) * np.exp(1j * (2 * betas[None, :] - alphas[:, None]))
        b2 = np.abs(b) ** 2
        m11 = np.abs(a) ** 2 * np.conj(u1) + b2 * np.conj(u2)
        m12 = a * np.conj(u1) * np.conj(b) + b * np.conj(u2) * np.conj(c)
        m21 = b * np.conj(u1) * np.conj(a) + c * np.conj(u2) * np.conj(b)
        m22 = b2 * np.conj(u1) + np.abs(c) ** 2 * np.conj(u2)
        defect2 = (
            np.abs(m11 - u1) ** 2
            + np.abs(m12) ** 2
            + np.abs(m21) ** 2
            + np.abs(m22 - u2) ** 2
        )
        hits = np.argwhere(defect2 <= thresh * thresh)
        for i, j in hits:
            aa = a[i, 0]
            bb = b[0, j]
            cc = c[i, j]
            found.append(np.array([[aa, bb], [bb, cc]]))
    return found


def _rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def symmetric_unitary_3x3(params):
    """Q = O diag(e^{i phi}) O^t with O from Euler angles; covers all 3x3
    symmetric unitaries (they are real-orthogonal congruences of unimodular
    diagonals)."""
    t1, t2, t3, p1, p2, p3 = params
    O = _rot_z(t1) @ _rot_y(t2) @ _rot_z(t3)
    return (O * np.exp(1j * np.array([p1, p2, p3]))) @ O.T


def min_commutation_defect_3x3(U, seed, n_starts=30):
    """Smallest ||A conj(U) conj(A) - U|| found over symmetric unitaries A."""
    rng = np.random.default_rng(seed)
    Ub = np.conj(U)

    def objective(params):
        A = symmetric_unitary_3x3(params)
        return float(np.linalg.norm(A @ Ub @ np.conj(A) - U) ** 2)

    best = np.inf
    for _ in range(n_starts):
        x0 = rng.uniform(-np.pi, np.pi, size=6)
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": 4000, "xatol": 1e-12, "fatol": 1e-24})
        best = min(best, res.fun)
    return float(np.sqrt(max(best, 0.0)))


def pairing_rule_entrywise(U):
    """The paired block from its defining inner products, one entry at a time.

    entry[n, m] = conj(<U* e_m, e_n>) with <x, y> = y^H x.
    """
    U = np.asarray(U, dtype=complex)
    n = U.shape[0]
    basis = np.eye(n, dtype=complex)
    out = np.empty((n, n), dtype=complex)
    for m in range(n):
        for k in range(n):
            inner = np.vdot(basis[:, k], U.conj().T @ basis[:, m])
            out[k, m] = np.conj(inner)
    return out


def apply_cuc_on_basis(A, U):
    """Matrix of the composite C U C evaluated column by column, C the
    antilinear map x -> A conj(x)."""
    n = U.shape[0]
    cols = []
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        cols.append(A @ np.conj(U @ (A @ np.conj(e))))
    return np.stack(cols, axis=1)


def pair_clusters_loop(values, tol):
    """Index of the partner of each value, or -1: the nearest value to its
    conjugate within distance tol, the later index on a tie."""
    partner = []
    for lam in values:
        target = np.conj(lam)
        best, best_d = -1, tol
        for j, mu in enumerate(values):
            d = abs(mu - target)
            if d <= best_d:
                best, best_d = j, d
        partner.append(best)
    return partner


def conjugate_pairing_dense(thetas, tol):
    """(sigma, unpaired) of atoms at angles thetas in (-pi, pi]: each atom's
    partner is the atom nearest to its conjugate angle in wrapped distance,
    read off the full distance matrix, the later index on a tie, and none
    (-1, listed in unpaired) beyond tol.  Raises ValueError when a partner
    does not take the atom back."""
    thetas = np.asarray(thetas, dtype=float)
    n = len(thetas)
    targets = np.where(thetas == np.pi, np.pi, -thetas)
    diff = thetas[None, :] - targets[:, None]
    dist = np.abs(np.pi - np.mod(np.pi - diff, 2 * np.pi))
    best = n - 1 - np.argmin(dist[:, ::-1], axis=1) if n else np.zeros(0, dtype=int)
    sigma, unpaired = [], []
    for k in range(n):
        sigma.append(int(best[k]) if dist[k, best[k]] <= tol else -1)
        if sigma[k] < 0:
            unpaired.append(k)
    for k in range(n):
        if sigma[k] >= 0 and sigma[sigma[k]] != k:
            raise ValueError("ambiguous conjugate pairing")
    return sigma, unpaired


def cluster_loop(vals, tol):
    """Index groups of vals: sorted by angle, angular neighbours closer than
    tol chain into one group, the last group joining the first when they
    touch across the cut at pi."""
    order = sorted(range(len(vals)), key=lambda i: np.angle(vals[i]))
    groups = []
    for pos, i in enumerate(order):
        if pos and abs(vals[i] - vals[order[pos - 1]]) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) > 1 and abs(vals[order[0]] - vals[order[-1]]) <= tol:
        groups[0] = groups.pop() + groups[0]
    return groups


def schur_spectrum(U, tol, residual_tol):
    """Clustered spectrum of a unitary U through scipy's complex Schur form.

    The eigenvalues are the diagonal of the Schur factor, clustered by
    cluster_loop.  A cluster's value is the normalized mean, snapped to +-1
    within tol, and clusters snapped to the same +-1 merge.  Returns
    ("ToleranceError", None, None) when the clustered spectrum misses U by
    more than residual_tol in Frobenius norm, else ("ok", clusters, selfdual) with clusters the (value, multiplicity) pairs
    sorted by angle and selfdual whether every cluster's multiplicity equals
    that of its partner under pair_clusters_loop, a partner that does not
    take the cluster back counting as multiplicity 0.
    """
    T, Q = schur(U, output="complex")
    vals = np.diagonal(T)
    clusters, cols, diag = [], [], []
    for group in cluster_loop(vals, tol):
        rep = sum(vals[i] for i in group) / len(group)
        rep = rep / abs(rep)
        for real in (1.0, -1.0):
            if abs(rep - real) <= tol:
                rep = complex(real)
        clusters.append((rep, len(group)))
        cols.extend(group)
        diag.extend([rep] * len(group))
    for real in (1.0, -1.0):  # clusters that snap to the same +-1 are one cluster
        snapped = [m for lam, m in clusters if lam == real]
        if len(snapped) > 1:
            clusters = [c for c in clusters if c[0] != real] + [(complex(real), sum(snapped))]
    basis = Q[:, cols]
    resid = np.linalg.norm(U - basis @ np.diag(diag) @ basis.conj().T)
    if resid > residual_tol:
        return "ToleranceError", None, None
    clusters.sort(key=lambda c: np.angle(c[0]))
    partner = pair_clusters_loop([lam for lam, _ in clusters], tol)
    selfdual = all(
        (clusters[p][1] if p >= 0 and partner[p] == i else 0) == m
        for i, ((_, m), p) in enumerate(zip(clusters, partner))
    )
    return "ok", clusters, selfdual


def schur_eigenvalues(U):
    """The diagonal of scipy's complex Schur factor of U, unclustered."""
    return np.diagonal(schur(U, output="complex")[0])


def unitarity_defect_dense(A):
    """||A*A - I||_F, the full product however A is structured."""
    A = np.asarray(A, dtype=complex)
    return float(np.linalg.norm(A.conj().T @ A - np.eye(A.shape[0])))


def cuc_defects_dense(A, U):
    """||A conj(U) conj(A) - U||_F and ||A conj(U) conj(A) - U*||_F, both
    products formed in full however U is structured."""
    A, U = np.asarray(A, dtype=complex), np.asarray(U, dtype=complex)
    cuc = A @ np.conj(U) @ np.conj(A)
    return float(np.linalg.norm(cuc - U)), float(np.linalg.norm(cuc - U.conj().T))


def membership_defects_dense(A, U):
    """Isometry, involution, commutation and symmetry defects of A against
    U, in the order of ConjugationReport: ||A*A - I||, ||A conj(A) - I||,
    then cuc_defects_dense, every product formed in full."""
    A = np.asarray(A, dtype=complex)
    involution = float(np.linalg.norm(A @ np.conj(A) - np.eye(A.shape[0])))
    return (unitarity_defect_dense(A), involution, *cuc_defects_dense(A, U))


def four_unitary_split_svd(A):
    """scale and (U1, U2, U3, U4) of the four-unitary split from one SVD
    A = X diag(s) Yh, each factor (X * d) @ Yh on a fresh copy, d the phases
    c +- i sqrt(1 - c^2) for c = (1 + t)/2, then c = (t - 1)/2, t = s/s[0].
    The library's in-place version must return the same bits."""
    X, s, Yh = np.linalg.svd(np.asarray(A, dtype=complex))
    t = s / s[0]
    factors = []
    for c in ((1 + t) / 2, (t - 1) / 2):
        sine = np.sqrt(1 - c * c)
        factors += [(X * (c + 1j * sine)) @ Yh, (X * (c - 1j * sine)) @ Yh]
    return float(s[0]) / 2, tuple(factors)


def fourier_scatter(O1, O2, Ui):
    """Matrix of the Fourier model's conjugation assembled in the slot order
    (i, -i, 1, -1) of its block layout, then scattered entry by entry to the
    classes 3, 1, 0, 2 (class k holds the indices k mod 4)."""
    m = len(Ui)
    N = 4 * m
    V = np.zeros((N, N), dtype=complex)
    V[:m, m : 2 * m] = Ui
    V[m : 2 * m, :m] = np.transpose(Ui)
    V[2 * m : 3 * m, 2 * m : 3 * m] = O1
    V[3 * m :, 3 * m :] = O2
    slots = np.concatenate([np.arange(k, N, 4) for k in (3, 1, 0, 2)])
    A = np.empty_like(V)
    A[np.ix_(slots, slots)] = V
    return A


def shift_defects_dense(A, M):
    """Isometry, involution and commutation defects of the order-M grid
    conjugation with matrix A, straight from their M x M products:
    ||A*A - I||, ||A conj(A) - I|| and ||A conj(D) conj(A) - D|| with D the
    multiplication by xi^2, xi = e^{2 pi i j / M}."""
    A = np.asarray(A, dtype=complex)
    eye = np.eye(M)
    d = np.exp(2j * np.pi * np.arange(M) / M) ** 2
    return (
        float(np.linalg.norm(A.conj().T @ A - eye)),
        float(np.linalg.norm(A @ np.conj(A) - eye)),
        float(np.linalg.norm((A * np.conj(d)[None, :]) @ np.conj(A) - np.diag(d))),
    )


def shift_apply_fft(phi, values):
    """The squared-shift model C f through length-2 FFTs across the fibers of
    xi -> xi^2: components f_j by a forward DFT and twiddle, reflected and
    conjugated, mixed by the symbol phi (shape (M/2, 2, 2)), and put back
    by a twiddle and an inverse DFT.  values has the grid axis last; a
    single grid function is run as a batch of one."""
    values = np.asarray(values, dtype=complex)
    batch = values.reshape(1, -1) if values.ndim == 1 else values
    M = values.shape[-1]
    half = M // 2
    j = np.arange(2)[:, None]
    p = np.arange(half)[None, :]
    fibers = batch.reshape(batch.shape[:-1] + (2, half))
    comps = np.moveaxis(np.fft.fft(fibers, axis=-2) / 2 * np.exp(-2j * np.pi * (j * p) / M), -2, 0)
    sharp = np.conj(comps[..., (-np.arange(half)) % half])
    g = np.stack([
        phi[:, 0, 0] * sharp[0] + phi[:, 0, 1] * sharp[1],
        phi[:, 1, 0] * sharp[0] + phi[:, 1, 1] * sharp[1],
    ])
    twiddle = np.exp(2j * np.pi * (j * p) / M).reshape((2,) + (1,) * (g.ndim - 2) + (half,))
    fibers = np.fft.ifft(np.moveaxis(g * twiddle, 0, -2), axis=-2) * 2
    return fibers.reshape(values.shape)


def reconstruction_residual_dense(U, basis, diag):
    """||U - B diag(d) B*||_F for basis B and eigenvalue diagonal d."""
    B = np.asarray(basis, dtype=complex)
    return float(np.linalg.norm(U - B @ np.diag(diag) @ B.conj().T))


def canonical_residual_dense(U, W, diag):
    """||W* U W - diag(d)||_F for basis W and target diagonal d."""
    W = np.asarray(W, dtype=complex)
    return float(np.linalg.norm(W.conj().T @ U @ W - np.diag(diag)))


def decompose_loop(U, C, canonical_form):
    """decompose from dense products and one block at a time.

    U is checked for unitarity within 1e-10 + 1e-8 sqrt(n); C is refused as
    "InputError" when its isometry or involution defect exceeds
    thr = 1e-8 n, else as "MembershipError" when its commutation defect
    does, each defect the dense product it is defined by.  A member's
    V = W* A conj(W) is read block by block: each pair's parameter is the
    polar factor X Y* of (B + B'^t)/2 from that block's own SVD, each real
    block's the polar factor of its symmetric part, symmetrized.  Returns
    (v_blocks, q_plus, q_minus) or the error name.  Only canonical_form, the
    basis the parameters are read in, comes from the library, as an argument.
    """

    def polar(M):
        if not len(M):
            return M
        X, _, Yh = np.linalg.svd(M)
        return X @ Yh

    U = np.asarray(U, dtype=complex)
    A = np.asarray(C.matrix, dtype=complex)
    n = len(U)
    if len(A) != n:
        return "InputError"  # operator dimensions do not match
    if np.linalg.norm(U.conj().T @ U - np.eye(n)) > 1e-10 + 1e-8 * np.sqrt(n):
        return "InputError"  # U is not unitary
    W, layout = canonical_form(U)
    thr = 1e-8 * max(n, 1)
    iso = np.linalg.norm(A.conj().T @ A - np.eye(n))
    inv = np.linalg.norm(A @ np.conj(A) - np.eye(n))
    if iso > thr or inv > thr:
        return "InputError"  # C is not a conjugation
    if np.linalg.norm(A @ np.conj(U) @ np.conj(A) - U) > thr:
        return "MembershipError"  # C does not commute with U
    V = W.conj().T @ A @ np.conj(W)
    v_blocks, pos = [], 0
    for _, m in layout.pairs:
        upper = V[pos : pos + m, pos + m : pos + 2 * m]
        lower = V[pos + m : pos + 2 * m, pos : pos + m]
        v_blocks.append(polar((upper + lower.T) / 2))
        pos += 2 * m
    real = []
    for size in (layout.ell, layout.kay):
        q = V[pos : pos + size, pos : pos + size]
        q = polar((q + q.T) / 2)
        real.append((q + q.T) / 2)
        pos += size
    return v_blocks, real[0], real[1]

def lattice_join_loop(mu, nu):
    """(thetas, weights) of the atomwise weight sum, one dict entry per angle."""
    acc = {}
    for t, w in zip(mu.thetas, mu.weights):
        acc[t] = acc.get(t, 0.0) + w
    for t, w in zip(nu.thetas, nu.weights):
        acc[t] = acc.get(t, 0.0) + w
    ts = sorted(acc)
    return np.array(ts, dtype=float), np.array([acc[t] for t in ts], dtype=float)


def lattice_meet_loop(mu, nu):
    """(thetas, weights) of the atomwise minimum over the shared angles."""
    wn = dict(zip(nu.thetas, nu.weights))
    pairs = sorted((t, min(w, wn[t])) for t, w in zip(mu.thetas, mu.weights) if t in wn)
    return np.array([t for t, _ in pairs], dtype=float), np.array([w for _, w in pairs], dtype=float)


def reflection_conjugation_with_fiber(mu, r, A):
    """(matrices, point_map) of f -> (k -> sqrt(h_k) * A conj(f_{sigma(k)})).

    The weighted reflection conjugation with fiber conjugation x -> A conj(x),
    one atom at a time: sigma(k) is the atom at the conjugate point within
    1e-9, h_k = w_sigma(k) / w_k, and block k is sqrt(h_k) * A.
    """
    A = np.asarray(A, dtype=complex)
    assert A.shape == (r, r)
    thetas, weights = np.asarray(mu.thetas), np.asarray(mu.weights)
    mats = np.zeros((len(thetas), r, r), dtype=complex)
    point = np.zeros(len(thetas), dtype=int)
    for k, t in enumerate(thetas):
        gap = np.abs(np.angle(np.exp(1j * (thetas + t))))
        (partner,) = np.nonzero(gap <= 1e-9)[0]
        point[k] = partner
        mats[k] = np.sqrt(weights[partner] / weights[k]) * A
    return mats, point
