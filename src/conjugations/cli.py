"""Command line front end: JSON in, JSON out.

Matrices travel as {"rows": n, "cols": n, "data": [[[re, im], ...], ...]},
measures as {"atoms": [{"theta": t, "weight": w}, ...]}.  This module alone
reads and writes both formats, and one rule (_is_number) decides what a
JSON number is in either.  Machine-readable JSON goes to stdout, a one-line
human summary to stderr.

Exit codes: 0 success, 2 invalid input, 3 mathematical refusal (the
requested object cannot exist), 4 tolerance failure (the numerics missed
the contract).
"""

import argparse
import gc
import json
import os
import re
import signal
import sys
import warnings

import numpy as np

from . import family, measures
from .antilinear import AntilinearOperator
from .errors import (
    AbsoluteContinuityError,
    InputError,
    MembershipError,
    NotSelfDualError,
    ToleranceError,
)
from .linalg import DEMO_TOL, SPLIT_TOL, four_unitary_split, haar_unitary, membership_threshold
from .linalg import unitarity_defect
from .spectral import canonical_form, diagonalize_unitary

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_TOLERANCE = 4


def emit(obj):
    write_json(sys.stdout, obj)


def note(msg):
    print(msg, file=sys.stderr)


def load_json(path):
    """(value, whether the text holds a u or an f) of the JSON file at path;
    the text itself is freed on return.  A read error is an InputError
    naming path."""
    try:
        with open(path) as fh:
            text = fh.read()
        return json.loads(text), "u" in text or "f" in text
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nests too deeply") from None


def save_json(path, obj):
    """Write obj to a new file beside path, then rename it over path: a write
    that fails leaves an existing path as it was, removes the new file and
    raises InputError naming path, as load_json does for a read."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w") as fh:
                write_json(fh, obj)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None


_ARRAY_SLOT = re.compile(r'"\\u0000(\d+)"')  # json's text of the placeholder "\0<k>"
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Floats from which _write_array formats a matrix's second half in a forked
# child.  On a 2-core host, in 30 to 40 alternating writes per size, the split
# won at most 10 of 30 up to n = 80, 14 of 30 and 33 of 40 at n = 96 (18,432
# floats), and 27 to 38 of 40 or 28 to 30 of 30 from n = 104 (21,632) to 256.
# Every golden stays in this process.
_SPLIT = 20_000
_CHUNK = 1 << 16  # characters per write of a child's text
# Sizes, in bytes, of a second matrix file that load_matrices parses in a
# forked child.  Below 512 KiB (n = 82) the fork costs about what the parse
# saves: at 174 to 310 KB the child won 0 to 28 of 30 or 40 alternating
# loads, varying from run to run, and from 484 KB on 23 to 33 of them.
# Above 16 MiB (n = 460) both files load here in turn, as a parse holds
# several times its file's size: at n = 1024 (an 80 MB file) parsing both at
# once took the command's summed peak from 284 to about 490 MB.
_LOAD_CHILD = (1 << 19, 1 << 24)


def write_json(fh, obj):
    """Write json.dumps(obj, indent=2, sort_keys=True) and a newline to fh.

    ndarrays in obj are written as the nested lists .tolist() gives.  json
    lays out everything else, with each array replaced by a placeholder
    string; the arrays are then streamed one row at a time, so the document
    never sits in memory as one string.
    """
    arrays = []

    def skeleton(o):
        if isinstance(o, dict):
            return {k: skeleton(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [skeleton(v) for v in o]
        if isinstance(o, np.ndarray):
            arrays.append(o)
            return f"\0{len(arrays) - 1}"
        return o

    parts = _ARRAY_SLOT.split(json.dumps(skeleton(obj), indent=2, sort_keys=True))
    for text, slot in zip(parts[0::2], parts[1::2]):
        fh.write(text)
        line = text[text.rfind("\n") + 1 :]
        _write_array(fh, arrays[int(slot)], len(line) - len(line.lstrip(" ")))
    fh.write(parts[-1] + "\n")


def _write_array(fh, A, indent):
    """Write A as json.dumps(A.tolist(), indent=2) lays it out from column
    indent on.  Float matrices of [re, im] pairs go row by row through repr
    and string joins; from _SPLIT floats on, a forked child formats the
    second half of the rows while this process writes the first.  The
    child's text is read whole before any of it is copied into fh, in
    _CHUNK pieces, so a child that dies while sending leaves nothing behind
    and this process formats that half itself.  Other arrays, and empty
    ones, go through json."""
    if A.ndim != 3 or A.dtype.kind != "f" or not A.size:
        fh.write(json.dumps(A.tolist(), indent=2).replace("\n", "\n" + " " * indent))
        return
    p0, p1, p2, p3 = (" " * (indent + 2 * d) for d in range(4))
    head, tail = f"[\n{p2}[\n{p3}", f"\n{p2}]\n{p1}]"
    inner_sep, cell_sep = f",\n{p3}", f"\n{p2}],\n{p2}[\n{p3}"
    finite = np.isfinite(A).reshape(len(A), -1).all(axis=1)

    def rows(start, stop):
        for i in range(start, stop):
            texts = list(map(repr, A[i].ravel().tolist()))
            if not finite[i]:
                texts = [_NONFINITE.get(t, t) for t in texts]
            body = cell_sep.join(map(inner_sep.join, zip(*[iter(texts)] * A.shape[2])))
            yield f"{p1}{head}{body}{tail}{',' if i < len(A) - 1 else ''}\n"

    h = len(A) // 2 if A.size >= _SPLIT else len(A)
    wait = _forked(lambda: [r.encode("ascii") for r in rows(h, len(A))]) if h < len(A) else _no_child
    try:
        fh.write("[\n")
        fh.writelines(rows(0, h))
        half = wait()
    finally:
        wait(False)
    if half is None:
        fh.writelines(rows(h, len(A)))
    else:
        half = memoryview(half)
        for k in range(0, len(half), _CHUNK):
            fh.write(str(half[k : k + _CHUNK], "ascii"))
    fh.write(p0 + "]")


def _no_child(read=True):
    return None


def _forked(produce):
    """Run produce() in a forked child process; return wait().

    produce() returns a list of bytes-like pieces.  The child sends them
    through a pipe, behind their total length, and leaves by os._exit: it
    writes nothing to stdout or stderr and runs no exit handler.  wait()
    reads all of those bytes, reaps the child and returns them as one
    bytearray, or None when the child raised or died before it sent them
    all, or when os.fork is missing or fails.  wait(False), and every call
    after the first, ends the child unread and returns None.  So a child
    sends data or nothing, never an error: on None this process redoes the
    work, and its own run raises whatever error there is.  produce must
    call no BLAS: this process's BLAS calls keep both cores and the thread
    count their bits depend on.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return _no_child
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns when a process with other threads forks: a
            # lock one of them holds stays held in the child.  The other
            # threads here are BLAS workers, and the child takes no BLAS lock.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork\(\)",
                                    DeprecationWarning)
            pid = os.fork()
    except (AttributeError, OSError):
        os.close(r)
        os.close(w)
        return _no_child
    if pid == 0:  # the child leaves here, sent or not: wait reads the length
        try:
            os.close(r)
            pieces = produce()
            with open(w, "wb") as pipe:
                pipe.write(sum(map(len, pieces)).to_bytes(8, "little"))
                pipe.writelines(pieces)
        finally:
            os._exit(0)
    os.close(w)
    pipe = open(r, "rb")

    def wait(read=True):
        if pipe.closed:
            return None
        data = None
        try:
            if read:
                size = pipe.read(8)
                if len(size) == 8:
                    data = bytearray(int.from_bytes(size, "little"))
                    if pipe.readinto(data) < len(data):
                        data = None  # the child died while sending
        finally:
            pipe.close()
            if not read:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped already: this process ignores SIGCHLD
        return data

    return wait


def matrix_from_dict(obj, where, walk=False):
    """Complex matrix from its JSON form, "data" nested lists of [re, im] pairs,
    each entry a JSON number.

    One np.asarray call parses the whole payload.  Only a payload that fails
    to parse, parses to a shape or dtype other than numbers', or comes with
    walk=True is walked, to name its first misfit entry in the error.  An
    axis of length 0 ends the nesting: a 0-row matrix is just [].
    """
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise InputError(f"{where}: missing field '{key}'")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{where}: rows/cols must be integers") from None
    given = (obj["rows"], obj["cols"])
    if min(rows, cols) < 0 or (rows, cols) != given or any(isinstance(v, bool) for v in given):
        raise InputError(f"{where}: rows/cols must be nonnegative integers")
    full = (rows, cols, 2)
    nested = full[: full.index(0) + 1] if 0 in full else full
    try:
        pairs = np.asarray(obj["data"])
        walk = walk or pairs.dtype.kind not in "iuf"  # strings, booleans, null, huge ints
        pairs = pairs.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pairs, walk = None, True
    if walk or pairs.shape != nested:
        misfit = _misfit(obj["data"], full, "data")
        if misfit or pairs is None or pairs.shape != nested:
            raise InputError(f"{where}: {misfit or 'data is malformed'}")
    if not np.all(np.isfinite(pairs)):
        raise InputError(f"{where}: data entries must be finite")
    pairs = pairs.reshape(full)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _is_number(v):
    """Whether v is a JSON number: an int or a float that float() converts,
    so not "1", not true and not an int past the float range."""
    if type(v) not in (int, float):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _misfit(data, shape, name):
    """What the first entry of data breaking the nested-list shape must be."""
    if not shape:  # null reads as NaN, refused as not finite
        return None if data is None or _is_number(data) else f"{name} must be a number"
    if not isinstance(data, list) or len(data) != shape[0]:
        if len(shape) == 1:
            return f"{name} must be a [re, im] pair"
        return f"{name} must be a list of {shape[0]} entries"
    for i, item in enumerate(data):
        found = _misfit(item, shape[1:], f"{name}[{i}]")
        if found:
            return found
    return None


def matrix_to_dict(M):
    """JSON form of a matrix; "data" is the (rows, cols, 2) float array of
    [re, im] pairs, which emit and save_json write as nested lists."""
    M = np.asarray(M, dtype=complex)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": np.stack((M.real, M.imag), axis=-1),
    }


def measure_to_dict(mu):
    """JSON form of an atomic measure, one {"theta", "weight"} object per atom."""
    return {"atoms": [{"theta": float(t), "weight": float(w)}
                      for t, w in zip(mu.thetas, mu.weights)]}


def load_matrix(path):
    """The matrix in the file at path.  numpy reads a boolean among floats as
    a float, so a file whose text holds a u or an f (true, false, null, an
    escape or Infinity; no accepted key or number has one) is walked."""
    obj, walk = load_json(path)
    return matrix_from_dict(obj, path, walk)


def load_matrices(first, second):
    """(load_matrix(first), load_matrix(second)), the second file loaded in a
    forked child while this process loads the first when its size lies in
    _LOAD_CHILD.

    The first file's error wins: the child is then ended unread.  Where no
    matrix comes back (no fork, a dead child, a bad second file), this
    process loads second itself, so every error is load_matrix's own.
    """
    wait = _forked(lambda: _matrix_bytes(second)) if _worth_a_child(second) else _no_child
    try:
        A = load_matrix(first)
    except BaseException:
        wait(False)
        raise
    data = wait()
    if data is None:
        return A, load_matrix(second)
    rows, cols = np.frombuffer(data, dtype=np.int64, count=2)
    return A, np.frombuffer(data, dtype=complex, offset=16).reshape(rows, cols)


def _worth_a_child(path):
    try:
        return _LOAD_CHILD[0] <= os.stat(path).st_size <= _LOAD_CHILD[1]
    except OSError:
        return False


def _matrix_bytes(path):
    """load_matrix(path) as int64 rows and cols, then the complex128 entries."""
    M = load_matrix(path)
    return [np.array(M.shape, dtype=np.int64).tobytes(), M.tobytes()]


def load_measure(path):
    """The atomic measure in the file at path; theta and weight are JSON numbers."""
    obj = load_json(path)[0]
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise InputError(f"{path}: expected an object with an 'atoms' list")
    atoms = obj["atoms"]
    if not isinstance(atoms, list):
        raise InputError(f"{path}: atoms must be a list")
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict) or "theta" not in atom or "weight" not in atom:
            raise InputError(f"{path}: atoms[{i}] must carry 'theta' and 'weight'")
        if not (_is_number(atom["theta"]) and _is_number(atom["weight"])):
            raise InputError(f"{path}: atoms[{i}] has non-numeric fields")
    try:
        return measures.AtomicMeasure([a["theta"] for a in atoms], [a["weight"] for a in atoms])
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


def _mismatch_entries(mismatches):
    return [
        {
            "eigenvalue": [float(lam.real), float(lam.imag)],
            "multiplicity": int(mult),
            "conjugate_multiplicity": int(conj_mult),
        }
        for lam, mult, conj_mult in mismatches
    ]


def _report_dict(n, passed, report, threshold):
    return {
        "n": int(n),
        "passed": bool(passed),
        "threshold": float(threshold),
        "isometry_defect": float(report.isometry_defect),
        "involution_defect": float(report.involution_defect),
        "commutation_defect": float(report.commutation_defect),
    }


def cmd_check(args):
    U = load_matrix(args.unitary)
    spectrum = diagonalize_unitary(U)
    mismatches = spectrum.mismatches()
    emit({"selfdual": not mismatches, "mismatches": _mismatch_entries(mismatches)})
    note(f"self-dual: {'no' if mismatches else 'yes'}, residual {spectrum.residual:.1e} "
         f"of {membership_threshold(len(U)) / 2:.1e}")
    return EXIT_OK


def _construct(args, builder):
    U = load_matrix(args.unitary)
    C = builder(U)
    n = U.shape[0]
    passed, report = family.verify_membership(U, C)
    out = _report_dict(n, passed, report, membership_threshold(n))
    if args.output:
        save_json(args.output, matrix_to_dict(C.matrix))
    else:
        out["conjugation"] = matrix_to_dict(C.matrix)
    emit(out)
    note(f"commutation defect {report.commutation_defect:.3e}")
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_canonical(args):
    return _construct(args, lambda U: family.canonical_conjugation(U))


def _seed(args):
    if args.seed < 0:
        raise InputError("--seed must be a nonnegative integer")
    return args.seed


def cmd_sample(args):
    return _construct(args, lambda U: family.sample(U, _seed(args)))


def cmd_verify(args):
    if args.tol is not None and not 0.0 <= args.tol < np.inf:
        raise InputError("--tol must be a finite nonnegative number")
    U, A = load_matrices(args.unitary, args.conjugation)
    C = AntilinearOperator(A)
    thr = membership_threshold(U.shape[0]) if args.tol is None else args.tol
    passed, report = family.verify_membership(U, C, threshold=thr)
    out = _report_dict(U.shape[0], passed, report, thr)
    out["symmetry_defect"] = float(report.symmetry_defect)
    emit(out)
    note(f"membership: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_decompose(args):
    U, A = load_matrices(args.unitary, args.conjugation)
    C = AntilinearOperator(A)
    params = family.decompose(U, C)
    W, layout = canonical_form(U)
    out = {
        "pairs": [
            {"eigenvalue": [float(xi.real), float(xi.imag)], "size": int(m)}
            for xi, m in layout.pairs
        ],
        "ell": int(layout.ell),
        "kay": int(layout.kay),
        "v_blocks": [matrix_to_dict(v) for v in params.v_blocks],
        "q_plus": matrix_to_dict(params.q_plus),
        "q_minus": matrix_to_dict(params.q_minus),
    }
    if args.output:
        save_json(args.output, out)
        emit({k: out[k] for k in ("pairs", "ell", "kay")})
    else:
        emit(out)
    rebuilt = np.linalg.norm(family.from_params(layout, W, params).matrix - A)
    note(f"{len(params.v_blocks)} pair blocks, ell={layout.ell}, kay={layout.kay}, "
         f"rebuilt member {rebuilt:.3e} from C")
    return EXIT_OK


def cmd_fourunit(args):
    A = load_matrix(args.matrix)
    try:
        scale, factors = four_unitary_split(A)
    except InputError as e:  # A loaded square and finite: only ||A||_2 overflowing is left
        raise InputError(f"{args.matrix}: {e}") from None
    residual = _frobenius(A - scale * sum(factors))
    defects = [unitarity_defect(u) for u in factors]
    bound = SPLIT_TOL + _frobenius(SPLIT_TOL * A)  # finite however large ||A||_F
    emit({
        "scale": float(scale),
        "operator_norm": float(2 * scale),
        "residual": residual,
        "unitarity_defects": defects,
    })
    note(f"residual {residual:.3e}")
    return EXIT_TOLERANCE if residual > bound or max(defects) > SPLIT_TOL else EXIT_OK


def _frobenius(X):
    """np.linalg.norm(X) of X / s times s, s = 2**floor(log2(max |re|, |im|)):
    the power of two scales exactly, so the value is norm's bit for bit
    wherever that stays finite, and no square overflows."""
    peak = max(np.abs(X.real).max(initial=0.0), np.abs(X.imag).max(initial=0.0))
    s = float(2.0 ** np.floor(np.log2(peak or 1.0)))
    return s * float(np.linalg.norm(X / s))


def cmd_measure(args):
    needed = 1 if args.action in ("reflect", "rn") else 2
    if len(args.files) != needed:
        files = "one measure file" if needed == 1 else "two measure files"
        raise InputError(f"measure {args.action} needs {files}")
    if args.action == "reflect":
        mu = load_measure(args.files[0])
        emit(measure_to_dict(measures.reflect(mu)))
    elif args.action == "rn":
        mu = load_measure(args.files[0])
        try:
            h = measures.radon_nikodym(mu)
        except InputError as e:  # the ambiguous pairing, or a weight ratio out of range
            raise InputError(f"{args.files[0]}: {e}") from None
        emit({"h": [float(v) for v in h]})
    else:
        mu, nu = load_measure(args.files[0]), load_measure(args.files[1])
        op = measures.lattice_meet if args.action == "meet" else measures.lattice_join
        emit(measure_to_dict(op(mu, nu)))
    note(f"measure {args.action}: ok")
    return EXIT_OK


def _grid_demo_report(kind, order, degree, preset, conj):
    return {
        "kind": kind,
        "order": int(order),
        "degree": int(degree),
        "preset": preset,
        "isometry_defect": float(conj.isometry_defect()),
        "involution_defect": float(conj.involution_defect()),
        "commutation_defect": float(conj.commutation_defect()),
    }


def cmd_shift_demo(args):
    from . import shifts  # the demos alone need it: other commands skip its import

    M = args.order
    if M < 1:
        raise InputError("grid order must be at least 1")
    if args.degree == 1:
        if args.preset != "sincos":
            raise InputError("degree 1 supports the 'sincos' preset only")
        t = shifts.grid_arguments(M)
        conj = shifts.UMultiplierConjugation(np.exp(1j * np.cos(t)))
    elif args.degree == 2:
        if M % 2 != 0:
            raise InputError("--order must be even for degree 2")
        tau = shifts.grid_arguments(M // 2)
        zero = np.zeros(M // 2)
        if args.preset == "sincos":
            params = shifts.SymbolParams(np.sin(np.abs(tau)), zero, zero, zero)
        else:
            params = shifts.SymbolParams(np.full(M // 2, 0.5), np.abs(tau), zero, zero)
        conj = shifts.squared_shift_conjugation(params, M)
    else:
        raise InputError("--degree must be 1 or 2")
    report = _grid_demo_report("shift", M, args.degree, args.preset, conj)
    emit(report)
    note(f"grid defects <= {max(report['isometry_defect'], report['involution_defect'], report['commutation_defect']):.3e}")
    return EXIT_OK


def _transform_demo(args, kind):
    from . import transforms  # the demos alone need it: other commands skip its import

    N = args.size
    model = (transforms.FourBlockModel if kind == "fourier" else transforms.TwoBlockModel)(N)
    rng = np.random.default_rng(_seed(args))
    if kind == "fourier":
        m = N // 4
        C = transforms.fourier_conjugation(
            N,
            transforms.real_symmetric_orthogonal(m, rng),
            transforms.real_symmetric_orthogonal(m, rng),
            haar_unitary(m, rng),
        )
    else:
        C = transforms.hilbert_conjugation(N, haar_unitary(N // 2, rng))
    passed, report = family.verify_membership(model.matrix(), C, threshold=DEMO_TOL * N)
    emit({**_report_dict(N, passed, report, DEMO_TOL * N), "kind": kind, "seed": int(args.seed)})
    note(f"{kind} demo: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_fourier_demo(args):
    return _transform_demo(args, "fourier")


def cmd_hilbert_demo(args):
    return _transform_demo(args, "hilbert")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conjugations",
        description="Commuting conjugations of unitary operators: check, construct, sample, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="self-duality verdict with mismatch report")
    p.add_argument("unitary")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("canonical", help="canonical commuting conjugation")
    p.add_argument("unitary")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("sample", help="random member of the commuting family")
    p.add_argument("unitary")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="membership defects and verdict")
    p.add_argument("unitary")
    p.add_argument("conjugation")
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="recover the block parameters of a member")
    p.add_argument("unitary")
    p.add_argument("conjugation")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("fourunit", help="four-unitary decomposition of a square matrix")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_fourunit)

    p = sub.add_parser("measure", help="atomic measure operations")
    p.add_argument("action", choices=["reflect", "rn", "meet", "join"])
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("shift-demo", help="grid shift conjugation defect report")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--preset", choices=["sincos", "lambda"], default="sincos")
    p.set_defaults(func=cmd_shift_demo)

    p = sub.add_parser("fourier-demo", help="random Fourier-model conjugation report")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fourier_demo)

    p = sub.add_parser("hilbert-demo", help="random Hilbert-model conjugation report")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_hilbert_demo)

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code else EXIT_OK
    try:
        return args.func(args)
    except InputError as e:
        emit({"error": {"code": EXIT_INPUT, "message": str(e)}})
        note(f"error: {e}")
        return EXIT_INPUT
    except (NotSelfDualError, AbsoluteContinuityError, MembershipError) as e:
        emit({"error": {"code": EXIT_REFUSED, "message": str(e)}})
        note(f"refused: {e}")
        return EXIT_REFUSED
    except ToleranceError as e:
        emit({"error": {"code": EXIT_TOLERANCE, "message": str(e)}})
        note(f"tolerance failure: {e}")
        return EXIT_TOLERANCE


def main():
    """Process entry: run() with the cyclic garbage collector off, then
    freeze what exists so the exit's collection skips it.  A command makes no
    cycles worth collecting (a JSON matrix is a tree of lists, numpy arrays
    hold no containers); run() leaves the collector to its caller."""
    gc.disable()
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
