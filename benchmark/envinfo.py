"""Environment record attached to every benchmark result."""

import ctypes
import os
import platform
import subprocess

THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads():
    """Thread count of every OpenBLAS loaded by numpy and scipy, as the library set it.

    Read through ctypes from the shared objects mapped into this process
    (threadpoolctl is not available); nothing is pinned.
    """
    import numpy  # noqa: F401  (loads the BLAS this reports on)
    import scipy.linalg  # noqa: F401

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[os.path.basename(path)] = fn()
                break
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def record(root, workload, seed, threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads,
        "git_commit": git_commit(root),
        "workload": workload,
        "seed": seed,
    }
