"""One-thread BLAS check and the numeric-environment record.

run.py sets the thread variables before numpy is imported.  This module
then asks every loaded OpenBLAS (numpy and scipy each bundle one) how
many threads it will use, through the library's own getter, and refuses
to report figures taken with more than one.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy
import scipy.linalg  # noqa: F401 - loads scipy's bundled OpenBLAS

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# numpy's OpenBLAS is built with 64-bit integers and suffixed symbols,
# scipy's with 32-bit integers and plain ones.
_GETTER_PREFIXES = ("scipy_openblas", "openblas")
_GETTER_SUFFIXES = ("64_", "")


def _loaded_blas_paths() -> list[str]:
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = {line.split()[-1] for line in fh
                 if "openblas" in line.rsplit("/", 1)[-1].lower()}
    return sorted(paths)


def _call(lib: ctypes.CDLL, stem: str, restype):
    for prefix in _GETTER_PREFIXES:
        for suffix in _GETTER_SUFFIXES:
            fn = getattr(lib, f"{prefix}_{stem}{suffix}", None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn()
    return None


def blas_libraries() -> list[dict]:
    """Path, configuration string and thread count of each loaded OpenBLAS."""
    out = []
    for path in _loaded_blas_paths():
        lib = ctypes.CDLL(path)
        config = _call(lib, "get_config", ctypes.c_char_p)
        out.append({
            "path": os.path.basename(path),
            "config": config.decode("ascii", "replace") if config else None,
            "threads": _call(lib, "get_num_threads", ctypes.c_int),
        })
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record() -> dict:
    """Numeric environment; raises RuntimeError unless BLAS has one thread."""
    libs = blas_libraries()
    if not libs:
        raise RuntimeError("no OpenBLAS library is loaded; cannot verify "
                           "the BLAS thread count")
    bad = [lib for lib in libs if lib["threads"] != 1]
    if bad:
        raise RuntimeError(f"BLAS is not pinned to one thread: {bad}")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": libs,
        "blas_threads": 1,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }
