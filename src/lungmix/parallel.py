"""The process policy: OpenBLAS on one thread, and the heap held.

numpy's bundled OpenBLAS runs a matrix product such as the log-mel
`power @ fb.T` on threads of its own, which spin between calls on the cores
the augment workers need; on one thread it gives the same bytes. glibc hands a
record's freed multi-MB buffers back to the kernel, so the next record maps
and page-faults them afresh; held in the heap, they are reused.

Both settings hold for the whole process, so importing lungmix applies
neither: `claim_process` does, once. The command line and the experiment
script call it first, and a program that uses the library opts in by calling
it.
"""

import ctypes
from functools import lru_cache
from pathlib import Path

# glibc's `mallopt` parameters, and the values `claim_process` sets. The
# largest per-record temporaries fit below the mmap threshold: `sosfiltfilt`'s
# work buffers (1.15 MB each for 9 s at 16 kHz, 3.2 MB at 44.1 kHz), the
# 898x257 float64 power matrix of the log-mel (1.85 MB) and the PCM buffer.
# The trim threshold is twice that, so a freed block is not handed back at once.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 8 << 20


@lru_cache(maxsize=None)
def _openblas():
    """(get, set) of the thread count of the OpenBLAS in numpy's wheel, or
    None when numpy links another BLAS. Looked up once."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # numpy has loaded it: this is the same copy
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, set_.argtypes, set_.restype = ctypes.c_int, (ctypes.c_int,), None
        return get, set_
    return None


@lru_cache(maxsize=None)
def claim_process() -> None:
    """For the rest of the process: keep OpenBLAS to the calling thread, serve
    blocks below `MMAP_THRESHOLD` from the heap and keep up to
    `TRIM_THRESHOLD` of freed memory there.

    By default glibc raises its thresholds only to the largest block freed so
    far, so a record's multi-MB temporaries go back to the kernel when freed
    and are faulted in again by the next record. Applied once, whatever the
    number of calls. Each half is a no-op where its library is absent: numpy
    links another BLAS, or libc has no `mallopt` or it fails.
    """
    blas = _openblas()
    if blas:
        blas[1](1)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
