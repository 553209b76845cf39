"""Process-wide resources: thread pools that own the cores, and the heap.

numpy's bundled OpenBLAS runs a matrix product such as the log-mel
`power @ fb.T` on threads of its own, which spin between calls on the cores a
pool's workers need. While any `worker_pool` is open, OpenBLAS keeps to the
calling thread; its previous thread count returns when the last pool closes.
A single thread gives the same bytes. With another BLAS the pools are plain
thread pools.

`hold_heap` keeps each record's freed buffers in glibc's heap, so the next
record reuses them instead of mapping and page-faulting them afresh. It
changes the allocator of the whole process, so importing lungmix never calls
it: the command line and the experiment script do, once, and a program that
uses the library opts in by calling it.
"""

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

# glibc's `mallopt` parameters, and the values `hold_heap` sets. The largest
# per-record temporaries fit below the mmap threshold: `sosfiltfilt`'s work
# buffers (1.15 MB each for 9 s at 16 kHz, 3.2 MB at 44.1 kHz), the 898x257
# float64 power matrix of the log-mel (1.85 MB) and the PCM buffer. The trim
# threshold is twice that, so a freed block is not handed back at once.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 8 << 20

_lock = threading.Lock()
_open = 0  # worker pools open now, in any thread
_saved = 0  # OpenBLAS's thread count before the first of them opened


def cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _openblas():
    """(get, set) of the thread count of the OpenBLAS in numpy's wheel, or
    None when numpy links another BLAS. Looked up once, at the first pool."""
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
def hold_heap() -> None:
    """Serve blocks below `MMAP_THRESHOLD` from the heap and keep up to
    `TRIM_THRESHOLD` of freed memory there, for the rest of the process.

    By default glibc raises its thresholds only to the largest block freed so
    far, so a record's multi-MB temporaries go back to the kernel when freed
    and are faulted in again by the next record. Applied once, whatever the
    number of calls; a no-op where libc has no `mallopt` or it fails. Where
    buffers live does not change what is computed in them.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


@contextmanager
def worker_pool(workers: int | None = None):
    """A `ThreadPoolExecutor` of `workers` threads (default: `cores()`), with
    OpenBLAS on one thread until it and every other open pool have closed."""
    global _open, _saved
    blas = _openblas()
    with _lock:
        if blas and not _open:
            _saved = blas[0]()
            blas[1](1)
        _open += 1
    try:
        with ThreadPoolExecutor(max_workers=workers or cores()) as pool:
            yield pool
    finally:
        with _lock:
            _open -= 1
            if blas and not _open:
                blas[1](_saved)
