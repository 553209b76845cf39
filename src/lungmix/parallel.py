"""Thread pools that own the cores.

numpy's bundled OpenBLAS runs a matrix product such as the log-mel
`power @ fb.T` on threads of its own, which spin between calls on the cores a
pool's workers need. While any `worker_pool` is open, OpenBLAS keeps to the
calling thread; its previous thread count returns when the last pool closes.
A single thread gives the same bytes. With another BLAS the pools are plain
thread pools.
"""

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

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
