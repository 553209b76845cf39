"""The process policy: one heap, held.

glibc hands a record's freed multi-MB buffers back to the kernel, so the next
record maps and page-faults them afresh; held in the heap, they are reused.
glibc also gives each thread that allocates its own arena, each keeping its
own freed blocks up to the trim threshold; capped at one arena, the augment
workers and the exporting thread share the main heap, so freed memory is held
once per process, not once per thread.

Every setting holds for the whole process, so importing lungmix applies
none: `claim_process` does, once. The command line and the experiment
script call it first, and a program that uses the library opts in by calling
it.
"""

import ctypes
from functools import lru_cache

# glibc's `mallopt` parameters, and the values `claim_process` sets. The
# largest per-record temporaries fit below the mmap threshold: `bandpass`'s
# work buffers (1.15 MB each for 9 s at 16 kHz, 3.2 MB at 44.1 kHz), the
# 128x898 float64 log-mel bins (0.92 MB) and the PCM buffer.
# The trim threshold is twice that, so a freed block is not handed back at once.
# One arena: every thread allocates from the main heap.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 8 << 20
ARENA_MAX = 1


@lru_cache(maxsize=None)
def claim_process() -> None:
    """For the rest of the process: allocate on every thread from one heap,
    serve blocks below `MMAP_THRESHOLD` from it and keep up to
    `TRIM_THRESHOLD` of freed memory there.

    By default glibc raises its thresholds only to the largest block freed so
    far, so a record's multi-MB temporaries go back to the kernel when freed
    and are faulted in again by the next record. By default it also gives
    each allocating thread an arena of its own (up to 8 per core), and each
    arena keeps its own freed blocks, so the memory held grows with
    `--workers`. The arena cap binds only threads that allocate after it, so
    callers make this call before starting a pool. Applied once, whatever the
    number of calls; the cap is set whether or not the thresholds are. A
    no-op where libc has no `mallopt`, or it fails.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_ARENA_MAX, ARENA_MAX)
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
