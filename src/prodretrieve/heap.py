"""Give the C heap's free pages back to the OS, through stdlib ctypes.

glibc returns freed memory to the OS only from the top of its heap, and
only once the free space there passes the trim threshold. Whether an
operation's transient arrays end at the top depends on the small objects
allocated around them, down to the length of a path string. A process
that re-ranked 600 queries against 400 gallery items (k1 = 30) and then
ranked the result peaked at 44.7, 46.3 or 47.6 MB, one of the three set
by the length of its working directory's name. `trim` calls glibc's
`malloc_trim(0)`, which releases every whole free page of every arena
wherever it lies; with it after the re-rank the same process peaked at
44.2-44.9 MB over 64 directory names, the level it reaches under a fixed
`MALLOC_MMAP_THRESHOLD_=131072`. A call takes 0.4-0.7 ms there (2 vCPUs,
glibc 2.36). Where the C library has no `malloc_trim` (musl, macOS)
`trim` does nothing.
"""
from __future__ import annotations

import ctypes
import functools


@functools.cache
def _malloc_trim():
    """glibc's `int malloc_trim(size_t pad)`, or None, looked up on first use."""
    try:
        fn = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_size_t], ctypes.c_int
    return fn


def trim() -> None:
    """Release the heap's free pages to the OS; without glibc, nothing."""
    fn = _malloc_trim()
    if fn is not None:
        fn(0)
