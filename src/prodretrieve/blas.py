"""Thread control of the OpenBLAS that numpy loaded, through stdlib ctypes.

OpenBLAS splits each call over all its threads, and a thread that is done
spins for a while before it sleeps. Code that alternates small BLAS calls
with single-threaded numpy work pays that spin in CPU time. `one_blas_thread`
pins BLAS to one thread for a block; `overlapped` computes the next block of
a sequence on a helper thread while the caller works on the current one.
Where no control is found (another BLAS, or no /proc/self/maps), both run
inline as plain numpy would.

The `prodretrieve` command starts OpenBLAS on one thread (see `__main__`),
so inside it the pin finds the count at 1 already; it matters to programs
that import the library beside a multi-threaded BLAS. `search`'s thread
pool runs inside `one_blas_thread` as well, so its threads do not each
start a multi-threaded BLAS call.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy  # noqa: F401  (loads the BLAS this module controls)

# (get, set) names: numpy 2.x wheels, older wheels, system builds
_NAMES = [(f"{p}_get_num_threads{s}", f"{p}_set_num_threads{s}")
          for p, s in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))]


@functools.cache
def controls() -> tuple:
    """(get, set) of every loaded library that exports one pair of _NAMES,
    looked up on first use."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = dict.fromkeys(f[5].strip() for f in (line.split(None, 5) for line in fh)
                                  if len(f) == 6 and "blas" in f[5])
    except OSError:
        return ()
    found = []
    for path in paths:
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            names = next((p for p in _NAMES if hasattr(lib, p[0]) and hasattr(lib, p[1])), None)
            if names:
                get, set_ = getattr(lib, names[0]), getattr(lib, names[1])
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
    return tuple(found)


# BLAS's thread count belongs to the whole process, and so does the pin
_lock = threading.Lock()
_pin = {"depth": 0, "saved": []}


@contextlib.contextmanager
def one_blas_thread():
    """BLAS runs on one thread inside the block. Nested and concurrent
    entries share one pin; the last exit restores the earlier counts."""
    with _lock:
        if _pin["depth"] == 0:
            _pin["saved"] = [get() for get, _ in controls()]
            for _, set_ in controls():
                set_(1)
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _lock:
            _pin["depth"] -= 1
            if _pin["depth"] == 0:
                for (_, set_), count in zip(controls(), _pin["saved"]):
                    set_(count)


def overlapped(produce, starts, bufs):
    """Yield (start, produce(start, buf)) for each start, in order.

    With a control, BLAS is pinned to one thread, and one helper thread
    computes the next block into the other of the two `bufs` while the
    caller works on the block yielded; the caller must be done with a block
    when it asks for the next. The helper is joined before the generator
    ends. Without a control every block is computed inline into bufs[0].
    """
    starts = list(starts)
    if not controls():
        for start in starts:
            yield start, produce(start, bufs[0])
        return
    with one_blas_thread(), ThreadPoolExecutor(1) as helper:
        ahead = None
        for i, start in enumerate(starts):
            block = ahead.result() if ahead else produce(start, bufs[0])
            if i + 1 < len(starts):
                ahead = helper.submit(produce, starts[i + 1], bufs[(i + 1) % 2])
            yield start, block
