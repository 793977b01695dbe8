"""One BLAS thread while roomtune computes.

numpy and scipy each ship their own OpenBLAS, and each starts a thread
pool as wide as the host. roomtune's matrices are small (at most a few
hundred rows), so the threads only add overhead, and the blocking a
threaded factorization picks depends on the thread count, which made
the fitted hyperparameters, and so the artifacts, differ from host to
host. :func:`single_blas_thread` caps every pool it finds at one thread
and restores the previous counts on exit; with it, artifacts are the
same whatever ``OPENBLAS_NUM_THREADS`` says.

The pools are found by symbol through the extension modules that link
them, so no library path is guessed. A BLAS build without these symbols
is left alone, with one DEBUG line saying so.
"""

from __future__ import annotations

import ctypes
import logging
from contextlib import contextmanager

import numpy.linalg._umath_linalg as numpy_blas_user
import scipy.linalg._fblas as scipy_blas_user

logger = logging.getLogger(__name__)

# (set, get) symbol pairs of the OpenBLAS builds that numpy and scipy
# wheels bundle (64-bit and 32-bit integer interfaces), then plain
# OpenBLAS as a system package exports them.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _linked_libraries():
    """Shared objects of the extension modules that call numpy's and
    scipy's BLAS; a symbol lookup through one also searches the
    libraries it links."""
    return [ctypes.CDLL(module.__file__) for module in (numpy_blas_user, scipy_blas_user)]


def _openblas_pools() -> list[tuple]:
    """(set, get) thread-count functions of each OpenBLAS pool found; a
    pool that numpy and scipy share is listed twice, which is harmless."""
    pools = []
    for library in _linked_libraries():
        for set_name, get_name in _SYMBOLS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                pools.append((getattr(library, set_name), getattr(library, get_name)))
                break
    return pools


@contextmanager
def single_blas_thread():
    """Run the body with every OpenBLAS pool at one thread, then restore
    each pool's previous count. Usable as a decorator."""
    pools = _openblas_pools()
    if not pools:
        logger.debug("no OpenBLAS thread-count symbol found; BLAS threads left as they are")
    previous = [getter() for _, getter in pools]
    for setter, _ in pools:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(pools, previous):
            setter(count)
