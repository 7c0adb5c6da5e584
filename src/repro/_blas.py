"""One BLAS thread per process.

NumPy's OpenBLAS starts one thread per core.  Two things follow:

- OpenBLAS splits some reductions (gemv on wide inputs such as rcv1's)
  across its threads, so a cell's ``train_loss`` would depend on the
  host's core count and not only on its ``run_id``;
- every forked ``--jobs`` worker would start its own spin-waiting thread
  pool, and the workers would fight over the same cores.

:func:`pin_one_thread` runs once when :mod:`repro` is imported.  It finds
the OpenBLAS library numpy loaded (read from ``/proc/self/maps``; scipy's
own copy, which ``scipy.ndimage`` maps, too) and calls each copy's
``*set_num_threads*`` entry point through :mod:`ctypes`, overriding any
inherited ``OPENBLAS_NUM_THREADS``.
Forked workers (``run_cells`` and
:class:`~repro.federated.executor.ParallelExecutor`) inherit the setting,
so ``--jobs`` is the only parallelism.  On any other BLAS, or where
``/proc`` is missing, nothing changes and :func:`num_threads` returns
``None``.
"""

from __future__ import annotations

import ctypes
import functools
import os

#: ``(set, get)`` entry points, tried in order: the scipy-openblas builds
#: that numpy >= 2 (64-bit ints) and scipy bundle, the build older numpy
#: wheels bundled, plain OpenBLAS
_ENTRY_POINTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _mapped_openblas() -> list[str]:
    """Paths of mapped shared objects whose file name mentions openblas."""
    import numpy  # noqa: F401  (maps numpy's BLAS into this process)

    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = fields[5]
        if "openblas" in os.path.basename(path).lower() and path not in paths:
            paths.append(path)
    return paths


@functools.lru_cache(maxsize=None)
def _entry_points() -> tuple:
    """``(set, get)`` ctypes functions of each mapped OpenBLAS copy."""
    found = []
    for path in _mapped_openblas():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _ENTRY_POINTS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return tuple(found)


def num_threads() -> int | None:
    """Most threads any OpenBLAS copy uses now; ``None`` without OpenBLAS."""
    counts = [getter() for _, getter in _entry_points()]
    return max(counts) if counts else None


def pin_one_thread() -> None:
    """Make every mapped OpenBLAS copy run one thread (a no-op without one)."""
    for setter, _ in _entry_points():
        setter(1)
