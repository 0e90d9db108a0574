"""Pseudospectral simulator and verification harness for the coupled
Schrodinger / improved-Boussinesq system and its Zakharov limit on a
rectangle with homogeneous Dirichlet boundary conditions."""

__version__ = "0.1.0"

import ctypes
import os

# The grid transforms are many small dense matrix products, which a BLAS
# thread pool does not speed up and slows down when another process holds
# a core (on 2 cores with one busy, the default `sibsim run` took twice as
# long with two threads).  Unless the environment sizes the pool itself,
# use one BLAS thread.  This takes effect only if numpy is not loaded yet.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

# glibc serves every block above M_MMAP_THRESHOLD (128 KiB at start) with its
# own mmap, unmaps it on free, and trims the top of the heap, so the 147 to
# 256 KiB temporaries of every monitor row (the 96^2 product of `dudt`, the
# 128^2 `lp_norm`) and of every Yosida Taylor term are faulted in afresh on
# each call.  Freeing a large mmapped block raises both thresholds on its
# own, which is why that cost depended on what the process had run before.
# Unless the environment tunes the allocator itself, fix the thresholds once:
# blocks up to 32 MiB come from the heap, and the heap top is trimmed only
# beyond 64 MiB free.  Where there is no glibc `mallopt`, nothing happens.
_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
if not any(var in os.environ for var in _MALLOC_VARS):
    try:
        _libc = ctypes.CDLL(None)
        _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass

from .grids import Field, Grid2D, analyze, make_grid
from .dynamics import (
    State,
    SystemParams,
    integrate,
    make_state,
    picard_duhamel,
)
from .functionals import (
    DataNorms,
    EnvelopeConstants,
    charge,
    difference_metric,
    energy,
    estimate_gn_constant,
    gn_quotient,
)
from .config import RunConfig, load_config

__all__ = [
    "__version__",
    "Field",
    "Grid2D",
    "analyze",
    "make_grid",
    "State",
    "SystemParams",
    "integrate",
    "make_state",
    "picard_duhamel",
    "DataNorms",
    "EnvelopeConstants",
    "charge",
    "difference_metric",
    "energy",
    "estimate_gn_constant",
    "gn_quotient",
    "RunConfig",
    "load_config",
]
