"""Pseudospectral simulator and verification harness for the coupled
Schrodinger / improved-Boussinesq system and its Zakharov limit on a
rectangle with homogeneous Dirichlet boundary conditions."""

__version__ = "0.1.0"

import os

# The grid transforms are many small dense matrix products, which a BLAS
# thread pool does not speed up and slows down when another process holds
# a core (on 2 cores with one busy, the default `sibsim run` took twice as
# long with two threads).  Unless the environment sizes the pool itself,
# use one BLAS thread.  This takes effect only if numpy is not loaded yet.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .grids import Field, Grid2D, analyze, make_grid, synthesize
from .dynamics import (
    State,
    SystemParams,
    integrate,
    make_state,
    picard_duhamel,
    strang_step,
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
    "synthesize",
    "State",
    "SystemParams",
    "integrate",
    "make_state",
    "picard_duhamel",
    "strang_step",
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
