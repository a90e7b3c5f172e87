"""Test-session set-up: one BLAS/OpenMP thread unless the caller says
otherwise.

The suite runs many small dense problems (64- to 1024-dimensional), where
multi-threaded BLAS spends more time synchronising than computing.  This
file is imported before any test module, so the variables are set before
numpy loads; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
