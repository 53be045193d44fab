"""Test-session setup that must run before numpy is imported."""

import os

# One BLAS thread, as in perfbench/run.py: the code under test is
# single-threaded, and on a busy machine OpenBLAS's helper threads make
# small dense operations (the 6x6 expm in the oracles) hundreds of times
# slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
