"""Test-session setup: pin the BLAS thread pools to one thread.

Pytest loads this file before any test module imports numpy, and BLAS reads
these variables only when it is first loaded.  With one thread the results
do not depend on the core count, and a test's run time does not swing with
other processes competing for the cores.  A value already set in the
environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
