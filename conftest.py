"""Pin BLAS to one thread for the whole test suite.

pytest loads this root conftest before any test module imports numpy, so
OpenBLAS and friends start single-threaded.  On a small shared host, idle
BLAS threads spinning against other work made the suite many times slower;
an explicit setting in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
