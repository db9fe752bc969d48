"""Test-session setup: numpy's BLAS runs on one thread.

Every array of the suite is small (at most a few hundred rows), so BLAS
threads buy nothing, and the first mid-sized LAPACK call of a threaded
process can stall for most of a second while the thread pool starts.  The
variable must be set before numpy is first imported; no test module or
installed pytest plugin imports numpy ahead of this file.  An explicit
setting in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
