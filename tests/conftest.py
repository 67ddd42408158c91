"""Test-session set-up that must run before numpy is imported.

A Metropolis step makes one eigvalsh call on the 16 x 16 even sector
block at n = 10 (two block calls when q = n/2 is even), so criterion 7
makes about 80 000 of them; under a multithreaded OpenBLAS each pays a
thread hand-off, and on a busy machine the run stalls.  One BLAS thread
is the default for the suite; a value the caller already set is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
