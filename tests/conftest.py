"""Test-session set-up that must run before numpy is imported.

Criterion 7 makes about 80 000 eigvalsh calls on 16 x 16 sector blocks;
under a multithreaded OpenBLAS each pays a thread hand-off, and on a busy
machine the run stalls.  One BLAS thread is the default for the suite; a
value the caller already set is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
