import os
import sys

# One BLAS thread, set before numpy loads: threaded BLAS sums in an order
# that depends on the core count, and with it Newton steps and certificates.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, os.path.dirname(__file__))
