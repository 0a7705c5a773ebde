import os
import sys

import pytest

# One BLAS thread, set before numpy loads: threaded BLAS sums in an order
# that depends on the core count, and with it Newton steps and certificates.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, os.path.dirname(__file__))


# Tests that take minutes; `-m "not slow"` leaves them out of a quick loop.
SLOW = ("test_acceptance.py::"
        "test_hybrid_solves_large_games_beyond_first_order_reach",)


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.endswith(SLOW):
            item.add_marker(pytest.mark.slow)
