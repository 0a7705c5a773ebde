"""A fixed reference kernel that reads the host's speed during a run.

The benchmark was defined on a shared virtual machine whose speed drifts
by up to half of itself, over seconds and over minutes, with load from
outside it (README.md, "Bounds and run-to-run spread").  The benchmark
times this kernel before every set-up repeat, pass and run, and scales
the run's end-to-end times by ``REFERENCE_S`` over the kernel's mean
time in the run.  Both means take in the host's slow spells in the same
share, so the scaled times read about what they would on a host running
at the reference speed all along.  The kernel does not touch ``saddle_ssn``, so a change
to the package moves the scaled times as much as the raw ones.

The kernel mixes the two kinds of work the workloads do: a loop of
small numpy operations, where interpreter and call overhead dominate
(as in regret matching and the d = 200 Newton steps), and dense LU
solves, where BLAS and memory dominate (as in the d = 1200 Newton
steps).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A typical time of one kernel call on the machine the benchmark was
# defined on (2-vCPU Intel Xeon VM at 2.1 GHz, OpenBLAS on one thread);
# its fastest calls took 0.0118 s.
REFERENCE_S = 0.0150
SAMPLES_PER_CALL = 5
_SMALL_N = 100
_SMALL_LOOPS = 1000
_DENSE_N = 400
_DENSE_SOLVES = 4


class Reference:
    """Times of the reference kernel, sampled over a run."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.Philox(key=0))
        self._small = rng.standard_normal((_SMALL_N, _SMALL_N))
        self._x = np.full(_SMALL_N, 1.0 / _SMALL_N)
        dense = rng.standard_normal((_DENSE_N, _DENSE_N))
        self._dense = dense @ dense.T + _DENSE_N * np.eye(_DENSE_N)
        self._rhs = rng.standard_normal(_DENSE_N)
        self.times: list[float] = []

    def _kernel(self) -> None:
        for _ in range(_SMALL_LOOPS):
            np.maximum(self._small @ self._x, 0.0).sum()
        for _ in range(_DENSE_SOLVES):
            np.linalg.solve(self._dense, self._rhs)

    def sample(self, calls: int = SAMPLES_PER_CALL) -> None:
        for _ in range(calls):
            t0 = time.perf_counter()
            self._kernel()
            self.times.append(time.perf_counter() - t0)

    def scale(self, first: int = 0, stop: int | None = None) -> float:
        """Factor that brings times to the reference speed, from the
        samples ``first`` to ``stop`` in the order they were taken."""
        return REFERENCE_S / statistics.fmean(self.times[first:stop])
