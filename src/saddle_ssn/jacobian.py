"""Generalized Jacobians of the splitting residual and the Newton solve.

The simplex projection is piecewise affine, so away from kinks its
Jacobian is the matrix G = diag(a) - a a' / |a| built from the active
set a of strictly positive output coordinates.  Stacking both players
gives D, and the chain rule through the splitting step yields

    J = D - M^(-1) (2 D - I),

a valid generalized Jacobian of the residual.  J has positive
semidefinite symmetric part, so J + mu I is invertible for every
mu > 0 with inverse norm at most 1/mu.

D = B B' with B = blockdiag(E_x' C_x, E_y' C_y), where E selects the
active coordinates of a block and C = I - 1 1'/k centers them.
Multiplying the regularized system (J + mu I) dz = -r by M gives

    (M_mu + (gamma F - I) B B') dz = -M r,   M_mu = (1 + mu) I + mu gamma F,

and Woodbury's identity reduces it to one capacitance system
S = I + B' L_mu B of size kx + ky, with L_mu = M_mu^(-1) (gamma F - I).
Every function of F here is diagonal on the singular pairs of the
context's SVD (see splitting), so S costs three scaled products with
the active rows of the SVD factors, O(min(n, m) (kx + ky)^2), two of
them symmetric rank-k products, and one LU factorization per trial
through numpy's LAPACK; nothing of size n + m is factored.

A second lane, one worker thread, runs two jobs in the order they are
handed over (``run_on_lane``).  A line search may hand it its next
trial's solve: ``solve_ahead`` returns the lane's future, the search
passes it to that trial's ``newton_solve``, which returns its result,
and the search waits on any future it did not take before it returns.
Both lanes run the same pure solve on the same inputs, so the step is
the same bits either way.  And every hybrid builds its splitting
context there while regret matching runs (see hybrid).  The lane runs
only on jobs large enough for numpy to release the GIL, in processes
that may use two CPUs with BLAS at one thread (``newton_lanes``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .game import project_pair, project_simplex
from .splitting import DrsContext, ResidualValue, apply_spectral, resolve

if TYPE_CHECKING:
    from concurrent.futures import Future

# Projection coordinates above this are treated as active.  The
# thresholded projection produces exact zeros, so the cut is safe; at a
# kink the rule picks one valid element of the generalized Jacobian.
ACTIVATION_TOL = 1e-12


class LinearSolveError(RuntimeError):
    """The Newton system produced no usable solution."""


@dataclass(frozen=True)
class ProjectionJacobian:
    """Active-set form of the simplex projection Jacobian."""

    active_mask: np.ndarray

    def matrix(self) -> np.ndarray:
        """Materialize G = diag(a) - a a' / k with k active coordinates."""
        a = self.active_mask.astype(float)
        return np.diag(a) - np.outer(a, a) / a.sum()


def projection_jacobian(p) -> ProjectionJacobian:
    """Generalized Jacobian of project_simplex at p.

    The active set is read off the projection output itself; at least
    one coordinate is always active because the output sums to one.
    """
    mask = project_simplex(p) > ACTIVATION_TOL
    mask.setflags(write=False)
    return ProjectionJacobian(active_mask=mask)


def boundary_margins(ctx: DrsContext, z) -> np.ndarray:
    """Distance of each unsupported coordinate to its block threshold.

    Returns a stacked n+m vector: +inf on the support of the blockwise
    simplex projection, and for the remaining coordinates the
    (nonnegative) amount by which the pre-projection value falls short
    of activating.  Small entries flag weakly active coordinates whose
    piece boundary passes right next to z.
    """
    zv = np.asarray(z, dtype=float)
    n = ctx.game.n
    out = np.full(zv.size, np.inf)
    for lo, hi in ((0, n), (n, zv.size)):
        block = zv[lo:hi]
        x = project_simplex(block)
        active = x > ACTIVATION_TOL
        tau = float(np.mean(block[active] - x[active]))
        out[lo:hi] = np.where(active, np.inf,
                              np.maximum(tau - block, 0.0))
    return out


@dataclass(frozen=True)
class ResidualJacobian:
    """Active-set form of the generalized Jacobian at a point.

    ``rows`` and ``cols`` index the active coordinates of each player;
    ``left`` and ``right`` hold the SVD factor rows on them, centered
    over each active set, i.e. C_x E_x U and C_y E_y V.
    """

    ctx: DrsContext
    rows: np.ndarray
    cols: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @cached_property
    def index(self) -> np.ndarray:
        """Both active sets as stacked coordinates of z."""
        return np.concatenate([self.rows, self.ctx.game.n + self.cols])

    def _center(self, v: np.ndarray) -> np.ndarray:
        kx, ky = self.rows.size, self.cols.size
        v[:kx] -= v[:kx].sum(axis=0) / kx
        v[kx:] -= v[kx:].sum(axis=0) / ky
        return v

    def gather(self, w: np.ndarray) -> np.ndarray:
        """B' w: the centered active entries of each block."""
        return self._center(w[self.index])

    def scatter(self, s: np.ndarray) -> np.ndarray:
        """B s: center each block of s and scatter it onto its active set."""
        out = np.zeros((self.ctx.game.n + self.ctx.game.m,) + s.shape[1:])
        out[self.index] = self._center(s.copy())
        return out

    @property
    def matrix(self) -> np.ndarray:
        """Dense J, built on first use as a reference for tests only."""
        eye = np.eye(self.ctx.game.n + self.ctx.game.m)
        d = self.scatter(self.gather(eye))
        return d - resolve(self.ctx, 2.0 * d - eye)


def residual_jacobian(ctx: DrsContext, z,
                      res: ResidualValue | None = None) -> ResidualJacobian:
    """Generalized Jacobian of the residual at z, in active-set form.

    D is the block-diagonal projection Jacobian of both simplex blocks;
    only its active sets and the matching rows of the SVD factors are
    kept, read from ``res.p`` when ``res`` is the residual at z.
    """
    n = ctx.game.n
    p = res.p if res is not None and res.p is not None else project_pair(n, z)
    mask = p > ACTIVATION_TOL
    rows, cols = np.flatnonzero(mask[:n]), np.flatnonzero(mask[n:])
    left = ctx.left[rows]
    right = ctx.right[cols]
    return ResidualJacobian(ctx, rows, cols, left - left.mean(axis=0),
                            right - right.mean(axis=0))


def newton_solve(jac: ResidualJacobian, mu: float, res: ResidualValue,
                 ahead: Future | None = None) -> np.ndarray:
    """Solve the regularized Newton system (J + mu I) dz = -r.

    mu > 0 guarantees solvability because the symmetric part of J is
    positive semidefinite, which also bounds |dz| <= |r| / mu.  With
    g = M_mu^(-1) M r the step is dz = -(g - L_mu B S^(-1) B' g).  The
    solve is verified a posteriori on the original system; NaN
    contamination or an excessive backward error raises
    LinearSolveError.  ``ahead``, the future ``solve_ahead`` returned
    for this very solve, is waited on and its result taken instead; an
    error it raised is raised here.
    """
    if ahead is not None:
        return ahead.result()
    return _solve(jac, mu, res)


def _solve(jac: ResidualJacobian, mu: float,
           res: ResidualValue) -> np.ndarray:
    # Runs on the second lane too, so it must not call what a profiler
    # may wrap: resolve is spelled out as apply_spectral.
    if not np.isfinite(mu) or mu <= 0.0:
        raise ValueError(f"regularization mu must be positive, got {mu}")
    ctx, kx, ky = jac.ctx, jac.rows.size, jac.cols.size
    # On a singular pair, with s = i gamma sigma, M_mu^(-1) M and L_mu
    # are (1 + s)/den and (s - 1)/den, den = (1 + mu) + mu s.  Each is
    # passed as its value at s = 0 plus the remainder, written so that
    # it vanishes exactly at sigma = 0.
    s = ctx.spin
    t = (1.0 + mu) * ((1.0 + mu) + mu * s)
    ell = s * (1.0 + 2.0 * mu) / t
    g = apply_spectral(ctx, s / t, 1.0 / (1.0 + mu), res.r, res.coords(ctx))
    # S = I + B'L_mu B = mu/(1+mu) I + blockdiag(1 1'/k)/(1+mu) + the
    # pair part, whose (y, x) block is minus the transpose of (x, y).
    # Re ell = mu (1 + 2 mu) w^2 / ((1 + mu) ((1 + mu)^2 + mu^2 w^2)) >= 0
    # with w = gamma sigma, so each diagonal block is a Gram product W W'.
    root = np.sqrt(ell.real)
    cap = np.empty((kx + ky, kx + ky))
    w_left = jac.left * root
    w_right = jac.right * root
    cap[:kx, :kx] = w_left @ w_left.T
    cap[:kx, kx:] = (jac.left * ell.imag) @ jac.right.T
    cap[kx:, :kx] = -cap[:kx, kx:].T
    cap[kx:, kx:] = w_right @ w_right.T
    cap[:kx, :kx] += 1.0 / ((1.0 + mu) * kx)
    cap[kx:, kx:] += 1.0 / ((1.0 + mu) * ky)
    cap.reshape(-1)[::kx + ky + 1] += mu / (1.0 + mu)
    try:
        y = np.linalg.solve(cap, jac.gather(g))
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"Newton system solve failed: {exc}") from exc
    dz = apply_spectral(ctx, ell, -1.0 / (1.0 + mu), jac.scatter(y)) - g
    if not np.isfinite(dz).all():
        raise LinearSolveError("Newton system produced non-finite step")
    d_dz = jac.scatter(jac.gather(dz))
    lhs = (d_dz - apply_spectral(ctx, ctx.resolvent, 1.0, 2.0 * d_dz - dz)
           + mu * dz)
    backward = np.linalg.norm(lhs + res.r)
    if backward > 1e-10 * (res.norm + 1.0):
        raise LinearSolveError(
            f"Newton system solve residual {backward:.3e} exceeds tolerance")
    return dz


# The second lane.  A line search may start the solve of its next trial
# on a worker thread while the calling thread solves the current one;
# numpy drops the GIL inside BLAS and LAPACK, so the two solves run on
# two cores.  But numpy keeps the GIL through np.linalg.solve unless
# the system has more than 500 unknowns, so below _LANE_MIN_K = kx + ky
# the two LUs take turns and the second lane costs more than it saves:
# on uniform hybrids with one BLAS thread, lanes made the Newton phase
# 12-15% slower at k = 475-492 and 22% faster at k = 540.  A hybrid's
# context build, one SVD of the n x m payoff, goes to the lane under
# the same gate on n + m.  With more than one BLAS thread, or a single
# usable CPU, the lanes would only compete for the same cores.
_LANE_MIN_K = 501
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set in processes that already run one per core, such as a pool worker.
_one_lane = False
# The second lane's executor, made on first use.
_lane = None
_lane_lock = threading.Lock()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def newton_lanes() -> int:
    """Lanes the large jobs of this process run on: 1 or 2.

    Two when the process may run on at least two CPUs and every BLAS
    thread variable that is set reads 1 (at least one must be set), and
    ``hold_one_lane`` was not called.
    """
    if _one_lane:
        return 1
    values = [os.environ.get(v) for v in _THREAD_VARS]
    pinned = any(values) and all(v in (None, "1") for v in values)
    return 2 if pinned and usable_cpus() >= 2 else 1


def hold_one_lane() -> None:
    """Run every job of this process on the calling thread."""
    global _one_lane
    _one_lane = True


def _forget_lane() -> None:
    # A forked child has no copy of the parent's worker thread, and a
    # lock some other thread held at the fork stays held in the child.
    global _lane, _lane_lock
    _lane, _lane_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane)


def run_on_lane(size: int, fn, *args) -> Future | None:
    """Start ``fn(*args)`` on the second lane, if it runs for ``size``.

    ``size`` measures the job: kx + ky for a Newton solve, n + m for a
    context build.  The lane runs it when ``size`` is at least
    ``_LANE_MIN_K`` and the process has two lanes (``newton_lanes``);
    then this returns the lane's future, else None and the caller runs
    it itself.  A caller joins its job before it hands over another, so
    the lane is idle unless several threads share it; their jobs then
    queue on the one worker, and none waits on another.
    """
    global _lane
    if size < _LANE_MIN_K or newton_lanes() < 2:
        return None
    with _lane_lock:
        if _lane is None:
            # Imported here: it adds about 4 ms to every CLI start.
            from concurrent.futures import ThreadPoolExecutor

            # One thread serves the process: a thread per hand-off
            # measured the same time, but one benchmark run in six
            # peaked 7 MB higher, as a new thread can start before the
            # last one has given back its malloc arena.
            _lane = ThreadPoolExecutor(1, thread_name_prefix="saddle-ssn-lane")
        return _lane.submit(fn, *args)


def solve_ahead(jac: ResidualJacobian, mu: float,
                res: ResidualValue) -> Future | None:
    """Start ``newton_solve(jac, mu, res)`` on the second lane, if it runs.

    It runs for kx + ky unknowns (see ``run_on_lane``); then this
    returns the lane's future, else None.  ``newton_solve(jac, mu, res,
    ahead=future)`` takes its result, bit for bit the one it would have
    computed.
    """
    # Fill both lazy caches here, so the two lanes only read them; the
    # search's current trial reads the same ones on the calling thread.
    res.coords(jac.ctx)
    return run_on_lane(jac.index.size, _solve, jac, mu, res)
