"""Regularized semi-smooth Newton solver on the splitting residual.

Each outer iteration assembles one generalized Jacobian J at the
current point and line-searches over the damping parameter lambda: the
system (J + mu I) dz = -r with mu = lambda * |r| is solved, and the
candidate is accepted as soon as the residual norm strictly decreases,
which divides lambda by ``ell``; a failed trial multiplies lambda by
``ell`` (more damping, a shorter and safer step) and re-solves against
the same Jacobian.  The inner loop aborts once lambda leaves
[lambda_min, lambda_cap] or after a fixed number of trials, marking
the state stalled.

A separate adaptive schedule, keyed to the observed contraction
psi = |r_prev| / |r_new|, acts as the fallback regime: when the line
search stalls, it re-seeds lambda once and the search retries.
(Applying the schedule after every accepted step instead inflates
lambda without bound on slowly contracting stretches and suffocates
the iteration, so it is reserved for stalls.)  A stall that survives
the re-seed is treated as the signature of a weakly active support
coordinate: near-degenerate games can park the iterate at an interior
local minimum of the residual norm whose affine piece has no root, in
which case a checkpointed hop through a neighboring piece is tried
(see basin_hop).  Termination is by exact duality gap of the projected
iterate, not by residual norm, so the returned certificate is
unconditional.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .game import GapCertificate, duality_gap
from .jacobian import (LinearSolveError, ResidualJacobian, boundary_margins,
                       newton_solve, residual_jacobian)
from .splitting import DrsContext, ResidualValue, residual, restrict
from .trace import PHASE_SSN, TraceRow

FLAG_TARGET = "target"
FLAG_STALLED = "stalled"
FLAG_BUDGET = "budget"


@dataclass(frozen=True)
class SsnConfig:
    """Constants of the Newton phase.

    ``ell`` is the line-search ratio, ``lambda_cap`` the upper guard of
    the line search, ``lambda_min``/``lambda_max`` the hard range kept
    by the adaptive schedule, ``alpha1``/``alpha2`` its contraction
    thresholds and ``beta1``/``beta2`` its inflation factors.  The
    shrink factor of the strong-contraction branch is sqrt(|r_new|)
    clamped to [beta0_floor, beta0_ceil].
    """

    ell: float = 1.5
    lambda_cap: float = 1e9
    lambda_min: float = 1e-15
    lambda_max: float = 1e15
    alpha1: float = 1e-2
    alpha2: float = 5.0
    beta1: float = 2.0
    beta2: float = 5.0
    beta0_floor: float = 0.05
    beta0_ceil: float = 0.9
    max_newton_iters: int = 200
    target_gap: float = 1e-12
    max_line_search_trials: int = 60
    residual_zero_tol: float = 1e-14
    stall_activation_coords: int = 8
    stall_activation_cap: float = 1e-2
    stall_entry_lambda: float = 1e-6
    stall_hop_probation: int = 40
    stall_hop_overshoot: float = 1e4

    def __post_init__(self):
        if self.ell <= 1.0:
            raise ValueError(f"line-search ratio ell must exceed 1, got {self.ell}")
        if not 0.0 < self.lambda_min <= self.lambda_cap <= self.lambda_max:
            raise ValueError("lambda bounds must satisfy 0 < min <= cap <= max")
        if not 0.0 < self.alpha1 < self.alpha2:
            raise ValueError("contraction thresholds must satisfy 0 < alpha1 < alpha2")
        if self.beta1 <= 1.0 or self.beta2 <= 1.0:
            raise ValueError("inflation factors beta1, beta2 must exceed 1")
        if not 0.0 < self.beta0_floor <= self.beta0_ceil < 1.0:
            raise ValueError("beta0 clamp must satisfy 0 < floor <= ceil < 1")
        if self.max_newton_iters < 1 or self.max_line_search_trials < 1:
            raise ValueError("iteration budgets must be at least 1")
        if self.target_gap < 0.0:
            raise ValueError("target gap must be nonnegative")
        if self.stall_activation_coords < 0:
            raise ValueError("stall activation candidate count must be >= 0")
        if self.stall_activation_cap <= 0.0 or self.stall_entry_lambda <= 0.0:
            raise ValueError("stall recovery constants must be positive")
        if self.stall_hop_probation < 1 or self.stall_hop_overshoot < 1.0:
            raise ValueError("hop probation must be >= 1 and overshoot >= 1")


@dataclass
class SsnState:
    """Mutable solver state: current point, damping, cached residual."""

    z: np.ndarray
    lam: float
    residual: ResidualValue
    newton_steps_taken: int = 0
    converged: bool = False
    stalled: bool = False
    # Bookkeeping from the last accepted line search, consumed by the
    # adaptive damping update and by diagnostics.
    prev_norm: float = math.nan
    last_trials: int = 0


def make_state(ctx: DrsContext, z0, lambda0: float) -> SsnState:
    """Initialize solver state at a lifted point with starting damping."""
    if not np.isfinite(lambda0) or lambda0 <= 0.0:
        raise ValueError(f"initial damping must be positive, got {lambda0}")
    z = np.array(z0, dtype=float)
    return SsnState(z=z, lam=float(lambda0), residual=residual(ctx, z))


def newton_step(ctx: DrsContext, state: SsnState, config: SsnConfig,
                jac: ResidualJacobian | None = None,
                lam: float | None = None
                ) -> tuple[np.ndarray, ResidualValue] | None:
    """One damped Newton trial; no acceptance test applied.

    Returns the step and the residual at the candidate point, or None
    when the current residual is already numerically zero, in which
    case the caller should report convergence instead of stepping.
    """
    if state.residual.norm <= config.residual_zero_tol:
        return None
    if jac is None:
        jac = residual_jacobian(ctx, state.z)
    if lam is None:
        lam = state.lam
    mu = lam * state.residual.norm
    dz = newton_solve(jac, mu, state.residual)
    return dz, residual(ctx, state.z + dz)


def line_search_accept(ctx: DrsContext, state: SsnState,
                       config: SsnConfig) -> SsnState:
    """Run the damping line search at the current point.

    The Jacobian is assembled once and shared by all trials.  A trial
    whose residual norm strictly decreases is committed and divides
    lambda by ``ell``; otherwise lambda is multiplied by ``ell`` and
    the system re-solved with the heavier damping.  A trial whose
    linear solve fails numerically counts as a rejection.  If lambda
    leaves [lambda_min, lambda_cap] or the trial budget runs out, the
    state is returned unchanged except for a stalled flag.
    """
    if state.residual.norm <= config.residual_zero_tol:
        state.converged = True
        return state
    jac = residual_jacobian(ctx, state.z)
    lam = state.lam
    trials = 0
    while (config.lambda_min <= lam <= config.lambda_cap
           and trials < config.max_line_search_trials):
        trials += 1
        try:
            step = newton_step(ctx, state, config, jac=jac, lam=lam)
        except LinearSolveError:
            lam *= config.ell
            continue
        # Never None: the residual was checked above and is unchanged.
        dz, cand = step
        if cand.norm < state.residual.norm:
            state.prev_norm = state.residual.norm
            state.z = state.z + dz
            state.residual = cand
            state.last_trials = trials
            state.lam = max(config.lambda_min, lam / config.ell)
            state.newton_steps_taken += 1
            return state
        lam *= config.ell
    state.stalled = True
    state.last_trials = trials
    return state


# The hop solve ladder spans stall_entry_lambda times 10^k, and the
# probation after a hop restarts the line search from a light damping.
_HOP_RUNGS = 7
_HOP_PROBATION_LAMBDA = 1e-3


def basin_hop(ctx: DrsContext, state: SsnState, config: SsnConfig) -> bool:
    """Cross the ridge around a degenerate kink via a borderline piece.

    A hard stall is the signature of an equilibrium with a weakly
    active support coordinate: the current piece pins that coordinate
    at zero, its affine model has no root, and the residual norm sits
    at an interior local minimum, so any path out must climb before it
    can descend.  For each inactive coordinate near its block
    threshold, this routine takes one Newton step with that coordinate
    forced into the active set, commits it even though the residual
    rises, and lets the ordinary line search run on probation from the
    landing point.  The hop is kept as soon as the residual beats its
    pre-hop value, which plants all later iterates in the root's
    basin; otherwise the state is rolled back and the next candidate
    tried.  Returns False, with the state exactly restored, when no
    candidate leads anywhere better.
    """
    saved = (state.z.copy(), state.lam, state.residual, state.prev_norm,
             state.newton_steps_taken)
    best = state.residual.norm
    margins = boundary_margins(ctx, state.z)
    order = np.argsort(margins, kind="stable")
    for i in order[:config.stall_activation_coords]:
        if not margins[i] <= config.stall_activation_cap:
            break
        jac = residual_jacobian(ctx, state.z, force_active=(int(i),))
        hop = None
        for rung in range(_HOP_RUNGS):
            lam = config.stall_entry_lambda * 10.0 ** rung
            try:
                hop = newton_step(ctx, state, config, jac=jac, lam=lam)
            except LinearSolveError:
                continue
            break
        if hop is None:
            continue
        dz, cand = hop
        if cand.norm > config.stall_hop_overshoot * best:
            # Landing point out of all proportion to the stall scale:
            # this candidate models the wrong neighbor piece.
            continue
        state.z = state.z + dz
        state.residual = cand
        state.lam = _HOP_PROBATION_LAMBDA
        for _ in range(config.stall_hop_probation):
            line_search_accept(ctx, state, config)
            if state.converged:
                return True
            if state.stalled or state.residual.norm < best:
                break
        if not state.stalled and state.residual.norm < best:
            return True
        (z, lam, res, prev, taken) = saved
        state.z = z.copy()
        state.lam = lam
        state.residual = res
        state.prev_norm = prev
        state.newton_steps_taken = taken
        state.stalled = False
    return False


def adaptive_lambda_update(prev_norm: float, new_norm: float, lam: float,
                           config: SsnConfig) -> float:
    """Post-acceptance damping schedule keyed to observed contraction.

    The contraction is psi = prev_norm / new_norm (infinite when the new
    residual is exactly zero).  Branches: psi >= alpha2 shrinks lambda
    by sqrt(new_norm) clamped to the beta0 range, alpha1 <= psi < alpha2
    multiplies by beta1, psi < alpha1 multiplies by beta2.  The result
    always lies in [lambda_min, lambda_max].
    """
    for name, val in (("prev_norm", prev_norm), ("new_norm", new_norm),
                      ("lambda", lam)):
        if not np.isfinite(val) or val < 0.0:
            raise ValueError(f"{name} must be finite and nonnegative, got {val}")
    psi = math.inf if new_norm == 0.0 else prev_norm / new_norm
    if psi >= config.alpha2:
        beta0 = min(max(math.sqrt(new_norm), config.beta0_floor),
                    config.beta0_ceil)
        return max(config.lambda_min, beta0 * lam)
    if psi >= config.alpha1:
        return min(config.lambda_max, config.beta1 * lam)
    return min(config.lambda_max, config.beta2 * lam)


def drive_newton(ctx: DrsContext, state: SsnState, config: SsnConfig,
                 max_steps: int | None = None,
                 rows: list[TraceRow] | None = None,
                 clock_start: float | None = None, start_iteration: int = 0
                 ) -> tuple[int, GapCertificate, str]:
    """Run up to ``max_steps`` accepted Newton steps, tracing each.

    Starts from a state built by ``make_state`` and advances it in place.
    ``max_steps`` defaults to ``config.max_newton_iters``.  Appends to
    ``rows``, if given, one entry row at the starting point and one row
    per accepted step (gap of the projected iterate, residual norm,
    current damping, seconds since ``clock_start``, which defaults to
    the call); row iterations count on from ``start_iteration``.  A
    stalled line search triggers one adaptive re-seed of the damping
    followed by a retry; if the retry stalls too, the borderline-
    coordinate escape is attempted once per accepted step.  The run
    ends when neither recovery commits a step.  Returns the number of
    accepted steps, the last gap certificate, and a flag: "target" when
    the gap certificate meets target_gap, "stalled" when the line
    search gave up, "budget" when max_steps ran out.
    """
    t0 = time.perf_counter() if clock_start is None else clock_start
    if max_steps is None:
        max_steps = config.max_newton_iters
    if rows is None:
        rows = []
    steps = 0
    steps_at_recovery = -1
    steps_at_escape = -1
    while True:
        cert = duality_gap(ctx.game, restrict(ctx, state.z))
        rows.append(TraceRow(start_iteration + 1 + steps, PHASE_SSN, cert.gap,
                             state.residual.norm, state.lam,
                             time.perf_counter() - t0))
        if cert.gap <= config.target_gap:
            state.converged = True
            return steps, cert, FLAG_TARGET
        if steps >= max_steps:
            return steps, cert, FLAG_BUDGET
        line_search_accept(ctx, state, config)
        while state.stalled:
            state.stalled = False
            if steps != steps_at_recovery and math.isfinite(state.prev_norm):
                steps_at_recovery = steps
                state.lam = adaptive_lambda_update(state.prev_norm,
                                                   state.residual.norm,
                                                   state.lam, config)
                line_search_accept(ctx, state, config)
                continue
            if steps == steps_at_escape or not basin_hop(ctx, state, config):
                return steps, cert, FLAG_STALLED
            # The escape committed one accepted step, or converged.
            steps_at_escape = steps
        if state.converged:
            # Residual numerically zero: the projected point is an
            # equilibrium up to roundoff; certify and stop.
            cert = duality_gap(ctx.game, restrict(ctx, state.z))
            flag = (FLAG_TARGET if cert.gap <= config.target_gap
                    else FLAG_STALLED)
            return steps, cert, flag
        steps += 1
