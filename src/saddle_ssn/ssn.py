"""Regularized semi-smooth Newton solver on the splitting residual.

Each outer iteration assembles one generalized Jacobian J at the
current point and line-searches over the damping parameter lambda: the
system (J + mu I) dz = -r with mu = lambda * |r| is solved, and the
candidate is accepted as soon as the residual norm strictly decreases;
a failed trial multiplies lambda by ``ELL`` (more damping, a shorter
and safer step) and re-solves against the same Jacobian.  An accepted
step sets the damping the next step starts from, as trust-region
methods set their radius: a step accepted on its first trial divides
lambda by ``ELL`` squared, and a step that needed retries keeps the
lambda it was accepted at, so the next search does not re-try the
lighter damping that just failed.  The inner loop aborts once lambda
leaves [LAMBDA_MIN, LAMBDA_CAP] or after a fixed number of trials,
marking the state stalled.  On large systems the trials run in pairs:
while the calling thread solves one trial, a second lane solves the
next (jacobian.solve_ahead returns its future), which a rejection then
takes instead of solving again, and the search waits on a future it
did not take before it returns; the iterates are the same bits as on
one lane.

The supports of P(z) settle long before the residual's superlinear
tail, and near-degenerate games can even park the iterate at a local
minimum of the residual norm whose affine piece has no root.  So at
every point it visits, the entry point and the point after every
accepted step, drive_newton first tries the exact support crossover
(basin_hop): the crossover module proposes the equalizers of square
blocks near the supports of P(z), and the first whose exact duality
gap meets the target ends the run.  A line search that stalls ends it
too, since the crossover has already failed at that point.
Termination is by exact duality gap of the projected iterate, not by
residual norm, so the returned certificate is unconditional.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .crossover import proposals
from .game import GapCertificate, StrategyProfile, duality_gap
from .jacobian import (LinearSolveError, ResidualJacobian, newton_solve,
                       residual_jacobian, solve_ahead)
from .splitting import DrsContext, ResidualValue, lift, residual
from .trace import PHASE_SSN, TraceRow

if TYPE_CHECKING:
    from concurrent.futures import Future

FLAG_TARGET = "target"
FLAG_STALLED = "stalled"
FLAG_BUDGET = "budget"

# Line-search ratio, the range lambda must stay in, the trials one line
# search may make, and the residual norm below which a point counts as a
# root.
ELL = 1.5
LAMBDA_CAP = 1e9
LAMBDA_MIN = 1e-15
MAX_LINE_SEARCH_TRIALS = 60
RESIDUAL_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class SsnConfig:
    """Target of the Newton phase.

    ``max_newton_iters``, a class constant, caps the accepted steps of a
    ``drive_newton`` call whose caller passes no ``max_steps``.
    """

    max_newton_iters: ClassVar[int] = 200
    target_gap: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.target_gap) and self.target_gap >= 0.0):
            raise ValueError("target gap must be finite and nonnegative, "
                             f"got {self.target_gap}")


@dataclass
class SsnState:
    """Mutable solver state: current point, damping, cached residual."""

    z: np.ndarray
    lam: float
    residual: ResidualValue
    converged: bool = False
    stalled: bool = False
    # Trials of the last line search, for diagnostics.
    last_trials: int = 0
    # The traced point with the smallest gap: its certificate and profile.
    best: tuple[GapCertificate, StrategyProfile] | None = None

    def profile(self, ctx: DrsContext) -> StrategyProfile:
        """The projected iterate, read from the residual's kept P(z)."""
        p, n = self.residual.p, ctx.game.n
        return StrategyProfile.from_vectors(p[:n], p[n:])


def make_state(ctx: DrsContext, z0, lambda0: float) -> SsnState:
    """Initialize solver state at a lifted point with starting damping."""
    if not np.isfinite(lambda0) or lambda0 <= 0.0:
        raise ValueError(f"initial damping must be positive, got {lambda0}")
    z = np.array(z0, dtype=float)
    return SsnState(z=z, lam=float(lambda0), residual=residual(ctx, z))


def newton_step(ctx: DrsContext, state: SsnState,
                jac: ResidualJacobian | None = None,
                lam: float | None = None, ahead: Future | None = None
                ) -> tuple[np.ndarray, ResidualValue] | None:
    """One damped Newton trial; no acceptance test applied.

    Returns the step and the residual at the candidate point, or None
    when the current residual is already numerically zero, in which
    case the caller should report convergence instead of stepping.
    ``ahead`` is the second lane's solve of this very trial, if any
    (see ``jacobian.newton_solve``).
    """
    if state.residual.norm <= RESIDUAL_ZERO_TOL:
        return None
    if jac is None:
        jac = residual_jacobian(ctx, state.z, res=state.residual)
    if lam is None:
        lam = state.lam
    mu = lam * state.residual.norm
    dz = newton_solve(jac, mu, state.residual, ahead)
    return dz, residual(ctx, state.z + dz)


def line_search_accept(ctx: DrsContext, state: SsnState,
                       config: SsnConfig) -> SsnState:
    """Run the damping line search at the current point.

    The Jacobian is assembled once and shared by all trials.  A trial
    whose residual norm strictly decreases is committed; otherwise
    lambda is multiplied by ``ELL`` and the system re-solved with the
    heavier damping.  A trial whose linear solve fails numerically
    counts as a rejection.  A step committed on its first trial leaves
    lambda divided by ``ELL`` squared (floored at LAMBDA_MIN) for the
    next step; a step that needed retries leaves the lambda it was
    committed at.  If lambda leaves [LAMBDA_MIN, LAMBDA_CAP] or
    ``MAX_LINE_SEARCH_TRIALS`` trials all fail, the state is returned
    unchanged except for a stalled flag.

    Trials run in pairs on large systems: trials 1, 3, 5, ... first
    hand the solve of the next trial, at lambda * ``ELL``, to the second
    lane (see ``jacobian.solve_ahead``), which returns its future, or
    None unless the process has the lane and the system is large.  A
    rejected trial's successor then takes that result.  Every iterate,
    count and error is the same as on one lane; before the search
    returns it waits on a future it did not take, so an error in that
    untaken solve goes nowhere.
    """
    if state.residual.norm <= RESIDUAL_ZERO_TOL:
        state.converged = True
        return state
    jac = residual_jacobian(ctx, state.z, res=state.residual)
    lam = state.lam
    trials = 0
    budget = MAX_LINE_SEARCH_TRIALS
    # The second lane's solve of the next trial, whose lambda is
    # lam * ELL: a rejection and a failed solve both lead there.
    ahead = None
    try:
        while LAMBDA_MIN <= lam <= LAMBDA_CAP and trials < budget:
            trials += 1
            taken, ahead = ahead, None
            if trials % 2 == 1 and trials < budget and lam * ELL <= LAMBDA_CAP:
                # The same product newton_step forms for the next trial.
                ahead = solve_ahead(jac, lam * ELL * state.residual.norm,
                                    state.residual)
            try:
                step = newton_step(ctx, state, jac=jac, lam=lam, ahead=taken)
            except LinearSolveError:
                lam *= ELL
                continue
            # Never None: the residual was checked above and is unchanged.
            dz, cand = step
            if cand.norm < state.residual.norm:
                state.z = state.z + dz
                state.residual = cand
                state.last_trials = trials
                state.lam = (max(LAMBDA_MIN, lam / ELL**2) if trials == 1
                             else lam)
                return state
            lam *= ELL
    finally:
        if ahead is not None:
            ahead.exception()
    state.stalled = True
    state.last_trials = trials
    return state


def basin_hop(ctx: DrsContext, state: SsnState, target_gap: float) -> bool:
    """Try to finish the run by the exact support crossover (see crossover).

    The first of ``crossover.proposals``' profiles whose exact duality
    gap is at or below ``target_gap`` moves the state to the lift of that
    profile, whose kept P(z) is the profile itself, and the result is
    True.  Otherwise the state is untouched and the result False; the
    proposals read z and the residual's kept P(z), so such a call
    projects nothing.
    """
    game = ctx.game
    for profile in proposals(game, state.z, state.residual.p, target_gap):
        if duality_gap(game, profile).gap <= target_gap:
            state.z = lift(ctx, profile)
            state.residual = replace(residual(ctx, state.z),
                                     p=profile.concatenated())
            return True
    return False


def drive_newton(ctx: DrsContext, state: SsnState, config: SsnConfig,
                 max_steps: int | None = None,
                 rows: list[TraceRow] | None = None,
                 clock_start: float | None = None, start_iteration: int = 0
                 ) -> tuple[int, GapCertificate, str]:
    """Run up to ``max_steps`` line searches, tracing each accepted step.

    Starts from a state built by ``make_state`` and advances it in place.
    ``max_steps`` defaults to ``config.max_newton_iters``.  Appends to
    ``rows``, if given, one entry row at the starting point and one row
    per accepted step (gap of the projected iterate, residual norm,
    current damping, seconds since ``clock_start``, which defaults to
    the call); row iterations count on from ``start_iteration``, and
    ``state.best`` keeps the traced point with the smallest gap.  At
    every point it visits, the entry point and the point after each
    accepted step, the budget's last included, it first runs the
    support crossover (``basin_hop``).  When that certifies, its exact
    profile counts as one more step, and the loop top traces that row
    and ends the run, so the last row's gap is the returned certificate.
    Otherwise the line search steps; when it stalls, the crossover has
    already failed at that point, so the run ends stalled, with the
    state where the search left it.  Returns the number of steps (the
    accepted ones and a certified crossover), the last gap certificate,
    and a flag: "target" when the gap certificate meets target_gap,
    "stalled" when the line search gave up or found the residual
    numerically zero, "budget" when max_steps line searches ran out.
    """
    t0 = time.perf_counter() if clock_start is None else clock_start
    if max_steps is None:
        max_steps = config.max_newton_iters
    if rows is None:
        rows = []
    steps = 0
    while True:
        profile = state.profile(ctx)
        cert = duality_gap(ctx.game, profile)
        if state.best is None or cert.gap < state.best[0].gap:
            state.best = (cert, profile)
        rows.append(TraceRow(start_iteration + 1 + steps, PHASE_SSN, cert.gap,
                             state.residual.norm, state.lam,
                             time.perf_counter() - t0))
        if cert.gap <= config.target_gap:
            state.converged = True
            return steps, cert, FLAG_TARGET
        # A certified crossover moves the state to its exact profile,
        # which the loop top traces as one more step to end the run.
        if basin_hop(ctx, state, config.target_gap):
            steps += 1
            continue
        if steps >= max_steps:
            return steps, cert, FLAG_BUDGET
        line_search_accept(ctx, state, config)
        if state.stalled:
            state.stalled = False
            return steps, cert, FLAG_STALLED
        if state.converged:
            # Residual numerically zero at a point the loop top has just
            # certified above the target: the search cannot move it.
            return steps, cert, FLAG_STALLED
        steps += 1
