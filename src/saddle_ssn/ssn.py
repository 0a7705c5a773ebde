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
next, which a rejection then takes instead of solving again (see
jacobian.solve_ahead); the iterates are the same bits as on one lane.

A stall is the signature of supports a coordinate or two off those of
an equilibrium: near-degenerate games can park the iterate at a local
minimum of the residual norm whose affine piece has no root.  So a
stall runs an exact support crossover (see basin_hop), as LP crossover
does after an interior or first-order method: it solves the small
equalizing systems of square blocks one flip or exchange from the
current supports.  If none certifies, the run ends stalled.
Termination is by exact duality gap of the projected iterate, not by
residual norm, so the returned certificate is unconditional.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import astuple, dataclass, replace

import numpy as np

from .game import GapCertificate, StrategyProfile, duality_gap
from .jacobian import (LinearSolveError, ResidualJacobian, boundary_margins,
                       join_ahead, newton_solve, residual_jacobian,
                       solve_ahead)
from .splitting import DrsContext, ResidualValue, lift, residual, restrict
from .trace import PHASE_SSN, TraceRow

FLAG_TARGET = "target"
FLAG_STALLED = "stalled"
FLAG_BUDGET = "budget"

# Line-search ratio, the range lambda must stay in, and the residual
# norm below which a point counts as a root.
ELL = 1.5
LAMBDA_CAP = 1e9
LAMBDA_MIN = 1e-15
RESIDUAL_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class SsnConfig:
    """Target and budgets of the Newton phase.

    ``max_newton_iters`` caps accepted steps per ``drive_newton`` call
    and ``max_line_search_trials`` the trials of one line search.
    """

    max_newton_iters: int = 200
    target_gap: float = 1e-12
    max_line_search_trials: int = 60

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError(f"Newton constants must be finite: {self}")
        if self.max_newton_iters < 1 or self.max_line_search_trials < 1:
            raise ValueError("iteration budgets must be at least 1")
        if self.target_gap < 0.0:
            raise ValueError("target gap must be nonnegative")


@dataclass
class SsnState:
    """Mutable solver state: current point, damping, cached residual."""

    z: np.ndarray
    lam: float
    residual: ResidualValue
    newton_steps_taken: int = 0
    converged: bool = False
    stalled: bool = False
    # Trials of the last line search, for diagnostics.
    last_trials: int = 0

    def profile(self, ctx: DrsContext) -> StrategyProfile:
        """The projected iterate, read from the residual's P(z) if kept."""
        p, n = self.residual.p, ctx.game.n
        return (restrict(ctx, self.z) if p is None
                else StrategyProfile.from_vectors(p[:n], p[n:]))


def make_state(ctx: DrsContext, z0, lambda0: float) -> SsnState:
    """Initialize solver state at a lifted point with starting damping."""
    if not np.isfinite(lambda0) or lambda0 <= 0.0:
        raise ValueError(f"initial damping must be positive, got {lambda0}")
    z = np.array(z0, dtype=float)
    return SsnState(z=z, lam=float(lambda0), residual=residual(ctx, z))


def newton_step(ctx: DrsContext, state: SsnState,
                jac: ResidualJacobian | None = None,
                lam: float | None = None
                ) -> tuple[np.ndarray, ResidualValue] | None:
    """One damped Newton trial; no acceptance test applied.

    Returns the step and the residual at the candidate point, or None
    when the current residual is already numerically zero, in which
    case the caller should report convergence instead of stepping.
    """
    if state.residual.norm <= RESIDUAL_ZERO_TOL:
        return None
    if jac is None:
        jac = residual_jacobian(ctx, state.z, res=state.residual)
    if lam is None:
        lam = state.lam
    mu = lam * state.residual.norm
    dz = newton_solve(jac, mu, state.residual)
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
    committed at.  If lambda leaves [LAMBDA_MIN, LAMBDA_CAP] or the
    trial budget runs out, the state is returned unchanged except for a
    stalled flag.

    Trials run in pairs on large systems: trials 1, 3, 5, ... first
    hand the solve of the next trial, at lambda * ``ELL``, to the second
    lane (see ``jacobian.solve_ahead``), which does nothing unless the
    process has one and the system is large.  A rejected trial's
    successor then takes that result.  Every iterate, count and error
    is the same as on one lane; the outstanding solve is joined before
    the search returns.
    """
    if state.residual.norm <= RESIDUAL_ZERO_TOL:
        state.converged = True
        return state
    jac = residual_jacobian(ctx, state.z, res=state.residual)
    lam = state.lam
    trials = 0
    budget = config.max_line_search_trials
    try:
        while LAMBDA_MIN <= lam <= LAMBDA_CAP and trials < budget:
            trials += 1
            if trials % 2 == 1 and trials < budget and lam * ELL <= LAMBDA_CAP:
                # The same product newton_step forms for the next trial.
                solve_ahead(jac, lam * ELL * state.residual.norm,
                            state.residual)
            try:
                step = newton_step(ctx, state, jac=jac, lam=lam)
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
                state.newton_steps_taken += 1
                return state
            lam *= ELL
    finally:
        join_ahead(jac)
    state.stalled = True
    state.last_trials = trials
    return state


# Support threshold on P(z), and the most blocks one crossover call tries.
_SUPPORT_TOL = 1e-9
_CROSSOVER_CANDIDATES = 64


def _equalizer(a: np.ndarray) -> np.ndarray | None:
    """The strategy w with 1'w = 1 equalizing the square a w, clipped at 0.

    Solves [a, -1; 1', 0] (w, v) = (0, 1).  Returns None when the solve
    fails or leaves no positive mass.
    """
    k = len(a)
    lhs = np.block([[a, -np.ones((k, 1))],
                    [np.ones((1, k)), np.zeros((1, 1))]])
    rhs = np.append(np.zeros(k), 1.0)
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return None
    w = np.maximum(sol[:k], 0.0)
    total = w.sum()
    return w / total if np.isfinite(total) and total > 0.0 else None


def basin_hop(ctx: DrsContext, state: SsnState, config: SsnConfig) -> bool:
    """Finish a stalled run by an exact support crossover on square blocks.

    A stall on a near-degenerate game parks the iterate at a local
    minimum of the residual norm whose supports S, T (those of P(z)) are
    a coordinate or two off an equilibrium's, and every matrix game has
    an extreme equilibrium on a square block (Shapley and Snow).  So
    with e = |S| - |T| only square blocks are tried.  For e = 0 they are
    (S, T), then exchanges: each add paired with every support
    coordinate of the same player, as a stall that keeps both of two
    near-duplicate strategies needs.  For |e| = 1 they are the flips
    that square the block, a drop from the larger side or an add to the
    smaller one.  For |e| >= 2 there are none, and the call returns
    False at once.  A drop ranks by its entry of P(z), an add by its
    ``boundary_margins`` entry, nearest first; at most
    ``_CROSSOVER_CANDIDATES`` blocks A_ST are tried, each by the
    equalizing systems on it and its transpose (``_equalizer``).  Only
    the exact duality gap decides: the first at or below ``target_gap``
    moves the state to the lift of its profile, whose kept P(z) is the
    profile itself, and returns True.  Otherwise the state is untouched
    and the result False.
    """
    game, n = ctx.game, ctx.game.n
    p = state.profile(ctx).concatenated()
    support = p > _SUPPORT_TOL
    excess = support[:n].sum() - support[n:].sum()
    if abs(excess) > 1:
        return False
    # Each coordinate's distance to its block threshold: its entry of
    # P(z) where positive, its margin elsewhere.
    margins = boundary_margins(ctx, state.z)
    order = np.argsort(np.where(np.isinf(margins), p, margins), kind="stable")
    if excess:
        # Supported on the larger side (a drop), or off the smaller one.
        squaring = support[order] == ((order < n) == (excess > 0))
        candidates = ([i] for i in order[squaring])
    else:
        drops = order[support[order]]
        candidates = itertools.chain(
            [[]], ([add, drop] for add in order[~support[order]]
                   for drop in drops[(drops < n) == (add < n)]))
    for flip in itertools.islice(candidates, _CROSSOVER_CANDIDATES):
        mask = support.copy()
        mask[flip] = ~mask[flip]
        rows, cols = np.flatnonzero(mask[:n]), np.flatnonzero(mask[n:])
        block = game.payoff[np.ix_(rows, cols)]
        y = _equalizer(block)
        x = None if y is None else _equalizer(block.T)
        if x is None:
            continue
        x_full, y_full = np.zeros(n), np.zeros(game.m)
        x_full[rows], y_full[cols] = x, y
        profile = StrategyProfile.from_vectors(x_full, y_full)
        if duality_gap(game, profile).gap <= config.target_gap:
            state.z = lift(ctx, profile)
            state.residual = replace(residual(ctx, state.z),
                                     p=profile.concatenated())
            state.newton_steps_taken += 1
            return True
    return False


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
    stalled line search runs the support crossover (``basin_hop``)
    once.  When it certifies, its exact profile counts as one more
    step, and the loop top traces that row and ends the run, so the
    last row's gap is the returned certificate.  Otherwise the run ends
    stalled, with the state where the search left it.  Returns the
    number of accepted steps, the last gap certificate, and a flag:
    "target" when the gap certificate meets target_gap, "stalled" when
    the line search and the crossover gave up, "budget" when max_steps
    ran out.
    """
    t0 = time.perf_counter() if clock_start is None else clock_start
    if max_steps is None:
        max_steps = config.max_newton_iters
    if rows is None:
        rows = []
    steps = 0
    while True:
        cert = duality_gap(ctx.game, state.profile(ctx))
        rows.append(TraceRow(start_iteration + 1 + steps, PHASE_SSN, cert.gap,
                             state.residual.norm, state.lam,
                             time.perf_counter() - t0))
        if cert.gap <= config.target_gap:
            state.converged = True
            return steps, cert, FLAG_TARGET
        if steps >= max_steps:
            return steps, cert, FLAG_BUDGET
        line_search_accept(ctx, state, config)
        if state.stalled:
            state.stalled = False
            # A certified crossover moves the state to its exact profile,
            # which the loop top traces as one more step to end the run.
            if not basin_hop(ctx, state, config):
                return steps, cert, FLAG_STALLED
        if state.converged:
            # Residual numerically zero: the projected point is an
            # equilibrium up to roundoff; certify and stop.
            cert = duality_gap(ctx.game, state.profile(ctx))
            flag = (FLAG_TARGET if cert.gap <= config.target_gap
                    else FLAG_STALLED)
            return steps, cert, flag
        steps += 1
