"""Hybrid schedules: regret matching, then Newton from the lifted average.

All three variants run one loop, ``run_hybrid``: averaged regret
matching from uniform strategies, certified at each checkpoint, with
Newton episodes started from the lifted running average.  An episode
that certifies ends the run.  The variants differ in four places:

* episode start: v1/v2 at the first checkpoint after round 0 at or
  under ``switch_gap_threshold``; hpssn whenever the gap has halved
  since the last probe (initially: since round 0);
* Newton budget: v1/v2 ``max_newton_iters``; hpssn ``HPSSN_PROBE_STEPS``,
  then the rest if the probe cut the residual by ``HPSSN_ACCEPT_FACTOR``;
* uncertified episode: v1/v2 end the run; hpssn resumes regret matching
  unperturbed, unless a second episode in a row ends at the same gap;
* between rounds: every ``theta_update_period`` rounds v2 evaluates one
  discarded Newton direction at the lifted average and keeps only its
  damping update (``adaptive_lambda_update``).

Newton starts at damping ``LAMBDA0`` (v2 tunes it), carried across
episodes.  The splitting context (one thin SVD) is built at the first
episode, so a run that never leaves regret matching never pays for it,
except under v2, which needs it for its probes and starts it at round
0: on the second lane, while regret matching runs, where the game is
large enough and the process has that lane (``jacobian.run_on_lane``),
else up front on the calling thread.  v2 takes the lane's context at
its first probe or episode, and before it returns, so a failed build
raises from ``run_hybrid`` either way.  Every returned profile has a
fresh certificate; a run that does not converge returns the best one
of its trace rows, Newton steps of rolled-back probes included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .game import GapCertificate, MatrixGame, StrategyProfile
from .jacobian import LinearSolveError, run_on_lane
from .prm import STATUS_BUDGET, STATUS_CONVERGED, checkpoints, regret_matching
from .splitting import DrsContext, build_context, lift
from .ssn import (FLAG_BUDGET, FLAG_TARGET, LAMBDA_MIN, SsnConfig,
                  drive_newton, make_state, newton_step)
from .trace import PHASE_FO, TraceRow

STATUS_SSN_STALLED = "ssn_stalled"

VARIANT_SWITCH = "pssn-v1"
VARIANT_TUNED = "pssn-v2"
VARIANT_ALTERNATING = "hpssn"

# Damping at Newton entry; hpssn's probe length, the residual cut that
# commits a probe, and the gap change under which two episodes in a row
# count as no progress.
LAMBDA0 = 1.0
HPSSN_PROBE_STEPS = 5
HPSSN_ACCEPT_FACTOR = 10.0
_CYCLE_STALL_TOL = 1e-15

# The damping tuner's hard ceiling, contraction thresholds, inflation
# factors, and the clamp of its strong-contraction shrink factor.
_LAMBDA_MAX = 1e15
_ALPHA1 = 1e-2
_ALPHA2 = 5.0
_BETA1 = 2.0
_BETA2 = 5.0
_BETA0_FLOOR = 0.05
_BETA0_CEIL = 0.9


@dataclass(frozen=True)
class HybridConfig:
    """Schedule parameters shared by the hybrid variants.

    ``switch_gap_threshold`` hands v1/v2 over to Newton; hpssn ignores it.
    ``gap_check_period`` is the first-order checkpoint cadence; exact
    gaps are only computed at checkpoints.  ``gamma`` is the splitting
    parameter; None scales it to the payoff (see ``build_context``).
    Newton runs with ``SsnConfig``'s budgets and ``target_gap``.
    """

    switch_gap_threshold: float = 1e-2
    theta_update_period: int = 500
    variant: str = VARIANT_SWITCH
    gamma: float | None = None
    target_gap: float = 1e-12
    max_fo_iters: int = 500_000
    gap_check_period: int = 100

    def __post_init__(self):
        if self.variant not in (VARIANT_SWITCH, VARIANT_TUNED,
                                VARIANT_ALTERNATING):
            raise ValueError(f"unknown hybrid variant {self.variant!r}")
        bound = (math.inf if self.variant == VARIANT_ALTERNATING
                 else self.switch_gap_threshold)
        if not 0.0 <= self.target_gap < bound:
            raise ValueError(f"target gap {self.target_gap} must be in "
                             f"[0, {bound}) for {self.variant}")
        # Checked here in full, since the context that would also reject
        # it is built only when Newton work starts.
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise ValueError(
                f"gamma must be positive and finite, got {self.gamma}")
        if min(self.theta_update_period, self.max_fo_iters,
               self.gap_check_period) < 1:
            raise ValueError("periods and budgets must be positive")


@dataclass
class HybridOutcome:
    """Final profile with a fresh certificate, status, and full trace.

    ``switch_iteration`` is the trace iteration at which the first
    Newton episode began, or None if the run never left regret
    matching.  ``newton_steps`` counts accepted Newton steps overall,
    and ``iterations`` is the iteration of the last trace row.
    """

    profile: StrategyProfile
    certificate: GapCertificate
    status: str
    switch_iteration: int | None
    newton_steps: int
    iterations: int
    trace: list[TraceRow] = field(default_factory=list)


def pssn_v1(game: MatrixGame, config: HybridConfig) -> HybridOutcome:
    """One-time switch from regret matching to Newton at fixed damping."""
    return run_hybrid(game, replace(config, variant=VARIANT_SWITCH))


def pssn_v2(game: MatrixGame, config: HybridConfig) -> HybridOutcome:
    """One-time switch with damping warm-tuned during the first phase."""
    return run_hybrid(game, replace(config, variant=VARIANT_TUNED))


def hpssn(game: MatrixGame, config: HybridConfig) -> HybridOutcome:
    """Alternate between regret matching and probing Newton episodes."""
    return run_hybrid(game, replace(config, variant=VARIANT_ALTERNATING))


def run_hybrid(game: MatrixGame, config: HybridConfig) -> HybridOutcome:
    """Run the ``config.variant`` schedule (see the module notes)."""
    t0 = time.perf_counter()
    alternating = config.variant == VARIANT_ALTERNATING
    tuned = config.variant == VARIANT_TUNED
    scfg = SsnConfig(target_gap=config.target_gap)
    # v2's context, or the lane's future of it (see the module notes).
    ctx = building = None
    if tuned:
        building = run_on_lane(game.n + game.m, build_context, game,
                               config.gamma)
        if building is None:
            ctx = build_context(game, config.gamma)
    play, average = regret_matching(game)
    rows: list[TraceRow] = []
    lam = LAMBDA0
    newton_total = extra_rows = 0
    switch_iter = prev_episode_gap = None

    def context() -> DrsContext:
        nonlocal ctx
        if ctx is None:
            ctx = (build_context(game, config.gamma) if building is None
                   else building.result())
        return ctx

    def advance(t: int) -> None:
        nonlocal lam
        play(t)
        if tuned and t % config.theta_update_period == 0:
            lam = _tune_damping(context(), average(), lam)

    def outcome(profile, cert, status) -> HybridOutcome:
        if building is not None:
            building.result()
        return HybridOutcome(profile, cert, status, switch_iter, newton_total,
                             rows[-1].iteration, rows)

    for t, profile, cert in checkpoints(
            game, StrategyProfile.uniform(game.n, game.m), advance, average,
            config.max_fo_iters, config.gap_check_period):
        # Each Newton episode shifts the trace numbering of later rows.
        rows.append(TraceRow(t + extra_rows, PHASE_FO, cert.gap,
                             elapsed=time.perf_counter() - t0))
        if t == 0:
            best, best_cert, probe_ref_gap = profile, cert, cert.gap
        elif cert.gap < best_cert.gap:
            best, best_cert = profile, cert
        if cert.gap <= config.target_gap:
            return outcome(profile, cert, STATUS_CONVERGED)
        # The uniform start never starts an episode, however small its gap.
        if t == 0 or cert.gap > (probe_ref_gap / 2.0 if alternating
                                 else config.switch_gap_threshold):
            continue

        # A Newton episode from the lifted running average.
        probe_ref_gap = cert.gap
        if switch_iter is None:
            switch_iter = rows[-1].iteration
        ctx = context()
        state = make_state(ctx, lift(ctx, profile), lam)
        entry_norm = state.residual.norm
        steps, last, flag = drive_newton(
            ctx, state, scfg,
            HPSSN_PROBE_STEPS if alternating else scfg.max_newton_iters,
            rows, t0, rows[-1].iteration)
        if (alternating and flag == FLAG_BUDGET
                and state.residual.norm <= entry_norm / HPSSN_ACCEPT_FACTOR):
            more, last, flag = drive_newton(ctx, state, scfg,
                                            scfg.max_newton_iters - steps,
                                            rows, t0, rows[-1].iteration)
            steps += more
        newton_total += steps
        extra_rows = rows[-1].iteration - t
        lam = state.lam
        # The episode's best traced point; a certified episode ends there.
        episode_cert, episode = state.best
        if episode_cert.gap < best_cert.gap:
            best, best_cert = episode, episode_cert
        if flag == FLAG_TARGET:
            return outcome(episode, episode_cert, STATUS_CONVERGED)
        if not alternating or (prev_episode_gap is not None and abs(
                last.gap - prev_episode_gap) <= _CYCLE_STALL_TOL):
            return outcome(best, best_cert, STATUS_SSN_STALLED)
        prev_episode_gap = last.gap

    return outcome(best, best_cert, STATUS_BUDGET)


def _tune_damping(ctx, profile: StrategyProfile, lam: float) -> float:
    """Evaluate one discarded Newton direction to refresh the damping."""
    state = make_state(ctx, lift(ctx, profile), lam)
    try:
        trial = newton_step(ctx, state)
    except LinearSolveError:
        # No step is no contraction: the psi < _ALPHA1 branch.
        return min(_LAMBDA_MAX, _BETA2 * lam)
    return lam if trial is None else adaptive_lambda_update(
        state.residual.norm, trial[1].norm, lam)


def adaptive_lambda_update(prev_norm: float, new_norm: float,
                           lam: float) -> float:
    """Damping schedule keyed to the contraction of one trial.

    The contraction is psi = prev_norm / new_norm (infinite when the new
    residual is exactly zero).  Branches: psi >= _ALPHA2 shrinks lambda
    by sqrt(new_norm) clamped to [_BETA0_FLOOR, _BETA0_CEIL],
    _ALPHA1 <= psi < _ALPHA2 multiplies by _BETA1, psi < _ALPHA1
    multiplies by _BETA2.  The result always lies in [LAMBDA_MIN,
    _LAMBDA_MAX].
    """
    for name, val in (("prev_norm", prev_norm), ("new_norm", new_norm),
                      ("lambda", lam)):
        if not math.isfinite(val) or val < 0.0:
            raise ValueError(f"{name} must be finite and nonnegative, got {val}")
    psi = math.inf if new_norm == 0.0 else prev_norm / new_norm
    if psi >= _ALPHA2:
        beta0 = min(max(math.sqrt(new_norm), _BETA0_FLOOR), _BETA0_CEIL)
        return max(LAMBDA_MIN, beta0 * lam)
    if psi >= _ALPHA1:
        return min(_LAMBDA_MAX, _BETA1 * lam)
    return min(_LAMBDA_MAX, _BETA2 * lam)
