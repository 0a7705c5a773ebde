"""Hybrid schedules combining regret matching with the Newton solver.

Three variants, all starting from uniform strategies.  The splitting
context (one thin SVD of the payoff) is built when Newton work first
needs it, so a run that never leaves regret matching never pays for it:

* ``pssn-v1``: run averaged regret matching until the exact gap falls
  under a switch threshold, then hand the lifted average to the Newton
  solver with fixed initial damping.
* ``pssn-v2``: as v1, but every ``theta_update_period`` rounds a trial
  Newton direction is evaluated at the lifted running average and
  discarded, keeping only its adaptive damping update, so the Newton
  phase starts with a tuned damping parameter.
* ``hpssn``: alternate.  Whenever the gap has halved since the last
  Newton attempt, probe with a few Newton steps; keep going with Newton
  only if the probe cut the residual by ``hpssn_accept_factor``,
  otherwise project back onto the simplices and resume regret matching.

Every returned profile is re-certified by a fresh duality-gap call, so
the reported status never relies on stale solver bookkeeping.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .game import GapCertificate, MatrixGame, StrategyProfile, duality_gap
from .prm import STATUS_BUDGET, STATUS_CONVERGED, checkpoints, regret_matching
from .splitting import build_context, lift
from .ssn import (FLAG_BUDGET, FLAG_TARGET, SsnConfig, adaptive_lambda_update,
                  drive_newton, make_state, newton_step)
from .trace import PHASE_FO, TraceRow

STATUS_SSN_STALLED = "ssn_stalled"

VARIANT_SWITCH = "pssn-v1"
VARIANT_TUNED = "pssn-v2"
VARIANT_ALTERNATING = "hpssn"

# Two hybrid cycles ending this close together are treated as no progress.
_CYCLE_STALL_TOL = 1e-15


@dataclass(frozen=True)
class HybridConfig:
    """Schedule parameters shared by the hybrid variants.

    ``switch_gap_threshold`` hands over to Newton (v1/v2) or arms the
    first probe comparison (hpssn, via gap halving).  ``gap_check_period``
    is the first-order checkpoint cadence; exact gaps are only computed
    at checkpoints.  ``ssn`` optionally overrides the Newton constants;
    its target gap is always replaced by ``target_gap``.
    """

    switch_gap_threshold: float = 1e-2
    theta_update_period: int = 500
    variant: str = VARIANT_SWITCH
    gamma: float = 1.0
    target_gap: float = 1e-12
    max_fo_iters: int = 500_000
    hpssn_probe_steps: int = 5
    hpssn_accept_factor: float = 10.0
    gap_check_period: int = 100
    lambda0: float = 1.0
    predictive: bool = True
    ssn: SsnConfig | None = None

    def __post_init__(self):
        if self.variant not in (VARIANT_SWITCH, VARIANT_TUNED,
                                VARIANT_ALTERNATING):
            raise ValueError(f"unknown hybrid variant {self.variant!r}")
        if not 0.0 <= self.target_gap < self.switch_gap_threshold:
            raise ValueError(
                f"target gap {self.target_gap} must be below the switch "
                f"threshold {self.switch_gap_threshold}")
        # Checked here in full, since the context that would also reject
        # it is built only when Newton work starts.
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(
                f"gamma must be positive and finite, got {self.gamma}")
        if min(self.theta_update_period, self.max_fo_iters,
               self.hpssn_probe_steps, self.gap_check_period) < 1:
            raise ValueError("periods and budgets must be positive")
        if not 1.0 < self.hpssn_accept_factor < math.inf:
            raise ValueError("probe acceptance factor must be finite and "
                             f"exceed 1, got {self.hpssn_accept_factor}")
        if not 0.0 < self.lambda0 < math.inf:
            raise ValueError("initial damping must be positive and finite, "
                             f"got {self.lambda0}")

    def ssn_config(self) -> SsnConfig:
        return replace(self.ssn if self.ssn is not None else SsnConfig(),
                       target_gap=self.target_gap)


@dataclass
class HybridOutcome:
    """Final profile with a fresh certificate, status, and full trace.

    ``switch_iteration`` is the trace iteration at which the first
    Newton phase began, or None if the first-order budget ran out
    first.  ``newton_steps`` counts accepted Newton steps overall.
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
    return _run_pssn(game, config, tuned=False)


def pssn_v2(game: MatrixGame, config: HybridConfig) -> HybridOutcome:
    """One-time switch with damping warm-tuned during the first phase."""
    return _run_pssn(game, config, tuned=True)


def run_hybrid(game: MatrixGame, config: HybridConfig) -> HybridOutcome:
    """Dispatch on ``config.variant``."""
    if config.variant == VARIANT_SWITCH:
        return pssn_v1(game, config)
    if config.variant == VARIANT_TUNED:
        return pssn_v2(game, config)
    return hpssn(game, config)


def _run_pssn(game: MatrixGame, config: HybridConfig,
              tuned: bool) -> HybridOutcome:
    t0 = time.perf_counter()
    # The tuned variant probes damping during regret matching; v1 first
    # needs the context at the switch.
    ctx = build_context(game, config.gamma) if tuned else None
    scfg = config.ssn_config()
    play, average = regret_matching(game, config.predictive)
    rows: list[TraceRow] = []
    lam = config.lambda0

    def advance(t: int) -> None:
        nonlocal lam
        play(t)
        if tuned and t % config.theta_update_period == 0:
            lam = _tune_damping(ctx, average(), lam, scfg)

    for t, profile, cert in checkpoints(
            game, StrategyProfile.uniform(game.n, game.m), advance, average,
            config.max_fo_iters, config.gap_check_period):
        rows.append(TraceRow(t, PHASE_FO, cert.gap,
                             elapsed=time.perf_counter() - t0))
        if cert.gap <= config.target_gap:
            return HybridOutcome(profile, cert, STATUS_CONVERGED, None, 0, t,
                                 rows)
        # The uniform start never switches, however small its gap.
        if t > 0 and cert.gap <= config.switch_gap_threshold:
            break
    else:
        return HybridOutcome(profile, cert, STATUS_BUDGET, None, 0,
                             config.max_fo_iters, rows)

    switch_iter = t
    if ctx is None:
        ctx = build_context(game, config.gamma)
    state = make_state(ctx, lift(ctx, profile), lam)
    steps, _, _ = drive_newton(ctx, state, scfg, scfg.max_newton_iters,
                               rows, t0, switch_iter)
    final = state.profile(ctx)
    cert = duality_gap(game, final)
    status = (STATUS_CONVERGED if cert.gap <= config.target_gap
              else STATUS_SSN_STALLED)
    return HybridOutcome(final, cert, status, switch_iter, steps,
                         switch_iter + steps, rows)


def _tune_damping(ctx, profile: StrategyProfile, lam: float,
                  scfg: SsnConfig) -> float:
    """Evaluate one discarded Newton direction to refresh the damping."""
    state = make_state(ctx, lift(ctx, profile), lam)
    trial = newton_step(ctx, state, scfg)
    if trial is None:
        return lam
    _, cand = trial
    return adaptive_lambda_update(state.residual.norm, cand.norm, lam, scfg)


def hpssn(game: MatrixGame, config: HybridConfig) -> HybridOutcome:
    """Alternate between regret matching and probing Newton episodes.

    A probe fires at the first checkpoint whose gap is at most half the
    gap at the previous probe (initially: half the starting gap).  The
    probe runs up to ``hpssn_probe_steps`` accepted Newton steps from
    the lifted average; if it cuts the residual norm by at least
    ``hpssn_accept_factor`` it keeps the Newton iteration running to
    the target, otherwise the Newton point is projected back and regret
    matching resumes unperturbed.  The damping parameter carries across
    episodes.  Two consecutive episodes ending at gaps equal to within
    1e-15 report ``ssn_stalled``.
    """
    t0 = time.perf_counter()
    scfg = config.ssn_config()
    advance, average = regret_matching(game, config.predictive)
    rows: list[TraceRow] = []
    lam = config.lambda0
    newton_total = 0
    # Each Newton episode shifts the trace numbering of later rows.
    extra_rows = 0
    switch_iter = None
    prev_episode_gap = None
    best = best_cert = None
    for t, profile, cert in checkpoints(
            game, StrategyProfile.uniform(game.n, game.m), advance, average,
            config.max_fo_iters, config.gap_check_period):
        rows.append(TraceRow(t + extra_rows, PHASE_FO, cert.gap,
                             elapsed=time.perf_counter() - t0))
        if best_cert is None or cert.gap < best_cert.gap:
            best, best_cert = profile, cert
        if cert.gap <= config.target_gap:
            return HybridOutcome(profile, cert, STATUS_CONVERGED,
                                 switch_iter, newton_total, t + extra_rows,
                                 rows)
        if t == 0:
            probe_ref_gap = cert.gap
        if cert.gap > probe_ref_gap / 2.0:
            continue

        # Newton probe episode from the lifted running average.
        probe_ref_gap = cert.gap
        if switch_iter is None:  # first probe: build the context now
            switch_iter = t + extra_rows
            ctx = build_context(game, config.gamma)
        state = make_state(ctx, lift(ctx, profile), lam)
        entry_norm = state.residual.norm
        steps, ep_cert, flag = drive_newton(ctx, state, scfg,
                                            config.hpssn_probe_steps, rows,
                                            t0, t + extra_rows)
        extra_rows += steps + 1
        newton_total += steps
        committed = (flag == FLAG_BUDGET
                     and state.residual.norm
                     <= entry_norm / config.hpssn_accept_factor)
        if committed:
            more, ep_cert, flag = drive_newton(
                ctx, state, scfg, scfg.max_newton_iters - steps, rows, t0,
                t + extra_rows)
            extra_rows += more + 1
            newton_total += more
        lam = state.lam
        episode_profile = state.profile(ctx)
        ep_cert = duality_gap(game, episode_profile)
        if ep_cert.gap < best_cert.gap:
            best, best_cert = episode_profile, ep_cert
        if flag == FLAG_TARGET:
            return HybridOutcome(episode_profile, ep_cert, STATUS_CONVERGED,
                                 switch_iter, newton_total, t + extra_rows,
                                 rows)
        if (prev_episode_gap is not None
                and abs(ep_cert.gap - prev_episode_gap) <= _CYCLE_STALL_TOL):
            return HybridOutcome(best, best_cert, STATUS_SSN_STALLED,
                                 switch_iter, newton_total, t + extra_rows,
                                 rows)
        prev_episode_gap = ep_cert.gap

    return HybridOutcome(best, best_cert, STATUS_BUDGET, switch_iter,
                         newton_total, config.max_fo_iters + extra_rows, rows)
