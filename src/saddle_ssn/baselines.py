"""Projected first-order baselines: extragradient and optimistic gradient.

Both iterate on the stacked point z = (x, y) with the skew payoff
operator F(z) = (Ay, -A'x) and blockwise simplex projection.  The
default step size is 1 / (2 |A|_2), using a power-iteration estimate of
the spectral norm taken when a run starts, which keeps both methods
inside their convergence regime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .game import (MatrixGame, StrategyProfile, estimate_spectral_norm,
                   project_pair)
from .prm import (STATUS_BUDGET, STATUS_CONVERGED, FirstOrderResult,
                  checkpoints)
from .trace import PHASE_FO, TraceRow


@dataclass(frozen=True)
class FomConfig:
    """Step size and budgets for the first-order baselines.

    ``step_size`` of None selects 1 / (2 |A|_2) per game.  The gap of
    the current iterate is checked every ``check_every`` iterations.
    """

    step_size: float | None = None
    max_iters: int = 100_000
    target_gap: float = 1e-12
    check_every: int = 100

    def __post_init__(self):
        if self.step_size is not None and (not np.isfinite(self.step_size)
                                           or self.step_size <= 0.0):
            raise ValueError(f"step size must be positive, got {self.step_size}")
        if self.max_iters < 1 or self.check_every < 1:
            raise ValueError("iteration budgets must be positive")


def _resolve_step(game: MatrixGame, config: FomConfig) -> float:
    if config.step_size is not None:
        return config.step_size
    norm = estimate_spectral_norm(game.payoff)
    if norm <= 0.0:
        return 0.5
    return 1.0 / (2.0 * norm)


def extragradient_run(game: MatrixGame, config: FomConfig) -> FirstOrderResult:
    """Extragradient: probe a half step, then step through its operator.

        z_half = P(z - eta F(z));  z_next = P(z - eta F(z_half)).

    Two operator evaluations and two projections per iteration.
    """
    return _run_fom(game, config, "eg")


def ogda_run(game: MatrixGame, config: FomConfig) -> FirstOrderResult:
    """Optimistic gradient: reuse the previous operator as a predictor.

        z_next = P(z - 2 eta F(z) + eta F(z_prev)).

    One fresh operator evaluation and one projection per iteration.
    """
    return _run_fom(game, config, "ogda")


def _run_fom(game: MatrixGame, config: FomConfig,
             kind: str) -> FirstOrderResult:
    t0 = time.perf_counter()
    rows: list[TraceRow] = []
    eta = _resolve_step(game, config)
    a = game.payoff
    n = game.n
    # Operator values and the pre-projection point live in buffers reused
    # every iteration; each projection returns a fresh iterate.
    f, f_prev, step, lagged = (np.empty(n + game.m) for _ in range(4))

    def operator(z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """F(z) = (Ay, -A'x), written into ``out``."""
        np.matmul(a, z[n:], out=out[:n])
        np.matmul(z[:n], a, out=out[n:])
        np.negative(out[n:], out=out[n:])
        return out

    def descend(z: np.ndarray, scale: float, g: np.ndarray) -> np.ndarray:
        """z - scale * g, written into ``step``."""
        np.multiply(scale, g, out=step)
        return np.subtract(z, step, out=step)

    z = StrategyProfile.uniform(game.n, game.m).concatenated()
    operator(z, f_prev)  # only consumed by the optimistic update

    def advance(t: int) -> None:
        nonlocal z, f, f_prev
        if kind == "eg":
            z_half = project_pair(n, descend(z, eta, operator(z, f)))
            z = project_pair(n, descend(z, eta, operator(z_half, f)))
        else:
            # (z - 2 eta F(z)) + eta F(z_prev), in the order written.
            descend(z, 2.0 * eta, operator(z, f))
            np.multiply(eta, f_prev, out=lagged)
            z = project_pair(n, np.add(step, lagged, out=step))
            f, f_prev = f_prev, f

    # The uniform start is certified as the renormalized stacked vector,
    # like every later iterate.
    for t, profile, cert in checkpoints(
            game, _profile_of(game, z), advance, lambda: _profile_of(game, z),
            config.max_iters, config.check_every):
        rows.append(TraceRow(t, PHASE_FO, cert.gap,
                             elapsed=time.perf_counter() - t0))
        if cert.gap <= config.target_gap:
            return FirstOrderResult(profile, STATUS_CONVERGED, t, rows)
    return FirstOrderResult(profile, STATUS_BUDGET, config.max_iters, rows)


def _profile_of(game: MatrixGame, z: np.ndarray) -> StrategyProfile:
    return StrategyProfile.from_vectors(z[:game.n], z[game.n:])
