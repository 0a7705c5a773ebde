"""Projected first-order baselines: extragradient and optimistic gradient.

Both iterate on the stacked point z = (x, y) with the skew payoff
operator F(z) = (Ay, -A'x) and blockwise simplex projection.  The
step size is 1 / (2 |A|_2), with the spectral norm taken from LAPACK's
SVD when a run starts, which keeps both methods inside their
convergence regime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .game import (MatrixGame, StrategyProfile, estimate_spectral_norm,
                   project_pair)
from .prm import FirstOrderResult, run_to_target


@dataclass(frozen=True)
class FomConfig:
    """Budgets and target for the first-order baselines.

    The gap of the current iterate is checked every ``check_every``
    iterations.
    """

    max_iters: int = 100_000
    target_gap: float = 1e-12
    check_every: int = 100

    def __post_init__(self):
        if self.max_iters < 1 or self.check_every < 1:
            raise ValueError("iteration budgets must be positive")


def _resolve_step(game: MatrixGame) -> float:
    """1 / (2 |A|_2), or 0.5 for a zero payoff."""
    norm = estimate_spectral_norm(game.payoff)
    return 1.0 / (2.0 * norm) if norm > 0.0 else 0.5


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
    eta = _resolve_step(game)
    a = game.payoff
    n = game.n
    # The steps carry the sign of F(z) = (Ay, -A'x) per block, so
    # ``operator`` skips a negation, which is exact and changes no bits.
    signs = np.repeat([1.0, -1.0], (n, game.m))
    eta_f, two_eta_f = eta * signs, 2.0 * eta * signs
    # Operator values and the pre-projection point live in buffers reused
    # every iteration; each projection returns a fresh iterate.
    f, f_prev, step, lagged = (np.empty(n + game.m) for _ in range(4))

    def operator(z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(Ay, A'x), written into ``out``."""
        np.dot(a, z[n:], out=out[:n])
        np.dot(z[:n], a, out=out[n:])
        return out

    def descend(z: np.ndarray, scale: np.ndarray, g: np.ndarray) -> np.ndarray:
        """z - scale * g, written into ``step``."""
        np.multiply(scale, g, out=step)
        return np.subtract(z, step, out=step)

    z = StrategyProfile.uniform(game.n, game.m).concatenated()
    operator(z, f_prev)  # only consumed by the optimistic update

    def advance(t: int) -> None:
        nonlocal z, f, f_prev
        if kind == "eg":
            z_half = project_pair(n, descend(z, eta_f, operator(z, f)))
            z = project_pair(n, descend(z, eta_f, operator(z_half, f)))
        else:
            # (z - 2 eta F(z)) + eta F(z_prev), in the order written.
            descend(z, two_eta_f, operator(z, f))
            np.multiply(eta_f, f_prev, out=lagged)
            z = project_pair(n, np.add(step, lagged, out=step))
            f, f_prev = f_prev, f

    # The uniform start is certified as the renormalized stacked vector,
    # like every later iterate.
    return run_to_target(game, _profile_of(game, z), advance,
                         lambda: _profile_of(game, z), config.max_iters,
                         config.check_every, config.target_gap, t0)


def _profile_of(game: MatrixGame, z: np.ndarray) -> StrategyProfile:
    return StrategyProfile.from_vectors(z[:game.n], z[game.n:])
