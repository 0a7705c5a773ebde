"""Predictive regret matching with alternation and quadratic averaging.

Each player keeps a clipped cumulative regret vector.  The next
strategy is proportional to the positive part of the regrets shifted by
a prediction of the coming loss (here: the previous observed loss); a
zero regret vector falls back to uniform.  Updates alternate: the row
player moves first, then the column player, and both losses for the
round are measured against the opponent's end-of-round strategy, which
keeps each prediction only one update stale.  Averaged output weights
round t by t^2, which empirically tightens the gap by orders of
magnitude over the last iterate.

``checkpoints`` is the one first-order checkpoint loop: regret
matching, the gradient baselines and the hybrids all consume it.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .game import GapCertificate, MatrixGame, StrategyProfile, duality_gap
from .trace import PHASE_FO, TraceRow

STATUS_CONVERGED = "converged"
STATUS_BUDGET = "fo_budget_exhausted"

SCHEME_LAST_ITERATE = "li"
SCHEME_QUADRATIC_AVG = "qa"


@dataclass
class RegretMatchingState:
    """One player's regret accumulator, current strategy, and last loss."""

    cum_regret: np.ndarray
    current: np.ndarray
    last_loss: np.ndarray

    @classmethod
    def uniform(cls, dim: int) -> "RegretMatchingState":
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        return cls(cum_regret=np.zeros(dim),
                   current=np.full(dim, 1.0 / dim),
                   last_loss=np.zeros(dim))


def next_strategy(state: RegretMatchingState,
                  prediction: np.ndarray) -> np.ndarray:
    """Strategy proportional to predicted positive regret.

    theta = [cum_regret + <prediction, current> 1 - prediction]_+ and
    the result is theta normalized to the simplex, or uniform when
    theta is identically zero.  Does not mutate the state.
    """
    theta = state.cum_regret + (prediction @ state.current)
    np.subtract(theta, prediction, out=theta)
    np.maximum(theta, 0.0, out=theta)
    total = theta.sum()
    if total > 0.0:
        theta /= total
        return theta
    return np.full(state.current.size, 1.0 / state.current.size)


def observe_loss(state: RegretMatchingState, loss: np.ndarray,
                 played: np.ndarray) -> RegretMatchingState:
    """Fold an observed loss into the clipped regret accumulator.

    cum_regret <- [cum_regret + <loss, played> 1 - loss]_+ with the
    strategy actually played this round; the loss is retained as the
    next round's prediction and ``played`` becomes the current strategy.
    """
    state.cum_regret += (loss @ played) - loss
    np.maximum(state.cum_regret, 0.0, out=state.cum_regret)
    state.last_loss = loss
    state.current = played
    return state


def alternating_round(game: MatrixGame, row: RegretMatchingState,
                      col: RegretMatchingState
                      ) -> tuple[np.ndarray, np.ndarray]:
    """One alternating update of both players; mutates both states.

    The row player minimizes, so its loss vector is A y; the column
    player maximizes, so its loss is -A'x.  Strategies update in order
    (row first, then column), each predicting its previous observed
    loss.  Both losses are then measured against the opponent's updated
    strategy, so predictions lag a single update.
    """
    a = game.payoff
    x_new = next_strategy(row, row.last_loss)
    y_new = next_strategy(col, col.last_loss)
    observe_loss(row, np.dot(a, y_new), x_new)
    col_loss = np.dot(x_new, a)
    observe_loss(col, np.negative(col_loss, out=col_loss), y_new)
    return x_new, y_new


@dataclass
class AverageAccumulator:
    """Weighted running average of strategy profiles."""

    weighted_x: np.ndarray
    weighted_y: np.ndarray
    weight_total: float = 0.0

    @classmethod
    def empty(cls, n: int, m: int) -> "AverageAccumulator":
        return cls(weighted_x=np.zeros(n), weighted_y=np.zeros(m))

    def add(self, x: np.ndarray, y: np.ndarray, weight: float) -> None:
        if not 0.0 < weight < math.inf:
            raise ValueError(f"weight must be positive and finite, got {weight}")
        self.weighted_x += weight * x
        self.weighted_y += weight * y
        self.weight_total += weight

    def profile(self) -> StrategyProfile:
        """The averaged profile, renormalized against accumulation drift."""
        if self.weight_total <= 0.0:
            raise ValueError("cannot average zero accumulated weight")
        return StrategyProfile.from_vectors(self.weighted_x / self.weight_total,
                                            self.weighted_y / self.weight_total)


@dataclass
class FirstOrderResult:
    """Outcome of a first-order run: regret matching or a baseline."""

    profile: StrategyProfile
    status: str
    iterations: int
    trace: list[TraceRow] = field(default_factory=list)


def regret_matching(game: MatrixGame, averaging: bool = True
                    ) -> tuple[Callable[[int], None],
                               Callable[[], StrategyProfile]]:
    """Alternating predictive regret matching from uniform strategies.

    Returns ``advance(t)``, which plays round t, and ``emitted()``, the
    profile to certify: the average of the played strategies weighted
    by t^2, or with ``averaging`` off the current iterates.
    """
    row = RegretMatchingState.uniform(game.n)
    col = RegretMatchingState.uniform(game.m)
    averager = AverageAccumulator.empty(game.n, game.m)

    def advance(t: int) -> None:
        x_new, y_new = alternating_round(game, row, col)
        if averaging:
            averager.add(x_new, y_new, float(t) * float(t))

    def current() -> StrategyProfile:
        return StrategyProfile.from_vectors(row.current, col.current)

    return advance, averager.profile if averaging else current


def checkpoints(game: MatrixGame, start: StrategyProfile,
                advance: Callable[[int], None],
                emitted: Callable[[], StrategyProfile], budget: int,
                check_every: int
                ) -> Iterator[tuple[int, StrategyProfile, GapCertificate]]:
    """Run a first-order method and certify its output at checkpoints.

    Yields ``(t, profile, certificate)`` for ``start`` at round 0, then
    calls ``advance(t)`` for rounds t = 1..budget and yields the
    ``emitted()`` profile with its exact duality gap every
    ``check_every`` rounds and at round ``budget``.  The consumer
    decides whether to stop; work it does between yields happens
    between rounds.
    """
    yield 0, start, duality_gap(game, start)
    for t in range(1, budget + 1):
        advance(t)
        if t % check_every == 0 or t == budget:
            profile = emitted()
            yield t, profile, duality_gap(game, profile)


def run_to_target(game: MatrixGame, start: StrategyProfile,
                  advance: Callable[[int], None],
                  emitted: Callable[[], StrategyProfile], budget: int,
                  check_every: int, target_gap: float,
                  t0: float) -> FirstOrderResult:
    """Run ``checkpoints`` until the gap meets ``target_gap`` or the budget.

    Each checkpoint appends a first-order trace row timed from ``t0``.
    The result holds the first profile at or below the target, else the
    one at round ``budget``.
    """
    rows: list[TraceRow] = []
    for t, profile, cert in checkpoints(game, start, advance, emitted,
                                        budget, check_every):
        rows.append(TraceRow(t, PHASE_FO, cert.gap,
                             elapsed=time.perf_counter() - t0))
        if cert.gap <= target_gap:
            return FirstOrderResult(profile, STATUS_CONVERGED, t, rows)
    return FirstOrderResult(profile, STATUS_BUDGET, budget, rows)


def run_prm(game: MatrixGame, scheme: str = SCHEME_QUADRATIC_AVG,
            max_iters: int = 500_000, target_gap: float = 1e-12,
            check_every: int = 100) -> FirstOrderResult:
    """Run alternating regret matching until the target gap or budget.

    The emitted profile follows ``scheme``: "qa" averages post-update
    strategies with weight t^2, "li" reports the current iterates.  The
    gap is evaluated on the emitted profile every ``check_every`` rounds
    and once at round zero, each check appending a first-order trace row.
    """
    if scheme not in (SCHEME_LAST_ITERATE, SCHEME_QUADRATIC_AVG):
        raise ValueError(f"unknown averaging scheme {scheme!r}")
    if max_iters < 1 or check_every < 1:
        raise ValueError("iteration budgets must be positive, got "
                         f"max_iters={max_iters}, check_every={check_every}")
    t0 = time.perf_counter()
    advance, emitted = regret_matching(game, scheme == SCHEME_QUADRATIC_AVG)
    return run_to_target(game, StrategyProfile.uniform(game.n, game.m),
                         advance, emitted, max_iters, check_every,
                         target_gap, t0)
