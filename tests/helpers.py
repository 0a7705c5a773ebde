"""Shared helpers for the test suite.

The gap oracle here deliberately uses plain Python loops instead of
vectorized numpy so that it stays an independent cross-check of the
library's vectorized certificate.
"""

import numpy as np

from saddle_ssn.game import MatrixGame, StrategyProfile


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def random_game(rng: np.random.Generator, n: int, m: int,
                kind: str = "uniform") -> MatrixGame:
    if kind == "uniform":
        payoff = rng.uniform(-1.0, 1.0, size=(n, m))
    else:
        payoff = rng.standard_normal((n, m))
    return MatrixGame.from_payoff(payoff)


def random_profile(rng: np.random.Generator, n: int, m: int) -> StrategyProfile:
    x = rng.random(n) + 1e-9
    y = rng.random(m) + 1e-9
    return StrategyProfile.from_vectors(x / x.sum(), y / y.sum())


def reference_project_simplex(p) -> np.ndarray:
    """The one-block sort-based projection, as the library wrote it before
    its blockwise kernel; the kernel must reproduce its bits."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("projection input must be a nonempty vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("projection input contains non-finite coordinates")
    u = np.sort(p)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, p.size + 1)
    k = ks[u - css / ks > 0.0][-1]
    tau = css[k - 1] / k
    return np.maximum(p - tau, 0.0)


def reference_project_pair(n: int, z) -> np.ndarray:
    """Blockwise reference: each block projected on its own."""
    z = np.asarray(z, dtype=float)
    return np.concatenate([reference_project_simplex(z[:n]),
                           reference_project_simplex(z[n:])])


def brute_force_gap(payoff: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Duality gap by explicit enumeration of pure-strategy responses."""
    n, m = payoff.shape
    best_col = max(sum(x[i] * payoff[i][j] for i in range(n)) for j in range(m))
    best_row = min(sum(payoff[i][j] * y[j] for j in range(m)) for i in range(n))
    return best_col - best_row


def lp_value(payoff: np.ndarray) -> tuple[float, float]:
    """Game value from scipy's HiGHS and the gap of its own strategies.

    Solves min v s.t. A'x <= v 1, 1'x = 1, x >= 0; the column strategy
    is read off the duals of the inequality rows.  The exact gap of the
    clipped, renormalized LP pair bounds the error of the value.
    """
    from scipy.optimize import linprog

    n, m = payoff.shape
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.hstack([payoff.T, -np.ones((m, 1))]),
                  b_ub=np.zeros(m),
                  A_eq=np.hstack([np.ones((1, n)), np.zeros((1, 1))]),
                  b_eq=[1.0], bounds=[(0.0, None)] * n + [(None, None)],
                  method="highs")
    assert res.status == 0, res.message
    x = np.maximum(res.x[:n], 0.0)
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    x, y = x / x.sum(), y / y.sum()
    return float(res.fun), float(np.max(x @ payoff) - np.min(payoff @ y))


def sequential_crossover(game: MatrixGame, support: np.ndarray, pairs,
                         target: float):
    """The support crossover's first certifying block, found by solving
    every candidate directly, in order: the per-block equalizers on the
    block and its transpose, then the exact duality gap.  A candidate row
    lists the coordinates to toggle in the supports, -1 for none.
    Returns the candidate's index and profile, or (None, None)."""
    from saddle_ssn.game import duality_gap
    from saddle_ssn.ssn import _equalizer

    n = game.n
    for index, pair in enumerate(pairs):
        mask = support.copy()
        for i in pair:
            if i >= 0:
                mask[i] = not mask[i]
        rows, cols = np.flatnonzero(mask[:n]), np.flatnonzero(mask[n:])
        block = game.payoff[np.ix_(rows, cols)]
        y = _equalizer(block)
        x = None if y is None else _equalizer(block.T)
        if x is None:
            continue
        x_full, y_full = np.zeros(n), np.zeros(game.m)
        x_full[rows], y_full[cols] = x, y
        profile = StrategyProfile.from_vectors(x_full, y_full)
        if duality_gap(game, profile).gap <= target:
            return index, profile
    return None, None
