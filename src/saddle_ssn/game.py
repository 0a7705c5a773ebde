"""Matrix game model, simplex geometry, and exact duality-gap certificates.

A game is a payoff matrix A of shape (n, m).  The row player chooses a
mixed strategy x on the n-simplex and pays x'Ay to the column player,
who chooses y on the m-simplex.  Because best responses to a fixed
opponent strategy are attained at vertices, the duality gap of a
strategy profile is computable exactly from the payoff columns/rows,
and gap zero certifies a Nash equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Coordinates this far below zero are treated as roundoff and clamped.
COORD_SLACK = 1e-12
# Profiles must sum to one within this tolerance before renormalization.
SUM_TOL = 1e-10

_NORM_EST_ITERS = 200
_NORM_EST_RTOL = 1e-12
_NORM_EST_SEED = 0x5EED


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def estimate_spectral_norm(payoff: np.ndarray,
                           iters: int = _NORM_EST_ITERS,
                           rtol: float = _NORM_EST_RTOL) -> float:
    """Estimate the largest singular value of ``payoff`` by power iteration.

    Iterates on the Gram matrix of the smaller side with a seeded random
    start vector, stopping after ``iters`` rounds or once the estimate
    stabilizes to relative tolerance ``rtol``.
    """
    a = np.asarray(payoff, dtype=float)
    n, m = a.shape
    rng = np.random.Generator(np.random.Philox(key=_NORM_EST_SEED))
    if n <= m:
        gram = lambda v: a @ (a.T @ v)
        v = rng.standard_normal(n)
    else:
        gram = lambda v: a.T @ (a @ v)
        v = rng.standard_normal(m)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iters):
        w = gram(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_est = np.sqrt(nw)
        if est > 0.0 and abs(new_est - est) <= rtol * est:
            est = new_est
            break
        est = new_est
        v = w / nw
    return float(est)


@dataclass(frozen=True)
class MatrixGame:
    """A two-player zero-sum game given by its payoff matrix.

    The row player minimizes x'Ay over the n-simplex, the column player
    maximizes over the m-simplex.
    """

    payoff: np.ndarray
    n: int
    m: int

    @classmethod
    def from_payoff(cls, payoff) -> "MatrixGame":
        a = np.array(payoff, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"payoff must be a 2-d array, got ndim={a.ndim}")
        n, m = a.shape
        if n < 1 or m < 1:
            raise ValueError(f"payoff must be nonempty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            bad = np.argwhere(~np.isfinite(a))[0]
            raise ValueError(
                f"payoff contains a non-finite entry at ({bad[0]}, {bad[1]})")
        return cls(payoff=_freeze(a), n=n, m=m)


@dataclass(frozen=True)
class StrategyProfile:
    """A pair of mixed strategies, one per player.

    Construction through :meth:`from_vectors` tolerates coordinates down
    to ``-COORD_SLACK`` (clamped to zero) and sums off by ``SUM_TOL``
    (renormalized), so profiles assembled from solver output are always
    exactly feasible up to roundoff.
    """

    x: np.ndarray
    y: np.ndarray

    @classmethod
    def from_vectors(cls, x, y) -> "StrategyProfile":
        return cls(x=_clean_strategy(np.asarray(x, dtype=float), "x"),
                   y=_clean_strategy(np.asarray(y, dtype=float), "y"))

    @classmethod
    def uniform(cls, n: int, m: int) -> "StrategyProfile":
        return cls(x=_freeze(np.full(n, 1.0 / n)),
                   y=_freeze(np.full(m, 1.0 / m)))

    def concatenated(self) -> np.ndarray:
        """The profile as a single vector in R^(n+m)."""
        return np.concatenate([self.x, self.y])


def _clean_strategy(v: np.ndarray, name: str) -> np.ndarray:
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty vector")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    lo = v.min()
    if lo < -COORD_SLACK:
        raise ValueError(
            f"{name} has coordinate {lo} below the -{COORD_SLACK} slack")
    s = v.sum()
    if abs(s - 1.0) > SUM_TOL:
        raise ValueError(f"{name} sums to {s}, expected 1 within {SUM_TOL}")
    w = np.maximum(v, 0.0)
    w /= w.sum()
    return _freeze(w)


@dataclass(frozen=True)
class GapCertificate:
    """Exact duality gap together with the optimal pure best responses."""

    gap: float
    best_response_row: int
    best_response_col: int


def duality_gap(game: MatrixGame, profile: StrategyProfile) -> GapCertificate:
    """Exact duality gap of a profile via pure-strategy best responses.

    gap = max_j (x'A)_j - min_i (Ay)_i.  The maximizing column and
    minimizing row are reported; ties break to the lowest index.  The
    gap is zero exactly at Nash equilibria and positive elsewhere.
    """
    x, y = profile.x, profile.y
    if x.shape[0] != game.n or y.shape[0] != game.m:
        raise ValueError(
            f"profile shape ({x.shape[0]}, {y.shape[0]}) does not match "
            f"game shape ({game.n}, {game.m})")
    col_payoffs = x @ game.payoff
    row_payoffs = game.payoff @ y
    best_col = int(np.argmax(col_payoffs))
    best_row = int(np.argmin(row_payoffs))
    gap = float(col_payoffs[best_col] - row_payoffs[best_row])
    return GapCertificate(gap=gap, best_response_row=best_row,
                          best_response_col=best_col)


def project_simplex(p) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-based thresholding: with u the coordinates sorted in descending
    order, find the largest k with u_k - (sum of the top k - 1)/k > 0
    and clip at that threshold.  O(d log d), exact for exact arithmetic.
    """
    p = np.asarray(p, dtype=float)
    return _project_blocks(p, (p.size,))


def project_pair(n: int, z) -> np.ndarray:
    """Blockwise simplex projection of a vector split at index n."""
    z = np.asarray(z, dtype=float)
    return _project_blocks(z, (n, z.size - n))


def _project_blocks(z: np.ndarray, sizes: tuple) -> np.ndarray:
    """Project consecutive blocks of z, of the given sizes, onto simplices.

    The blocks go through one row-wise sort, running sum and threshold
    search.  A shorter block is padded with -inf, which sorts last and
    never passes the test.  Each row sums in the same sequential order
    as a one-block ``cumsum``, and for finite values ``u > css / k`` is
    exactly ``u - css / k > 0``, so every block gets the bits it would
    get if projected on its own.
    """
    if z.ndim != 1 or min(sizes) < 1:
        raise ValueError("projection input must be a nonempty vector")
    if not np.isfinite(z).all():
        raise ValueError("projection input contains non-finite coordinates")
    blocks, width = len(sizes), max(sizes)
    if blocks * width == z.size:
        rows = z.reshape(blocks, width)
    else:
        rows = np.full((2, width), -np.inf)
        rows[0, :sizes[0]] = z[:sizes[0]]
        rows[1, :sizes[1]] = z[sizes[0]:]
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.add.accumulate(u, axis=1)
    css -= 1.0
    # css[k - 1] / k for every rank k; a block's threshold is its entry at
    # the last rank that passes, as in a one-block ks[cond][-1].
    means = css / np.arange(1, width + 1)
    passes = u > means
    out = np.empty(z.size)
    start = 0
    for row, back in enumerate(np.argmax(passes[:, ::-1], axis=1).tolist()):
        last = width - 1 - back
        # argmax also lands here when no rank passes, which happens once
        # u_1 - 1 rounds to u_1 (|u_1| of about 2**53 or more).
        if not passes[row, last]:
            raise ValueError("projection input is too large to threshold")
        end = start + sizes[row]
        np.subtract(z[start:end], means[row, last], out=out[start:end])
        start = end
    np.maximum(out, 0.0, out=out)
    return out


def project_product(game: MatrixGame, z) -> StrategyProfile:
    """Project a lifted point onto the product of the two simplices."""
    z = np.asarray(z, dtype=float)
    if z.shape[0] != game.n + game.m:
        raise ValueError(
            f"lifted point has dimension {z.shape[0]}, expected "
            f"{game.n + game.m}")
    p = project_pair(game.n, z)
    return StrategyProfile.from_vectors(p[:game.n], p[game.n:])


def saddle_operator(game: MatrixGame, z) -> np.ndarray:
    """Apply the skew payoff operator z = (x, y) -> (Ay, -A'x).

    This is the simultaneous-gradient field of the bilinear saddle
    objective; it is linear and skew-symmetric, so z'Fz = 0 for all z.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[0] != game.n + game.m:
        raise ValueError(
            f"operator input has dimension {z.shape[0]}, expected "
            f"{game.n + game.m}")
    x, y = z[:game.n], z[game.n:]
    return np.concatenate([game.payoff @ y, -(x @ game.payoff)])
