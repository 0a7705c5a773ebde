"""Douglas-Rachford splitting operator for the saddle-point inclusion.

The equilibrium problem splits into the normal cone of the product of
simplices plus the linear skew payoff operator F.  One splitting step
from z is

    T(z) = z - P(z) + (I + gamma F)^(-1) (2 P(z) - z),

where P projects blockwise onto the simplices.  Fixed points of T
correspond to equilibria through the lift map z = profile - gamma
F(profile).  The solver works with the displacement R = Id - T, which
is monotone, 1-Lipschitz, and piecewise affine, so a semi-smooth Newton
method applies to R(z) = 0.

Every linear map the solver needs is a rational function of F.  With
the thin SVD A = U diag(sigma) V', F maps each singular pair (U_i, V_i)
into itself and acts there as multiplication by i sigma_i, in the
complex coordinate U_i'p - i V_i'q of z = (p, q); it vanishes on the
complement.  A
function f(F) is thus fixed by the scalars f(i sigma_i) and f(0), and
costs four products with the factors.  The SVD is computed once per
context and serves the resolvent for every right-hand side and the
Newton solves for every regularization (see jacobian).

gamma is measured in the payoff's units: scaling A by c and gamma by
1/c leaves P, the lifted points and every iterate unchanged.  The
default gamma = 3 / sigma_max ties it to the payoff's scale, as the
metric-selection analysis of Douglas-Rachford splitting advises
(Giselsson and Boyd, IEEE TAC 62(2), 2017), so a run takes the same
steps on A and on 4A, and the Newton systems, which are multiplied by
M, have cond(M) = sqrt(1 + gamma^2 sigma_max^2) = sqrt(10) on every
game.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import MatrixGame, StrategyProfile, project_pair, saddle_operator

# gamma * sigma_max under the default splitting parameter.  Step counts
# were flat (within about 10%) for products from 2 to 5 on normal and
# uniform hybrids of 30x30 to 50x200, and all beat gamma = 1 there.
_GAMMA_SIGMA_MAX = 3.0


@dataclass(frozen=True)
class DrsContext:
    """A game, a splitting parameter, and the thin SVD of the payoff.

    ``left`` (n x r), ``sigma`` (r) and ``right`` (m x r) satisfy
    A = left diag(sigma) right' with r = min(n, m).  ``gamma`` is the
    resolved splitting parameter, never None.  Immutable; safe to share
    across threads and solver phases.
    """

    game: MatrixGame
    gamma: float
    left: np.ndarray
    sigma: np.ndarray
    right: np.ndarray
    spin: np.ndarray  # i gamma sigma: gamma F on each singular pair
    resolvent: np.ndarray  # M^(-1) - I on each singular pair


def build_context(game: MatrixGame, gamma: float | None = None) -> DrsContext:
    """Take the thin SVD of the payoff once for every later solve.

    Cost is one dense SVD of the n x m payoff; every later application
    of a function of F is four products with the factors.  ``gamma``
    None, the default, resolves to 3 / sigma_max(A) (1 for a zero
    payoff), read from that SVD; the resolved value is ``ctx.gamma``.
    """
    left, sigma, right_t = np.linalg.svd(game.payoff, full_matrices=False)
    if gamma is None:
        gamma = _GAMMA_SIGMA_MAX / sigma[0] if sigma[0] > 0.0 else 1.0
    # Checked after resolving: a subnormal sigma_max overflows 3 / sigma.
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    spin = 1j * float(gamma) * sigma
    return DrsContext(game=game, gamma=float(gamma), left=left, sigma=sigma,
                      right=np.ascontiguousarray(right_t.T), spin=spin,
                      resolvent=-spin / (1.0 + spin))


def _coords(ctx: DrsContext, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # np.dot, not @: it drops the GIL on matrix-vector products, so two
    # lanes' solves overlap here too (see jacobian).
    return np.dot(ctx.left.T, w[:ctx.game.n]), np.dot(ctx.right.T,
                                                       w[ctx.game.n:])


def apply_spectral(ctx: DrsContext, dev: np.ndarray, c0: float,
                   w: np.ndarray, coords=None) -> np.ndarray:
    """Apply f(F) to w, where f(0) = c0 and f(i sigma_j) = c0 + dev[j].

    Accepts a vector of length n + m or a matrix with n + m rows.
    ``coords`` optionally passes (U'w_x, V'w_y) already computed.
    """
    shape = (-1,) + (1,) * (w.ndim - 1)
    alpha, beta = dev.real.reshape(shape), dev.imag.reshape(shape)
    a, b = _coords(ctx, w) if coords is None else coords
    return c0 * w + np.concatenate([np.dot(ctx.left, alpha * a + beta * b),
                                    np.dot(ctx.right, alpha * b - beta * a)])


def resolve(ctx: DrsContext, w: np.ndarray) -> np.ndarray:
    """Solve M u = w with M = [[I, gamma A], [-gamma A', I]].

    Accepts a vector of length n + m or a matrix with n + m rows, and
    returns the solution with the same shape.  M^(-1) is 1/(1 + i gamma
    sigma_j) on each singular pair and the identity elsewhere.
    """
    return apply_spectral(ctx, ctx.resolvent, 1.0, w)


@dataclass(frozen=True)
class ResidualValue:
    """A residual vector, its norm, and the P(z) it came from (or None)."""

    r: np.ndarray
    norm: float
    p: np.ndarray | None = None
    _spectral: tuple | None = field(default=None, init=False, repr=False)

    def coords(self, ctx: DrsContext) -> tuple[np.ndarray, np.ndarray]:
        """(U'r_x, V'r_y) in ctx's SVD, computed on first use and kept."""
        if self._spectral is None:
            object.__setattr__(self, "_spectral", _coords(ctx, self.r))
        return self._spectral


def residual(ctx: DrsContext, z) -> ResidualValue:
    """Displacement R(z) = z - T(z) = P(z) - M^(-1)(2 P(z) - z).

    Zeros of R are the fixed points of the splitting step, which is
    z - R(z); the norm is the convergence measure driven to zero by the
    Newton solver.
    """
    zv = _checked(ctx, z)
    p = project_pair(ctx.game.n, zv)
    r = p - resolve(ctx, 2.0 * p - zv)
    return ResidualValue(r=r, norm=float(np.linalg.norm(r)), p=p)


def lift(ctx: DrsContext, profile: StrategyProfile) -> np.ndarray:
    """Map a profile into the splitting space: z = v - gamma F(v).

    At an exact equilibrium the image is a fixed point of the splitting
    step, which is how first-order iterates warm-start the Newton phase.
    """
    v = profile.concatenated()
    return v - ctx.gamma * saddle_operator(ctx.game, v)


def restrict(ctx: DrsContext, z) -> StrategyProfile:
    """Map a lifted point back to a feasible profile by projection."""
    p = project_pair(ctx.game.n, _checked(ctx, z))
    return StrategyProfile.from_vectors(p[:ctx.game.n], p[ctx.game.n:])


def _checked(ctx: DrsContext, z) -> np.ndarray:
    zv = np.asarray(z, dtype=float)
    d = ctx.game.n + ctx.game.m
    if zv.shape[0] != d:
        raise ValueError(f"point has dimension {zv.shape[0]}, expected {d}")
    return zv
