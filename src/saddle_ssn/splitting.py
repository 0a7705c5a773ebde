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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (MatrixGame, StrategyProfile, project_pair, project_product,
                   saddle_operator)


@dataclass(frozen=True)
class DrsContext:
    """A game, a splitting parameter, and the thin SVD of the payoff.

    ``left`` (n x r), ``sigma`` (r) and ``right`` (m x r) satisfy
    A = left diag(sigma) right' with r = min(n, m).  Immutable; safe to
    share across threads and solver phases.
    """

    game: MatrixGame
    gamma: float
    left: np.ndarray
    sigma: np.ndarray
    right: np.ndarray


def build_context(game: MatrixGame, gamma: float) -> DrsContext:
    """Take the thin SVD of the payoff once for every later solve.

    Cost is one dense SVD of the n x m payoff; every later application
    of a function of F is four products with the factors.
    """
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    left, sigma, right_t = np.linalg.svd(game.payoff, full_matrices=False)
    return DrsContext(game=game, gamma=float(gamma), left=left, sigma=sigma,
                      right=np.ascontiguousarray(right_t.T))


def apply_spectral(ctx: DrsContext, dev: np.ndarray, c0: float,
                   w: np.ndarray) -> np.ndarray:
    """Apply f(F) to w, where f(0) = c0 and f(i sigma_j) = c0 + dev[j].

    Accepts a vector of length n + m or a matrix with n + m rows.
    """
    n = ctx.game.n
    shape = (-1,) + (1,) * (w.ndim - 1)
    alpha, beta = dev.real.reshape(shape), dev.imag.reshape(shape)
    a = ctx.left.T @ w[:n]
    b = ctx.right.T @ w[n:]
    return c0 * w + np.concatenate([ctx.left @ (alpha * a + beta * b),
                                    ctx.right @ (alpha * b - beta * a)])


def resolve(ctx: DrsContext, w: np.ndarray) -> np.ndarray:
    """Solve M u = w with M = [[I, gamma A], [-gamma A', I]].

    Accepts a vector of length n + m or a matrix with n + m rows, and
    returns the solution with the same shape.  M^(-1) is 1/(1 + i gamma
    sigma_j) on each singular pair and the identity elsewhere.
    """
    s = 1j * ctx.gamma * ctx.sigma
    return apply_spectral(ctx, -s / (1.0 + s), 1.0, w)


@dataclass(frozen=True)
class ResidualValue:
    """A splitting residual vector with its Euclidean norm cached."""

    r: np.ndarray
    norm: float


def residual(ctx: DrsContext, z) -> ResidualValue:
    """Displacement R(z) = z - T(z) = P(z) - M^(-1)(2 P(z) - z).

    Zeros of R are the fixed points of the splitting step, which is
    z - R(z); the norm is the convergence measure driven to zero by the
    Newton solver.
    """
    zv = _checked(ctx, z)
    p = project_pair(ctx.game.n, zv)
    r = p - resolve(ctx, 2.0 * p - zv)
    return ResidualValue(r=r, norm=float(np.linalg.norm(r)))


def lift(ctx: DrsContext, profile: StrategyProfile) -> np.ndarray:
    """Map a profile into the splitting space: z = v - gamma F(v).

    At an exact equilibrium the image is a fixed point of the splitting
    step, which is how first-order iterates warm-start the Newton phase.
    """
    v = profile.concatenated()
    return v - ctx.gamma * saddle_operator(ctx.game, v)


def restrict(ctx: DrsContext, z) -> StrategyProfile:
    """Map a lifted point back to a feasible profile by projection."""
    return project_product(ctx.game, z)


def _checked(ctx: DrsContext, z) -> np.ndarray:
    zv = np.asarray(z, dtype=float)
    d = ctx.game.n + ctx.game.m
    if zv.shape[0] != d:
        raise ValueError(f"point has dimension {zv.shape[0]}, expected {d}")
    return zv
