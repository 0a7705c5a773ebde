"""Generalized Jacobians of the splitting residual and the Newton solve.

The simplex projection is piecewise affine, so away from kinks its
Jacobian is the matrix G = diag(a) - a a' / |a| built from the active
set a of strictly positive output coordinates.  Stacking both players
gives D, and the chain rule through the splitting step yields

    J = D - M^(-1) (2 D - I),

a valid generalized Jacobian of the residual.  J has positive
semidefinite symmetric part, so J + mu I is invertible for every
mu > 0 with inverse norm at most 1/mu.

D = B B' with B = blockdiag(E_x' C_x, E_y' C_y), where E selects the
active coordinates of a block and C = I - 1 1'/k centers them.
Multiplying the regularized system (J + mu I) dz = -r by M gives

    (M_mu + (gamma F - I) B B') dz = -M r,   M_mu = (1 + mu) I + mu gamma F,

and Woodbury's identity reduces it to one capacitance system
S = I + B' L_mu B of size kx + ky, with L_mu = M_mu^(-1) (gamma F - I).
Every function of F here is diagonal on the singular pairs of the
context's SVD (see splitting), so S costs three scaled products with
the active rows of the SVD factors, O(min(n, m) (kx + ky)^2), two of
them symmetric rank-k products, and one LU factorization per trial
through numpy's LAPACK; nothing of size n + m is factored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import project_pair, project_simplex
from .splitting import DrsContext, ResidualValue, apply_spectral, resolve

# Projection coordinates above this are treated as active.  The
# thresholded projection produces exact zeros, so the cut is safe; at a
# kink the rule picks one valid element of the generalized Jacobian.
ACTIVATION_TOL = 1e-12


class LinearSolveError(RuntimeError):
    """The Newton system produced no usable solution."""


@dataclass(frozen=True)
class ProjectionJacobian:
    """Active-set form of the simplex projection Jacobian."""

    active_mask: np.ndarray

    def matrix(self) -> np.ndarray:
        """Materialize G = diag(a) - a a' / k with k active coordinates."""
        a = self.active_mask.astype(float)
        return np.diag(a) - np.outer(a, a) / a.sum()


def projection_jacobian(p, force_active=None) -> ProjectionJacobian:
    """Generalized Jacobian of project_simplex at p.

    The active set is read off the projection output itself; at least
    one coordinate is always active because the output sums to one.
    ``force_active`` optionally lists extra coordinate indices to
    include, which selects a neighboring-piece element when the point
    sits beside a kink.
    """
    x = project_simplex(p)
    mask = x > ACTIVATION_TOL
    if force_active is not None and len(force_active) > 0:
        mask[np.asarray(force_active, dtype=int)] = True
    mask.setflags(write=False)
    return ProjectionJacobian(active_mask=mask)


def boundary_margins(ctx: DrsContext, z) -> np.ndarray:
    """Distance of each unsupported coordinate to its block threshold.

    Returns a stacked n+m vector: +inf on the support of the blockwise
    simplex projection, and for the remaining coordinates the
    (nonnegative) amount by which the pre-projection value falls short
    of activating.  Small entries flag weakly active coordinates whose
    piece boundary passes right next to z.
    """
    zv = np.asarray(z, dtype=float)
    n = ctx.game.n
    out = np.full(zv.size, np.inf)
    for lo, hi in ((0, n), (n, zv.size)):
        block = zv[lo:hi]
        x = project_simplex(block)
        active = x > ACTIVATION_TOL
        tau = float(np.mean(block[active] - x[active]))
        out[lo:hi] = np.where(active, np.inf,
                              np.maximum(tau - block, 0.0))
    return out


@dataclass(frozen=True)
class ResidualJacobian:
    """Active-set form of the generalized Jacobian at a point.

    ``rows`` and ``cols`` index the active coordinates of each player;
    ``left`` and ``right`` hold the SVD factor rows on them, centered
    over each active set, i.e. C_x E_x U and C_y E_y V.
    """

    ctx: DrsContext
    rows: np.ndarray
    cols: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @cached_property
    def index(self) -> np.ndarray:
        """Both active sets as stacked coordinates of z."""
        return np.concatenate([self.rows, self.ctx.game.n + self.cols])

    def _center(self, v: np.ndarray) -> np.ndarray:
        kx, ky = self.rows.size, self.cols.size
        v[:kx] -= v[:kx].sum(axis=0) / kx
        v[kx:] -= v[kx:].sum(axis=0) / ky
        return v

    def gather(self, w: np.ndarray) -> np.ndarray:
        """B' w: the centered active entries of each block."""
        return self._center(w[self.index])

    def scatter(self, s: np.ndarray) -> np.ndarray:
        """B s: center each block of s and scatter it onto its active set."""
        out = np.zeros((self.ctx.game.n + self.ctx.game.m,) + s.shape[1:])
        out[self.index] = self._center(s.copy())
        return out

    @property
    def matrix(self) -> np.ndarray:
        """Dense J, built on first use as a reference for tests only."""
        eye = np.eye(self.ctx.game.n + self.ctx.game.m)
        d = self.scatter(self.gather(eye))
        return d - resolve(self.ctx, 2.0 * d - eye)


def residual_jacobian(ctx: DrsContext, z, force_active=(),
                      res: ResidualValue | None = None) -> ResidualJacobian:
    """Generalized Jacobian of the residual at z, in active-set form.

    D is the block-diagonal projection Jacobian of both simplex blocks;
    only its active sets and the matching rows of the SVD factors are
    kept, read from ``res.p`` when ``res`` is the residual at z.
    ``force_active`` takes stacked coordinate indices to add to the
    active sets, selecting an element of a neighboring piece.
    """
    n = ctx.game.n
    p = res.p if res is not None and res.p is not None else project_pair(n, z)
    mask = p > ACTIVATION_TOL
    mask[np.asarray(tuple(force_active), dtype=int)] = True
    rows, cols = np.flatnonzero(mask[:n]), np.flatnonzero(mask[n:])
    left = ctx.left[rows]
    right = ctx.right[cols]
    return ResidualJacobian(ctx, rows, cols, left - left.mean(axis=0),
                            right - right.mean(axis=0))


def newton_solve(jac: ResidualJacobian, mu: float,
                 res: ResidualValue) -> np.ndarray:
    """Solve the regularized Newton system (J + mu I) dz = -r.

    mu > 0 guarantees solvability because the symmetric part of J is
    positive semidefinite, which also bounds |dz| <= |r| / mu.  With
    g = M_mu^(-1) M r the step is dz = -(g - L_mu B S^(-1) B' g).  The
    solve is verified a posteriori on the original system; NaN
    contamination or an excessive backward error raises
    LinearSolveError.
    """
    if not np.isfinite(mu) or mu <= 0.0:
        raise ValueError(f"regularization mu must be positive, got {mu}")
    ctx, kx, ky = jac.ctx, jac.rows.size, jac.cols.size
    # On a singular pair, with s = i gamma sigma, M_mu^(-1) M and L_mu
    # are (1 + s)/den and (s - 1)/den, den = (1 + mu) + mu s.  Each is
    # passed as its value at s = 0 plus the remainder, written so that
    # it vanishes exactly at sigma = 0.
    s = ctx.spin
    t = (1.0 + mu) * ((1.0 + mu) + mu * s)
    ell = s * (1.0 + 2.0 * mu) / t
    g = apply_spectral(ctx, s / t, 1.0 / (1.0 + mu), res.r, res.coords(ctx))
    # S = I + B'L_mu B = mu/(1+mu) I + blockdiag(1 1'/k)/(1+mu) + the
    # pair part, whose (y, x) block is minus the transpose of (x, y).
    # Re ell = mu (1 + 2 mu) w^2 / ((1 + mu) ((1 + mu)^2 + mu^2 w^2)) >= 0
    # with w = gamma sigma, so each diagonal block is a Gram product W W'.
    root = np.sqrt(ell.real)
    cap = np.empty((kx + ky, kx + ky))
    w_left = jac.left * root
    w_right = jac.right * root
    cap[:kx, :kx] = w_left @ w_left.T
    cap[:kx, kx:] = (jac.left * ell.imag) @ jac.right.T
    cap[kx:, :kx] = -cap[:kx, kx:].T
    cap[kx:, kx:] = w_right @ w_right.T
    cap[:kx, :kx] += 1.0 / ((1.0 + mu) * kx)
    cap[kx:, kx:] += 1.0 / ((1.0 + mu) * ky)
    cap.reshape(-1)[::kx + ky + 1] += mu / (1.0 + mu)
    try:
        y = np.linalg.solve(cap, jac.gather(g))
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"Newton system solve failed: {exc}") from exc
    dz = apply_spectral(ctx, ell, -1.0 / (1.0 + mu), jac.scatter(y)) - g
    if not np.isfinite(dz).all():
        raise LinearSolveError("Newton system produced non-finite step")
    d_dz = jac.scatter(jac.gather(dz))
    lhs = d_dz - resolve(ctx, 2.0 * d_dz - dz) + mu * dz
    backward = np.linalg.norm(lhs + res.r)
    if backward > 1e-10 * (res.norm + 1.0):
        raise LinearSolveError(
            f"Newton system solve residual {backward:.3e} exceeds tolerance")
    return dz
