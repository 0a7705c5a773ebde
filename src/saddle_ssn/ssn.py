"""Regularized semi-smooth Newton solver on the splitting residual.

Each outer iteration assembles one generalized Jacobian J at the
current point and line-searches over the damping parameter lambda: the
system (J + mu I) dz = -r with mu = lambda * |r| is solved, and the
candidate is accepted as soon as the residual norm strictly decreases;
a failed trial multiplies lambda by ``ELL`` (more damping, a shorter
and safer step) and re-solves against the same Jacobian.  An accepted
step sets the damping the next step starts from, as trust-region
methods set their radius: a step accepted on its first trial divides
lambda by ``ELL`` squared, and a step that needed retries keeps the
lambda it was accepted at, so the next search does not re-try the
lighter damping that just failed.  The inner loop aborts once lambda
leaves [LAMBDA_MIN, LAMBDA_CAP] or after a fixed number of trials,
marking the state stalled.  On large systems the trials run in pairs:
while the calling thread solves one trial, a second lane solves the
next (jacobian.solve_ahead returns its future), which a rejection then
takes instead of solving again, and the search waits on a future it
did not take before it returns; the iterates are the same bits as on
one lane.

The supports of P(z) settle long before the residual's superlinear
tail, and near-degenerate games can even park the iterate at a local
minimum of the residual norm whose affine piece has no root.  So at
every point it visits, the entry point and the point after every
accepted step, drive_newton runs an exact support crossover (see
basin_hop) before any line search, as LP crossover does after an
interior or first-order method: it screens the square blocks one flip
or exchange, or two adds, from the current supports from one
factorization and solves directly only those the screen passes.
Supports three or more apart in size get no block.  The first that
certifies ends the run; a line search that stalls ends it too, since
the crossover has already failed at that point.
Termination is by exact duality gap of the projected iterate, not by
residual norm, so the returned certificate is unconditional.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .game import GapCertificate, StrategyProfile, duality_gap
from .jacobian import (LinearSolveError, ResidualJacobian, newton_solve,
                       residual_jacobian, solve_ahead)
from .splitting import DrsContext, ResidualValue, lift, residual
from .trace import PHASE_SSN, TraceRow

if TYPE_CHECKING:
    from concurrent.futures import Future

FLAG_TARGET = "target"
FLAG_STALLED = "stalled"
FLAG_BUDGET = "budget"

# Line-search ratio, the range lambda must stay in, the trials one line
# search may make, and the residual norm below which a point counts as a
# root.
ELL = 1.5
LAMBDA_CAP = 1e9
LAMBDA_MIN = 1e-15
MAX_LINE_SEARCH_TRIALS = 60
RESIDUAL_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class SsnConfig:
    """Target and budget of the Newton phase.

    ``max_newton_iters`` caps accepted steps per ``drive_newton`` call.
    """

    max_newton_iters: int = 200
    target_gap: float = 1e-12

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError(f"Newton constants must be finite: {self}")
        if self.max_newton_iters < 1:
            raise ValueError("the Newton budget must be at least 1")
        if self.target_gap < 0.0:
            raise ValueError("target gap must be nonnegative")


@dataclass
class SsnState:
    """Mutable solver state: current point, damping, cached residual."""

    z: np.ndarray
    lam: float
    residual: ResidualValue
    newton_steps_taken: int = 0
    converged: bool = False
    stalled: bool = False
    # Trials of the last line search, for diagnostics.
    last_trials: int = 0
    # The traced point with the smallest gap: its certificate and profile.
    best: tuple[GapCertificate, StrategyProfile] | None = None

    def profile(self, ctx: DrsContext) -> StrategyProfile:
        """The projected iterate, read from the residual's kept P(z)."""
        p, n = self.residual.p, ctx.game.n
        return StrategyProfile.from_vectors(p[:n], p[n:])


def make_state(ctx: DrsContext, z0, lambda0: float) -> SsnState:
    """Initialize solver state at a lifted point with starting damping."""
    if not np.isfinite(lambda0) or lambda0 <= 0.0:
        raise ValueError(f"initial damping must be positive, got {lambda0}")
    z = np.array(z0, dtype=float)
    return SsnState(z=z, lam=float(lambda0), residual=residual(ctx, z))


def newton_step(ctx: DrsContext, state: SsnState,
                jac: ResidualJacobian | None = None,
                lam: float | None = None, ahead: Future | None = None
                ) -> tuple[np.ndarray, ResidualValue] | None:
    """One damped Newton trial; no acceptance test applied.

    Returns the step and the residual at the candidate point, or None
    when the current residual is already numerically zero, in which
    case the caller should report convergence instead of stepping.
    ``ahead`` is the second lane's solve of this very trial, if any
    (see ``jacobian.newton_solve``).
    """
    if state.residual.norm <= RESIDUAL_ZERO_TOL:
        return None
    if jac is None:
        jac = residual_jacobian(ctx, state.z, res=state.residual)
    if lam is None:
        lam = state.lam
    mu = lam * state.residual.norm
    dz = newton_solve(jac, mu, state.residual, ahead)
    return dz, residual(ctx, state.z + dz)


def line_search_accept(ctx: DrsContext, state: SsnState,
                       config: SsnConfig) -> SsnState:
    """Run the damping line search at the current point.

    The Jacobian is assembled once and shared by all trials.  A trial
    whose residual norm strictly decreases is committed; otherwise
    lambda is multiplied by ``ELL`` and the system re-solved with the
    heavier damping.  A trial whose linear solve fails numerically
    counts as a rejection.  A step committed on its first trial leaves
    lambda divided by ``ELL`` squared (floored at LAMBDA_MIN) for the
    next step; a step that needed retries leaves the lambda it was
    committed at.  If lambda leaves [LAMBDA_MIN, LAMBDA_CAP] or
    ``MAX_LINE_SEARCH_TRIALS`` trials all fail, the state is returned
    unchanged except for a stalled flag.

    Trials run in pairs on large systems: trials 1, 3, 5, ... first
    hand the solve of the next trial, at lambda * ``ELL``, to the second
    lane (see ``jacobian.solve_ahead``), which returns its future, or
    None unless the process has the lane and the system is large.  A
    rejected trial's successor then takes that result.  Every iterate,
    count and error is the same as on one lane; before the search
    returns it waits on a future it did not take, so an error in that
    untaken solve goes nowhere.
    """
    if state.residual.norm <= RESIDUAL_ZERO_TOL:
        state.converged = True
        return state
    jac = residual_jacobian(ctx, state.z, res=state.residual)
    lam = state.lam
    trials = 0
    budget = MAX_LINE_SEARCH_TRIALS
    # The second lane's solve of the next trial, whose lambda is
    # lam * ELL: a rejection and a failed solve both lead there.
    ahead = None
    try:
        while LAMBDA_MIN <= lam <= LAMBDA_CAP and trials < budget:
            trials += 1
            taken, ahead = ahead, None
            if trials % 2 == 1 and trials < budget and lam * ELL <= LAMBDA_CAP:
                # The same product newton_step forms for the next trial.
                ahead = solve_ahead(jac, lam * ELL * state.residual.norm,
                                    state.residual)
            try:
                step = newton_step(ctx, state, jac=jac, lam=lam, ahead=taken)
            except LinearSolveError:
                lam *= ELL
                continue
            # Never None: the residual was checked above and is unchanged.
            dz, cand = step
            if cand.norm < state.residual.norm:
                state.z = state.z + dz
                state.residual = cand
                state.last_trials = trials
                state.lam = (max(LAMBDA_MIN, lam / ELL**2) if trials == 1
                             else lam)
                state.newton_steps_taken += 1
                return state
            lam *= ELL
    finally:
        if ahead is not None:
            ahead.exception()
    state.stalled = True
    state.last_trials = trials
    return state


# Support threshold on P(z); the most blocks one crossover call tries;
# the screen's allowance over the target, in units of the payoff's
# scale; and the base condition number past which the screen keeps
# every block.
_SUPPORT_TOL = 1e-9
_CROSSOVER_CANDIDATES = 64
_SCREEN_SLACK = 1e-6
_BASE_COND_MAX = 1e8


def _pow2_exponent(a: np.ndarray) -> int:
    """The e with max |a| in [2**(e-1), 2**e); 0 for a zero array.

    Dividing by 2**e is exact, so a block scaled this way has the same
    bits for A and for A times any power of two.
    """
    return int(np.frexp(np.abs(a).max())[1])


def _equalizer(a: np.ndarray) -> np.ndarray | None:
    """The strategy w with 1'w = 1 equalizing the square a w, clipped at 0.

    Solves [a / 2**e, -1; 1', 0] (w, v) = (0, 1), with the power of two
    2**e of ``_pow2_exponent`` bringing a to the border's scale.
    Returns None when the solve fails or leaves no positive mass.
    """
    k = len(a)
    lhs = np.block([[np.ldexp(a, -_pow2_exponent(a)), -np.ones((k, 1))],
                    [np.ones((1, k)), np.zeros((1, 1))]])
    rhs = np.append(np.zeros(k), 1.0)
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return None
    w = np.maximum(sol[:k], 0.0)
    total = w.sum()
    return w / total if np.isfinite(total) and total > 0.0 else None


def _ranked_pairs(first: np.ndarray, second: np.ndarray,
                  distinct: bool) -> np.ndarray:
    """Pairs (first[i], second[j]) by the farther rank max(i, j), then the
    nearer min(i, j), then j; with ``distinct``, one list and i < j only.
    At most ``_CROSSOVER_CANDIDATES`` rows."""
    cap = _CROSSOVER_CANDIDATES
    a, b = first.tolist(), second.tolist()
    pairs = []
    for far in range(max(len(a), len(b))):
        if len(pairs) >= cap:
            break
        for near in range(far):
            if not distinct and far < len(a) and near < len(b):
                pairs.append((a[far], b[near]))
            if far < len(b) and near < len(a):
                pairs.append((a[near], b[far]))
        if not distinct and far < min(len(a), len(b)):
            pairs.append((a[far], b[far]))
    return np.array(pairs[:cap], dtype=np.intp).reshape(-1, 2)


def _candidates(support: np.ndarray, order: np.ndarray,
                n: int) -> np.ndarray:
    """The square blocks a crossover call tries, in the order it tries them.

    Each row lists the coordinates to toggle in the supports, -1 for
    none.  With e = |S| - |T|: for e = 0, no toggle (the block (S, T)),
    then exchanges, each add in ``order`` paired with every support
    coordinate of the same player in ``order``, then borders, one row
    and one column added; for |e| = 1, the single flips that square the
    block, a drop from the larger side or an add to the smaller one, in
    ``order``; for |e| = 2, two adds to the smaller side; for |e| >= 3,
    none.  A flip or exchange lists its add first.  Borders and two-add
    pairs take the nearest unsupported strategies in ``order``, by the
    farther one's rank, then the nearer one's.  At most
    ``_CROSSOVER_CANDIDATES`` rows per family.
    """
    cap = _CROSSOVER_CANDIDATES
    excess = support[:n].sum() - support[n:].sum()
    adds = order[~support[order]]
    if abs(excess) == 1:
        flips = order[support[order] == ((order < n) == (excess > 0))][:cap]
        drop = support[flips]
        return np.column_stack([np.where(drop, -1, flips),
                                np.where(drop, flips, -1)])
    if abs(excess) == 2:
        adds = adds[(adds < n) == (excess < 0)][:cap]
        return _ranked_pairs(adds, adds, distinct=True)
    if excess:
        return np.empty((0, 2), dtype=np.intp)
    drops = order[support[order]]
    pairs = [(-1, -1)]
    for add in adds.tolist():
        if len(pairs) == cap:
            break
        same = drops[(drops < n) == (add < n)][:cap - len(pairs)]
        pairs.extend((add, drop) for drop in same.tolist())
    borders = _ranked_pairs(adds[adds < n][:cap], adds[adds >= n][:cap],
                            distinct=False)
    return np.concatenate([np.array(pairs), borders])


def _block(support: np.ndarray, toggles: np.ndarray, n: int):
    """Rows and columns of the block one candidate row names."""
    mask = support.copy()
    mask[toggles[toggles >= 0]] ^= True
    return np.flatnonzero(mask[:n]), np.flatnonzero(mask[n:])


def _base_inverse(k0: np.ndarray) -> np.ndarray | None:
    """The inverse of a screen's bordered base block; None when the block
    is singular or its condition number exceeds ``_BASE_COND_MAX``."""
    try:
        g = np.linalg.inv(k0)
    except np.linalg.LinAlgError:
        return None
    cond = np.abs(k0).sum(axis=0).max() * np.abs(g).sum(axis=0).max()
    return g if cond <= _BASE_COND_MAX else None


def _screened_gaps(x: np.ndarray, payoff_rows: np.ndarray, y: np.ndarray,
                   payoff_cols: np.ndarray) -> np.ndarray:
    """Duality gaps of the screen's equalizers, one candidate a row.

    Clips and renormalizes x and y in place, as ``_equalizer`` does;
    their columns weigh the rows of ``payoff_rows`` and ``payoff_cols``
    (rows and transposed columns of A).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for w in (x, y):
            np.maximum(w, 0.0, out=w)
            w /= w.sum(axis=1, keepdims=True)
        return ((x @ payoff_rows).max(axis=1)
                - (y @ payoff_cols).min(axis=1))


def _swap_gaps(game, support: np.ndarray, pairs: np.ndarray):
    """The screen's gaps for |e| <= 1 (see ``_screen``), and the exponent
    e of the power of two that scales the blocks; None when the base
    cannot be inverted."""
    n = game.n
    # Borders, the rows whose second entry is an add, come last.
    second = pairs[:, 1]
    borders = pairs[(second >= 0) & ~support[second]]
    pairs = pairs[:len(pairs) - len(borders)]
    count = len(pairs)
    add, drop = pairs.T
    base = int(np.argmax(add < 0))
    base_drop = drop[base]
    rows0, cols0 = _block(support, pairs[base], n)
    cols0 = cols0 + n
    k = len(rows0)
    # Relative to the base, a candidate that drops another coordinate
    # takes the base's drop back: it adds back_in and removes out, and
    # adds its own add.  Per player, at most one coordinate comes in,
    # and one goes out only where one comes in.
    moved = drop != base_drop
    back_in, out = np.where(moved, base_drop, -1), np.where(moved, drop, -1)
    at = np.arange(count)
    # Local indices per player: the base's k lines, the border (k), the
    # unit (dummy) index of the embedding (k + 1), then the added lines,
    # the borders' among them.  The border and dummy borrow a base
    # line's payoffs, which the equalizers below weigh by zero.
    sides = []
    for line0, on, bordering in (
            (rows0, lambda c: (c >= 0) & (c < n), borders[:, 0]),
            (cols0, lambda c: c >= n, borders[:, 1])):
        added = np.where(on(add), add, np.where(on(back_in), back_in, -1))
        has = added >= 0
        new = np.array(sorted(set(added[has].tolist())
                              | set(bordering.tolist())), dtype=np.intp)
        where = np.repeat(np.arange(k + 2)[None], count, axis=0)
        pos = np.where(on(out), np.searchsorted(line0, out), k + 1)
        where[has, pos[has]] = k + 2 + np.searchsorted(new, added[has])
        line = np.concatenate([line0, line0[:1], line0[:1], new])
        sides.append((line, where, np.where(has, pos, 0), has,
                      k + 2 + np.searchsorted(new, bordering)))
    (rows, rmap, rpos, has_r, br), (cols, cmap, qpos, has_q, bc) = sides
    cols = cols - n
    payoff_rows, payoff_cols = game.payoff[rows], game.payoff[:, cols].T
    ext = payoff_rows[:, cols]
    e = _pow2_exponent(ext)
    ext = np.ldexp(ext, -e)
    ext[:, k], ext[k], ext[k + 1], ext[:, k + 1] = -1.0, 1.0, 0.0, 0.0
    ext[k, k], ext[k + 1, k + 1] = 0.0, 1.0
    k0 = ext[:k + 2, :k + 2]
    g = _base_inverse(k0)
    if g is None:
        return None
    # Candidate c sets row rpos by v1 and column qpos by u2, which skips
    # row rpos, already set.
    v1 = ext[rmap[at, rpos][:, None], cmap] - k0[rpos]
    v1[~has_r] = 0.0
    u2 = ext[rmap, cmap[at, qpos][:, None]] - k0[:, qpos].T
    u2[at[has_r], rpos[has_r]] = 0.0
    u2[~has_q] = 0.0
    gu2, v1g = u2 @ g.T, v1 @ g
    # The 2x2 capacitance I + V'GU with U = [e_rpos, u2], V = [v1, e_qpos].
    c11, c12 = 1.0 + v1g[at, rpos], np.einsum("ij,ij->i", v1g, u2)
    c21, c22 = g[qpos, rpos], 1.0 + gu2[at, qpos]
    # A border appends row r and column c to the base (S, T), its
    # bordered matrix [K0, u; v', d] with u = (A_Sc, 1, 0), v = (A_rT,
    # -1, 0) and d = A_rc: the inverse is G's plus a rank-one term over
    # the scalar Schur complement d - v'Gu.
    u, v = ext[:k + 2, bc], ext[br, :k + 2]
    gu, vg = g @ u, v @ g
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = c11 * c22 - c12 * c21
        # y: column k (the border) of the inverse; x: minus its row k.
        b1, b2 = v1g[:, k] / det, g[qpos, k] / det
        y = (g[:, k] - g[:, rpos].T * (c22 * b1 - c12 * b2)[:, None]
             - gu2 * (c11 * b2 - c21 * b1)[:, None])
        a1, a2 = g[k, rpos] / det, gu2[:, k] / det
        x = ((a1 * c22 - a2 * c21)[:, None] * v1g
             + (a2 * c11 - a1 * c12)[:, None] * g[qpos] - g[k])
        schur = ext[br, bc] - np.einsum("ij,ji->i", vg, u)
        ty, tx = vg[:, k] / schur, gu[k] / schur
        y_border = g[:, k] + gu.T * ty[:, None]
        x_border = -g[k] - vg * tx[:, None]
    # Zero the border and the dummy where no line took its place.
    for w, bordered in ((y, has_q & (qpos == k + 1)),
                        (x, has_r & (rpos == k + 1))):
        w[:, k] = 0.0
        w[~bordered, k + 1] = 0.0
    x_loc = np.zeros((count + len(borders), len(rows)))
    y_loc = np.zeros((count + len(borders), len(cols)))
    x_loc[at[:, None], rmap] = x
    y_loc[at[:, None], cmap] = y
    at = np.arange(count, len(x_loc))
    x_loc[count:, :k], x_loc[at, br] = x_border[:, :k], tx
    y_loc[count:, :k], y_loc[at, bc] = y_border[:, :k], -ty
    return _screened_gaps(x_loc, payoff_rows, y_loc, payoff_cols), e


def _two_add_gaps(game, support: np.ndarray, pairs: np.ndarray):
    """The screen's gaps for |e| = 2, as ``_swap_gaps`` returns them.

    Orient A so that the adds are columns (A' when they are rows; the
    row equalizer of a block is the column equalizer of its transpose,
    so the two swap back).  The larger side keeps its k + 2 lines, the
    smaller its k, plus two adds.  The base is the first pair's block,
    bordered to K0 = [B, -1; 1', 0] with the pair in slots k and k + 1;
    a candidate puts its own pair there, two column replacements, so its
    inverse is a rank-two (Woodbury) update of G = K0^(-1).  One product
    G W with the bordered columns W of every add makes each update's 2x2
    capacitance and both border lines O(k).
    """
    n, count = game.n, len(pairs)
    column_adds = support[:n].sum() > support[n:].sum()
    if column_adds:
        a, big, small, lines = game.payoff, support[:n], support[n:], pairs - n
    else:
        a, big, small, lines = game.payoff.T, support[n:], support[:n], pairs
    adds = np.array(sorted(set(lines.ravel().tolist())), dtype=np.intp)
    slot = np.searchsorted(adds, lines)
    rows, cols = np.flatnonzero(big), np.append(np.flatnonzero(small), adds)
    k, b = len(rows) - 2, len(rows)
    payoff_rows, payoff_cols = a[rows], a[:, cols].T
    w = payoff_rows[:, cols]
    e = _pow2_exponent(w)
    w = np.vstack([np.ldexp(w, -e), np.ones(len(cols))])
    k0 = np.column_stack([w[:, :k], w[:, k + slot[0]],
                          np.append(-np.ones(b), 0.0)])
    g = _base_inverse(k0)
    if g is None:
        return None
    gw = g @ w[:, k:]
    i, j = slot.T
    c11, c12, c21, c22 = gw[k, i], gw[k, j], gw[k + 1, i], gw[k + 1, j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = c11 * c22 - c12 * c21
        # y: column b (the border) of the inverse, G e_b - G U C^(-1) E'G e_b
        # with U = [w_i - w_i0, w_j - w_j0] and E = [e_k, e_k+1].
        r1, r2 = g[k, b] / det, g[k + 1, b] / det
        z1, z2 = c22 * r1 - c12 * r2, c11 * r2 - c21 * r1
        y = g[:, b] - gw[:, i].T * z1[:, None] - gw[:, j].T * z2[:, None]
        # x: minus row b, with G[b] U = (gw[b, i], gw[b, j]).
        s1, s2 = gw[b, i] / det, gw[b, j] / det
        w1, w2 = s1 * c22 - s2 * c21, s2 * c11 - s1 * c12
        x = w1[:, None] * g[k] + w2[:, None] * g[k + 1] - g[b]
    at = np.arange(count)
    y_loc = np.zeros((count, len(cols)))
    y_loc[:, :k] = y[:, :k]
    y_loc[at, k + i], y_loc[at, k + j] = y[:, k] + z1, y[:, k + 1] + z2
    found = [(x[:, :b], payoff_rows), (y_loc, payoff_cols)]
    if not column_adds:
        found.reverse()
    (x, payoff_rows), (y, payoff_cols) = found
    return _screened_gaps(x, payoff_rows, y, payoff_cols), e


def _screen(game, support: np.ndarray, pairs: np.ndarray,
            target: float) -> np.ndarray:
    """Which candidate blocks may certify, judged from one factorization.

    For |e| <= 1 (``_swap_gaps``) the base block is the first of the
    smallest candidates: (S, T) when |S| = |T|, else the first drop.
    Every other flip or exchange is the base with at most one row and
    one column replaced or, where it is one larger, bordered by one of
    each.  Embed the bordered base K0 = [B, -1; 1', 0] as
    blockdiag(K0, 1), so that each candidate's bordered matrix differs
    from it in at most one row and one column: a rank-two update
    (Woodbury's identity).  With G = K0^(-1), the border column and row
    of each candidate's inverse are its equalizers y and x (see
    ``_equalizer``) at O(k^2) each, batched over all candidates in two
    products with G.  An e = 0 border reuses G through the Schur
    complement of its one new row and column, and a |e| = 2 candidate
    is the first pair's block with two columns replaced
    (``_two_add_gaps``); both cost O(k) each after one product.  The
    screen clips and renormalizes the equalizers as ``_equalizer`` does
    and takes their duality gaps in two more products.  A block fails
    the screen when its gap is finite and above the target by more
    than ``_SCREEN_SLACK`` of the payoff's scale.  Every block passes
    when the base is singular or its condition number exceeds
    ``_BASE_COND_MAX``.
    """
    n = game.n
    two_adds = abs(support[:n].sum() - support[n:].sum()) == 2
    found = (_two_add_gaps if two_adds else _swap_gaps)(game, support, pairs)
    if found is None:
        return np.ones(len(pairs), dtype=bool)
    gaps, e = found
    return ~(gaps > target + np.ldexp(_SCREEN_SLACK, e))


def _first_certified(game, support: np.ndarray, pairs: np.ndarray,
                     target: float) -> StrategyProfile | None:
    """The first candidate block whose direct equalizers certify.

    Only blocks that pass ``_screen`` are solved, in candidate order,
    each by ``_equalizer`` on it and its transpose; the exact duality
    gap of the resulting profile decides.  None when no block certifies.
    """
    n = game.n
    if not len(pairs):
        return None
    for c in np.flatnonzero(_screen(game, support, pairs, target)):
        rows, cols = _block(support, pairs[c], n)
        block = game.payoff[np.ix_(rows, cols)]
        y = _equalizer(block)
        x = None if y is None else _equalizer(block.T)
        if x is None:
            continue
        x_full, y_full = np.zeros(n), np.zeros(game.m)
        x_full[rows], y_full[cols] = x, y
        profile = StrategyProfile.from_vectors(x_full, y_full)
        if duality_gap(game, profile).gap <= target:
            return profile
    return None


def basin_hop(ctx: DrsContext, state: SsnState, config: SsnConfig) -> bool:
    """Try to finish the run by an exact support crossover on square blocks.

    Near an equilibrium the supports S, T of P(z) are at most a
    coordinate or two off an equilibrium's, and every matrix game has
    an extreme equilibrium on a square block (Shapley and Snow).  So
    with e = |S| - |T| only square blocks are tried (``_candidates``):
    for e = 0 (S, T), then the same-player exchanges, as a point that
    keeps both of two near-duplicate strategies needs, then the borders
    by one row and one column; for |e| = 1 the flips that square the
    block; for |e| = 2 the smaller side plus two of its nearest
    unsupported strategies, as a point still two coordinates short of
    the supports needs; for |e| >= 3 none, and the call returns False at
    once.  A drop ranks by its entry of P(z), an add by
    its distance tau - z_i to its block's threshold tau = mean(z - p)
    over the support, nearest first; both are read from z and the
    residual's kept P(z), so a call that does not certify projects
    nothing.  The blocks are screened from one factorization
    (``_screen``), and only those that pass are solved directly, in
    order (``_first_certified``).  Only the exact duality gap decides:
    the first at or below ``target_gap`` moves the state to the lift of
    its profile, whose kept P(z) is the profile itself, and returns
    True.  Otherwise the state is untouched and the result False.
    """
    game, n, z, p = ctx.game, ctx.game.n, state.z, state.residual.p
    support = p > _SUPPORT_TOL
    if abs(support[:n].sum() - support[n:].sum()) > 2:
        return False
    shift = z - p
    tau = np.repeat([shift[:n][support[:n]].mean(),
                     shift[n:][support[n:]].mean()], [n, game.m])
    order = np.argsort(np.where(support, p, np.maximum(tau - z, 0.0)),
                       kind="stable")
    profile = _first_certified(game, support, _candidates(support, order, n),
                               config.target_gap)
    if profile is None:
        return False
    state.z = lift(ctx, profile)
    state.residual = replace(residual(ctx, state.z),
                             p=profile.concatenated())
    state.newton_steps_taken += 1
    return True


def drive_newton(ctx: DrsContext, state: SsnState, config: SsnConfig,
                 max_steps: int | None = None,
                 rows: list[TraceRow] | None = None,
                 clock_start: float | None = None, start_iteration: int = 0
                 ) -> tuple[int, GapCertificate, str]:
    """Run up to ``max_steps`` line searches, tracing each accepted step.

    Starts from a state built by ``make_state`` and advances it in place.
    ``max_steps`` defaults to ``config.max_newton_iters``.  Appends to
    ``rows``, if given, one entry row at the starting point and one row
    per accepted step (gap of the projected iterate, residual norm,
    current damping, seconds since ``clock_start``, which defaults to
    the call); row iterations count on from ``start_iteration``, and
    ``state.best`` keeps the traced point with the smallest gap.  At
    every point it visits, the entry point and the point after each
    accepted step, the budget's last included, it first runs the
    support crossover (``basin_hop``).  When that certifies, its exact
    profile counts as one more step, and the loop top traces that row
    and ends the run, so the last row's gap is the returned certificate.
    Otherwise the line search steps; when it stalls, the crossover has
    already failed at that point, so the run ends stalled, with the
    state where the search left it.  Returns the number of steps (the
    accepted ones and a certified crossover), the last gap certificate,
    and a flag: "target" when the gap certificate meets target_gap,
    "stalled" when the line search gave up, "budget" when max_steps
    line searches ran out.
    """
    t0 = time.perf_counter() if clock_start is None else clock_start
    if max_steps is None:
        max_steps = config.max_newton_iters
    if rows is None:
        rows = []
    steps = 0
    while True:
        profile = state.profile(ctx)
        cert = duality_gap(ctx.game, profile)
        if state.best is None or cert.gap < state.best[0].gap:
            state.best = (cert, profile)
        rows.append(TraceRow(start_iteration + 1 + steps, PHASE_SSN, cert.gap,
                             state.residual.norm, state.lam,
                             time.perf_counter() - t0))
        if cert.gap <= config.target_gap:
            state.converged = True
            return steps, cert, FLAG_TARGET
        # A certified crossover moves the state to its exact profile,
        # which the loop top traces as one more step to end the run.
        if basin_hop(ctx, state, config):
            steps += 1
            continue
        if steps >= max_steps:
            return steps, cert, FLAG_BUDGET
        line_search_accept(ctx, state, config)
        if state.stalled:
            state.stalled = False
            return steps, cert, FLAG_STALLED
        if state.converged:
            # Residual numerically zero: the projected point is an
            # equilibrium up to roundoff; certify and stop.
            cert = duality_gap(ctx.game, state.profile(ctx))
            flag = (FLAG_TARGET if cert.gap <= config.target_gap
                    else FLAG_STALLED)
            return steps, cert, flag
        steps += 1
