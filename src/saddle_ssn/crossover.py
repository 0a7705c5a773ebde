"""Exact support crossover on square blocks, the Newton phase's finish.

Near an equilibrium the supports S, T of P(z) are at most a coordinate
or two off an equilibrium's, and every matrix game has an extreme
equilibrium on a square block (Shapley and Snow).  So, as LP crossover
does after an interior or first-order method, ``proposals`` reads the
supports of P(z) and proposes the equalizers of square blocks near
them: with e = |S| - |T|, for e = 0 (S, T), then the same-player
exchanges, as a point that keeps both of two near-duplicate strategies
needs, then the borders by one row and one column; for |e| = 1 the
flips that square the block; for |e| = 2 the smaller side plus two of
its nearest unsupported strategies, as a point still two coordinates
short of the supports needs; for |e| >= 3 none (``_candidates``).  A
drop ranks by its entry of P(z), an add by its distance tau - z_i to
its block's threshold tau = mean(z - p) over the support, nearest
first.  Every block is at most two row or column replacements of the
first of the smallest, so one factorization screens them all
(``_screen``), and only those that pass are solved directly.  A
screened value never decides: the caller takes the exact duality gap
of each proposal (see ssn.basin_hop).  Each block is scaled by a power
of two before a solve, so A and 4A give the same bits.

Nothing here calls a function the benchmark harness traces, so every
gap certificate and residual of a crossover call shows up under
``ssn.basin_hop``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .game import MatrixGame, StrategyProfile

# Support threshold on P(z); the most blocks one call tries per family;
# the screen's allowance over the target, in units of the payoff's
# scale; and the base condition number past which the screen keeps
# every block.
_SUPPORT_TOL = 1e-9
_CROSSOVER_CANDIDATES = 64
_SCREEN_SLACK = 1e-6
_BASE_COND_MAX = 1e8


def proposals(game: MatrixGame, z: np.ndarray, p: np.ndarray,
              target_gap: float) -> Iterator[StrategyProfile]:
    """The equalizer profiles of the screened blocks, in candidate order.

    ``z`` is the Newton iterate and ``p`` its projection P(z); the
    blocks are ``_candidates`` of the supports of ``p``, and only those
    that pass ``_screen`` at ``target_gap`` are solved, each by
    ``_equalizer`` on it and its transpose.  A block whose solve fails
    yields nothing.  Reads z and p only, so a caller that stops early
    has projected nothing.
    """
    n = game.n
    support = p > _SUPPORT_TOL
    shift = z - p
    tau = np.repeat([shift[:n][support[:n]].mean(),
                     shift[n:][support[n:]].mean()], [n, game.m])
    order = np.argsort(np.where(support, p, np.maximum(tau - z, 0.0)),
                       kind="stable")
    pairs = _candidates(support, order, n)
    if not len(pairs):
        return
    for c in np.flatnonzero(_screen(game, support, pairs, target_gap)):
        rows, cols = _block(support, pairs[c], n)
        block = game.payoff[np.ix_(rows, cols)]
        y = _equalizer(block)
        x = None if y is None else _equalizer(block.T)
        if x is None:
            continue
        x_full, y_full = np.zeros(n), np.zeros(game.m)
        x_full[rows], y_full[cols] = x, y
        yield StrategyProfile.from_vectors(x_full, y_full)


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
    lhs = np.zeros((k + 1, k + 1))
    np.ldexp(a, -_pow2_exponent(a), out=lhs[:k, :k])
    lhs[:k, k], lhs[k, :k] = -1.0, 1.0
    rhs = np.concatenate((np.zeros(k), [1.0]))
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


def _screen(game, support: np.ndarray, pairs: np.ndarray,
            target: float) -> np.ndarray:
    """Which candidate blocks may certify, judged from one factorization.

    The base block is the first of the smallest candidates.  Bordered to
    K0 = [B, -1; 1', 0] and embedded as K = blockdiag(K0, 1), it has k
    slots per player for its lines, then the border slot k and the
    dummy slot k + 1.  A candidate's toggles, XORed with the base's,
    name the lines that enter and leave its block.  In a one-player swap
    (at most two lines) each entering line takes a leaving line's slot;
    in a grow one row and one column enter and take the dummy slot.  So
    each candidate's bordered matrix is K with at most two rows or
    columns replaced, and with G = K^(-1) its inverse is a rank-two
    (Woodbury) update with a 2x2 capacitance.  G is multiplied once by
    the bordered lines that enter any block, after which a candidate
    costs O(k).  The border column and row of each updated inverse are
    the candidate's equalizers y and x (see ``_equalizer``); the screen
    clips and renormalizes them and takes their duality gaps in two
    more products.  A block fails the screen when its gap is finite and
    above the target by more than ``_SCREEN_SLACK`` of the payoff's
    scale.  Every block passes when the base is singular or its
    condition number exceeds ``_BASE_COND_MAX``, and so does a block
    whose capacitance determinant is below 1 / ``_BASE_COND_MAX`` in
    magnitude.
    """
    n, count = game.n, len(pairs)
    # A drop counts -1 and an add +1, so the smallest block sums least.
    sizes = np.where(pairs >= 0, 1 - 2 * support[pairs], 0).sum(axis=1)
    base = pairs[np.argmin(sizes)]
    rows0, cols0 = _block(support, base, n)
    k, s = len(rows0), len(rows0) + 2
    # A line toggled by only one of the candidate and the base moves.
    # One the candidate toggles enters where it is off the supports, one
    # the base toggles where it is on them.  Sorted, with -1 for none, a
    # swap's entering and leaving lines share their columns, and a grow
    # lists its row first.
    lines = np.concatenate([pairs, base[None].repeat(count, axis=0)], axis=1)
    moves = (lines >= 0) & ((lines[:, :, None] == lines[:, None]).sum(2) == 1)
    enters = moves & (support[lines] != [True, True, False, False])
    ins = np.sort(np.where(enters, lines, -1), axis=1)[:, 2:]
    outs = np.sort(np.where(moves & ~enters, lines, -1), axis=1)[:, 2:]
    slot_of = np.full(len(support) + 1, k + 1)
    slot_of[rows0], slot_of[n + cols0] = np.arange(k), np.arange(k)
    slot = slot_of[outs]
    # Local lines per player: the base's k, the border (k) and the dummy
    # (k + 1), which borrow a base line's payoffs, then the entering
    # ones.  An update's source is its line's index from the dummy on,
    # 0 (the dummy in its own slot) when there is no update.
    new = np.array(sorted(set(ins[ins >= 0].tolist())), dtype=np.intp)
    nr, col = np.searchsorted(new, n), ins >= n
    source = np.searchsorted(new, ins) + 1
    rsrc = np.where((ins >= 0) & ~col, source, 0)
    csrc = np.where(col, source - nr, 0)
    rows = np.concatenate([rows0, rows0[:1], rows0[:1], new[:nr]])
    cols = np.concatenate([cols0, cols0[:1], cols0[:1], new[nr:] - n])
    payoff_rows, payoff_cols = game.payoff[rows], game.payoff[:, cols].T
    ext = payoff_rows[:, cols]
    e = _pow2_exponent(ext)
    ext = np.ldexp(ext, -e)
    ext[:, k], ext[k], ext[k + 1], ext[:, k + 1] = -1.0, 1.0, 0.0, 0.0
    ext[k, k], ext[k + 1, k + 1] = 0.0, 1.0
    g = _base_inverse(ext[:s, :s])
    if g is None:
        return np.ones(count, dtype=bool)
    # A row update puts row rho in slot p: u = e_p, v = rho - K[p].  A
    # column update puts column gamma in slot q: u = gamma - K[:, q],
    # v = e_q.  Per update, gu = G u and vg = v'G each come from one
    # table, G and the products of G with every entering line.
    wg, gw = ext[k + 1:, :s] @ g, (g @ ext[:s, k + 1:]).T
    gu = np.concatenate([g.T, gw])[np.where(col, s + csrc, slot)]
    vg = np.concatenate([g, wg])[np.where(col, slot, s + rsrc)]
    (cc, ca), (rc, ra) = np.nonzero(col), np.nonzero(~col)
    gu[cc, ca, slot[cc, ca]] -= 1.0
    vg[rc, ra, slot[rc, ra]] -= 1.0
    # A grow's two updates both write the dummy's diagonal entry, which
    # becomes 1 + (0 - 1) + (gamma[k + 1] - 1): gamma[k + 1] = d + 1
    # leaves the block's corner d there, and G u = G gamma + d e_(k+1).
    grow = col[:, 1] & (slot[:, 1] > k)
    gu[grow, 1, k + 1] = ext[k + 1 + rsrc[grow, 0], k + 1 + csrc[grow, 1]]
    # The capacitance C = I + V'GU: v_a'G u_b is vg_a[p_b] where u_b =
    # e_p, and gu_b[q_a] where v_a = e_q.  Only a grow has neither: its
    # row v_0 = rho - e_(k+1) and column gu_1 give rho'gu_1 - d.
    at = np.arange(count)[:, None, None]
    cap = np.where(col[:, None, :], gu[at, [[0, 1]], slot[:, :, None]],
                   vg[at, [[0], [1]], slot[:, None, :]]) + np.eye(2)
    cap[grow, 0, 1] = (np.einsum("cs,cs->c", ext[k + 1 + rsrc[grow, 0], :s],
                                 gu[grow, 1]) - gu[grow, 1, k + 1])
    det = cap[:, 0, 0] * cap[:, 1, 1] - cap[:, 0, 1] * cap[:, 1, 0]
    adj = cap[:, ::-1, ::-1].transpose(0, 2, 1) * [[1.0, -1.0], [-1.0, 1.0]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # y: column k (the border) of the inverse; x: minus its row k.
        z = (adj @ vg[:, :, k, None]) / det[:, None, None]
        y = g[:, k] - (z.transpose(0, 2, 1) @ gu)[:, 0]
        t = (gu[:, None, :, k] @ adj) / det[:, None, None]
        x = (t @ vg)[:, 0] - g[k]
    # Each slot's weight goes to the local line in it: an updated slot's
    # to its source.  The border's and unused dummies' weights are zero.
    local = []
    for w, width, (c, a), src in ((x, len(rows), (rc, ra), rsrc),
                                  (y, len(cols), (cc, ca), csrc)):
        w_loc = np.zeros((count, width))
        w_loc[:, :s] = w
        w_loc[c, slot[c, a]] = 0.0
        w_loc[c, k + 1 + src[c, a]] = w[c, slot[c, a]]
        w_loc[:, k:k + 2] = 0.0
        local.append(w_loc)
    gaps = _screened_gaps(local[0], payoff_rows, local[1], payoff_cols)
    return ((np.abs(det) < 1.0 / _BASE_COND_MAX)
            | ~(gaps > target + np.ldexp(_SCREEN_SLACK, e)))
