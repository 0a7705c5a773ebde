"""Correctness gate and determinism check, run outside the timed region.

For every library run the benchmark recomputes the duality gap of the
returned profile itself, requires it to equal the reported certificate,
and compares the value x'Ay against an independent linear-programming
oracle (scipy's HiGHS), solved once per game.  A run is certified when
it converged and its recomputed gap is at or below the target.
"""

from __future__ import annotations

import numpy as np

from .workloads import STATUS_CONVERGED, Pass, Run

SUM_TOL = 1e-12


def own_gap(payoff: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """max_j (x'A)_j - min_i (Ay)_i, computed here, not by the package."""
    return float(np.max(x @ payoff) - np.min(payoff @ y))


def lp_oracle(payoff: np.ndarray) -> tuple[float, float]:
    """Game value from HiGHS and the width of its own certified interval.

    Solves min v s.t. A'x <= v 1, sum x = 1, x >= 0.  The dual of the
    inequality rows gives the column strategy; the exact gap of the
    (clipped, renormalized) LP pair bounds how far its value can be from
    the true one.
    """
    from scipy.optimize import linprog

    n, m = payoff.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.hstack([payoff.T, -np.ones((m, 1))])
    a_eq = np.hstack([np.ones((1, n)), np.zeros((1, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * n + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    x = np.maximum(res.x[:n], 0.0)
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    return float(res.fun), own_gap(payoff, x / x.sum(), y / y.sum())


def check_library_run(run: Run, target: float,
                      oracle: tuple[float, float]) -> bool:
    """Record problems on the run; return whether it is certified."""
    a = run.game.payoff
    x, y = run.profile.x, run.profile.y
    if (x.shape != (a.shape[0],) or y.shape != (a.shape[1],)
            or x.min() < 0.0 or y.min() < 0.0
            or abs(x.sum() - 1.0) > SUM_TOL or abs(y.sum() - 1.0) > SUM_TOL):
        run.problems.append("returned profile is not a pair of strategies")
        return False
    gap = own_gap(a, x, y)
    if gap != run.gap:
        run.problems.append(f"recomputed gap {gap!r} differs from the "
                            f"reported certificate {run.gap!r}")
    value, oracle_width = oracle
    slack = 8.0 * np.finfo(float).eps * max(1.0, float(np.abs(a).max()))
    distance = abs(float(x @ a @ y) - value)
    if distance > gap + oracle_width + slack:
        run.problems.append(f"value x'Ay is {distance:.3e} from the LP value, "
                            f"more than the gap {gap:.3e}")
    if (run.status == STATUS_CONVERGED) != (gap <= target):
        run.problems.append(f"status {run.status} disagrees with gap "
                            f"{gap:.3e} at target {target:g}")
    return not run.problems and gap <= target


def check_cli_run(run: Run, target: float) -> bool:
    """CLI runs were checked while parsing; certified means converged."""
    return (not run.problems and run.status == STATUS_CONVERGED
            and run.gap <= target)


def determinism_problems(passes: list[Pass]) -> list[str]:
    """Runs whose signature differs from the first pass's."""
    first = [(r.label, r.signature) for r in passes[0].runs]
    out = []
    for k, p in enumerate(passes[1:], start=2):
        now = [(r.label, r.signature) for r in p.runs]
        if now != first:
            bad = next((a[0] for a, b in zip(first, now) if a != b),
                       "run count")
            out.append(f"pass {k} differs from pass 1 at {bad}")
    return out
