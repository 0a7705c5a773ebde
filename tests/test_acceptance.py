"""End-to-end acceptance checks for the solver stack.

Each test certifies one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line with the observed margin, so the
captured output reads as a checklist.  The medium uniform suite (ten
seeded 100x100 games solved by the one-time-switch hybrid) is solved
once and shared by the certificate, superlinear-tail, and tail-cost
checks.
"""

import math
import os
import time

import numpy as np
import pytest

from helpers import philox
from saddle_ssn.cli import main
from saddle_ssn.game import MatrixGame, duality_gap, project_simplex
from saddle_ssn.hybrid import LAMBDA0, HybridConfig, pssn_v2, run_hybrid
from saddle_ssn.instances import InstanceSpec, generate
from saddle_ssn.jacobian import boundary_margins, projection_jacobian, residual_jacobian
from saddle_ssn.prm import (
    RegretMatchingState,
    next_strategy,
    observe_loss,
    regret_matching,
    run_prm,
)
from saddle_ssn.baselines import FomConfig, extragradient_run, ogda_run
from saddle_ssn.splitting import build_context, lift, residual, restrict
from saddle_ssn.ssn import SsnConfig, line_search_accept, make_state


def report(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def uniform_suite():
    """Ten seeded 100x100 uniform games solved by the one-time switch."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(10):
        game = generate(InstanceSpec(kind="uniform", n=100, m=100, seed=seed))
        outcome = run_hybrid(game, HybridConfig(
            variant="pssn-v1", switch_gap_threshold=1e-1, target_gap=1e-12))
        runs.append((game, outcome))
    return runs, time.perf_counter() - t0


def test_splitting_step_is_monotone_and_nonexpansive():
    t0 = time.perf_counter()
    rng = philox(1001)
    worst_mono = math.inf
    worst_lip = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 51))
        game = MatrixGame.from_payoff(rng.uniform(-1, 1, size=(n, m)))
        for gamma in (0.5, 1.0, 2.0):
            ctx = build_context(game, gamma)
            for _ in range(1000):
                z1 = rng.standard_normal(n + m) * 3.0
                z2 = rng.standard_normal(n + m) * 3.0
                r1 = residual(ctx, z1).r
                r2 = residual(ctx, z2).r
                dz = z1 - z2
                dz2 = float(dz @ dz)
                if dz2 > 0.0:
                    worst_mono = min(worst_mono, float(dz @ (r1 - r2)) / dz2)
                    worst_lip = max(worst_lip,
                                    float(np.linalg.norm(r1 - r2))
                                    / math.sqrt(dz2))
    elapsed = time.perf_counter() - t0
    ok = worst_mono >= -1e-10 and worst_lip <= 1.0 + 1e-10 and elapsed < 10.0
    report(ok, "residual displacement is monotone and 1-Lipschitz",
           f"worst inner product {worst_mono:.3e}, worst ratio "
           f"{worst_lip:.12f}, 30000 pairs in {elapsed:.2f}s")


def test_certificates_and_residuals_agree_at_high_precision(uniform_suite):
    runs, _ = uniform_suite
    t0 = time.perf_counter()
    worst_residual = 0.0
    worst_scaled_gap = 0.0
    for game, outcome in runs:
        assert outcome.certificate.gap <= 1e-12
        ctx = build_context(game, 1.0)
        worst_residual = max(worst_residual,
                             residual(ctx, lift(ctx, outcome.profile)).norm)

        state = make_state(ctx, lift(ctx, outcome.profile), 1.0)
        steps = 0
        while state.residual.norm > 1e-12 and steps < 50:
            line_search_accept(ctx, state, SsnConfig())
            steps += 1
            if state.stalled or state.converged:
                break
        assert state.residual.norm <= 1e-12
        gap = duality_gap(game, restrict(ctx, state.z)).gap
        scale = 1.0 + np.linalg.norm(game.payoff, 2)
        worst_scaled_gap = max(worst_scaled_gap, gap / scale)
    elapsed = time.perf_counter() - t0
    ok = (worst_residual <= 1e-9 and worst_scaled_gap <= 1e-9
          and elapsed < 30.0)
    report(ok, "tiny duality gaps and tiny residuals certify each other",
           f"worst lifted residual {worst_residual:.3e}, worst gap over "
           f"1+|A| {worst_scaled_gap:.3e}, {elapsed:.2f}s")


def test_jacobians_match_finite_differences():
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for g in range(5):
        rng = philox(300 + g)
        n = int(rng.integers(2, 21))
        m = int(rng.integers(2, 21))
        game = MatrixGame.from_payoff(rng.standard_normal((n, m)))
        ctx = build_context(game, 1.0)
        d = n + m
        points = 0
        while points < 50:
            z = rng.standard_normal(d) * 1.5
            margins = boundary_margins(ctx, z)
            finite = np.isfinite(margins)
            if finite.any() and margins[finite].min() < 1e-4:
                continue
            px = project_simplex(z[:n])
            py = project_simplex(z[n:])
            if min(px[px > 0].min(), py[py > 0].min()) < 1e-4:
                continue
            points += 1

            for lo, hi, block in ((0, n, z[:n]), (n, d, z[n:])):
                g_mat = projection_jacobian(block).matrix()
                for j in range(hi - lo):
                    e = np.zeros(hi - lo)
                    e[j] = h
                    col = (project_simplex(block + e)
                           - project_simplex(block - e)) / (2.0 * h)
                    worst = max(worst, float(np.abs(col - g_mat[:, j]).max()))

            jac = residual_jacobian(ctx, z).matrix
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                col = (residual(ctx, z + e).r - residual(ctx, z - e).r) / (2.0 * h)
                worst = max(worst, float(np.abs(col - jac[:, j]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(ok, "projection and residual Jacobians match central differences",
           f"worst deviation {worst:.3e} over 250 kink-free points, "
           f"{elapsed:.2f}s")


def test_regularized_newton_systems_are_uniformly_invertible():
    rng = philox(400)
    worst_excess = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(2, 21))
        game = MatrixGame.from_payoff(rng.standard_normal((n, m)))
        ctx = build_context(game, float(rng.uniform(0.5, 2.0)))
        z = rng.standard_normal(n + m) * 2.0
        jac = residual_jacobian(ctx, z).matrix
        # mu floored at 1e-3: below that the inverse norm passes 1e3 and
        # float64 norm evaluation noise exceeds the absolute tolerance.
        mu = float(10.0 ** rng.uniform(-3, 2))
        inv_norm = float(np.linalg.norm(
            np.linalg.inv(jac + mu * np.eye(n + m)), 2))
        worst_excess = max(worst_excess, inv_norm - 1.0 / mu)
    ok = worst_excess <= 1e-8
    report(ok, "regularized Newton systems obey the inverse bound",
           f"worst norm excess over 1/mu: {worst_excess:.3e} "
           f"across 100 systems, mu in [1e-3, 1e2]")


def plain_newton_tail(game, rounds):
    """Residual norm, duality gap and elapsed seconds of each iterate of
    damped Newton alone (line_search_accept, no crossover) from the
    hybrid's switch point: the lifted average after ``rounds`` rounds of
    regret matching, at the hybrid's entry damping.  Stops once the
    projected iterate certifies 1e-12, as a hybrid run would, or when
    the line search stalls."""
    play, average = regret_matching(game)
    for t in range(1, rounds + 1):
        play(t)
    t0 = time.perf_counter()
    ctx = build_context(game)
    state = make_state(ctx, lift(ctx, average()), LAMBDA0)
    tail = []
    while True:
        gap = duality_gap(game, state.profile(ctx)).gap
        tail.append((state.residual.norm, gap, time.perf_counter() - t0))
        if len(tail) > SsnConfig().max_newton_iters or gap <= 1e-12:
            return tail
        line_search_accept(ctx, state, SsnConfig())
        if state.stalled or state.converged:
            return tail


def test_newton_tail_contracts_superlinearly(uniform_suite):
    # The hybrid finishes by an exact support crossover as soon as the
    # supports allow, before a tail shows; the local rate is a property
    # of the Newton iteration itself, so read it from the same switch.
    runs, suite_elapsed = uniform_suite
    passed = []
    for seed, (game, outcome) in enumerate(runs):
        norms = [norm for norm, _, _ in
                 plain_newton_tail(game, outcome.switch_iteration)]
        ratios = [math.log(b) / math.log(a)
                  for a, b in zip(norms, norms[1:])
                  if 0.0 < a < 1.0 and b > 0.0]
        ok = len(ratios) >= 3 and all(q >= 1.2 for q in ratios[-3:])
        passed.append(ok)
    count = sum(passed)
    ok = count >= 8 and suite_elapsed < 120.0
    report(ok, "Newton residuals gain exponent 1.2 over the last steps",
           f"{count}/10 seeds, suite solved in {suite_elapsed:.1f}s; "
           f"per-seed {['yes' if p else 'no' for p in passed]}")


def test_high_precision_tail_costs_few_steps(uniform_suite):
    # Read from plain Newton, as the superlinear-tail check is: the
    # hybrid's crossover jumps past both gaps in one row.
    runs, _ = uniform_suite
    passed = []
    details = []
    for game, outcome in runs:
        tail = plain_newton_tail(game, outcome.switch_iteration)
        k8 = next((i for i, r in enumerate(tail) if r[1] <= 1e-8), None)
        k12 = next((i for i, r in enumerate(tail) if r[1] <= 1e-12), None)
        if k8 is None or k12 is None:
            passed.append(False)
            continue
        span = max(tail[-1][2] - tail[0][2], 1e-12)
        share = (tail[k12][2] - tail[k8][2]) / span
        passed.append(k12 - k8 <= 5 and share <= 0.10)
        details.append(f"{k12 - k8}/{share:.2f}")
    count = sum(passed)
    ok = count >= 8
    report(ok, "refining the gap from 1e-8 to 1e-12 is nearly free",
           f"{count}/10 seeds within 5 steps and 10% of Newton time; "
           f"steps/time share per seed {details}")


def test_hybrid_solves_large_games_beyond_first_order_reach():
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for seed in range(3):
        game = generate(InstanceSpec(kind="uniform", n=400, m=800, seed=seed))
        outcome = pssn_v2(game, HybridConfig(
            switch_gap_threshold=1e-5, gamma=1.0, target_gap=1e-12))
        hybrid_ok = (outcome.status == "converged"
                     and outcome.certificate.gap <= 1e-12)

        li = run_prm(game, scheme="li", max_iters=500_000, target_gap=1e-10)
        li_best = min(r.gap for r in li.trace)
        li_failed = li.status == "fo_budget_exhausted" and li_best > 1e-10
        all_ok = all_ok and hybrid_ok and li_failed
        details.append(f"seed {seed}: hybrid {outcome.certificate.gap:.1e} "
                       f"in {outcome.newton_steps} steps, last-iterate best "
                       f"{li_best:.1e}")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 900.0
    report(ok, "tuned hybrid certifies 1e-12 where last-iterate play stalls",
           f"{'; '.join(details)}; {elapsed:.0f}s total")


def test_predictive_averaging_outpaces_gradient_baselines():
    t0 = time.perf_counter()
    wins = 0
    samples = []
    for seed in range(10):
        game = generate(InstanceSpec(kind="normal", n=100, m=100, seed=seed))

        def time_to_loose_gap(result):
            if result.status != "converged":
                return math.inf
            return result.trace[-1].elapsed

        t_qa = time_to_loose_gap(run_prm(game, scheme="qa",
                                         max_iters=100_000, target_gap=1e-4))
        t_ogda = time_to_loose_gap(ogda_run(game, FomConfig(
            max_iters=100_000, target_gap=1e-4)))
        t_eg = time_to_loose_gap(extragradient_run(game, FomConfig(
            max_iters=100_000, target_gap=1e-4)))
        if t_qa < t_ogda < t_eg:
            wins += 1
        samples.append(f"s{seed}: {t_qa:.3f}/{t_ogda:.3f}/{t_eg:.3f}")
    elapsed = time.perf_counter() - t0
    ok = wins >= 8
    report(ok, "averaged regret matching reaches 1e-4 first, then optimistic, "
               "then extragradient",
           f"{wins}/10 seeds ordered qa < ogda < eg in {elapsed:.1f}s; "
           f"{'; '.join(samples[:3])} ...")


def test_regret_update_algebra_is_exact():
    state = RegretMatchingState.uniform(2)
    state.cum_regret = np.array([1.0, 2.0])
    plain = next_strategy(state, np.zeros(2))
    ok1 = np.array_equal(plain, np.array([1.0, 2.0]) / 3.0)

    state = RegretMatchingState.uniform(2)
    state.cum_regret = np.array([1.0, 2.0])
    state.current = np.array([1.0, 2.0]) / 3.0
    shifted = next_strategy(state, np.array([0.0, 3.0]))
    ok2 = np.array_equal(shifted, np.array([0.75, 0.25]))

    state = RegretMatchingState.uniform(2)
    observe_loss(state, np.array([1.0, -1.0]), np.array([1.0, 0.0]))
    ok3 = np.array_equal(state.cum_regret, np.array([0.0, 2.0]))

    ok = ok1 and ok2 and ok3
    report(ok, "regret matching reproduces the hand-traced updates exactly",
           f"plain {plain.tolist()}, shifted {shifted.tolist()}, "
           f"regrets {state.cum_regret.tolist()}")


def test_benchmark_output_is_reproducible(tmp_path):
    args = ["--kind", "uniform", "--n", "10", "--m", "10",
            "--seeds", "0..2", "--methods", "prm-qa,pssn-v2",
            "--fo-budget", "20000", "--workers", "1"]
    dirs = [str(tmp_path / "first"), str(tmp_path / "second")]
    codes = [main(args + ["--out-dir", d]) for d in dirs]

    tables = []
    for d in dirs:
        with open(os.path.join(d, "runs.csv"), encoding="ascii") as fh:
            lines = fh.read().splitlines()
        tables.append([line.rsplit(",", 1)[0] for line in lines])
    runs = {tuple(line.split(",")[:3]) for line in tables[0][1:]}
    ok = (codes == [0, 0] and tables[0] == tables[1] and len(runs) == 6)
    report(ok, "two identical benchmark invocations emit identical tables",
           f"exit codes {codes}, {len(tables[0]) - 1} rows over {len(runs)} "
           f"runs, equal modulo elapsed columns")
