"""The second lane's two jobs give the bits of one lane.

The lane takes a line search's next solve and a hybrid's context
build, and never a first-order job.  Lanes only engage on large
systems, so these tests force them on for small games: the size
threshold drops to zero, the BLAS thread variables read 1 and the
process counts two usable CPUs.
"""

import importlib
import json
import math
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from helpers import philox, random_game
import saddle_ssn.hybrid as hybrid
import saddle_ssn.jacobian as jacobian
import saddle_ssn.ssn as ssn_module
from saddle_ssn.game import MatrixGame
from saddle_ssn.hybrid import HybridConfig, run_hybrid
from saddle_ssn.jacobian import LinearSolveError
from saddle_ssn.splitting import ResidualValue, build_context, residual
from saddle_ssn.ssn import (ELL, LAMBDA_CAP, SsnConfig, SsnState,
                            line_search_accept)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def solves(monkeypatch):
    """Thread of every Newton solve, as (mu, thread id) in call order."""
    calls = []
    real = jacobian._solve

    def recorded(jac, mu, res):
        calls.append((mu, threading.get_ident()))
        return real(jac, mu, res)

    monkeypatch.setattr(jacobian, "_solve", recorded)
    return calls


def set_lanes(monkeypatch, lanes):
    """Force 1 or 2 lanes on every system, whatever its size."""
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(jacobian, "usable_cpus", lambda: 2)
    monkeypatch.setattr(jacobian, "_one_lane", False)
    gate = 0 if lanes == 2 else 10**9
    monkeypatch.setattr(jacobian, "_LANE_MIN_K", gate)
    assert jacobian.newton_lanes() == 2


def on_other_threads(calls):
    main = threading.get_ident()
    return sum(tid != main for _, tid in calls)


@pytest.fixture
def search_trials(monkeypatch):
    """Trials of every line search drive_newton runs."""
    trials = []

    def search(ctx, state, config):
        out = line_search_accept(ctx, state, config)
        trials.append(state.last_trials)
        return out

    monkeypatch.setattr(ssn_module, "line_search_accept", search)
    return trials


def hybrid_outcome(game, variant):
    res = run_hybrid(game, HybridConfig(variant=variant,
                                        switch_gap_threshold=1e-1))
    rows = [(r.iteration, r.phase, r.gap, r.residual_norm, r.damping)
            for r in res.trace]
    return (res.status, res.newton_steps, res.iterations,
            res.profile.x.tobytes(), res.profile.y.tobytes(), rows)


class TestHybridsMatchOneLane:
    @pytest.mark.parametrize("variant", ["pssn-v1", "pssn-v2", "hpssn"])
    def test_two_lanes_reproduce_one_lane_bit_for_bit(
            self, monkeypatch, solves, search_trials, variant):
        games = [random_game(philox(seed), 24, 30, kind)
                 for seed, kind in ((0, "uniform"), (1, "normal"),
                                    (2, "uniform"))]
        outcomes, trials = {}, {}
        for lanes in (1, 2):
            set_lanes(monkeypatch, lanes)
            search_trials.clear()
            solves.clear()
            outcomes[lanes] = [hybrid_outcome(g, variant) for g in games]
            trials[lanes] = list(search_trials)
            if lanes == 1:
                assert on_other_threads(solves) == 0
            else:
                assert on_other_threads(solves) > 0
        assert outcomes[1] == outcomes[2]
        assert trials[1] == trials[2]
        # Some search retried, so some second-lane result was taken.
        assert max(trials[2]) >= 2


def ladder_state(lam0=0.01):
    """A 6x7 state whose first two trials are rejected.

    Built from the unpatched residual, so ``rejecting`` applies only to
    the candidates of a search.
    """
    game = random_game(philox(0), 6, 7)
    ctx = build_context(game, 1.0)
    z = np.random.Generator(np.random.Philox(key=3)).normal(size=13) * 2.0
    return ctx, SsnState(z=z, lam=lam0, residual=residual(ctx, z))


@pytest.fixture
def rejecting(monkeypatch):
    """Make every candidate residual worse, so ladders run to their end."""
    real = ssn_module.residual

    def worse(ctx, z):
        out = real(ctx, z)
        return ResidualValue(r=out.r, norm=math.inf, p=out.p)

    monkeypatch.setattr(ssn_module, "residual", worse)


def search_outcome(monkeypatch, lanes, lam0, config, tried):
    set_lanes(monkeypatch, lanes)
    ctx, state = ladder_state(lam0)
    tried.clear()
    line_search_accept(ctx, state, config)
    return (state.stalled, state.last_trials, state.lam, state.z.tobytes(),
            list(tried))


def searches_with_a_failing_solve(monkeypatch, solves, failing_trial):
    """The key-3 search on one and on two lanes, one trial's solve failing.

    Returns both outcomes and the failing trial's mu; ``solves`` keeps
    the calls of the two-lane search.
    """
    ctx, state = ladder_state()
    lam = 0.01
    for _ in range(failing_trial - 1):
        lam *= ELL
    bad_mu = lam * state.residual.norm
    real = jacobian._solve

    def failing(jac, mu, res):
        dz = real(jac, mu, res)
        if mu == bad_mu:
            raise LinearSolveError("injected")
        return dz

    monkeypatch.setattr(jacobian, "_solve", failing)
    outcomes = []
    for lanes in (1, 2):
        set_lanes(monkeypatch, lanes)
        solves.clear()
        ctx, state = ladder_state()
        line_search_accept(ctx, state, SsnConfig())
        outcomes.append((state.stalled, state.last_trials, state.lam,
                         state.z.tobytes(), state.residual.norm))
    return outcomes, bad_mu


class TestLadders:
    @pytest.mark.parametrize("budget", [1, 2, 5, 6])
    def test_a_ladder_that_ends_at_the_trial_budget(
            self, monkeypatch, rejecting, solves, budget):
        monkeypatch.setattr(ssn_module, "MAX_LINE_SEARCH_TRIALS", budget)
        config = SsnConfig()
        one = search_outcome(monkeypatch, 1, 0.01, config, solves)
        two = search_outcome(monkeypatch, 2, 0.01, config, solves)
        assert one[:4] == two[:4] == (True, budget, 0.01, one[3])
        # The second lane solves exactly the trials the first would.
        assert sorted(mu for mu, _ in two[4]) == sorted(
            mu for mu, _ in one[4])
        assert on_other_threads(two[4]) == budget // 2

    @pytest.mark.parametrize("rungs", [1, 2, 3, 4])
    def test_a_ladder_that_ends_at_the_damping_cap(
            self, monkeypatch, rejecting, solves, rungs):
        # Trials at lam0 * ELL**j for j < rungs stay within the cap.
        lam0 = LAMBDA_CAP / ELL**(rungs - 0.5)
        config = SsnConfig()
        one = search_outcome(monkeypatch, 1, lam0, config, solves)
        two = search_outcome(monkeypatch, 2, lam0, config, solves)
        assert one[:4] == two[:4]
        assert one[:2] == (True, rungs)
        assert len(two[4]) == rungs
        assert on_other_threads(two[4]) == rungs // 2

    @pytest.mark.parametrize("failing_trial", [2, 3])
    def test_a_failed_solve_is_a_rejection_on_either_lane(
            self, monkeypatch, solves, failing_trial):
        # Key 3 accepts on trial 3; one trial's solve fails instead.
        outcomes, bad_mu = searches_with_a_failing_solve(
            monkeypatch, solves, failing_trial)
        assert outcomes[0] == outcomes[1]
        # On two lanes, trial 2 (not trial 3) failed on the second lane.
        main = threading.get_ident()
        assert [tid != main for mu, tid in solves if mu == bad_mu] == [
            failing_trial == 2]
        assert not outcomes[0][0]
        assert outcomes[0][1] >= failing_trial + 1

    def test_a_second_lane_error_is_raised_by_newton_solve(self,
                                                           monkeypatch):
        set_lanes(monkeypatch, 2)
        ctx, state = ladder_state()
        jac = jacobian.residual_jacobian(ctx, state.z, res=state.residual)
        bad = jacobian.ResidualJacobian(ctx, jac.rows, jac.cols,
                                        np.full_like(jac.left, np.nan),
                                        jac.right)
        ahead = jacobian.solve_ahead(bad, 0.5, state.residual)
        assert ahead is not None
        with pytest.raises(LinearSolveError):
            jacobian.newton_solve(bad, 0.5, state.residual, ahead)
        assert ahead.done()

    def test_an_untaken_second_lane_failure_is_not_raised(self, monkeypatch,
                                                          solves):
        # Key 3 accepts on trial 3 while the lane's trial-4 solve fails.
        outcomes, bad_mu = searches_with_a_failing_solve(monkeypatch, solves, 4)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (False, 3)
        # The second lane tried trial 4, and its error went nowhere.
        assert [tid != threading.get_ident()
                for mu, tid in solves if mu == bad_mu] == [True]

    def test_a_search_leaves_no_solve_running(self, monkeypatch):
        set_lanes(monkeypatch, 2)
        ctx, state = ladder_state()
        started = []
        real = jacobian.solve_ahead

        def keep(jac, mu, res):
            future = real(jac, mu, res)
            started.append(future)
            return future

        monkeypatch.setattr(ssn_module, "solve_ahead", keep)
        line_search_accept(ctx, state, SsnConfig())
        assert started and None not in started
        assert all(future.done() for future in started)


@pytest.fixture
def builds(monkeypatch):
    """Thread of every context build run_hybrid starts, in call order."""
    calls = []

    def counting(game, gamma):
        calls.append(threading.get_ident())
        return build_context(game, gamma)

    monkeypatch.setattr(hybrid, "build_context", counting)
    return calls


def hybrid_bits(game, variant, **kwargs):
    res = run_hybrid(game, HybridConfig(variant=variant, **kwargs))
    rows = [(r.iteration, r.phase, r.gap, r.residual_norm, r.damping)
            for r in res.trace]
    cert = res.certificate
    return (res.status, res.switch_iteration, res.newton_steps, rows,
            (cert.gap.hex(), cert.best_response_row, cert.best_response_col),
            res.profile.x.tobytes(), res.profile.y.tobytes())


class TestContextOnTheLane:
    @pytest.mark.parametrize("variant", ["pssn-v1", "pssn-v2", "hpssn"])
    def test_two_lanes_build_it_once_on_the_lane_with_one_lane_bits(
            self, monkeypatch, builds, variant):
        monkeypatch.setattr(hybrid, "THETA_UPDATE_PERIOD", 100)
        game = random_game(philox(4), 24, 30)
        bits, threads = {}, {}
        for lanes in (1, 2):
            set_lanes(monkeypatch, lanes)
            builds.clear()
            bits[lanes] = hybrid_bits(game, variant, switch_gap_threshold=1e-1)
            threads[lanes] = list(builds)
        assert bits[1] == bits[2]
        assert bits[1][0] == "converged" and bits[1][2] > 0
        main = threading.get_ident()
        assert threads[1] == [main]
        assert len(threads[2]) == 1 and threads[2] != [main]

    @pytest.mark.parametrize("case", ["probe", "round-0 certificate",
                                      "budget"])
    def test_a_failed_build_is_raised_by_run_hybrid(self, monkeypatch, case):
        set_lanes(monkeypatch, 2)
        threads = []

        def failing(game, gamma):
            threads.append(threading.get_ident())
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(hybrid, "build_context", failing)
        # Damping probes every 100 rounds, or none in these runs.
        monkeypatch.setattr(hybrid, "THETA_UPDATE_PERIOD",
                            100 if case == "probe" else 10**9)
        if case == "round-0 certificate":
            # The zero payoff certifies at round 0, long before a probe.
            game, config = MatrixGame.from_payoff(np.zeros((3, 4))), {}
        elif case == "budget":
            game, config = random_game(philox(4), 24, 30), dict(max_fo_iters=5)
        else:
            game, config = random_game(philox(4), 24, 30), {}
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            run_hybrid(game, HybridConfig(variant="pssn-v2", **config))
        assert len(threads) == 1 and threads != [threading.get_ident()]


class TestDotIsMatmul:
    # The rounds and the spectral maps spell their products np.dot, which
    # drops the GIL, and EG and OGDA write F(z)'s two into halves of one
    # buffer; they must keep the bits of @ on either memory order.
    @pytest.mark.parametrize("shape", [(24, 30), (100, 100), (400, 800)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_the_products_on_the_lanes_keep_their_bits(self, shape, order):
        rng = philox(5)
        n, m = shape
        a = np.asarray(rng.uniform(-1.0, 1.0, size=shape), order=order)
        game = MatrixGame.from_payoff(a)
        assert game.payoff.flags[f"{order}_CONTIGUOUS"]
        a = game.payoff
        for _ in range(3):
            x, y = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            assert np.dot(a, y).tobytes() == (a @ y).tobytes()
            assert np.dot(x, a).tobytes() == (x @ a).tobytes()
            buf = np.empty(n + m)
            np.dot(a, y, out=buf[:n])
            np.dot(x, a, out=buf[n:])
            assert buf.tobytes() == (a @ y).tobytes() + (x @ a).tobytes()
        ctx = build_context(game)
        r = min(n, m)
        for cols in ((), (3,)):
            w = rng.standard_normal((n + m,) + cols)
            u = rng.standard_normal((r,) + cols)
            for f, v in ((ctx.left.T, w[:n]), (ctx.right.T, w[n:]),
                         (ctx.left, u), (ctx.right, u)):
                assert np.dot(f, v).tobytes() == (f @ v).tobytes()


LAZY_LANE_PROBE = textwrap.dedent("""
    import threading
    import saddle_ssn.jacobian as jacobian
    from saddle_ssn import hybrid, instances

    jacobian.usable_cpus = lambda: 2
    assert jacobian.newton_lanes() == 2
    game = instances.generate(instances.InstanceSpec(
        kind="uniform", n=20, m=20, seed=0))
    out = hybrid.run_hybrid(game, hybrid.HybridConfig(variant="pssn-v2"))
    assert out.status == "converged" and out.newton_steps > 0
    assert jacobian._lane is None and threading.active_count() == 1
""")


FIRST_ORDER_PROBE = textwrap.dedent("""
    import threading
    import saddle_ssn.jacobian as jacobian
    from saddle_ssn import (FomConfig, extragradient_run, instances,
                            ogda_run, run_prm)

    jacobian.usable_cpus = lambda: 2
    assert jacobian.newton_lanes() == 2
    for kind, n, m in (("normal", 100, 100), ("uniform", 400, 800)):
        game = instances.generate(instances.InstanceSpec(
            kind=kind, n=n, m=m, seed=0))
        for scheme in ("qa", "li"):
            assert run_prm(game, scheme=scheme, max_iters=300).iterations > 0
        for run in (ogda_run, extragradient_run):
            assert run(game, FomConfig(max_iters=300)).iterations > 0
    assert jacobian._lane is None and threading.active_count() == 1
""")


def run_probe(probe):
    env = dict(os.environ, PYTHONPATH=SRC,
               **{var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestSmallGamesStayOnOneLane:
    def test_a_small_v2_run_never_makes_the_lane(self):
        run_probe(LAZY_LANE_PROBE)

    def test_first_order_runs_never_make_the_lane(self):
        run_probe(FIRST_ORDER_PROBE)


class TestSharedLane:
    def test_concurrent_searches_share_one_lane_safely(self, monkeypatch,
                                                      solves):
        # More callers than cores hand solves to a new lane at once, with
        # thread switches forced often; each gets its one-lane bits.
        games = [random_game(philox(seed), 24, 30) for seed in (3, 4, 5, 7)]
        set_lanes(monkeypatch, 1)
        want = [hybrid_outcome(g, "pssn-v1") for g in games]
        set_lanes(monkeypatch, 2)
        monkeypatch.setattr(jacobian, "_lane", None)
        solves.clear()
        got = [None] * len(games)

        def work(i):
            got[i] = hybrid_outcome(games[i], "pssn-v1")

        callers = [threading.Thread(target=work, args=(i,))
                   for i in range(len(games))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == want
        idents = {t.ident for t in callers}
        assert any(tid not in idents for _, tid in solves)


class TestTracingGuard:
    def test_every_traced_function_runs_on_the_calling_thread(
            self, monkeypatch, solves):
        # perfbench's traced passes keep one span stack per process, so
        # no function they wrap may run on the second lane but the
        # hybrids' context build, which calls none of them: its one span
        # only blurs the callers of the spans it overlaps, all
        # first-order.
        sys.path.insert(0, ROOT)
        try:
            tracing = importlib.import_module("perfbench.tracing")
        finally:
            sys.path.remove(ROOT)
        modules = [importlib.import_module(f"saddle_ssn.{m}")
                   for m in tracing.MODULES]
        modules.append(importlib.import_module("saddle_ssn"))
        threads = {}
        for span in tracing.TRACED:
            home, attr = span.split(".")
            original = getattr(importlib.import_module(f"saddle_ssn.{home}"),
                               attr)

            def recorder(*args, _fn=original, _span=span, **kwargs):
                threads.setdefault(_span, set()).add(threading.get_ident())
                return _fn(*args, **kwargs)

            for module in modules:
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, recorder)
        set_lanes(monkeypatch, 2)
        for variant in ("pssn-v1", "pssn-v2", "hpssn"):
            hybrid_outcome(random_game(philox(4), 24, 30), variant)
        assert on_other_threads(solves) > 0
        assert "jacobian.newton_solve" in threads
        main = threading.get_ident()
        off_main = {span for span, ids in threads.items() if ids != {main}}
        assert off_main == {"splitting.build_context"}, threads
        assert main not in threads["splitting.build_context"]


FORK_PROBE = textwrap.dedent("""
    import json, os, sys, threading
    import saddle_ssn.jacobian as jacobian
    from saddle_ssn import cli, hybrid, instances

    jacobian._LANE_MIN_K = 0
    jacobian.usable_cpus = lambda: 2
    lane_threads = []
    real = jacobian._solve
    parent, out = os.getpid(), sys.argv[1]

    def solve(jac, mu, res):
        if threading.current_thread() is not threading.main_thread():
            lane_threads.append(threading.get_ident())
            if os.getpid() != parent:
                with open(os.path.join(out, f"lane-{os.getpid()}"), "w"):
                    pass
        return real(jac, mu, res)

    jacobian._solve = solve

    def forced_solve():
        game = instances.generate(instances.InstanceSpec(
            kind="uniform", n=24, m=30, seed=4))
        return hybrid.run_hybrid(game, hybrid.HybridConfig(
            variant="pssn-v1", switch_gap_threshold=1e-1)).status

    assert forced_solve() == "converged"
    assert lane_threads and threading.active_count() == 2
    parent_lane = jacobian._lane

    pid = os.fork()
    if pid == 0:
        # The child makes a worker of its own.
        lane_threads.clear()
        ok = (jacobian._lane is None and forced_solve() == "converged"
              and lane_threads and jacobian._lane is not parent_lane)
        os._exit(0 if ok else 1)
    assert os.waitpid(pid, 0)[1] == 0
    os.remove(os.path.join(out, f"lane-{pid}"))

    args = ["--kind", "uniform", "--n", "24", "--m", "30",
            "--seeds", "0..3", "--methods", "pssn-v1,pssn-v2,hpssn",
            "--fo-budget", "5000"]
    for workers in ("1", "2"):
        rc = cli.main(args + ["--workers", workers,
                              "--out-dir", os.path.join(out, workers)])
        assert rc == 0
    # No pool worker solved on a second lane.
    assert not [f for f in os.listdir(out) if f.startswith("lane-")]
""")


class TestForkAndPool:
    def test_a_pooled_suite_after_a_two_lane_solve_matches_serial(
            self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC,
                   **{var: "1" for var in THREAD_VARS})
        done = subprocess.run(
            [sys.executable, "-c", FORK_PROBE, str(tmp_path)], env=env,
            capture_output=True, text=True, timeout=240)
        assert done.returncode == 0, done.stderr
        strip = (lambda line: line.rsplit(",", 1)[0])
        runs = {}
        metas = {}
        for workers in ("1", "2"):
            with open(tmp_path / workers / "runs.csv",
                      encoding="ascii") as fh:
                runs[workers] = [strip(l) for l in fh.read().splitlines()]
            with open(tmp_path / workers / "meta.json",
                      encoding="ascii") as fh:
                metas[workers] = json.load(fh)
        assert runs["1"] == runs["2"]
        assert metas["1"]["statuses"] == metas["2"]["statuses"]
        # The serial suite ran on two lanes, the pooled workers on one.
        assert metas["1"]["numeric_env"]["newton_lanes"] == 2
        assert metas["2"]["numeric_env"]["newton_lanes"] == 1


def run_suite_with_threads(tmp_path, threads):
    out = tmp_path / f"blas{threads}"
    env = dict(os.environ, PYTHONPATH=SRC,
               **{var: threads for var in THREAD_VARS})
    subprocess.run(
        [sys.executable, "-m", "saddle_ssn.cli", "--kind", "uniform",
         "--n", "100", "--m", "100", "--seeds", "0..2",
         "--methods", "pssn-v1,pssn-v2,hpssn", "--workers", "1",
         "--out-dir", str(out)],
        env=env, capture_output=True, text=True, check=True, timeout=240)
    with open(out / "runs.csv", encoding="ascii") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    with open(out / "meta.json", encoding="ascii") as fh:
        meta = json.load(fh)
    return rows, meta


class TestBlasThreadCount:
    def test_one_and_two_blas_threads_take_the_same_steps(self, tmp_path):
        # The last bits of a run may depend on the BLAS thread count; its
        # statuses, Newton steps and checkpoints may not.
        one, meta_one = run_suite_with_threads(tmp_path, "1")
        two, meta_two = run_suite_with_threads(tmp_path, "2")
        assert meta_one["statuses"] == meta_two["statuses"]
        assert set(meta_one["statuses"].values()) == {"converged"}
        columns = (lambda rows: [row[:5] for row in rows])
        assert columns(one) == columns(two)
        steps = (lambda rows: sum(row[4] == "SSN" for row in rows))
        assert steps(one) == steps(two) > 0
        assert meta_two["numeric_env"]["newton_lanes"] == 1
