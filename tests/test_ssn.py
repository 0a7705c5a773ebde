"""Tests for the damped Newton iteration on the splitting residual."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import philox, random_game, sequential_crossover
import saddle_ssn.game as game_module
import saddle_ssn.ssn as ssn_module
from saddle_ssn.game import MatrixGame, StrategyProfile, duality_gap
from saddle_ssn.hybrid import adaptive_lambda_update
from saddle_ssn.splitting import build_context, lift, residual, restrict
from saddle_ssn.ssn import (
    FLAG_BUDGET,
    FLAG_STALLED,
    FLAG_TARGET,
    SsnConfig,
    basin_hop,
    drive_newton,
    line_search_accept,
    make_state,
    newton_step,
)
from saddle_ssn.trace import PHASE_SSN

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def pennies_ctx():
    return build_context(MatrixGame.from_payoff(PENNIES), 1.0)


def near_uniform_start(ctx):
    prof = StrategyProfile.from_vectors(np.array([0.55, 0.45]),
                                        np.array([0.48, 0.52]))
    return lift(ctx, prof)


def rejection_prone_state(key=1):
    """A frozen start whose first Newton trial overshoots (key 1: one
    rejection, key 3: two)."""
    rng = philox(0)
    game = MatrixGame.from_payoff(rng.uniform(-1.0, 1.0, size=(6, 7)))
    ctx = build_context(game, 1.0)
    z = np.random.Generator(np.random.Philox(key=key)).normal(size=13) * 2.0
    return ctx, make_state(ctx, z, 0.01), SsnConfig()


class TestSsnConfig:
    def test_defaults_are_valid(self):
        SsnConfig()

    @pytest.mark.parametrize("kwargs", [
        {"max_newton_iters": 0},
        {"target_gap": -1e-9},
        {"target_gap": math.nan},
        {"target_gap": math.inf},
        {"max_newton_iters": -1},
        {"max_newton_iters": math.inf},
        {"target_gap": -math.inf},
    ])
    def test_rejects_inconsistent_constants(self, kwargs):
        with pytest.raises(ValueError):
            SsnConfig(**kwargs)


class TestMakeState:
    def test_caches_residual_at_start(self):
        ctx = pennies_ctx()
        z0 = near_uniform_start(ctx)
        state = make_state(ctx, z0, 2.5)
        assert state.lam == 2.5
        assert state.newton_steps_taken == 0
        assert state.residual.norm == residual(ctx, state.z).norm

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_initial_damping(self, lam):
        ctx = pennies_ctx()
        with pytest.raises(ValueError):
            make_state(ctx, near_uniform_start(ctx), lam)


class TestNewtonStep:
    def test_returns_none_at_numerical_fixed_point(self):
        ctx = build_context(MatrixGame.from_payoff(np.zeros((2, 3))), 1.0)
        state = make_state(ctx, StrategyProfile.uniform(2, 3).concatenated(), 1.0)
        assert newton_step(ctx, state) is None

    def test_candidate_residual_is_evaluated_at_the_stepped_point(self):
        ctx = pennies_ctx()
        state = make_state(ctx, near_uniform_start(ctx), 1.0)
        dz, cand = newton_step(ctx, state)
        again = residual(ctx, state.z + dz)
        assert np.array_equal(cand.r, again.r)

    def test_heavier_damping_shortens_the_step(self):
        ctx = pennies_ctx()
        state = make_state(ctx, near_uniform_start(ctx), 1.0)
        light, _ = newton_step(ctx, state, lam=1e-6)
        heavy, _ = newton_step(ctx, state, lam=1e3)
        assert np.linalg.norm(heavy) < np.linalg.norm(light)


class TestLineSearch:
    def test_accepts_improving_first_trial_and_relaxes_damping(self):
        ctx = pennies_ctx()
        state = make_state(ctx, near_uniform_start(ctx), 1.0)
        r0 = state.residual.norm
        z0 = state.z.copy()
        first_trial, _ = newton_step(ctx, state)
        out = line_search_accept(ctx, state, SsnConfig())
        assert out is state
        assert not state.stalled and not state.converged
        assert state.last_trials == 1
        assert state.newton_steps_taken == 1
        assert state.residual.norm < r0
        assert state.lam == max(1e-15, 1.0 / 1.5**2)
        assert np.array_equal(z0 + first_trial, state.z)

    def test_retries_with_heavier_damping_after_rejection(self):
        ctx, state, config = rejection_prone_state()
        r0 = state.residual.norm
        line_search_accept(ctx, state, config)
        assert not state.stalled
        assert state.last_trials == 2
        assert state.newton_steps_taken == 1
        assert state.residual.norm < r0
        assert state.lam == max(1e-15, 0.01 * 1.5)

    def test_next_step_starts_at_the_damping_that_succeeded(self,
                                                             monkeypatch):
        ctx, state, config = rejection_prone_state(key=3)
        tried = []

        def recording(ctx, state, jac=None, lam=None, ahead=None):
            tried.append(lam)
            return newton_step(ctx, state, jac=jac, lam=lam, ahead=ahead)

        monkeypatch.setattr(ssn_module, "newton_step", recording)
        line_search_accept(ctx, state, config)
        assert not state.stalled
        assert state.last_trials == 3
        assert tried == [0.01, 0.01 * 1.5, 0.01 * 1.5 * 1.5]
        assert state.lam == tried[-1]
        line_search_accept(ctx, state, config)
        assert tried[3] == 0.01 * 1.5 * 1.5

    def test_stalls_when_trial_budget_is_exhausted(self, monkeypatch):
        monkeypatch.setattr(ssn_module, "MAX_LINE_SEARCH_TRIALS", 1)
        ctx, state, config = rejection_prone_state()
        z0 = state.z.copy()
        r0 = state.residual.norm
        line_search_accept(ctx, state, config)
        assert state.stalled
        assert state.last_trials == 1
        assert state.newton_steps_taken == 0
        assert np.array_equal(state.z, z0)
        assert state.residual.norm == r0

    def test_stalls_immediately_outside_the_damping_guard(self):
        ctx = pennies_ctx()
        state = make_state(ctx, near_uniform_start(ctx), 1e12)
        line_search_accept(ctx, state, SsnConfig())
        assert state.stalled
        assert state.last_trials == 0
        assert state.newton_steps_taken == 0

    def test_flags_convergence_at_zero_residual(self):
        ctx = build_context(MatrixGame.from_payoff(np.zeros((2, 2))), 1.0)
        state = make_state(ctx, StrategyProfile.uniform(2, 2).concatenated(), 1.0)
        line_search_accept(ctx, state, SsnConfig())
        assert state.converged
        assert state.newton_steps_taken == 0

    def test_damping_never_drops_below_the_floor(self):
        ctx = pennies_ctx()
        state = make_state(ctx, near_uniform_start(ctx), 1e-15)
        line_search_accept(ctx, state, SsnConfig())
        assert state.newton_steps_taken == 1
        assert state.lam == 1e-15


@pytest.fixture
def projections(monkeypatch):
    """Count simplex projections, one per block, made through any entry point.

    ``project_simplex`` and ``project_pair`` both hand their blocks to one
    kernel, so counting there sees every block however it was reached.
    """
    calls = []
    kernel = game_module._project_blocks

    def counted(z, sizes):
        calls.extend(sizes)
        return kernel(z, sizes)

    monkeypatch.setattr(game_module, "_project_blocks", counted)
    return calls


class TestProjectionCount:
    def test_line_search_projects_once_per_block_and_trial(self, projections):
        ctx, state, config = rejection_prone_state()
        projections.clear()
        line_search_accept(ctx, state, config)
        assert state.last_trials == 2
        assert len(projections) == 2 * state.last_trials

    def test_newton_steps_add_no_projection(self, projections, monkeypatch):
        rng = philox(74)
        ctx = build_context(random_game(rng, 20, 20), 1.0)
        state = make_state(ctx, lift(ctx, StrategyProfile.uniform(20, 20)),
                           1.0)
        trials = []

        def search(ctx, state, config):
            out = line_search_accept(ctx, state, config)
            trials.append(state.last_trials)
            return out

        monkeypatch.setattr(ssn_module, "line_search_accept", search)
        projections.clear()
        # The crossover certifies after step 3; at a budget of 2 steps
        # every call fails, and a failed call projects nothing.
        steps, _, flag = drive_newton(ctx, state, SsnConfig(), max_steps=2)
        assert (steps, flag) == (2, FLAG_BUDGET)
        assert len(projections) == 2 * sum(trials)


class TestAdaptiveDamping:
    def test_strong_contraction_shrinks_by_root_of_new_norm(self):
        out = adaptive_lambda_update(1.0, 0.1, 1.0)
        assert out == math.sqrt(0.1)

    def test_strong_contraction_clamps_to_floor(self):
        assert adaptive_lambda_update(1.0, 1e-6, 1.0) == 0.05

    def test_strong_contraction_clamps_to_ceiling(self):
        assert adaptive_lambda_update(20.0, 4.0, 1.0) == 0.9

    def test_moderate_contraction_doubles(self):
        assert adaptive_lambda_update(1.0, 1.0, 3.0) == 6.0

    def test_moderate_branch_includes_lower_threshold(self):
        assert adaptive_lambda_update(1.0, 100.0, 1.0) == 2.0

    def test_poor_progress_inflates_by_beta2(self):
        assert adaptive_lambda_update(1.0, 500.0, 1.0) == 5.0

    def test_result_clamped_into_hard_range(self):
        assert adaptive_lambda_update(1.0, 1000.0, 4e14) == 1e15
        assert adaptive_lambda_update(10.0, 1.0, 1e-15) == 1e-15

    def test_zero_new_norm_counts_as_infinite_contraction(self):
        assert adaptive_lambda_update(1.0, 0.0, 1.0) == 0.05

    @pytest.mark.parametrize("args", [
        (-1.0, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.inf),
    ])
    def test_rejects_invalid_norms_or_damping(self, args):
        prev, new, lam = args
        with pytest.raises(ValueError):
            adaptive_lambda_update(prev, new, lam)


def stalled_state():
    """Rock-paper-scissors plus a column 1e-9 above the first, left where
    the line search stalls with both near-twin columns supported."""
    payoff = np.column_stack([RPS, RPS[:, 0] + 1e-9])
    ctx = build_context(MatrixGame.from_payoff(payoff), 1.0)
    state = make_state(ctx, lift(ctx, StrategyProfile.uniform(3, 4)), 1.0)
    while not (state.stalled or state.converged):
        line_search_accept(ctx, state, SsnConfig())
    assert state.stalled
    state.stalled = False
    return ctx, state


def state_on_supports(payoff, rows, cols):
    """A state at the profile uniform on the given row and column
    supports, which is its own projection P(z)."""
    n = len(payoff)
    z = np.zeros(n + payoff.shape[1])
    z[rows], z[n + np.asarray(cols)] = 1.0 / len(rows), 1.0 / len(cols)
    ctx = build_context(MatrixGame.from_payoff(payoff), 1.0)
    state = make_state(ctx, z, 1.0)
    assert np.array_equal(state.residual.p, z)
    return ctx, state


@pytest.fixture
def blocks(monkeypatch):
    """Record the shape of every candidate block a crossover call screens."""
    shapes = []
    first_certified = ssn_module._first_certified

    def recording(game, support, pairs, target):
        for pair in pairs:
            rows, cols = ssn_module._block(support, pair, game.n)
            shapes.append((len(rows), len(cols)))
        return first_certified(game, support, pairs, target)

    monkeypatch.setattr(ssn_module, "_first_certified", recording)
    return shapes


@pytest.fixture
def solved(monkeypatch):
    """Record the shape of every block the crossover solves directly."""
    shapes = []
    equalizer = ssn_module._equalizer

    def recording(a):
        shapes.append(a.shape)
        return equalizer(a)

    monkeypatch.setattr(ssn_module, "_equalizer", recording)
    return shapes


class TestBasinHop:
    def test_crossover_certifies_a_stalled_state(self):
        ctx, state = stalled_state()
        assert np.count_nonzero(state.residual.p[3:]) == 4
        steps = state.newton_steps_taken
        assert basin_hop(ctx, state, SsnConfig()) is True
        profile = state.profile(ctx)
        assert duality_gap(ctx.game, profile).gap <= 1e-12
        assert profile.y[0] == 0.0
        assert np.allclose(profile.y, [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert np.array_equal(state.residual.p, profile.concatenated())
        assert np.array_equal(state.z, lift(ctx, profile))
        assert state.residual.norm <= 1e-14
        assert state.newton_steps_taken == steps + 1

    def test_drive_newton_traces_the_certificate(self):
        ctx, state = stalled_state()
        rows = []
        steps, cert, flag = drive_newton(ctx, state, SsnConfig(), rows=rows)
        assert flag == FLAG_TARGET
        assert rows[-1].gap == cert.gap <= 1e-12
        assert len(rows) == steps + 1
        assert cert == duality_gap(ctx.game, state.profile(ctx))

    @pytest.fixture
    def recovery(self, monkeypatch):
        """Record crossover and line-search calls in order; the crossover
        certifies only while ``certify`` holds True."""
        events = []
        certify = [True]

        def crossover(ctx, state, config):
            events.append("crossover")
            return certify[0] and basin_hop(ctx, state, config)

        def search(ctx, state, config):
            events.append("search")
            return line_search_accept(ctx, state, config)

        monkeypatch.setattr(ssn_module, "basin_hop", crossover)
        monkeypatch.setattr(ssn_module, "line_search_accept", search)
        return events, certify

    def test_a_stall_runs_the_crossover_once(self, recovery):
        events, _ = recovery
        ctx, state = stalled_state()
        _, cert, flag = drive_newton(ctx, state, SsnConfig())
        assert (flag, events) == (FLAG_TARGET, ["crossover"])
        assert cert.gap <= 1e-12

    def test_the_crossover_runs_at_every_visited_point(self, recovery):
        events, certify = recovery
        certify[0] = False
        ctx = build_context(random_game(philox(74), 20, 20), 1.0)
        state = make_state(ctx, lift(ctx, StrategyProfile.uniform(20, 20)),
                           1.0)
        steps, _, flag = drive_newton(ctx, state, SsnConfig(), max_steps=6)
        assert (steps, flag) == (6, FLAG_BUDGET)
        # The entry point, and the point after each step, the last too.
        assert events == ["crossover", "search"] * 6 + ["crossover"]

    def test_an_uncertified_stall_ends_the_run(self, monkeypatch, recovery):
        events, certify = recovery
        certify[0] = False
        monkeypatch.setattr(ssn_module, "MAX_LINE_SEARCH_TRIALS", 1)
        ctx, state, config = rejection_prone_state(key=3)
        z = state.z.copy()
        steps, _, flag = drive_newton(ctx, state, config)
        assert (steps, flag) == (0, FLAG_STALLED)
        assert events == ["crossover", "search"]
        assert np.array_equal(state.z, z)
        assert not state.stalled

    @pytest.mark.parametrize("target", [1e-12, 0.0])
    def test_leaves_the_state_untouched_without_a_certificate(self, target):
        ctx, state, _ = rejection_prone_state()
        z, lam, res = state.z.copy(), state.lam, state.residual
        assert basin_hop(ctx, state, SsnConfig(target_gap=target)) is False
        assert np.array_equal(state.z, z)
        assert state.residual is res
        assert (state.lam, state.newton_steps_taken) == (lam, 0)

    @pytest.mark.parametrize("rows, cols, adds", [([0, 1, 2, 3], [0, 1], 4),
                                                  ([0, 1], [0, 1, 2, 3], 3)])
    def test_supports_two_off_screen_only_two_add_blocks(self, blocks, solved,
                                                         rows, cols, adds):
        payoff = random_game(philox(2), 5, 6).payoff
        ctx, state = state_on_supports(payoff, rows, cols)
        z, lam, res = state.z.copy(), state.lam, state.residual
        # Every pair of the smaller side's unsupported strategies is a
        # candidate, each giving a 4x4 block.  At a zero target none
        # passes the screen, so none is solved directly.
        assert basin_hop(ctx, state, SsnConfig(target_gap=0.0)) is False
        assert blocks == [(4, 4)] * (adds * (adds - 1) // 2)
        assert solved == []
        assert np.array_equal(state.z, z)
        assert state.residual is res
        assert (state.lam, state.newton_steps_taken) == (lam, 0)

    @pytest.mark.parametrize("rows, cols", [([0, 1, 2, 3, 4], [0, 1]),
                                            ([0], [0, 1, 2, 4])])
    def test_supports_three_off_return_at_once(self, blocks, rows, cols):
        payoff = random_game(philox(2), 5, 6).payoff
        ctx, state = state_on_supports(payoff, rows, cols)
        z, lam, res = state.z.copy(), state.lam, state.residual
        assert basin_hop(ctx, state, SsnConfig()) is False
        assert blocks == []
        assert np.array_equal(state.z, z)
        assert state.residual is res
        assert (state.lam, state.newton_steps_taken) == (lam, 0)

    @pytest.mark.parametrize("rows, cols, flips", [
        ([0, 1, 2], [0, 1, 2, 3], 4 + 2), ([0, 1, 2, 3], [0, 1, 2], 4 + 3)])
    def test_supports_one_off_square_try_only_square_blocks(self, blocks,
                                                            solved, rows,
                                                            cols, flips):
        payoff = random_game(philox(2), 5, 6).payoff
        ctx, state = state_on_supports(payoff, rows, cols)
        # Every flip is a candidate: each drop from the larger side gives
        # a 3x3 block, each add to the smaller side a 4x4 one.  At a zero
        # target none passes the screen, so none is solved directly.
        assert basin_hop(ctx, state, SsnConfig(target_gap=0.0)) is False
        assert all(k == l for k, l in blocks)
        assert {k for k, _ in blocks} == {3, 4}
        assert len(blocks) == flips
        assert solved == []

    def test_exact_duplicate_certifies_through_a_square_block(self, solved):
        payoff = np.column_stack([RPS, RPS[:, 0]])
        ctx, state = state_on_supports(payoff, [0, 1, 2], [0, 1, 2, 3])
        assert basin_hop(ctx, state, SsnConfig()) is True
        assert solved == [(3, 3), (3, 3)]
        profile = state.profile(ctx)
        assert duality_gap(ctx.game, profile).gap <= 1e-12
        assert np.count_nonzero(profile.y) == 3
        assert profile.y[0] == 0.0 or profile.y[3] == 0.0
        assert np.allclose(profile.x, 1 / 3, atol=1e-15)


class TestScreen:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_picks_the_block_a_sequential_crossover_picks(self, data):
        # The screen only decides which blocks get solved directly, so the
        # batched call must certify the very block, and bits, that solving
        # every candidate in turn certifies.  Targets are drawn from the
        # candidates' own gaps, so ties at the target are common.
        # Supports are drawn up to two apart: flips, exchanges and e = 0
        # borders, and the two-add blocks of |e| = 2.
        n, m = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        rng = philox(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            payoff = rng.integers(-2, 3, size=(n, m)).astype(float)
        else:
            payoff = rng.uniform(-1.0, 1.0, size=(n, m))
        game = MatrixGame.from_payoff(payoff)
        kx = data.draw(st.integers(1, min(n, m + 2)))
        ky = data.draw(st.integers(max(1, kx - 2), min(m, kx + 2)))
        support = np.zeros(n + m, dtype=bool)
        support[rng.choice(n, kx, replace=False)] = True
        support[n + rng.choice(m, ky, replace=False)] = True
        pairs = ssn_module._candidates(support, rng.permutation(n + m), n)
        gaps = [duality_gap(game, profile).gap for profile in
                (sequential_crossover(game, support, [pair], math.inf)[1]
                 for pair in pairs) if profile is not None]
        target = data.draw(st.sampled_from(gaps + [0.0, 1e-12, 0.1]))
        _, want = sequential_crossover(game, support, pairs, target)
        got = ssn_module._first_certified(game, support, pairs, target)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.x.tobytes() == want.x.tobytes()
            assert got.y.tobytes() == want.y.tobytes()

    def test_an_ill_conditioned_base_passes_every_block(self):
        # Two equal columns make the base block singular: nothing can be
        # judged from it, so every block goes to the direct solve.
        payoff = np.column_stack([RPS, RPS[:, 0]])
        support = np.ones(7, dtype=bool)
        support[5] = False
        pairs = ssn_module._candidates(support, np.arange(7), 3)
        passed = ssn_module._screen(MatrixGame.from_payoff(payoff), support,
                                    pairs, 1e-12)
        assert passed.all()

    def test_an_ill_conditioned_base_passes_every_two_add_block(self):
        # Three rows and column 1 leave |e| = 2.  The two nearest adds,
        # columns 0 and 3, are equal, so the first pair's block, the
        # two-add screen's base, is singular.
        payoff = np.column_stack([RPS, RPS[:, 0]])
        support = np.zeros(7, dtype=bool)
        support[[0, 1, 2, 4]] = True
        game = MatrixGame.from_payoff(payoff)
        pairs = ssn_module._candidates(support,
                                       np.array([0, 1, 2, 3, 6, 4, 5]), 3)
        assert pairs.tolist() == [[3, 6], [3, 5], [6, 5]]
        assert ssn_module._screen(game, support, pairs, 1e-12).all()

    def test_a_near_singular_candidate_passes_the_screen(self):
        # Rows {0, 3, 5} and all five columns leave |e| = 2.  Candidate 6
        # adds rows 6 and 2; its block is numerically singular, so its
        # rank-two gap differs from the direct solve's, and only the
        # capacitance guard lets the direct solve certify it.
        payoff = np.array([[-1, 2, 1, 2, 1], [-1, -1, 1, -2, -1],
                           [-1, -2, -2, -2, -1], [-1, 2, 0, -2, -2],
                           [1, 0, 1, -2, -1], [2, -2, -1, -2, 0],
                           [-2, -1, -2, -1, 0], [0, 2, -1, -2, -1]], float)
        game = MatrixGame.from_payoff(payoff)
        support = np.zeros(13, dtype=bool)
        support[[0, 3, 5]] = support[8:] = True
        order = np.array([6, 8, 7, 12, 11, 1, 4, 0, 5, 3, 10, 9, 2])
        pairs = ssn_module._candidates(support, order, 8)
        assert pairs[6].tolist() == [6, 2]
        _, profile = sequential_crossover(game, support, pairs[6:7], math.inf)
        target = duality_gap(game, profile).gap
        index, want = sequential_crossover(game, support, pairs, target)
        got = ssn_module._first_certified(game, support, pairs, target)
        assert index == 6 and got is not None
        assert got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()

    def test_a_capped_list_of_adds_is_screened(self):
        # All 3 rows and columns {0, 1} leave |e| = 1, and the order
        # lists the 68 unsupported columns first, so the capped list
        # holds adds only and the screen's base is the first of them.
        game = random_game(philox(23), 3, 70)
        support = np.zeros(73, dtype=bool)
        support[:5] = True
        order = np.concatenate([np.arange(5, 73), np.arange(5)])
        pairs = ssn_module._candidates(support, order, 3)
        assert len(pairs) == 64 and (pairs[:, 1] == -1).all()
        assert not ssn_module._screen(game, support, pairs, 0.0).all()


def solve(ctx, z0, config, rows=None, start_iteration=0):
    """The Newton phase on its own: make_state, then drive_newton."""
    state = make_state(ctx, z0, 1.0)
    _, cert, flag = drive_newton(ctx, state, config, rows=rows,
                                 start_iteration=start_iteration)
    return state, cert, flag


class TestSolver:
    def test_certifies_zero_payoff_without_stepping(self):
        ctx = build_context(MatrixGame.from_payoff(np.zeros((3, 4))), 1.0)
        z0 = StrategyProfile.uniform(3, 4).concatenated()
        rows = []
        state, cert, flag = solve(ctx, z0, SsnConfig(), rows)
        assert flag == FLAG_TARGET
        assert cert.gap == 0.0
        assert state.newton_steps_taken == 0
        assert len(rows) == 1
        assert rows[0].phase == PHASE_SSN

    def test_reaches_target_gap_on_small_game(self):
        ctx = pennies_ctx()
        state, cert, flag = solve(ctx, near_uniform_start(ctx), SsnConfig())
        assert flag == FLAG_TARGET
        assert cert.gap <= 1e-12
        assert state.newton_steps_taken <= 10
        recomputed = duality_gap(ctx.game, restrict(ctx, state.z))
        assert recomputed.gap == cert.gap

    def test_trace_rows_are_consistent(self):
        ctx = pennies_ctx()
        trace = []
        solve(ctx, near_uniform_start(ctx), SsnConfig(), trace,
              start_iteration=10)
        iters = [row.iteration for row in trace]
        assert iters == list(range(11, 11 + len(trace)))
        residuals = [row.residual_norm for row in trace]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert all(row.damping > 0.0 for row in trace)
        assert all(row.phase == PHASE_SSN for row in trace)
        elapsed = [row.elapsed for row in trace]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))

    def test_stops_at_the_step_budget(self):
        # Pennies certifies by the crossover at its entry point; this game
        # needs a few steps before the crossover can finish it.
        ctx = build_context(random_game(philox(74), 20, 20), 1.0)
        state, _, flag = solve(ctx, lift(ctx, StrategyProfile.uniform(20, 20)),
                               SsnConfig(max_newton_iters=1))
        assert flag == FLAG_BUDGET
        assert state.newton_steps_taken == 1

    def test_default_gamma_makes_runs_scale_invariant(self):
        # Powers of two scale the payoff exactly, so the default gamma,
        # 3 / sigma_max, scales exactly by the inverse factor.
        payoff = philox(0).uniform(-1.0, 1.0, size=(60, 40))
        start = StrategyProfile.uniform(60, 40)
        runs = []
        for scale in (1.0, 4.0, 0.25):
            ctx = build_context(MatrixGame.from_payoff(scale * payoff))
            state = make_state(ctx, lift(ctx, start), 1.0)
            steps, cert, flag = drive_newton(
                ctx, state, SsnConfig(target_gap=1e-12 * scale))
            assert flag == FLAG_TARGET
            runs.append((steps, cert.gap / scale))
        assert runs[0] == runs[1] == runs[2]

    def test_a_stalling_game_certifies_the_same_bits_at_any_scale(self):
        # RPS with a near-twin column stalls without the crossover; the
        # crossover's blocks are scaled by exact powers of two, so A, 4A
        # and A/4 certify the very same profile.
        payoff = np.column_stack([RPS, RPS[:, 0] + 1e-9])
        start = StrategyProfile.uniform(3, 4)
        runs = []
        for scale in (1.0, 4.0, 0.25):
            ctx = build_context(MatrixGame.from_payoff(scale * payoff))
            state = make_state(ctx, lift(ctx, start), 1.0)
            steps, cert, flag = drive_newton(
                ctx, state, SsnConfig(target_gap=1e-12 * scale))
            assert flag == FLAG_TARGET
            profile = state.profile(ctx)
            runs.append((steps, cert.gap / scale, profile.x.tobytes(),
                         profile.y.tobytes()))
        assert runs[0] == runs[1] == runs[2]

    def test_runs_are_deterministic(self):
        rng = philox(71)
        game = random_game(rng, 12, 9)
        ctx = build_context(game, 1.0)
        z0 = rng.standard_normal(21)
        traces = [[], []]
        outs = [solve(ctx, z0, SsnConfig(max_newton_iters=40), trace)
                for trace in traces]
        assert outs[0][2] == outs[1][2]
        assert np.array_equal(outs[0][0].z, outs[1][0].z)
        a, b = traces
        assert [(r.iteration, r.gap, r.residual_norm, r.damping) for r in a] \
            == [(r.iteration, r.gap, r.residual_norm, r.damping) for r in b]
