"""Tests for the damped Newton iteration on the splitting residual."""

import math
import sys

import numpy as np
import pytest

from helpers import philox, random_game
import saddle_ssn.ssn as ssn_module
from saddle_ssn.game import (MatrixGame, StrategyProfile, duality_gap,
                             project_simplex)
from saddle_ssn.splitting import build_context, lift, residual, restrict
from saddle_ssn.ssn import (
    FLAG_BUDGET,
    FLAG_TARGET,
    SsnConfig,
    adaptive_lambda_update,
    basin_hop,
    drive_newton,
    line_search_accept,
    make_state,
    newton_step,
)
from saddle_ssn.trace import PHASE_SSN

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def pennies_ctx():
    return build_context(MatrixGame.from_payoff(PENNIES), 1.0)


def near_uniform_start(ctx):
    prof = StrategyProfile.from_vectors(np.array([0.55, 0.45]),
                                        np.array([0.48, 0.52]))
    return lift(ctx, prof)


def rejection_prone_state(max_trials=60):
    """A frozen start whose first Newton trial overshoots."""
    rng = philox(0)
    game = MatrixGame.from_payoff(rng.uniform(-1.0, 1.0, size=(6, 7)))
    ctx = build_context(game, 1.0)
    z = np.random.Generator(np.random.Philox(key=1)).normal(size=13) * 2.0
    config = SsnConfig(max_line_search_trials=max_trials)
    return ctx, make_state(ctx, z, 0.01), config


class TestSsnConfig:
    def test_defaults_are_valid(self):
        SsnConfig()

    @pytest.mark.parametrize("kwargs", [
        {"ell": 1.0},
        {"ell": 0.5},
        {"lambda_min": 0.0},
        {"lambda_min": 1e-3, "lambda_cap": 1e-6},
        {"lambda_cap": 1e20, "lambda_max": 1e15},
        {"alpha1": 0.0},
        {"alpha1": 6.0, "alpha2": 5.0},
        {"beta1": 1.0},
        {"beta2": 0.9},
        {"beta0_floor": 0.0},
        {"beta0_floor": 0.95, "beta0_ceil": 0.9},
        {"beta0_ceil": 1.0},
        {"max_newton_iters": 0},
        {"max_line_search_trials": 0},
        {"target_gap": -1e-9},
        {"stall_activation_coords": -1},
        {"stall_activation_cap": 0.0},
        {"stall_entry_lambda": 0.0},
        {"stall_hop_probation": 0},
        {"stall_hop_overshoot": 0.5},
    ] + [{name: value} for name in (
        "ell", "beta1", "beta2", "target_gap", "residual_zero_tol",
        "stall_activation_cap", "stall_entry_lambda", "stall_hop_overshoot")
        for value in (math.nan, math.inf)])
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
        assert math.isnan(state.prev_norm)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_initial_damping(self, lam):
        ctx = pennies_ctx()
        with pytest.raises(ValueError):
            make_state(ctx, near_uniform_start(ctx), lam)


class TestNewtonStep:
    def test_returns_none_at_numerical_fixed_point(self):
        ctx = build_context(MatrixGame.from_payoff(np.zeros((2, 3))), 1.0)
        state = make_state(ctx, StrategyProfile.uniform(2, 3).concatenated(), 1.0)
        assert newton_step(ctx, state, SsnConfig()) is None

    def test_candidate_residual_is_evaluated_at_the_stepped_point(self):
        ctx = pennies_ctx()
        state = make_state(ctx, near_uniform_start(ctx), 1.0)
        dz, cand = newton_step(ctx, state, SsnConfig())
        again = residual(ctx, state.z + dz)
        assert np.array_equal(cand.r, again.r)

    def test_heavier_damping_shortens_the_step(self):
        ctx = pennies_ctx()
        state = make_state(ctx, near_uniform_start(ctx), 1.0)
        config = SsnConfig()
        light, _ = newton_step(ctx, state, config, lam=1e-6)
        heavy, _ = newton_step(ctx, state, config, lam=1e3)
        assert np.linalg.norm(heavy) < np.linalg.norm(light)


class TestLineSearch:
    def test_accepts_improving_first_trial_and_relaxes_damping(self):
        ctx = pennies_ctx()
        state = make_state(ctx, near_uniform_start(ctx), 1.0)
        r0 = state.residual.norm
        z0 = state.z.copy()
        first_trial, _ = newton_step(ctx, state, SsnConfig())
        out = line_search_accept(ctx, state, SsnConfig())
        assert out is state
        assert not state.stalled and not state.converged
        assert state.last_trials == 1
        assert state.newton_steps_taken == 1
        assert state.prev_norm == r0
        assert state.residual.norm < r0
        assert state.lam == max(1e-15, 1.0 / 1.5)
        assert np.array_equal(z0 + first_trial, state.z)

    def test_retries_with_heavier_damping_after_rejection(self):
        ctx, state, config = rejection_prone_state()
        r0 = state.residual.norm
        line_search_accept(ctx, state, config)
        assert not state.stalled
        assert state.last_trials == 2
        assert state.newton_steps_taken == 1
        assert state.residual.norm < r0
        assert state.lam == max(1e-15, (0.01 * 1.5) / 1.5)

    def test_stalls_when_trial_budget_is_exhausted(self):
        ctx, state, config = rejection_prone_state(max_trials=1)
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
    """Count simplex projections made through any saddle_ssn module."""
    calls = []

    def counted(p):
        calls.append(len(p))
        return project_simplex(p)

    for name, module in list(sys.modules.items()):
        if (name.startswith("saddle_ssn")
                and getattr(module, "project_simplex", None) is project_simplex):
            monkeypatch.setattr(module, "project_simplex", counted)
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
        steps, _, flag = drive_newton(ctx, state, SsnConfig(), max_steps=5)
        assert (steps, flag) == (5, FLAG_BUDGET)
        assert len(projections) == 2 * sum(trials)


class TestAdaptiveDamping:
    def test_strong_contraction_shrinks_by_root_of_new_norm(self):
        cfg = SsnConfig()
        out = adaptive_lambda_update(1.0, 0.1, 1.0, cfg)
        assert out == math.sqrt(0.1)

    def test_strong_contraction_clamps_to_floor(self):
        cfg = SsnConfig()
        assert adaptive_lambda_update(1.0, 1e-6, 1.0, cfg) == 0.05

    def test_strong_contraction_clamps_to_ceiling(self):
        cfg = SsnConfig()
        assert adaptive_lambda_update(20.0, 4.0, 1.0, cfg) == 0.9

    def test_moderate_contraction_doubles(self):
        cfg = SsnConfig()
        assert adaptive_lambda_update(1.0, 1.0, 3.0, cfg) == 6.0

    def test_moderate_branch_includes_lower_threshold(self):
        cfg = SsnConfig()
        assert adaptive_lambda_update(1.0, 100.0, 1.0, cfg) == 2.0

    def test_poor_progress_inflates_by_beta2(self):
        cfg = SsnConfig()
        assert adaptive_lambda_update(1.0, 500.0, 1.0, cfg) == 5.0

    def test_result_clamped_into_hard_range(self):
        cfg = SsnConfig()
        assert adaptive_lambda_update(1.0, 1000.0, 4e14, cfg) == 1e15
        assert adaptive_lambda_update(10.0, 1.0, 1e-15, cfg) == 1e-15

    def test_zero_new_norm_counts_as_infinite_contraction(self):
        cfg = SsnConfig()
        assert adaptive_lambda_update(1.0, 0.0, 1.0, cfg) == 0.05

    @pytest.mark.parametrize("args", [
        (-1.0, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.inf),
    ])
    def test_rejects_invalid_norms_or_damping(self, args):
        prev, new, lam = args
        with pytest.raises(ValueError):
            adaptive_lambda_update(prev, new, lam, SsnConfig())


class TestBasinHop:
    def test_declines_without_borderline_candidates(self):
        ctx = pennies_ctx()
        z = StrategyProfile.uniform(2, 2).concatenated()
        state = make_state(ctx, z, 1.0)
        z0 = state.z.copy()
        lam0 = state.lam
        assert basin_hop(ctx, state, SsnConfig()) is False
        assert np.array_equal(state.z, z0)
        assert state.lam == lam0
        assert state.newton_steps_taken == 0

    def test_respects_zero_candidate_budget(self):
        ctx, state, _ = rejection_prone_state()
        config = SsnConfig(stall_activation_coords=0)
        assert basin_hop(ctx, state, config) is False


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
        ctx = pennies_ctx()
        state, _, flag = solve(ctx, near_uniform_start(ctx),
                               SsnConfig(max_newton_iters=1))
        assert flag == FLAG_BUDGET
        assert state.newton_steps_taken == 1

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
