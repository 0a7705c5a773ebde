"""Tests for the extragradient and optimistic gradient baselines."""

import numpy as np
import pytest

from helpers import philox, random_game
from saddle_ssn.baselines import (
    STATUS_BUDGET,
    STATUS_CONVERGED,
    FomConfig,
    extragradient_run,
    ogda_run,
)
from saddle_ssn.game import (MatrixGame, StrategyProfile, duality_gap,
                             estimate_spectral_norm)
from saddle_ssn.trace import PHASE_FO

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
METHODS = (extragradient_run, ogda_run)


class TestFomConfig:
    def test_defaults_are_valid(self):
        FomConfig()

    @pytest.mark.parametrize("kwargs", [
        {"step_size": 0.0},
        {"step_size": -0.1},
        {"step_size": np.inf},
        {"max_iters": 0},
        {"check_every": 0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FomConfig(**kwargs)


class TestBaselineRuns:
    @pytest.mark.parametrize("method", METHODS)
    def test_zero_payoff_converges_immediately(self, method):
        game = MatrixGame.from_payoff(np.zeros((3, 2)))
        result = method(game, FomConfig())
        assert result.status == STATUS_CONVERGED
        assert result.iterations == 0
        assert result.trace[0].gap == 0.0

    @pytest.mark.parametrize("method", METHODS)
    def test_uniform_equilibrium_is_stationary(self, method):
        game = MatrixGame.from_payoff(PENNIES)
        result = method(game, FomConfig(max_iters=50, check_every=10,
                                        target_gap=-1.0))
        assert result.status == STATUS_BUDGET
        assert np.array_equal(result.profile.x, np.array([0.5, 0.5]))
        assert np.array_equal(result.profile.y, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("method", METHODS)
    def test_iterates_remain_feasible_with_finite_gaps(self, method):
        rng = philox(91)
        game = random_game(rng, 8, 13, kind="normal")
        result = method(game, FomConfig(max_iters=400, check_every=50,
                                        target_gap=-1.0))
        assert result.profile.x.min() >= 0.0
        assert result.profile.y.min() >= 0.0
        assert result.profile.x.sum() == pytest.approx(1.0, abs=1e-9)
        assert all(np.isfinite(row.gap) and row.gap >= 0.0
                   for row in result.trace)
        assert all(row.phase == PHASE_FO for row in result.trace)

    @pytest.mark.parametrize("method", METHODS)
    def test_reaches_loose_gap_on_medium_game(self, method):
        rng = philox(0)
        game = MatrixGame.from_payoff(rng.uniform(-1, 1, size=(100, 100)))
        result = method(game, FomConfig(max_iters=10_000, target_gap=1e-2))
        assert result.status == STATUS_CONVERGED
        assert result.iterations <= 10_000
        assert duality_gap(game, result.profile).gap <= 1e-2

    @pytest.mark.parametrize("method", METHODS)
    def test_smaller_steps_make_slower_progress(self, method):
        rng = philox(92)
        game = random_game(rng, 10, 10)
        brisk = method(game, FomConfig(max_iters=400, target_gap=-1.0))
        crawl = method(game, FomConfig(max_iters=400, target_gap=-1.0,
                                       step_size=1e-6))
        assert duality_gap(game, crawl.profile).gap \
            > duality_gap(game, brisk.profile).gap

    @pytest.mark.parametrize("method", METHODS)
    def test_checkpoint_cadence_includes_final_iteration(self, method):
        rng = philox(93)
        game = random_game(rng, 4, 4)
        result = method(game, FomConfig(max_iters=250, check_every=100,
                                        target_gap=-1.0))
        assert [row.iteration for row in result.trace] == [0, 100, 200, 250]

    @pytest.mark.parametrize("method", METHODS)
    def test_default_step_is_half_the_inverse_spectral_norm(self, method):
        rng = philox(96)
        game = random_game(rng, 9, 6, kind="normal")
        config = FomConfig(max_iters=300, check_every=100, target_gap=-1.0)
        step = 1.0 / (2.0 * estimate_spectral_norm(game.payoff))
        default = method(game, config)
        explicit = method(game, FomConfig(max_iters=300, check_every=100,
                                          target_gap=-1.0, step_size=step))
        assert [row.gap for row in default.trace] \
            == [row.gap for row in explicit.trace]
        assert np.array_equal(default.profile.x, explicit.profile.x)

    @pytest.mark.parametrize("method", METHODS)
    def test_runs_are_deterministic(self, method):
        rng = philox(94)
        game = random_game(rng, 12, 7, kind="normal")
        config = FomConfig(max_iters=500, check_every=100, target_gap=-1.0)
        first = method(game, config)
        second = method(game, config)
        assert np.array_equal(first.profile.x, second.profile.x)
        assert np.array_equal(first.profile.y, second.profile.y)
        assert [row.gap for row in first.trace] \
            == [row.gap for row in second.trace]

    def test_gap_trajectories_differ_between_methods(self):
        rng = philox(95)
        game = random_game(rng, 15, 15)
        config = FomConfig(max_iters=300, check_every=100, target_gap=-1.0)
        eg = extragradient_run(game, config)
        og = ogda_run(game, config)
        assert [row.gap for row in eg.trace][1:] \
            != [row.gap for row in og.trace][1:]
