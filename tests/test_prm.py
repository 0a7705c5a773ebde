"""Tests for predictive regret matching and its averaging schemes."""

import numpy as np
import pytest

from helpers import philox, random_game
from saddle_ssn.game import MatrixGame, StrategyProfile, duality_gap
from saddle_ssn.prm import (
    STATUS_BUDGET,
    STATUS_CONVERGED,
    AverageAccumulator,
    RegretMatchingState,
    alternating_round,
    next_strategy,
    observe_loss,
    run_prm,
)
from saddle_ssn.trace import PHASE_FO

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
TILTED = np.array([[1.2, -1.0], [-1.0, 1.0]])


def reference_round(payoff, row, col):
    """Loop-based mirror of one alternating update, for cross-checking."""
    n, m = payoff.shape

    def propose(state, dim):
        pred = state.last_loss
        shift = sum(pred[i] * state.current[i] for i in range(dim))
        theta = [max(state.cum_regret[i] + shift - pred[i], 0.0)
                 for i in range(dim)]
        total = sum(theta)
        if total > 0.0:
            return np.array([v / total for v in theta])
        return np.full(dim, 1.0 / dim)

    def absorb(state, loss, played):
        inner = sum(loss[i] * played[i] for i in range(len(loss)))
        state.cum_regret = np.array(
            [max(state.cum_regret[i] + inner - loss[i], 0.0)
             for i in range(len(loss))])
        state.last_loss = loss
        state.current = played

    x_new = propose(row, n)
    y_new = propose(col, m)
    absorb(row, payoff @ y_new, x_new)
    absorb(col, -(x_new @ payoff), y_new)
    return x_new, y_new


class TestNextStrategy:
    def test_zero_regret_falls_back_to_uniform(self):
        state = RegretMatchingState.uniform(4)
        out = next_strategy(state, np.zeros(4))
        assert np.array_equal(out, np.full(4, 0.25))

    def test_proportional_to_positive_regret(self):
        state = RegretMatchingState.uniform(2)
        state.cum_regret = np.array([1.0, 2.0])
        out = next_strategy(state, np.zeros(2))
        assert np.array_equal(out, np.array([1.0, 2.0]) / 3.0)

    def test_prediction_shifts_the_regrets(self):
        state = RegretMatchingState.uniform(2)
        state.cum_regret = np.array([1.0, 2.0])
        state.current = np.array([1.0, 2.0]) / 3.0
        out = next_strategy(state, np.array([0.0, 3.0]))
        assert np.array_equal(out, np.array([0.75, 0.25]))

    def test_negative_shifted_regrets_are_clipped(self):
        state = RegretMatchingState.uniform(2)
        state.cum_regret = np.array([0.5, 0.0])
        out = next_strategy(state, np.array([0.0, 10.0]))
        assert np.array_equal(out, np.array([1.0, 0.0]))

    def test_does_not_mutate_the_state(self):
        state = RegretMatchingState.uniform(3)
        state.cum_regret = np.array([1.0, 0.0, 2.0])
        before = state.cum_regret.copy()
        next_strategy(state, np.array([1.0, 1.0, 0.0]))
        assert np.array_equal(state.cum_regret, before)

    def test_output_is_a_distribution(self):
        rng = philox(81)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            state = RegretMatchingState.uniform(d)
            state.cum_regret = np.maximum(rng.standard_normal(d), 0.0)
            state.current = np.full(d, 1.0 / d)
            out = next_strategy(state, rng.standard_normal(d))
            assert out.min() >= 0.0
            assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestObserveLoss:
    def test_regret_update_hand_example(self):
        state = RegretMatchingState.uniform(2)
        out = observe_loss(state, np.array([1.0, -1.0]), np.array([1.0, 0.0]))
        assert out is state
        assert np.array_equal(state.cum_regret, np.array([0.0, 2.0]))
        assert np.array_equal(state.last_loss, np.array([1.0, -1.0]))
        assert np.array_equal(state.current, np.array([1.0, 0.0]))

    def test_constant_loss_leaves_regret_unchanged(self):
        state = RegretMatchingState.uniform(2)
        state.cum_regret = np.array([0.7, 0.1])
        before = state.cum_regret.copy()
        observe_loss(state, np.array([3.0, 3.0]), np.array([0.5, 0.5]))
        assert np.array_equal(state.cum_regret, before)

    def test_clips_regrets_at_zero(self):
        state = RegretMatchingState.uniform(2)
        observe_loss(state, np.array([-1.0, 5.0]), np.array([1.0, 0.0]))
        assert np.array_equal(state.cum_regret, np.array([0.0, 0.0]))

    def test_accumulates_across_rounds(self):
        rng = philox(82)
        state = RegretMatchingState.uniform(5)
        for _ in range(200):
            played = rng.random(5)
            played /= played.sum()
            observe_loss(state, rng.standard_normal(5), played)
            assert state.cum_regret.min() >= 0.0


class TestAlternatingRound:
    def test_zero_payoff_is_stationary(self):
        game = MatrixGame.from_payoff(np.zeros((3, 4)))
        row = RegretMatchingState.uniform(3)
        col = RegretMatchingState.uniform(4)
        for _ in range(5):
            x_new, y_new = alternating_round(game, row, col)
            assert np.array_equal(x_new, np.full(3, 1.0 / 3.0))
            assert np.array_equal(y_new, np.full(4, 0.25))

    def test_matches_reference_loops(self):
        rng = philox(83)
        game = random_game(rng, 3, 4, kind="normal")
        row = RegretMatchingState.uniform(3)
        col = RegretMatchingState.uniform(4)
        ref_row = RegretMatchingState.uniform(3)
        ref_col = RegretMatchingState.uniform(4)
        for _ in range(20):
            got = alternating_round(game, row, col)
            want = reference_round(game.payoff, ref_row, ref_col)
            for a, b in zip(got, want):
                assert np.allclose(a, b, atol=1e-12)
            assert np.allclose(row.cum_regret, ref_row.cum_regret, atol=1e-12)
            assert np.allclose(col.cum_regret, ref_col.cum_regret, atol=1e-12)

    def test_regrets_stay_nonnegative_under_play(self):
        rng = philox(84)
        game = random_game(rng, 6, 9, kind="normal")
        row = RegretMatchingState.uniform(6)
        col = RegretMatchingState.uniform(9)
        for _ in range(200):
            x_new, y_new = alternating_round(game, row, col)
            assert row.cum_regret.min() >= 0.0
            assert col.cum_regret.min() >= 0.0
            assert x_new.min() >= 0.0 and y_new.min() >= 0.0


class TestAverageAccumulator:
    def test_matches_direct_recomputation(self):
        rng = philox(85)
        acc = AverageAccumulator.empty(3, 2)
        xs, ys, ws = [], [], []
        for t in range(1, 41):
            x = rng.random(3)
            x /= x.sum()
            y = rng.random(2)
            y /= y.sum()
            w = float(t) * float(t)
            acc.add(x, y, w)
            xs.append(x)
            ys.append(y)
            ws.append(w)
        total = sum(ws)
        want_x = sum(w * x for w, x in zip(ws, xs)) / total
        want_y = sum(w * y for w, y in zip(ws, ys)) / total
        prof = acc.profile()
        assert np.allclose(prof.x, want_x, atol=1e-14)
        assert np.allclose(prof.y, want_y, atol=1e-14)

    def test_rejects_bad_weights(self):
        acc = AverageAccumulator.empty(2, 2)
        for w in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                acc.add(np.array([0.5, 0.5]), np.array([0.5, 0.5]), w)

    def test_rejects_empty_average(self):
        with pytest.raises(ValueError):
            AverageAccumulator.empty(2, 2).profile()


class TestRunPrm:
    def test_zero_payoff_converges_at_round_zero(self):
        game = MatrixGame.from_payoff(np.zeros((2, 5)))
        result = run_prm(game)
        assert result.status == STATUS_CONVERGED
        assert result.iterations == 0
        assert len(result.trace) == 1
        assert result.trace[0].gap == 0.0
        assert result.trace[0].phase == PHASE_FO

    def test_rejects_unknown_scheme_and_bad_cadence(self):
        game = MatrixGame.from_payoff(PENNIES)
        with pytest.raises(ValueError):
            run_prm(game, scheme="arith")
        with pytest.raises(ValueError):
            run_prm(game, check_every=0)
        for budget in (0, -3):
            with pytest.raises(ValueError):
                run_prm(game, max_iters=budget)

    def test_quadratic_average_matches_replay(self):
        rng = philox(86)
        game = random_game(rng, 4, 5, kind="normal")
        result = run_prm(game, scheme="qa", max_iters=50, target_gap=-1.0,
                         check_every=50)
        row = RegretMatchingState.uniform(4)
        col = RegretMatchingState.uniform(5)
        acc = AverageAccumulator.empty(4, 5)
        for t in range(1, 51):
            x_new, y_new = alternating_round(game, row, col)
            acc.add(x_new, y_new, float(t) * float(t))
        want = acc.profile()
        assert np.array_equal(result.profile.x, want.x)
        assert np.array_equal(result.profile.y, want.y)
        assert result.status == STATUS_BUDGET
        assert result.iterations == 50

    def test_last_iterate_scheme_reports_current_strategies(self):
        rng = philox(87)
        game = random_game(rng, 3, 3, kind="normal")
        result = run_prm(game, scheme="li", max_iters=30, target_gap=-1.0,
                         check_every=10)
        row = RegretMatchingState.uniform(3)
        col = RegretMatchingState.uniform(3)
        for _ in range(30):
            x_new, y_new = alternating_round(game, row, col)
        want = StrategyProfile.from_vectors(x_new, y_new)
        assert np.array_equal(result.profile.x, want.x)
        assert np.array_equal(result.profile.y, want.y)

    def test_checkpoint_cadence_includes_final_round(self):
        rng = philox(88)
        game = random_game(rng, 5, 5)
        result = run_prm(game, max_iters=250, target_gap=-1.0, check_every=100)
        assert [row.iteration for row in result.trace] == [0, 100, 200, 250]
        elapsed = [row.elapsed for row in result.trace]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
        assert all(np.isfinite(row.gap) and row.gap >= 0.0
                   for row in result.trace)

    def test_matching_pennies_average_stays_optimal(self):
        game = MatrixGame.from_payoff(PENNIES)
        result = run_prm(game, max_iters=1000, target_gap=-1.0, check_every=100)
        assert duality_gap(game, result.profile).gap <= 1e-3

    def test_tilted_pennies_average_gap_tightens(self):
        game = MatrixGame.from_payoff(TILTED)
        result = run_prm(game, max_iters=10_000, target_gap=-1.0,
                         check_every=1000)
        assert duality_gap(game, result.profile).gap <= 1e-3

    def test_quadratic_average_beats_last_iterate(self):
        rng = philox(89)
        game = random_game(rng, 20, 20)
        qa = run_prm(game, scheme="qa", max_iters=5000, target_gap=0.0)
        li = run_prm(game, scheme="li", max_iters=5000, target_gap=0.0)
        assert duality_gap(game, qa.profile).gap \
            < duality_gap(game, li.profile).gap

    def test_seeded_games_reach_tight_average_gap(self):
        for seed in range(10):
            rng = philox(seed)
            game = MatrixGame.from_payoff(rng.standard_normal((100, 100)))
            result = run_prm(game, max_iters=100_000, target_gap=1e-4)
            assert result.status == STATUS_CONVERGED
            assert duality_gap(game, result.profile).gap <= 1e-4

    def test_small_game_converges_within_a_thousand_rounds(self):
        rng = philox(90)
        game = random_game(rng, 10, 10)
        result = run_prm(game, max_iters=20_000, target_gap=1e-3)
        assert result.status == STATUS_CONVERGED
        assert result.iterations < 1000
