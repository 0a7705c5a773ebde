"""Tests for the splitting step, its residual, and the lift/restrict maps."""

import numpy as np
import pytest

from helpers import philox, random_game, random_profile
from saddle_ssn.game import (
    MatrixGame,
    StrategyProfile,
    duality_gap,
    project_pair,
    project_simplex,
    saddle_operator,
)
from saddle_ssn.splitting import (
    build_context,
    lift,
    residual,
    resolve,
    restrict,
)

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
DOMINANCE = np.array([[0.0, 1.0], [2.0, 3.0]])
GAMMAS = (0.5, 1.0, 2.0)


def make_ctx(payoff, gamma=1.0):
    return build_context(MatrixGame.from_payoff(payoff), gamma)


def drs_step(ctx, z):
    """The splitting step T(z) = z - R(z)."""
    return z - residual(ctx, z).r


class TestRestrict:
    def test_splits_blocks_independently(self):
        prof = restrict(make_ctx(PENNIES), np.array([2.0, 0.0, 0.0, 2.0]))
        assert np.array_equal(prof.x, np.array([1.0, 0.0]))
        assert np.array_equal(prof.y, np.array([0.0, 1.0]))

    def test_matches_pairwise_helper(self):
        rng = philox(34)
        ctx = build_context(random_game(rng, 4, 5), 1.0)
        z = rng.standard_normal(9)
        prof = restrict(ctx, z)
        stacked = project_pair(4, z)
        assert np.array_equal(prof.concatenated(), stacked)

    def test_accepts_lifted_points(self):
        # Lifted points are plain vectors; any real sequence is accepted.
        prof = restrict(make_ctx(PENNIES), [0.5, 0.5, 2.0, 0.0])
        assert np.array_equal(prof.y, np.array([1.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            restrict(make_ctx(PENNIES), np.zeros(5))


class TestBuildContext:
    def test_records_game_and_step(self):
        game = MatrixGame.from_payoff(PENNIES)
        ctx = build_context(game, 0.5)
        assert ctx.game is game
        assert ctx.gamma == 0.5

    def test_default_step_scales_to_the_payoff(self):
        payoff = philox(41).standard_normal((5, 7))
        ctx = make_ctx(payoff, None)
        assert ctx.gamma == 3.0 / ctx.sigma[0]
        assert np.isclose(ctx.gamma * np.linalg.norm(payoff, 2), 3.0)
        assert make_ctx(np.zeros((2, 3)), None).gamma == 1.0

    def test_factors_the_smaller_gram_side(self):
        # The thin SVD has min(n, m) singular pairs: the spectrum of the
        # smaller Gram matrix.
        rng = philox(40)
        for n, m in ((2, 9), (9, 2)):
            payoff = rng.standard_normal((n, m))
            ctx = make_ctx(payoff)
            assert ctx.left.shape == (n, 2)
            assert ctx.sigma.shape == (2,)
            assert ctx.right.shape == (m, 2)
            assert np.allclose(ctx.left * ctx.sigma @ ctx.right.T, payoff,
                               atol=1e-13)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_step(self, gamma):
        with pytest.raises(ValueError):
            make_ctx(PENNIES, gamma)


class TestResolve:
    def test_inverts_identity_plus_scaled_operator(self):
        rng = philox(41)
        for n, m in ((3, 8), (8, 3), (5, 5)):
            game = random_game(rng, n, m, kind="normal")
            for gamma in GAMMAS:
                ctx = build_context(game, gamma)
                for _ in range(20):
                    z = rng.standard_normal(n + m) * 3.0
                    w = resolve(ctx, z)
                    back = w + gamma * saddle_operator(game, w)
                    assert np.allclose(back, z, atol=1e-10, rtol=1e-10)

    def test_approaches_identity_for_tiny_step(self):
        rng = philox(42)
        ctx = make_ctx(rng.uniform(-1, 1, (4, 6)), gamma=1e-12)
        z = rng.standard_normal(10)
        assert np.allclose(resolve(ctx, z), z, atol=1e-10)

    def test_one_by_one_closed_form(self):
        ctx = make_ctx(np.array([[1.0]]))
        rng = philox(43)
        for _ in range(20):
            p, q = rng.standard_normal(2)
            out = resolve(ctx, np.array([p, q]))
            assert out == pytest.approx([(p - q) / 2.0, (p + q) / 2.0], abs=1e-14)

    def test_matches_the_explicit_inverse(self):
        rng = philox(51)
        for n, m in ((3, 8), (8, 3), (5, 5), (1, 6), (6, 1)):
            game = random_game(rng, n, m, kind="normal")
            a = game.payoff
            for gamma in GAMMAS:
                ctx = build_context(game, gamma)
                dense = np.block([[np.eye(n), gamma * a],
                                  [-gamma * a.T, np.eye(m)]])
                inv = np.linalg.inv(dense)
                w = rng.standard_normal(n + m)
                block = rng.standard_normal((n + m, 4))
                assert np.allclose(resolve(ctx, w), inv @ w,
                                   atol=1e-12, rtol=1e-12)
                assert np.allclose(resolve(ctx, block), inv @ block,
                                   atol=1e-12, rtol=1e-12)

    def test_matrix_right_hand_side_matches_columnwise(self):
        rng = philox(44)
        game = random_game(rng, 6, 4)
        ctx = build_context(game, 1.5)
        block = rng.standard_normal((10, 5))
        out = resolve(ctx, block)
        for j in range(5):
            assert np.allclose(out[:, j], resolve(ctx, block[:, j]), atol=1e-13)


class TestDrsStep:
    def test_zero_payoff_fixes_feasible_points(self):
        ctx = make_ctx(np.zeros((3, 4)))
        z = StrategyProfile.uniform(3, 4).concatenated()
        assert np.array_equal(drs_step(ctx, z), z)

    def test_lifted_equilibria_are_fixed_points(self):
        cases = [
            (PENNIES, StrategyProfile.uniform(2, 2)),
            (DOMINANCE, StrategyProfile.from_vectors(np.array([1.0, 0.0]),
                                                     np.array([0.0, 1.0]))),
        ]
        for payoff, eq in cases:
            assert duality_gap(MatrixGame.from_payoff(payoff), eq).gap == 0.0
            for gamma in GAMMAS:
                ctx = make_ctx(payoff, gamma)
                z_star = lift(ctx, eq)
                moved = drs_step(ctx, z_star)
                assert np.linalg.norm(moved - z_star) <= 1e-10
                assert residual(ctx, z_star).norm <= 1e-10

    def test_step_is_firmly_nonexpansive(self):
        rng = philox(45)
        for _ in range(10):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            game = random_game(rng, n, m, kind="normal")
            for gamma in GAMMAS:
                ctx = build_context(game, gamma)
                for _ in range(10):
                    z1 = rng.standard_normal(n + m) * 2
                    z2 = rng.standard_normal(n + m) * 2
                    t1 = drs_step(ctx, z1)
                    t2 = drs_step(ctx, z2)
                    lhs = np.linalg.norm(t1 - t2) ** 2
                    rhs = (z1 - z2) @ (t1 - t2)
                    assert lhs <= rhs + 1e-10


class TestResidual:
    def test_is_displacement_of_the_step(self):
        rng = philox(46)
        game = random_game(rng, 5, 7)
        ctx = build_context(game, 1.0)
        for _ in range(20):
            z = rng.standard_normal(12) * 2
            res = residual(ctx, z)
            assert np.allclose(res.r, z - drs_step(ctx, z), atol=1e-13)
            assert res.norm == np.linalg.norm(res.r)

    def test_vanishes_for_zero_payoff_on_feasible_points(self):
        ctx = make_ctx(np.zeros((2, 2)))
        z = np.array([0.25, 0.75, 0.5, 0.5])
        assert residual(ctx, z).norm == 0.0

    def test_monotone_on_random_pairs(self):
        rng = philox(47)
        game = random_game(rng, 9, 4)
        for gamma in GAMMAS:
            ctx = build_context(game, gamma)
            for _ in range(60):
                z1 = rng.standard_normal(13) * 3
                z2 = rng.standard_normal(13) * 3
                r1 = residual(ctx, z1).r
                r2 = residual(ctx, z2).r
                inner = (z1 - z2) @ (r1 - r2)
                assert inner >= -1e-10 * np.linalg.norm(z1 - z2) ** 2

    def test_piecewise_affine_between_matching_supports(self):
        rng = philox(48)
        game = random_game(rng, 6, 5)
        ctx = build_context(game, 1.0)
        n = game.n
        hits = 0
        for _ in range(200):
            z = rng.standard_normal(11) * 1.5
            d = rng.standard_normal(11)
            d /= np.linalg.norm(d)
            h = 1e-4
            pts = [z - h * d, z, z + h * d]
            supports = [
                tuple(np.concatenate([project_simplex(p[:n]) > 0,
                                      project_simplex(p[n:]) > 0]))
                for p in pts
            ]
            if supports[0] != supports[1] or supports[1] != supports[2]:
                continue
            r_lo = residual(ctx, pts[0]).r
            r_mid = residual(ctx, pts[1]).r
            r_hi = residual(ctx, pts[2]).r
            assert np.linalg.norm(r_lo + r_hi - 2.0 * r_mid) <= 1e-10
            hits += 1
            if hits >= 20:
                break
        assert hits >= 20


class TestLiftRestrict:
    def test_lift_closed_form_on_single_entry_game(self):
        ctx = make_ctx(np.array([[1.0]]))
        prof = StrategyProfile.from_vectors(np.array([1.0]), np.array([1.0]))
        assert np.array_equal(lift(ctx, prof), np.array([0.0, 2.0]))

    def test_lift_residual_tiny_at_equilibria(self):
        eq = StrategyProfile.from_vectors(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        for gamma in GAMMAS:
            ctx = make_ctx(DOMINANCE, gamma)
            assert residual(ctx, lift(ctx, eq)).norm <= 1e-12

    def test_lift_approaches_identity_for_tiny_step(self):
        rng = philox(49)
        game = random_game(rng, 4, 6)
        ctx = build_context(game, 1e-12)
        prof = random_profile(rng, 4, 6)
        assert np.linalg.norm(lift(ctx, prof) - prof.concatenated()) <= 1e-10

    def test_restrict_matches_blockwise_projection(self):
        rng = philox(50)
        game = random_game(rng, 5, 3)
        ctx = build_context(game, 2.0)
        for _ in range(20):
            z = rng.standard_normal(8) * 2
            prof = restrict(ctx, z)
            assert np.allclose(prof.x, project_simplex(z[:5]),
                               atol=1e-15, rtol=0.0)
            assert np.allclose(prof.y, project_simplex(z[5:]),
                               atol=1e-15, rtol=0.0)
            assert prof.x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_restrict_inverts_lift_at_equilibria(self):
        cases = [
            (PENNIES, StrategyProfile.uniform(2, 2)),
            (DOMINANCE, StrategyProfile.from_vectors(np.array([1.0, 0.0]),
                                                     np.array([0.0, 1.0]))),
        ]
        for payoff, eq in cases:
            for gamma in GAMMAS:
                ctx = make_ctx(payoff, gamma)
                back = restrict(ctx, lift(ctx, eq))
                assert np.allclose(back.concatenated(), eq.concatenated(),
                                   atol=1e-12)

    def test_restricted_gap_shrinks_with_the_residual(self):
        rng = philox(52)
        ctx = make_ctx(DOMINANCE, 1.0)
        eq = StrategyProfile.from_vectors(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        z_star = lift(ctx, eq)
        d = rng.standard_normal(4)
        d /= np.linalg.norm(d)
        norm_bound = 1.0 + np.linalg.norm(DOMINANCE, 2)
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            prof = restrict(ctx, z_star + eps * d)
            gap = duality_gap(ctx.game, prof).gap
            assert gap <= 10.0 * eps * norm_bound
            gaps.append(gap)
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_dimension_validation(self):
        ctx = make_ctx(PENNIES)
        with pytest.raises(ValueError):
            residual(ctx, np.zeros(5))
        with pytest.raises(ValueError):
            residual(ctx, np.zeros(3))
