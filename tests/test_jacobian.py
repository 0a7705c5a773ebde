"""Tests for generalized Jacobians and the regularized Newton solve."""

import numpy as np
import pytest

from helpers import philox, random_game
from saddle_ssn.game import MatrixGame, project_simplex
from saddle_ssn.jacobian import (
    LinearSolveError,
    ProjectionJacobian,
    ResidualJacobian,
    boundary_margins,
    newton_solve,
    projection_jacobian,
    residual_jacobian,
)
from saddle_ssn.splitting import ResidualValue, build_context, residual


def make_ctx(payoff, gamma=1.0):
    return build_context(MatrixGame.from_payoff(payoff), gamma)


class TestProjectionJacobian:
    def test_two_active_coordinates(self):
        jac = projection_jacobian(np.array([0.4, 0.6]))
        assert np.array_equal(jac.active_mask, np.array([True, True]))
        assert np.array_equal(jac.matrix(),
                              np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_single_active_coordinate_gives_zero_matrix(self):
        jac = projection_jacobian(np.array([2.0, 0.0, 0.0]))
        assert np.array_equal(jac.active_mask, np.array([True, False, False]))
        assert np.array_equal(jac.matrix(), np.zeros((3, 3)))

    def test_annihilates_the_active_direction(self):
        rng = philox(61)
        for _ in range(50):
            d = int(rng.integers(1, 12))
            p = rng.standard_normal(d) * 2
            jac = projection_jacobian(p)
            a = jac.active_mask.astype(float)
            assert np.allclose(jac.matrix() @ a, 0.0, atol=1e-14)

    def test_eigenvalues_are_zero_or_one(self):
        rng = philox(62)
        for _ in range(50):
            d = int(rng.integers(2, 11))
            g = projection_jacobian(rng.standard_normal(d) * 2).matrix()
            assert np.allclose(g, g.T)
            eig = np.linalg.eigvalsh(g)
            assert np.all((np.abs(eig) <= 1e-12) | (np.abs(eig - 1.0) <= 1e-12))

    def test_matches_central_differences_away_from_kinks(self):
        rng = philox(63)
        h = 1e-7
        checked = 0
        while checked < 25:
            d = int(rng.integers(2, 9))
            p = rng.standard_normal(d) * 1.5
            x = project_simplex(p)
            active = x > 0
            tau = (p[active] - x[active]).mean()
            margin = min(x[active].min(),
                         (tau - p[~active]).min() if (~active).any() else 1.0)
            if margin < 1e-3:
                continue
            g = projection_jacobian(p).matrix()
            fd = np.empty((d, d))
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[:, j] = (project_simplex(p + e) - project_simplex(p - e)) / (2 * h)
            assert np.abs(fd - g).max() <= 1e-6
            checked += 1


class TestBoundaryMargins:
    def test_supported_coordinates_are_infinite(self):
        ctx = make_ctx(np.zeros((2, 2)))
        z = np.array([0.7, 0.3, 2.0, 0.0])
        margins = boundary_margins(ctx, z)
        assert margins[0] == np.inf
        assert margins[1] == np.inf
        assert margins[2] == np.inf
        assert margins[3] == 1.0

    def test_margins_rank_coordinates_by_distance_to_activation(self):
        ctx = make_ctx(np.zeros((1, 3)))
        margins = boundary_margins(ctx, np.array([1.0, 2.0, 0.0, 0.5]))
        assert margins[1] == np.inf
        assert margins[2] == 1.0
        assert margins[3] == 0.5
        assert margins.min() >= 0.0

    def test_zero_margin_at_exact_threshold(self):
        ctx = make_ctx(np.zeros((1, 2)))
        margins = boundary_margins(ctx, np.array([1.0, 3.0, 2.0]))
        assert margins[2] == 0.0


class TestResidualJacobian:
    def test_zero_payoff_interior_point_closed_form(self):
        ctx = make_ctx(np.zeros((4, 3)))
        z = np.concatenate([np.full(4, 0.25), np.full(3, 1.0 / 3.0)])
        j = residual_jacobian(ctx, z).matrix
        gx = projection_jacobian(z[:4]).matrix()
        gy = projection_jacobian(z[4:]).matrix()
        d = np.zeros((7, 7))
        d[:4, :4] = gx
        d[4:, 4:] = gy
        assert np.allclose(j, np.eye(7) - d, atol=1e-13)

    def test_matches_directional_differences_away_from_kinks(self):
        rng = philox(64)
        game = random_game(rng, 7, 6, kind="normal")
        ctx = build_context(game, 1.0)
        h = 1e-6
        checked = 0
        while checked < 10:
            z = rng.standard_normal(13) * 1.5
            margins = boundary_margins(ctx, z)
            finite = np.isfinite(margins)
            if finite.any() and margins[finite].min() < 1e-3:
                continue
            slack = min(project_simplex(z[:7])[project_simplex(z[:7]) > 0].min(),
                        project_simplex(z[7:])[project_simplex(z[7:]) > 0].min())
            if slack < 1e-3:
                continue
            jac = residual_jacobian(ctx, z)
            r0 = residual(ctx, z).r
            for _ in range(20):
                d = rng.standard_normal(13)
                d /= np.linalg.norm(d)
                fd = (residual(ctx, z + h * d).r - r0) / h
                assert np.linalg.norm(fd - jac.matrix @ d) <= 1e-8
            checked += 1

    def test_symmetric_part_is_positive_semidefinite(self):
        rng = philox(65)
        for _ in range(20):
            n, m = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            game = random_game(rng, n, m, kind="normal")
            ctx = build_context(game, float(rng.uniform(0.5, 2.0)))
            for _ in range(5):
                z = rng.standard_normal(n + m) * 2
                j = residual_jacobian(ctx, z).matrix
                sym = 0.5 * (j + j.T)
                assert np.linalg.eigvalsh(sym).min() >= -1e-8


class TestNewtonSolve:
    def test_diagonal_closed_form(self):
        # A 1x1 zero game has D = 0 and M = I, so J = I and the step is
        # -r / (1 + mu).
        ctx = make_ctx(np.zeros((1, 1)))
        jac = residual_jacobian(ctx, np.array([1.0, 1.0]))
        res = ResidualValue(r=np.array([1.0, 1.0]), norm=float(np.sqrt(2.0)))
        dz = newton_solve(jac, 1.0, res)
        assert np.array_equal(dz, np.array([-0.5, -0.5]))

    @pytest.mark.parametrize("n, m", [(4, 9), (9, 4), (7, 7), (1, 8), (8, 1)])
    def test_matches_the_dense_solve(self, n, m):
        rng = philox(70 + 10 * n + m)
        game = random_game(rng, n, m, kind="normal")
        worst = 0.0
        for gamma in (0.5, 1.0, 2.0):
            ctx = build_context(game, gamma)
            for _ in range(8):
                z = rng.standard_normal(n + m) * 1.5
                jac = residual_jacobian(ctx, z)
                res = residual(ctx, z)
                for mu in (1e-4, 1e-2, 1.0, 1e3):
                    dz = newton_solve(jac, mu, res)
                    ref = np.linalg.solve(
                        jac.matrix + mu * np.eye(n + m), -res.r)
                    worst = max(worst, np.linalg.norm(dz - ref)
                                / np.linalg.norm(ref))
        assert worst <= 1e-10

    def test_solves_the_regularized_system(self):
        rng = philox(67)
        game = random_game(rng, 6, 5)
        ctx = build_context(game, 1.0)
        for _ in range(10):
            z = rng.standard_normal(11)
            jac = residual_jacobian(ctx, z)
            res = residual(ctx, z)
            mu = float(rng.uniform(1e-6, 1.0))
            dz = newton_solve(jac, mu, res)
            lhs = (jac.matrix + mu * np.eye(11)) @ dz
            assert np.allclose(lhs, -res.r, atol=1e-10)

    def test_step_norm_bounded_by_residual_over_mu(self):
        rng = philox(68)
        game = random_game(rng, 8, 7, kind="normal")
        ctx = build_context(game, 1.0)
        for _ in range(30):
            z = rng.standard_normal(15) * 2
            jac = residual_jacobian(ctx, z)
            res = residual(ctx, z)
            mu = float(10.0 ** rng.uniform(-6, 2))
            dz = newton_solve(jac, mu, res)
            assert np.linalg.norm(dz) <= res.norm / mu * (1.0 + 1e-10) + 1e-300

    def test_rejects_non_positive_regularization(self):
        jac = residual_jacobian(make_ctx(np.zeros((1, 1))), np.zeros(2))
        res = ResidualValue(r=np.ones(2), norm=float(np.sqrt(2.0)))
        for mu in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                newton_solve(jac, mu, res)

    def test_flags_unusable_systems(self):
        ctx = make_ctx(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        jac = residual_jacobian(ctx, np.array([0.5, 0.5, 0.5, 0.5]))
        bad = ResidualJacobian(ctx, jac.rows, jac.cols,
                               np.full_like(jac.left, np.nan), jac.right)
        res = ResidualValue(r=np.ones(4), norm=2.0)
        with pytest.raises(LinearSolveError):
            newton_solve(bad, 1.0, res)

    def test_translates_lapack_failures(self, monkeypatch):
        ctx = make_ctx(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        jac = residual_jacobian(ctx, np.array([0.5, 0.5, 0.5, 0.5]))
        res = residual(ctx, np.array([0.5, 0.5, 0.5, 0.5]))

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(LinearSolveError, match="Singular matrix") as exc:
            newton_solve(jac, 1.0, res)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_inverse_norm_respects_regularization_bound(self):
        rng = philox(69)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(2, 21 - min(n, 18)))
            game = random_game(rng, n, m, kind="normal")
            ctx = build_context(game, float(rng.uniform(0.5, 2.0)))
            z = rng.standard_normal(n + m) * 2
            j = residual_jacobian(ctx, z).matrix
            # Below mu ~ 1e-3 the inverse norm exceeds 1e3 and float64
            # evaluation noise swamps the absolute tolerance.
            mu = float(10.0 ** rng.uniform(-3, 1))
            inv = np.linalg.inv(j + mu * np.eye(n + m))
            assert np.linalg.norm(inv, 2) <= 1.0 / mu + 1e-8


def bits(a):
    return a.dtype, a.shape, a.tobytes()


class TestStoredProjection:
    """The Newton solver reads P(z) and U'r, V'r kept on a ResidualValue."""

    @staticmethod
    def assert_same_jacobian(a, b):
        for name in ("rows", "cols", "left", "right"):
            assert bits(getattr(a, name)) == bits(getattr(b, name))

    def test_jacobian_matches_a_fresh_projection(self):
        rng = philox(71)
        ctx = build_context(random_game(rng, 7, 9, kind="normal"), 1.0)
        for _ in range(20):
            z = rng.standard_normal(16) * 1.5
            res = residual(ctx, z)
            self.assert_same_jacobian(residual_jacobian(ctx, z, res=res),
                                      residual_jacobian(ctx, z))

    def test_jacobian_matches_at_a_kink(self):
        # Coordinates 2 and 4 sit exactly at their block thresholds.
        ctx = make_ctx(np.array([[1.0, -1.0], [-0.5, 0.5], [0.25, 2.0]]))
        z = np.array([0.5, 0.5, 0.0, 1.0, 0.0])
        res = residual(ctx, z)
        assert np.array_equal(res.p, [0.5, 0.5, 0.0, 1.0, 0.0])
        self.assert_same_jacobian(residual_jacobian(ctx, z, res=res),
                                  residual_jacobian(ctx, z))

    def test_newton_solve_ignores_earlier_calls(self):
        rng = philox(73)
        ctx = build_context(random_game(rng, 8, 6, kind="normal"), 1.0)
        z, other = rng.standard_normal(14), rng.standard_normal(14)
        jac = residual_jacobian(ctx, z)
        cold = newton_solve(jac, 0.1, residual(ctx, z))
        res = residual(ctx, z)
        newton_solve(jac, 10.0, res)
        newton_solve(residual_jacobian(ctx, other), 0.1, residual(ctx, other))
        warm = newton_solve(jac, 0.1, res)
        by_hand = newton_solve(jac, 0.1, ResidualValue(r=res.r.copy(),
                                                       norm=res.norm))
        assert bits(cold) == bits(warm) == bits(by_hand)
