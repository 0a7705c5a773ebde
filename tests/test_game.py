"""Tests for the game model, simplex geometry, and duality-gap certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (brute_force_gap, philox, random_game, random_profile,
                     reference_project_pair, reference_project_simplex)
from saddle_ssn.game import (
    GapCertificate,
    MatrixGame,
    StrategyProfile,
    duality_gap,
    estimate_spectral_norm,
    project_pair,
    project_product,
    project_simplex,
    saddle_operator,
)

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


class TestMatrixGame:
    def test_stores_payoff_and_dimensions(self):
        game = MatrixGame.from_payoff(PENNIES)
        assert game.n == 2 and game.m == 2
        assert np.array_equal(game.payoff, PENNIES)

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            MatrixGame.from_payoff(np.zeros(3))
        with pytest.raises(ValueError):
            MatrixGame.from_payoff(np.zeros((2, 2, 2)))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError):
            MatrixGame.from_payoff(np.zeros((0, 3)))

    def test_rejects_non_finite_entries_and_reports_location(self):
        bad = np.zeros((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"1.*2"):
            MatrixGame.from_payoff(bad)

    def test_estimate_spectral_norm_close_to_exact_norm(self):
        rng = philox(12)
        worst = 0.0
        for _ in range(40):
            a = rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 40))))
            exact = np.linalg.norm(a, 2)
            est = estimate_spectral_norm(a)
            if exact > 0:
                worst = max(worst, abs(est - exact) / exact)
        assert worst <= 1e-4

    def test_spectral_norm_dominates_row_and_column_norms(self):
        rng = philox(13)
        for _ in range(30):
            a = rng.uniform(-1, 1, size=(int(rng.integers(1, 25)), int(rng.integers(1, 25))))
            est = estimate_spectral_norm(a)
            lower = max(np.sqrt((a * a).sum(axis=1)).max(),
                        np.sqrt((a * a).sum(axis=0)).max())
            assert est >= lower * (1.0 - 1e-6)

    def test_spectral_norm_zero_matrix(self):
        assert estimate_spectral_norm(np.zeros((4, 7))) == 0.0


class TestStrategyProfile:
    def test_uniform_profile(self):
        prof = StrategyProfile.uniform(4, 5)
        assert np.array_equal(prof.x, np.full(4, 0.25))
        assert np.array_equal(prof.y, np.full(5, 0.2))

    def test_concatenated_stacks_blocks(self):
        prof = StrategyProfile.from_vectors(np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(prof.concatenated(), np.array([1.0, 0.0, 0.0, 0.0, 1.0]))

    def test_clamps_tiny_negative_coordinates(self):
        prof = StrategyProfile.from_vectors(np.array([1.0 + 1e-13, -1e-13]),
                                            np.array([0.5, 0.5]))
        assert prof.x[1] == 0.0
        assert abs(prof.x.sum() - 1.0) <= 1e-12

    def test_rejects_clearly_negative_coordinates(self):
        with pytest.raises(ValueError):
            StrategyProfile.from_vectors(np.array([1.1, -0.1]), np.array([0.5, 0.5]))

    def test_rejects_wrong_total_mass(self):
        with pytest.raises(ValueError):
            StrategyProfile.from_vectors(np.array([0.6, 0.6]), np.array([0.5, 0.5]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StrategyProfile.from_vectors(np.array([np.inf, 0.0]), np.array([0.5, 0.5]))


class TestDualityGap:
    def test_zero_matrix_has_zero_gap(self):
        game = MatrixGame.from_payoff(np.zeros((3, 4)))
        cert = duality_gap(game, StrategyProfile.uniform(3, 4))
        assert cert.gap == 0.0

    def test_matching_pennies_uniform_profile_is_optimal(self):
        game = MatrixGame.from_payoff(PENNIES)
        cert = duality_gap(game, StrategyProfile.uniform(2, 2))
        assert cert.gap == 0.0

    def test_matching_pennies_pure_profile(self):
        game = MatrixGame.from_payoff(PENNIES)
        prof = StrategyProfile.from_vectors(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        cert = duality_gap(game, prof)
        assert cert.gap == 2.0
        assert cert.best_response_col == 0
        assert cert.best_response_row == 1

    def test_best_responses_tie_break_to_lowest_index(self):
        game = MatrixGame.from_payoff(np.ones((3, 3)))
        cert = duality_gap(game, StrategyProfile.uniform(3, 3))
        assert cert.best_response_col == 0
        assert cert.best_response_row == 0

    def test_matches_pure_strategy_enumeration(self):
        rng = philox(21)
        for _ in range(20):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            game = random_game(rng, n, m, kind="normal")
            for _ in range(20):
                prof = random_profile(rng, n, m)
                cert = duality_gap(game, prof)
                ref = brute_force_gap(game.payoff, prof.x, prof.y)
                assert cert.gap == pytest.approx(ref, abs=1e-12)

    def test_gap_is_nonnegative(self):
        rng = philox(22)
        for _ in range(200):
            n, m = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            game = random_game(rng, n, m)
            cert = duality_gap(game, random_profile(rng, n, m))
            assert cert.gap >= 0.0

    def test_gap_is_lipschitz_in_the_profile(self):
        rng = philox(23)
        for _ in range(50):
            n, m = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            game = random_game(rng, n, m)
            lip = np.sqrt(2.0) * np.linalg.norm(game.payoff, 2)
            p1 = random_profile(rng, n, m)
            p2 = random_profile(rng, n, m)
            dist = np.linalg.norm(p1.concatenated() - p2.concatenated())
            g1 = duality_gap(game, p1).gap
            g2 = duality_gap(game, p2).gap
            assert abs(g1 - g2) <= lip * dist + 1e-9

    def test_rejects_mismatched_dimensions(self):
        game = MatrixGame.from_payoff(PENNIES)
        with pytest.raises(ValueError):
            duality_gap(game, StrategyProfile.uniform(3, 2))

    def test_certificate_is_plain_data(self):
        cert = GapCertificate(gap=0.5, best_response_row=1, best_response_col=0)
        assert cert.gap == 0.5


class TestProjectSimplex:
    def test_point_already_on_simplex_is_unchanged(self):
        assert np.array_equal(project_simplex(np.array([0.5, 0.5])), np.array([0.5, 0.5]))

    def test_projects_to_vertex(self):
        assert np.array_equal(project_simplex(np.array([2.0, 0.0])), np.array([1.0, 0.0]))

    def test_symmetric_point_projects_to_barycenter(self):
        out = project_simplex(np.array([0.6, 0.6, 0.6]))
        assert np.allclose(out, np.full(3, 1.0 / 3.0), atol=1e-15)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_single_coordinate_always_maps_to_one(self):
        for v in (-5.0, 0.0, 3.7):
            assert np.array_equal(project_simplex(np.array([v])), np.array([1.0]))

    def test_projection_satisfies_simplex_kkt_conditions(self):
        rng = philox(31)
        for _ in range(100):
            d = int(rng.integers(1, 13))
            p = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
            x = project_simplex(p)
            assert x.min() >= 0.0
            assert x.sum() == pytest.approx(1.0, abs=1e-10)
            active = x > 0
            shifts = p[active] - x[active]
            assert shifts.max() - shifts.min() <= 1e-10
            if (~active).any():
                assert p[~active].max() <= shifts.mean() + 1e-10

    def test_projection_is_the_nearest_feasible_point(self):
        rng = philox(32)
        for _ in range(30):
            d = int(rng.integers(2, 9))
            p = rng.standard_normal(d) * 3.0
            x = project_simplex(p)
            base = np.linalg.norm(x - p)
            for _ in range(25):
                q = rng.random(d)
                q = q / q.sum()
                assert base <= np.linalg.norm(q - p) + 1e-12

    def test_projection_is_nonexpansive(self):
        rng = philox(33)
        for _ in range(200):
            d = int(rng.integers(1, 10))
            a = rng.standard_normal(d) * 2
            b = rng.standard_normal(d) * 2
            lhs = np.linalg.norm(project_simplex(a) - project_simplex(b))
            assert lhs <= np.linalg.norm(a - b) + 1e-12

    def test_rejects_empty_and_non_finite_input(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))
        with pytest.raises(ValueError):
            project_simplex(np.array([1.0, np.nan]))


@st.composite
def scaled_vectors(draw, min_size=1):
    """Vectors of 1..40 coordinates at a scale between 1e-8 and 1e3.

    Half of them sit on a coarse grid, so that coordinates and partial
    sums tie.
    """
    d = draw(st.integers(min_size, 40))
    if draw(st.booleans()):
        raw = draw(arrays(np.float64, d, elements=st.integers(-3, 3).map(float)))
    else:
        raw = draw(arrays(np.float64, d,
                          elements=st.floats(-1.0, 1.0, allow_nan=False)))
    return raw * 10.0 ** draw(st.floats(-8.0, 3.0))


@st.composite
def split_vectors(draw):
    z = draw(scaled_vectors(min_size=2))
    shape = draw(st.sampled_from(("any", "equal", "first one", "last one")))
    n = {"any": draw(st.integers(1, z.size - 1)), "equal": z.size // 2,
         "first one": 1, "last one": z.size - 1}[shape]
    return n, z


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestProjectionBits:
    """The blockwise kernel against the one-block reference, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scaled_vectors())
    @example(np.array([0.6, 0.6, 0.6]))
    @example(np.array([2.0, 2.0, 0.0, -1.0]))
    def test_single_block_matches_the_reference(self, p):
        assert (project_simplex(p).tobytes()
                == reference_project_simplex(p).tobytes())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(split_vectors())
    @example((1, np.array([5.0, 0.5, 0.5])))
    @example((2, np.array([0.25, 0.25, 0.25, 0.25])))
    def test_pair_matches_the_reference(self, split):
        n, z = split
        assert (project_pair(n, z).tobytes()
                == reference_project_pair(n, z).tobytes())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(split_vectors(), st.sampled_from((np.nan, np.inf, -np.inf)),
           st.integers(0, 39))
    def test_non_finite_input_raises_the_same_error(self, split, bad, at):
        n, z = split
        z = z.copy()
        z[at % z.size] = bad
        assert (raised(project_pair, n, z)
                == raised(reference_project_pair, n, z))
        assert (raised(project_simplex, z)
                == raised(reference_project_simplex, z))

    def test_empty_blocks_raise_the_same_error(self):
        z = np.array([0.5, 0.5])
        assert (raised(project_simplex, z[:0])
                == raised(reference_project_simplex, z[:0]))
        for n in (0, 2, 3):
            assert (raised(project_pair, n, z)
                    == raised(reference_project_pair, n, z))

    def test_coordinates_too_large_to_threshold_raise(self):
        # No rank passes when u_1 - 1 rounds to u_1; the one-block code
        # then indexed an empty array.
        for p in ([1e17, 0.0], [-1e17, -1e17], [1e16, 1e16 - 2.0, 3.0]):
            with pytest.raises(ValueError, match="too large"):
                project_simplex(np.array(p))
        with pytest.raises(ValueError, match="too large"):
            project_pair(1, np.array([0.5, 1e17, 0.0]))


class TestProductProjection:
    def test_splits_blocks_independently(self):
        game = MatrixGame.from_payoff(PENNIES)
        prof = project_product(game, np.array([2.0, 0.0, 0.0, 2.0]))
        assert np.array_equal(prof.x, np.array([1.0, 0.0]))
        assert np.array_equal(prof.y, np.array([0.0, 1.0]))

    def test_matches_pairwise_helper(self):
        rng = philox(34)
        game = random_game(rng, 4, 5)
        z = rng.standard_normal(9)
        prof = project_product(game, z)
        stacked = project_pair(4, z)
        assert np.array_equal(prof.concatenated(), stacked)

    def test_accepts_lifted_points(self):
        game = MatrixGame.from_payoff(PENNIES)
        # Lifted points are plain vectors; any real sequence is accepted.
        prof = project_product(game, [0.5, 0.5, 2.0, 0.0])
        assert np.array_equal(prof.y, np.array([1.0, 0.0]))

    def test_rejects_wrong_length(self):
        game = MatrixGame.from_payoff(PENNIES)
        with pytest.raises(ValueError):
            project_product(game, np.zeros(5))


class TestSaddleOperator:
    def test_zero_matrix_gives_zero_field(self):
        game = MatrixGame.from_payoff(np.zeros((2, 3)))
        assert np.array_equal(saddle_operator(game, np.ones(5)), np.zeros(5))

    def test_one_by_one_closed_form(self):
        game = MatrixGame.from_payoff(np.array([[1.0]]))
        out = saddle_operator(game, np.array([3.0, 5.0]))
        assert np.array_equal(out, np.array([5.0, -3.0]))

    def test_field_is_linear_and_skew(self):
        rng = philox(35)
        game = random_game(rng, 6, 4)
        for _ in range(20):
            z1 = rng.standard_normal(10)
            z2 = rng.standard_normal(10)
            f1 = saddle_operator(game, z1)
            f2 = saddle_operator(game, z2)
            both = saddle_operator(game, z1 + 2.0 * z2)
            assert np.allclose(both, f1 + 2.0 * f2, atol=1e-12)
            assert abs(z1 @ f1) <= 1e-12 * (1 + z1 @ z1)

    def test_rejects_wrong_length(self):
        game = MatrixGame.from_payoff(PENNIES)
        with pytest.raises(ValueError):
            saddle_operator(game, np.zeros(3))
