"""Tests for the extragradient and optimistic gradient baselines."""

import hashlib
import sys

import numpy as np
import pytest

from helpers import philox, random_game
from saddle_ssn import baselines
from saddle_ssn.baselines import FomConfig, extragradient_run, ogda_run
from saddle_ssn import game as game_module
from saddle_ssn import prm as prm_module
from saddle_ssn.game import (MatrixGame, StrategyProfile, duality_gap,
                             estimate_spectral_norm)
from saddle_ssn.prm import STATUS_BUDGET, STATUS_CONVERGED, run_prm
from saddle_ssn.trace import PHASE_FO

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
METHODS = (extragradient_run, ogda_run)


class TestFomConfig:
    def test_defaults_are_valid(self):
        FomConfig()

    @pytest.mark.parametrize("kwargs", [
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
    def test_smaller_steps_make_slower_progress(self, monkeypatch, method):
        rng = philox(92)
        game = random_game(rng, 10, 10)
        config = FomConfig(max_iters=400, target_gap=-1.0)
        brisk = method(game, config)
        monkeypatch.setattr(baselines, "_resolve_step", lambda game: 1e-6)
        crawl = method(game, config)
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
    def test_default_step_is_half_the_inverse_spectral_norm(self,
                                                            monkeypatch,
                                                            method):
        rng = philox(96)
        game = random_game(rng, 9, 6, kind="normal")
        config = FomConfig(max_iters=300, check_every=100, target_gap=-1.0)
        step = 1.0 / (2.0 * estimate_spectral_norm(game.payoff))
        assert baselines._resolve_step(game) == step
        default = method(game, config)
        monkeypatch.setattr(baselines, "_resolve_step", lambda game: step)
        explicit = method(game, config)
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


# A 30x40 normal game and four first-order runs on it, recorded before the
# projection and the update loops were rewritten to make fewer numpy
# calls.  The rewrite keeps every operation and its order, so these stay
# bit for bit (with numpy's OpenBLAS at one thread, as conftest pins it).
# The ogda and eg entries were recorded again when their step became
# 1 / (2 sigma_max) with LAPACK's exact sigma_max in place of a power-
# iteration estimate, which moved their last bits; the counts held.
GOLDEN_FOM = FomConfig(max_iters=5000, target_gap=1e-3, check_every=500)
GOLDEN_RUNS = [
    ("prm-qa", lambda g: run_prm(g, max_iters=5000, target_gap=1e-4,
                                check_every=500),
     2500, "d4236196d2d39d35fa38acc2eab89969469b8869fd2640cc04978e2d05bcb619",
     [
        "0x1.20c2788cd5645p-1",
        "0x1.348d4c9d33100p-11",
        "0x1.1cba45c61dc00p-12",
        "0x1.5c51978b62800p-13",
        "0x1.0cb3c455c9000p-13",
        "0x1.796910a5a1000p-14",
     ]),
    ("prm-li", lambda g: run_prm(g, "li", max_iters=1500, target_gap=1e-4,
                                check_every=500),
     1500, "cd4b8046f7f25ae48795bf8448bf67f88fd5d90c88e1b56fabb86900c295ff13",
     [
        "0x1.20c2788cd5645p-1",
        "0x1.09ef5e33d34dcp-4",
        "0x1.9d75d4bdde616p-4",
        "0x1.5b8211110ab94p-4",
     ]),
    ("ogda", lambda g: ogda_run(g, GOLDEN_FOM),
     4000, "9e616645d20c528e21fc5eca4b2a98d2b7bcc7b7cafde1e76d88049d78ce537f",
     [
        "0x1.20c2788cd5645p-1",
        "0x1.729c73f5bf368p-8",
        "0x1.f7b582fbdd860p-9",
        "0x1.94db3c1525550p-9",
        "0x1.3866fe756d050p-9",
        "0x1.1f313b49fda00p-9",
        "0x1.3da2b8ac3b7a0p-10",
        "0x1.44e02b6a4a4c0p-10",
        "0x1.9fd4339b73880p-11",
     ]),
    ("eg", lambda g: extragradient_run(g, GOLDEN_FOM),
     4000, "51b430484f3e351ff5b744dd5034eb15c575032bff6cc4283595fb2747f8371a",
     [
        "0x1.20c2788cd5645p-1",
        "0x1.8aafb1ae03ff8p-8",
        "0x1.e301983621c70p-9",
        "0x1.8540221390d90p-9",
        "0x1.27a490f0c1bb0p-9",
        "0x1.1d2277aaa79c0p-9",
        "0x1.3879f5f6d8160p-10",
        "0x1.4b9c24fdd0e00p-10",
        "0x1.9a3271093a540p-11",
     ]),
]


def golden_game() -> MatrixGame:
    return random_game(philox(2024), 30, 40, kind="normal")


def profile_digest(profile: StrategyProfile) -> str:
    return hashlib.sha256(profile.x.tobytes() + profile.y.tobytes()).hexdigest()


class TestGoldenRuns:
    @pytest.mark.parametrize("name, run, iterations, digest, gaps",
                             GOLDEN_RUNS, ids=[r[0] for r in GOLDEN_RUNS])
    def test_run_reproduces_its_recorded_bits(self, name, run, iterations,
                                              digest, gaps):
        result = run(golden_game())
        assert result.iterations == iterations
        assert [row.gap.hex() for row in result.trace] == gaps
        assert profile_digest(result.profile) == digest


@pytest.fixture
def calls(monkeypatch):
    """Count the calls perfbench's tracer times as rounds and projections.

    Like the tracer, wrap each name on every saddle_ssn module that binds it.
    """
    counts = {}
    for owner, name in ((prm_module, "alternating_round"),
                        (game_module, "project_pair"),
                        (game_module, "project_simplex")):
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if (mod_name.startswith("saddle_ssn")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    return counts


class TestTracedCounts:
    """One traced round per PRM round, one projection pair per OGDA
    iteration and two per EG iteration, and no single-block projection:
    this is what prm.rounds and baselines.project_pair_s measure."""

    def test_prm_plays_one_round_per_iteration(self, calls):
        result = run_prm(golden_game(), max_iters=700, target_gap=-1.0)
        assert result.iterations == 700
        assert calls == {"alternating_round": 700, "project_pair": 0,
                         "project_simplex": 0}

    @pytest.mark.parametrize("method, per_iteration",
                             [(ogda_run, 1), (extragradient_run, 2)])
    def test_baselines_project_once_per_operator_step(self, calls, method,
                                                      per_iteration):
        result = method(golden_game(),
                        FomConfig(max_iters=700, target_gap=-1.0))
        assert result.iterations == 700
        assert calls == {"alternating_round": 0,
                         "project_pair": per_iteration * 700,
                         "project_simplex": 0}
