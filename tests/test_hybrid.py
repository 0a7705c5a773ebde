"""Tests for the hybrid first-order/Newton schedules."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import philox
from saddle_ssn import hybrid
from saddle_ssn.game import MatrixGame, duality_gap, estimate_spectral_norm
from saddle_ssn.hybrid import (
    STATUS_BUDGET,
    STATUS_CONVERGED,
    HybridConfig,
    HybridOutcome,
    hpssn,
    pssn_v1,
    pssn_v2,
    run_hybrid,
)
from saddle_ssn.splitting import build_context, lift, residual
from saddle_ssn.ssn import SsnConfig
from saddle_ssn.trace import PHASE_FO, PHASE_SSN

TILTED = np.array([[1.2, -1.0], [-1.0, 1.0]])


def uniform_game(seed, n=100, m=100):
    rng = philox(seed)
    return MatrixGame.from_payoff(rng.uniform(-1.0, 1.0, size=(n, m)))


def fo_rows(trace):
    return [row for row in trace if row.phase == PHASE_FO]


def ssn_rows(trace):
    return [row for row in trace if row.phase == PHASE_SSN]


class TestHybridConfig:
    def test_defaults_are_valid(self):
        HybridConfig()

    @pytest.mark.parametrize("kwargs", [
        {"variant": "newton-only"},
        {"target_gap": 1e-2, "switch_gap_threshold": 1e-2},
        {"target_gap": -1e-12},
        {"gamma": 0.0},
        {"gamma": float("inf")},
        {"gamma": float("nan")},
        {"theta_update_period": 0},
        {"max_fo_iters": 0},
        {"hpssn_probe_steps": 0},
        {"gap_check_period": 0},
        {"hpssn_accept_factor": 1.0},
        {"lambda0": 0.0},
        {"lambda0": float("nan")},
        {"lambda0": float("inf")},
        {"hpssn_accept_factor": float("nan")},
        {"hpssn_accept_factor": float("inf")},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            HybridConfig(**kwargs)

    def test_ssn_override_keeps_the_hybrid_target(self):
        config = HybridConfig(target_gap=1e-9,
                              ssn=SsnConfig(ell=2.0, target_gap=1e-3))
        scfg = config.ssn_config()
        assert scfg.ell == 2.0
        assert scfg.target_gap == 1e-9

    def test_default_ssn_constants_apply(self):
        scfg = HybridConfig(target_gap=1e-10).ssn_config()
        assert scfg.ell == 1.5
        assert scfg.target_gap == 1e-10


class TestPssnV1:
    def test_zero_payoff_converges_before_any_phase(self):
        outcome = pssn_v1(MatrixGame.from_payoff(np.zeros((3, 3))),
                          HybridConfig())
        assert outcome.status == STATUS_CONVERGED
        assert outcome.iterations == 0
        assert outcome.newton_steps == 0
        assert outcome.switch_iteration is None
        assert len(outcome.trace) == 1

    @pytest.mark.parametrize("seed", [1, 2, 6])
    def test_converges_on_medium_uniform_games_with_few_newton_steps(self, seed):
        game = uniform_game(seed)
        config = HybridConfig(switch_gap_threshold=1e-1)
        outcome = pssn_v1(game, config)
        assert outcome.status == STATUS_CONVERGED
        assert outcome.certificate.gap <= 1e-12
        assert outcome.newton_steps <= 30

    def test_switches_exactly_once_at_the_threshold(self):
        game = uniform_game(0)
        config = HybridConfig(switch_gap_threshold=1e-1)
        outcome = pssn_v1(game, config)
        phases = [row.phase for row in outcome.trace]
        first_ssn = phases.index(PHASE_SSN)
        assert all(p == PHASE_FO for p in phases[:first_ssn])
        assert all(p == PHASE_SSN for p in phases[first_ssn:])
        fo = fo_rows(outcome.trace)
        assert fo[-1].gap <= 1e-1
        assert all(row.gap > 1e-1 for row in fo[:-1])
        assert outcome.switch_iteration == fo[-1].iteration

    def test_first_order_gaps_shrink_monotonically(self):
        outcome = pssn_v1(uniform_game(0), HybridConfig(switch_gap_threshold=1e-1))
        gaps = [row.gap for row in fo_rows(outcome.trace)]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_newton_phase_residuals_strictly_decrease(self):
        outcome = pssn_v1(uniform_game(1), HybridConfig(switch_gap_threshold=1e-1))
        norms = [row.residual_norm for row in ssn_rows(outcome.trace)]
        assert len(norms) >= 2
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert all(np.isfinite(n) for n in norms)

    def test_warm_start_lift_is_good_at_the_switch(self):
        game = uniform_game(0)
        config = HybridConfig(switch_gap_threshold=1e-1)
        outcome = pssn_v1(game, config)
        entry = ssn_rows(outcome.trace)[0]
        gap_at_switch = fo_rows(outcome.trace)[-1].gap
        bound = 10.0 * (1.0 + config.gamma * estimate_spectral_norm(game.payoff)) \
            * np.sqrt(gap_at_switch)
        assert entry.residual_norm <= bound

    def test_final_certificate_matches_recomputation(self):
        game = uniform_game(2)
        outcome = pssn_v1(game, HybridConfig(switch_gap_threshold=1e-1))
        again = duality_gap(game, outcome.profile)
        assert again.gap == outcome.certificate.gap

    def test_budget_exhaustion_reports_first_order_result(self):
        game = uniform_game(3, n=20, m=20)
        config = HybridConfig(switch_gap_threshold=1e-6, target_gap=1e-8,
                              max_fo_iters=50, gap_check_period=10)
        outcome = pssn_v1(game, config)
        assert outcome.status == STATUS_BUDGET
        assert outcome.switch_iteration is None
        assert outcome.newton_steps == 0
        assert outcome.iterations == 50

    def test_trace_iterations_strictly_increase(self):
        outcome = pssn_v1(uniform_game(6), HybridConfig(switch_gap_threshold=1e-1))
        iters = [row.iteration for row in outcome.trace]
        assert all(b > a for a, b in zip(iters, iters[1:]))
        elapsed = [row.elapsed for row in outcome.trace]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


class TestPssnV2:
    def test_matches_v1_when_tuning_never_fires(self):
        game = uniform_game(3, n=30, m=30)
        base = dict(switch_gap_threshold=1e-1, gap_check_period=100)
        v1 = pssn_v1(game, HybridConfig(**base))
        v2 = pssn_v2(game, HybridConfig(theta_update_period=10 ** 9, **base))
        assert v2.status == v1.status
        assert v2.newton_steps == v1.newton_steps
        assert np.array_equal(v2.profile.x, v1.profile.x)
        assert np.array_equal(v2.profile.y, v1.profile.y)
        a = [(r.iteration, r.phase, r.gap, r.residual_norm, r.damping)
             for r in v1.trace]
        b = [(r.iteration, r.phase, r.gap, r.residual_norm, r.damping)
             for r in v2.trace]
        assert a == b

    def test_converges_with_periodic_damping_tuning(self):
        game = uniform_game(0)
        outcome = pssn_v2(game, HybridConfig(switch_gap_threshold=1e-1,
                                             theta_update_period=500))
        assert outcome.status == STATUS_CONVERGED
        assert outcome.certificate.gap <= 1e-12
        entry = ssn_rows(outcome.trace)[0]
        assert 1e-15 <= entry.damping <= 1e15

    def test_tuning_changes_the_newton_entry_damping(self):
        game = uniform_game(4, n=30, m=30)
        base = dict(switch_gap_threshold=1e-1)
        v1 = pssn_v1(game, HybridConfig(**base))
        v2 = pssn_v2(game, HybridConfig(theta_update_period=100, **base))
        lam1 = ssn_rows(v1.trace)[0].damping
        lam2 = ssn_rows(v2.trace)[0].damping
        assert lam1 != lam2


class TestHpssn:
    def test_zero_payoff_converges_before_any_probe(self):
        outcome = hpssn(MatrixGame.from_payoff(np.zeros((2, 2))),
                        HybridConfig(variant="hpssn"))
        assert outcome.status == STATUS_CONVERGED
        assert outcome.iterations == 0
        assert outcome.switch_iteration is None

    def test_first_probe_finishes_a_small_game(self):
        game = MatrixGame.from_payoff(TILTED)
        config = HybridConfig(variant="hpssn")
        outcome = hpssn(game, config)
        assert outcome.status == STATUS_CONVERGED
        assert outcome.certificate.gap <= 1e-12
        assert outcome.switch_iteration == 100
        assert 1 <= outcome.newton_steps <= config.hpssn_probe_steps

    def test_converges_on_medium_uniform_game(self):
        game = uniform_game(5, n=30, m=30)
        outcome = hpssn(game, HybridConfig(variant="hpssn"))
        assert outcome.status == STATUS_CONVERGED
        assert outcome.certificate.gap <= 1e-12
        iters = [row.iteration for row in outcome.trace]
        assert all(b > a for a, b in zip(iters, iters[1:]))
        elapsed = [row.elapsed for row in outcome.trace]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))

    def test_final_certificate_matches_recomputation(self):
        game = uniform_game(7, n=25, m=25)
        outcome = hpssn(game, HybridConfig(variant="hpssn"))
        again = duality_gap(game, outcome.profile)
        assert again.gap == outcome.certificate.gap


class TestRunHybrid:
    def test_dispatches_on_the_variant(self):
        game = uniform_game(8, n=20, m=20)
        direct = pssn_v1(game, HybridConfig(switch_gap_threshold=1e-1))
        routed = run_hybrid(game, HybridConfig(variant="pssn-v1",
                                               switch_gap_threshold=1e-1))
        assert [r.gap for r in routed.trace] == [r.gap for r in direct.trace]

    def test_routes_the_alternating_variant(self):
        game = uniform_game(9, n=15, m=15)
        direct = hpssn(game, HybridConfig(variant="hpssn"))
        routed = run_hybrid(game, HybridConfig(variant="hpssn"))
        assert routed.status == direct.status
        assert [r.gap for r in routed.trace] == [r.gap for r in direct.trace]

    def test_every_variant_recomputes_its_certificate(self):
        game = uniform_game(1, n=20, m=20)
        for variant in ("pssn-v1", "pssn-v2", "hpssn"):
            outcome = run_hybrid(game, HybridConfig(variant=variant,
                                                    switch_gap_threshold=1e-1))
            assert outcome.certificate.gap \
                == duality_gap(game, outcome.profile).gap


class TestLazyContext:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counting(game, gamma):
            calls.append(gamma)
            return build_context(game, gamma)

        monkeypatch.setattr(hybrid, "build_context", counting)
        return calls

    def test_budget_exhausted_runs_never_build_the_context(self, builds):
        game = uniform_game(0, n=20, m=20)
        config = HybridConfig(switch_gap_threshold=1e-6, target_gap=1e-8,
                              max_fo_iters=5, gap_check_period=1)
        traces = []
        for variant in ("pssn-v1", "hpssn"):
            outcome = run_hybrid(game, replace(config, variant=variant))
            assert outcome.status == STATUS_BUDGET
            assert outcome.switch_iteration is None
            traces.append(outcome.trace)
        assert builds == []
        # pssn-v2 builds its context up front for damping probes; its
        # rows (timing aside) are those of the lazy variants.
        tuned = run_hybrid(game, replace(config, variant="pssn-v2",
                                         theta_update_period=10 ** 9))
        assert builds == [1.0]
        traces.append(tuned.trace)
        untimed = [[(r.iteration, r.phase, r.gap, r.residual_norm, r.damping)
                    for r in trace] for trace in traces]
        assert len(untimed[0]) == 6
        assert untimed[0] == untimed[1] == untimed[2]

    @pytest.mark.parametrize("variant", ["pssn-v1", "hpssn"])
    def test_a_newton_phase_builds_it_once(self, builds, variant):
        outcome = run_hybrid(uniform_game(0, n=20, m=20),
                             HybridConfig(variant=variant,
                                          switch_gap_threshold=1e-1))
        assert outcome.status == STATUS_CONVERGED
        assert outcome.newton_steps > 0
        assert builds == [1.0]


class TestWarmStartQuality:
    def test_lifted_average_residual_tracks_the_gap(self):
        game = uniform_game(0, n=30, m=30)
        ctx = build_context(game, 1.0)
        outcome = pssn_v1(game, HybridConfig(switch_gap_threshold=1e-3,
                                             gap_check_period=500))
        fo = fo_rows(outcome.trace)
        assert fo[-1].gap <= 1e-3
        entry = ssn_rows(outcome.trace)[0]
        bound = 10.0 * (1.0 + estimate_spectral_norm(game.payoff)) * np.sqrt(fo[-1].gap)
        assert entry.residual_norm <= bound
