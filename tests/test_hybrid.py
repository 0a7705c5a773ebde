"""Tests for the hybrid first-order/Newton schedules."""

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from helpers import lp_value, philox, random_game
from saddle_ssn import hybrid, ssn
from saddle_ssn.game import (MatrixGame, StrategyProfile, duality_gap,
                             estimate_spectral_norm)
from saddle_ssn.hybrid import (
    STATUS_BUDGET,
    STATUS_CONVERGED,
    STATUS_SSN_STALLED,
    HybridConfig,
    HybridOutcome,
    hpssn,
    pssn_v1,
    pssn_v2,
    run_hybrid,
)
from saddle_ssn.jacobian import LinearSolveError
from saddle_ssn.splitting import build_context, lift, residual
from saddle_ssn.ssn import FLAG_STALLED, drive_newton
from saddle_ssn.trace import PHASE_FO, PHASE_SSN

TILTED = np.array([[1.2, -1.0], [-1.0, 1.0]])
RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
# Rock-paper-scissors with a fourth column just under the first.
RPS_MINUS = np.column_stack([RPS, RPS[:, 0] - 1e-3])
VARIANTS = ("pssn-v1", "pssn-v2", "hpssn")


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
        {"max_fo_iters": 0},
        {"gap_check_period": 0},
        {"variant": ""},
        {"switch_gap_threshold": 0.0},
        {"target_gap": float("nan")},
        {"gamma": -1.0},
        {"max_fo_iters": -1},
        {"gap_check_period": -1},
        {"variant": "hpssn", "target_gap": -1e-12},
        {"variant": "hpssn", "target_gap": float("nan")},
        {"variant": "hpssn", "target_gap": float("inf")},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            HybridConfig(**kwargs)

    def test_hpssn_targets_ignore_the_switch_threshold(self):
        HybridConfig(variant="hpssn", target_gap=0.5)



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
        gamma = build_context(game).gamma
        bound = 10.0 * (1.0 + gamma * estimate_spectral_norm(game.payoff)) \
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
    def test_matches_v1_when_tuning_never_fires(self, monkeypatch):
        monkeypatch.setattr(hybrid, "THETA_UPDATE_PERIOD", 10 ** 9)
        game = uniform_game(3, n=30, m=30)
        base = dict(switch_gap_threshold=1e-1, gap_check_period=100)
        v1 = pssn_v1(game, HybridConfig(**base))
        v2 = pssn_v2(game, HybridConfig(**base))
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
        outcome = pssn_v2(game, HybridConfig(switch_gap_threshold=1e-1))
        assert outcome.status == STATUS_CONVERGED
        assert outcome.certificate.gap <= 1e-12
        entry = ssn_rows(outcome.trace)[0]
        assert 1e-15 <= entry.damping <= 1e15

    def test_tuning_changes_the_newton_entry_damping(self, monkeypatch):
        monkeypatch.setattr(hybrid, "THETA_UPDATE_PERIOD", 100)
        game = uniform_game(4, n=30, m=30)
        base = dict(switch_gap_threshold=1e-1)
        v1 = pssn_v1(game, HybridConfig(**base))
        v2 = pssn_v2(game, HybridConfig(**base))
        lam1 = ssn_rows(v1.trace)[0].damping
        lam2 = ssn_rows(v2.trace)[0].damping
        assert lam1 != lam2

    def test_a_failed_probe_counts_as_no_contraction(self, monkeypatch):
        game = uniform_game(4, n=30, m=30)
        base = dict(switch_gap_threshold=1e-1)
        switch = pssn_v1(game, HybridConfig(**base)).switch_iteration
        real = hybrid.newton_step
        probes = []

        def failing_once(ctx, state):
            probes.append(state.lam)
            if len(probes) == 1:
                raise LinearSolveError("injected")
            return real(ctx, state)

        monkeypatch.setattr(hybrid, "newton_step", failing_once)
        # One probe, at the switch round, so its damping enters Newton.
        monkeypatch.setattr(hybrid, "THETA_UPDATE_PERIOD", switch)
        v2 = pssn_v2(game, HybridConfig(**base))
        assert probes == [hybrid.LAMBDA0]
        assert v2.status == STATUS_CONVERGED
        assert v2.switch_iteration == switch
        # The damping of the psi < _ALPHA1 branch; here psi = 1e-3.
        no_contraction = hybrid.adaptive_lambda_update(1.0, 1e3,
                                                       hybrid.LAMBDA0)
        assert ssn_rows(v2.trace)[0].damping == no_contraction


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
        assert 1 <= outcome.newton_steps <= hybrid.HPSSN_PROBE_STEPS

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


def stalling_games():
    """Near-degenerate games whose Newton phase stalls one support swap
    away from an equilibrium: rock-paper-scissors with a fourth column
    close to the first, and a 30x30 game whose last row nearly repeats
    its first."""
    games = {f"rps{eps:+g}": np.column_stack([RPS, RPS[:, 0] + eps])
             for eps in (1e-9, -1e-9, 1e-6)}
    near_dup = philox(0).uniform(-1.0, 1.0, size=(30, 30))
    near_dup[-1] = near_dup[0] + 1e-9
    games["near-dup-rows"] = near_dup
    return games


def other_degenerate_games():
    """The rest of the degenerate families: exact and perturbed
    rock-paper-scissors, rank-1, integer, tall, 1xm and pure-saddle
    payoffs, drawn in the order the near-duplicate game starts."""
    games = {f"rps{eps:+g}": np.column_stack([RPS, RPS[:, 0] + eps])
             for eps in (0.0, 1e-3, -1e-3)}
    rng = philox(0)
    rng.uniform(-1.0, 1.0, size=(30, 30))  # the near-duplicate game
    games["rank-1"] = np.outer(rng.uniform(-1.0, 1.0, 20),
                               rng.uniform(-1.0, 1.0, 30))
    games["integer"] = rng.integers(-5, 6, size=(15, 15)).astype(float)
    games["tall-300x20"] = rng.uniform(-1.0, 1.0, size=(300, 20))
    games["one-by-25"] = rng.uniform(-1.0, 1.0, size=(1, 25))
    # Row 3 column 7 is a pure saddle: the row minimizes down column 7,
    # the column maximizes along row 3, both at value 0.
    saddle = rng.uniform(-1.0, 1.0, size=(20, 20))
    saddle[3, :] = rng.uniform(-1.0, 0.0, 20)
    saddle[:, 7] = rng.uniform(0.0, 1.0, 20)
    saddle[3, 7] = 0.0
    games["pure-saddle"] = saddle
    return games


class TestStalledNewtonRuns:
    @pytest.mark.parametrize("variant", ["pssn-v1", "pssn-v2", "hpssn"])
    @pytest.mark.parametrize("name", sorted(stalling_games()))
    def test_support_crossover_certifies_the_stall(self, name, variant):
        self.check_certified(stalling_games()[name], variant, None)

    @pytest.mark.parametrize("variant", ["pssn-v1", "pssn-v2", "hpssn"])
    @pytest.mark.parametrize("name", sorted(other_degenerate_games()))
    def test_other_degenerate_families_certify(self, name, variant):
        self.check_certified(other_degenerate_games()[name], variant, None)

    @pytest.mark.parametrize("variant", ["pssn-v1", "pssn-v2", "hpssn"])
    @pytest.mark.parametrize("gamma", [0.3, 0.5])
    def test_exchange_certifies_a_near_duplicate_stall(self, gamma, variant):
        # At gamma 0.5 the stall is 13x13 and holds both near-duplicate
        # rows, so only an exchange certifies; at 0.3 it is 14x13, and
        # dropping a row squares and certifies it.
        self.check_certified(stalling_games()["near-dup-rows"], variant,
                             gamma)

    @staticmethod
    def check_certified(payoff, variant, gamma):
        game = MatrixGame.from_payoff(payoff)
        outcome = run_hybrid(game, HybridConfig(variant=variant, gamma=gamma,
                                                max_fo_iters=10_000))
        gap = outcome.certificate.gap
        assert outcome.status == STATUS_CONVERGED
        assert outcome.trace[-1].gap == gap == duality_gap(
            game, outcome.profile).gap
        assert gap <= 1e-12
        value, width = lp_value(payoff)
        x, y = outcome.profile.x, outcome.profile.y
        slack = 8.0 * np.finfo(float).eps
        assert abs(float(x @ payoff @ y) - value) <= gap + width + slack


class TestCrossoverCorpus:
    """Degenerate games where the support crossover cannot finish the run
    the usual way, each checked against HiGHS."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(|S| - |T|, verdict) of every crossover call."""
        out = []
        crossover = ssn.basin_hop

        def recording(ctx, state, config):
            support = state.residual.p > ssn._SUPPORT_TOL
            excess = int(support[:ctx.game.n].sum()
                         - support[ctx.game.n:].sum())
            verdict = crossover(ctx, state, config)
            out.append((excess, verdict))
            return verdict

        monkeypatch.setattr(ssn, "basin_hop", recording)
        return out

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_duplicated_rows_leave_the_finish_to_newton(self, calls,
                                                         variant):
        # Each row appears twice, so any square block that keeps both
        # copies of a row is singular, and the iterates keep both copies
        # of every row they support.  Every call near square supports
        # fails, and the Newton tail itself certifies.
        half = philox(7).uniform(-1.0, 1.0, size=(3, 3))
        outcome = self.check_certified(np.vstack([half, half]), variant)
        assert any(abs(excess) <= 1 for excess, _ in calls)
        assert not any(verdict for _, verdict in calls)
        assert outcome.newton_steps >= 3

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_only_non_square_equilibria(self, calls, variant):
        # The rows 0 and 1 make x* = (1/3, 2/3, 0, 0) tie all three
        # columns, so the optimal y form a segment, which rows 2 and 3
        # cut at y_2 = 0.1 and 0.4: every equilibrium has supports 2x3.
        # The crossover finds one through a square block, rows 0, 1, 3,
        # whose equalizer puts no weight on row 3.
        payoff = np.array([[2.0, -1.0, 1.0], [-1.0, 0.5, -0.5],
                           [0.1, -0.5, 2.9], [1.6, 1.0, -1.6]])
        outcome = self.check_certified(payoff, variant)
        assert calls[-1][1] is True
        assert np.count_nonzero(outcome.profile.x) == 2
        assert np.count_nonzero(outcome.profile.y) == 3

    @staticmethod
    def check_certified(payoff, variant):
        outcome = run_hybrid(MatrixGame.from_payoff(payoff),
                             HybridConfig(variant=variant,
                                          max_fo_iters=10_000))
        gap = outcome.certificate.gap
        assert outcome.status == STATUS_CONVERGED and gap <= 1e-12
        value, width = lp_value(payoff)
        x, y = outcome.profile.x, outcome.profile.y
        slack = 8.0 * np.finfo(float).eps
        assert abs(float(x @ payoff @ y) - value) <= gap + width + slack
        return outcome


class TestTwoAddCrossover:
    """Runs the crossover finishes through a block two adds from the
    supports: a |e| = 2 pair or an e = 0 border."""

    @staticmethod
    def signature(outcome):
        return [(r.iteration, r.phase, r.gap, r.residual_norm, r.damping)
                for r in outcome.trace]

    @pytest.mark.parametrize("shape, key, excess", [((10, 12), 3, -2),
                                                    ((8, 8), 2, 0)])
    def test_a_run_is_its_one_add_run_cut_short(self, monkeypatch, shape,
                                                key, excess):
        game = random_game(philox(key), *shape)
        config = HybridConfig(variant="pssn-v1")
        calls = []
        crossover = ssn.basin_hop

        def recording(ctx, state, config):
            support = state.residual.p > ssn._SUPPORT_TOL
            verdict = crossover(ctx, state, config)
            calls.append((int(support[:ctx.game.n].sum()
                              - support[ctx.game.n:].sum()), verdict))
            return verdict

        monkeypatch.setattr(ssn, "basin_hop", recording)
        outcome = run_hybrid(game, config)
        assert calls[-1] == (excess, True)
        # The same run without the blocks that add two coordinates:
        # candidate rows that toggle two unsupported coordinates.
        candidates = ssn._candidates

        def one_add(support, order, n):
            pairs = candidates(support, order, n)
            adds = (pairs >= 0) & ~support[pairs]
            return pairs[~adds.all(axis=1)]

        monkeypatch.setattr(ssn, "_candidates", one_add)
        longer = run_hybrid(game, config)
        rows, before = self.signature(outcome), self.signature(longer)
        assert len(before) > len(rows)
        assert rows[:-1] == before[:len(rows) - 1]
        gap = outcome.certificate.gap
        assert outcome.status == STATUS_CONVERGED and gap <= 1e-12
        assert outcome.trace[-1].gap == gap
        assert outcome.certificate == duality_gap(game, outcome.profile)
        value, width = lp_value(game.payoff)
        x, y = outcome.profile.x, outcome.profile.y
        slack = 8.0 * np.finfo(float).eps
        assert abs(float(x @ game.payoff @ y) - value) <= gap + width + slack


class TestRpsPerturbations:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("eps", [0.0, 1e-9, -1e-9, 1e-6, 1e-3, -1e-3])
    def test_certify_soon_after_the_first_checkpoint(self, eps, variant):
        # All switch at round 100.  hpssn on column 0 - 1e-3 used to roll
        # back two probes that cut the residual 7.8x and 4.7x, and took
        # 2,421 iterations.
        payoff = np.column_stack([RPS, RPS[:, 0] + eps])
        outcome = run_hybrid(MatrixGame.from_payoff(payoff), HybridConfig(
            variant=variant, switch_gap_threshold=1e-1, max_fo_iters=10_000))
        assert outcome.status == STATUS_CONVERGED
        assert outcome.certificate.gap <= 1e-12
        assert outcome.iterations <= 110


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

    def test_budget_exhausted_runs_never_build_the_context(self, builds,
                                                            monkeypatch):
        game = uniform_game(0, n=20, m=20)
        config = HybridConfig(switch_gap_threshold=1e-6, target_gap=1e-8,
                              max_fo_iters=5, gap_check_period=1)
        traces = []
        for variant in ("pssn-v1", "hpssn"):
            outcome = run_hybrid(game, replace(config, variant=variant))
            assert outcome.status == STATUS_BUDGET
            assert outcome.switch_iteration is None
            traces.append(outcome.trace)
        # A pssn-v2 run that never probes builds nothing either; its rows
        # (timing aside) are those of the other variants.
        monkeypatch.setattr(hybrid, "THETA_UPDATE_PERIOD", 10 ** 9)
        tuned = run_hybrid(game, replace(config, variant="pssn-v2"))
        assert builds == []
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
        assert builds == [None]


class TestDefaultGamma:
    @pytest.mark.parametrize("variant", ["pssn-v1", "pssn-v2", "hpssn"])
    def test_none_is_the_resolved_gamma(self, monkeypatch, variant):
        monkeypatch.setattr(hybrid, "THETA_UPDATE_PERIOD", 100)
        game = uniform_game(0, n=20, m=20)
        base = HybridConfig(variant=variant, switch_gap_threshold=1e-1)
        explicit = replace(base, gamma=build_context(game).gamma)
        traces = [[(r.iteration, r.phase, r.gap, r.residual_norm, r.damping)
                   for r in run_hybrid(game, config).trace]
                  for config in (base, explicit)]
        assert any(row[1] == PHASE_SSN for row in traces[0])
        assert traces[0] == traces[1]


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


def golden_runs():
    """Nine hybrid runs: each variant on a 30x40 uniform game and on the
    RPS - 1e-3 game; pssn-v1 on RPS + 1e-9 and hpssn on the
    near-duplicate game at gamma 0.3, which stalled before the crossover
    ran at every step; all these finish by the support crossover within
    two steps.  Last, pssn-v1 on a game with duplicated rows, where every
    crossover call fails and eight Newton steps certify."""
    games = {"uniform-30x40": uniform_game(0, n=30, m=40),
             "rps-1e-3": MatrixGame.from_payoff(RPS_MINUS)}
    configs = {"pssn-v1": HybridConfig(),
               "pssn-v2": HybridConfig(variant="pssn-v2"),
               "hpssn": HybridConfig(variant="hpssn")}
    runs = {f"{g}/{c}": (games[g], configs[c]) for g in games for c in configs}
    stalling = stalling_games()
    runs["rps+1e-09/pssn-v1"] = (MatrixGame.from_payoff(stalling["rps+1e-09"]),
                                 configs["pssn-v1"])
    runs["near-dup-rows-gamma-0.3/hpssn"] = (
        MatrixGame.from_payoff(stalling["near-dup-rows"]),
        HybridConfig(variant="hpssn", gamma=0.3))
    half = philox(7).uniform(-1.0, 1.0, size=(3, 3))
    runs["dup-rows-6x3/pssn-v1"] = (
        MatrixGame.from_payoff(np.vstack([half, half])), configs["pssn-v1"])
    return runs


def golden_record(outcome):
    """Everything a golden run pins except timing and ``iterations``."""
    profile = outcome.profile
    return {
        "status": outcome.status,
        "switch_iteration": outcome.switch_iteration,
        "newton_steps": outcome.newton_steps,
        "profile_sha256": hashlib.sha256(
            profile.x.tobytes() + profile.y.tobytes()).hexdigest(),
        "rows": [f"{r.iteration} {r.phase} {r.gap.hex()} "
                 f"{r.residual_norm.hex()} {r.damping.hex()}"
                 for r in outcome.trace],
    }


# Recorded with numpy's OpenBLAS at one thread (as conftest pins it),
# once the crossover ran before every line search, after checking each
# run's certificate and its value against HiGHS.
with open(os.path.join(os.path.dirname(__file__),
                       "golden_hybrid_runs.json"), encoding="ascii") as _fh:
    GOLDEN = json.load(_fh)


class TestGoldenRuns:
    @pytest.mark.parametrize("name", sorted(golden_runs()))
    def test_run_reproduces_its_recorded_bits(self, monkeypatch, name):
        # The pssn-v2 runs were recorded with a damping probe every 100
        # rounds; no other variant probes.
        monkeypatch.setattr(hybrid, "THETA_UPDATE_PERIOD", 100)
        game, config = golden_runs()[name]
        assert golden_record(run_hybrid(game, config)) == GOLDEN[name]


def stalled_newton(monkeypatch, park=False):
    """Make every Newton episode trace its entry row and report a stall;
    with ``park`` the state first moves to the lifted uniform profile, so
    every episode ends at the same gap."""
    def fake(ctx, state, config, max_steps=None, rows=None,
             clock_start=None, start_iteration=0):
        if park:
            state.z = lift(ctx, StrategyProfile.uniform(ctx.game.n,
                                                        ctx.game.m))
            state.residual = residual(ctx, state.z)
        steps, cert, _ = drive_newton(ctx, state, config, 0, rows,
                                      clock_start, start_iteration)
        return steps, cert, FLAG_STALLED

    monkeypatch.setattr(hybrid, "drive_newton", fake)


def assert_best_certified(game, outcome):
    """The profile is the run's best: its fresh gap is the trace minimum."""
    gap = outcome.certificate.gap
    assert gap == duality_gap(game, outcome.profile).gap
    assert gap == min(row.gap for row in outcome.trace)


def budget_case(variant):
    """A first-order budget too short to reach a 1e-9 switch on RPS_MINUS.
    hpssn, which ignores the switch and certifies RPS_MINUS at its first
    probe, runs on a 100x100 normal game instead, where both of its
    probes are rolled back."""
    config = HybridConfig(variant=variant, switch_gap_threshold=1e-9,
                          max_fo_iters=250)
    if variant == "hpssn":
        return random_game(philox(1), 100, 100, "normal"), config
    return MatrixGame.from_payoff(RPS_MINUS), config


class TestStalledExits:
    @pytest.mark.parametrize("variant", ["pssn-v1", "pssn-v2"])
    def test_switch_variants_end_after_their_one_episode(self, monkeypatch,
                                                         variant):
        stalled_newton(monkeypatch)
        game = uniform_game(0, n=30, m=40)
        outcome = run_hybrid(game, HybridConfig(variant=variant))
        assert outcome.status == STATUS_SSN_STALLED
        phases = [row.phase for row in outcome.trace]
        assert phases[-1] == PHASE_SSN and phases.count(PHASE_SSN) == 1
        assert outcome.switch_iteration == outcome.trace[-2].iteration > 0
        assert outcome.newton_steps == 0
        assert_best_certified(game, outcome)

    def test_hpssn_stalls_on_two_episodes_ending_at_one_gap(self,
                                                            monkeypatch):
        stalled_newton(monkeypatch, park=True)
        game = uniform_game(0, n=30, m=40)
        outcome = hpssn(game, HybridConfig(variant="hpssn"))
        assert outcome.status == STATUS_SSN_STALLED
        ssn = ssn_rows(outcome.trace)
        assert len(ssn) == 2 and ssn[0].gap == ssn[1].gap
        assert outcome.trace[-1] is ssn[1]
        # The best profile is the checkpoint that fired the second probe.
        assert outcome.certificate.gap == outcome.trace[-2].gap < ssn[0].gap
        assert_best_certified(game, outcome)


class TestOutcomeFields:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("exit_", ["converged", "budget", "stalled"])
    def test_iterations_is_the_last_row_iteration(self, monkeypatch, variant,
                                                  exit_):
        game = MatrixGame.from_payoff(RPS_MINUS)
        config = HybridConfig(variant=variant)
        if exit_ == "budget":
            game, config = budget_case(variant)
        elif exit_ == "stalled":
            stalled_newton(monkeypatch, park=True)
            game = uniform_game(0, n=30, m=40)
        outcome = run_hybrid(game, config)
        status = {"converged": STATUS_CONVERGED, "budget": STATUS_BUDGET,
                  "stalled": STATUS_SSN_STALLED}[exit_]
        assert outcome.status == status
        assert outcome.iterations == outcome.trace[-1].iteration

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_budget_exit_returns_the_best_checkpoint(self, variant):
        game, config = budget_case(variant)
        outcome = run_hybrid(game, config)
        assert outcome.status == STATUS_BUDGET
        # The last checkpoint is not the best one on this game.
        assert outcome.trace[-1].gap > outcome.certificate.gap
        assert_best_certified(game, outcome)
