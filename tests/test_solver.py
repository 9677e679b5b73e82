"""Vector-set machinery: cross-sums, pruning, backups, solvers, bounds
and the grid oracle, with independent oracles for each."""

import numpy as np
import pytest

from helpers import random_tp2_stochastic
from pomdpkit.apps import build_machine_replacement, build_quickest_detection
from pomdpkit.errors import Blowup, PreconditionFailed
from pomdpkit.filters import hmm_filter_step, normalizer_vector
from pomdpkit.grid import barycentric_weights, segment_weights
from pomdpkit.model import PomdpModel
from pomdpkit.rng import make_rng, uniform_simplex
from pomdpkit.solver import (
    SolveResult,
    bellman_backup_step,
    cross_sum,
    evaluate_value,
    grid_value_oracle,
    incremental_pruning_step,
    lovejoy_bounds,
    lp_prune,
    monahan_step,
    policy_evaluation,
    solve_finite_horizon,
    sup_difference,
    value_iteration_discounted,
    vector_set,
)
from pomdpkit.stopgrid import solve_stopping_grid


def replacement(rho=1.0, horizon=None):
    return build_machine_replacement(0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
                                     rho=rho, horizon=horizon)


def brute_force_value(model, pi, k):
    """Direct Bellman recursion, fully enumerated."""
    if k == 0:
        return float(model.terminal_vector() @ pi)
    best = np.inf
    for u in range(1, model.num_actions + 1):
        q = float(model.cost_vector(u) @ pi)
        sig = normalizer_vector(pi, u, model)
        for y in range(1, model.num_obs + 1):
            if sig[y - 1] <= 0:
                continue
            post = hmm_filter_step(pi, y, u, model).posterior
            q += model.discount * sig[y - 1] * brute_force_value(
                model, post, k - 1)
        best = min(best, q)
    return best


class TestEvaluateAndCrossSum:
    def test_envelope_minimum(self):
        vs = vector_set([[1.0, 0.0], [0.0, 1.0]], [1, 2])
        value, vec, action = evaluate_value(vs, [0.5, 0.5])
        assert value == pytest.approx(0.5)

    def test_singleton(self):
        vs = vector_set([[2.0, 3.0]], [2])
        value, vec, action = evaluate_value(vs, [0.25, 0.75])
        assert value == pytest.approx(2.75)
        assert action == 2

    def test_tie_breaks_to_lowest_action(self):
        vs = vector_set([[1.0, 1.0], [1.0, 1.0 + 1e-15]], [2, 1])
        _, _, action = evaluate_value(vs, [0.5, 0.5])
        assert action == 1

    def test_matches_independent_scan(self):
        rng = make_rng(0)
        for _ in range(50):
            V = rng.normal(size=(8, 3))
            vs = vector_set(V, rng.integers(1, 4, size=8))
            pi = uniform_simplex(rng, 1, 3)[0]
            value, _, _ = evaluate_value(vs, pi)
            assert value == pytest.approx(min(float(v @ pi)
                                              for v in vs.vectors))

    def test_cross_sum_counts_and_commutes(self):
        A = vector_set([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]], [1, 1, 1])
        B = vector_set([[0.5, 0.5], [1.0, 2.0]], [1, 1])
        S = cross_sum(A, B)
        assert len(S) == 6
        S2 = cross_sum(B, A)
        rng = make_rng(1)
        for pi in uniform_simplex(rng, 20, 2):
            assert evaluate_value(S, pi)[0] == pytest.approx(
                evaluate_value(S2, pi)[0])


class TestLpPrune:
    def test_elementwise_dominated_dropped(self):
        vs = vector_set([[1.0, 1.0], [2.0, 2.0]], [1, 1])
        kept = lp_prune(vs)
        assert len(kept) == 1
        assert np.allclose(kept.vectors[0], [1.0, 1.0])

    def test_never_active_middle_line_pruned(self):
        # envelope of 4 lines plus a fifth above it everywhere
        vs = vector_set([[0.0, 4.0], [1.0, 2.5], [3.0, 1.0], [4.5, 0.0],
                         [3.0, 3.0]], [1, 2, 1, 2, 1])
        kept = lp_prune(vs)
        assert len(kept) == 4
        assert not any(np.allclose(v, [3.0, 3.0]) for v in kept.vectors)

    def test_pointwise_value_preserved(self):
        rng = make_rng(2)
        for _ in range(20):
            V = rng.normal(size=(10, 3))
            vs = vector_set(V, np.ones(10, dtype=int))
            kept = lp_prune(vs)
            for pi in uniform_simplex(rng, 50, 3):
                assert evaluate_value(kept, pi)[0] == pytest.approx(
                    evaluate_value(vs, pi)[0], abs=1e-9)


class TestBackups:
    def test_noninformative_single_action(self):
        # U = Y = 1: backup is the affine map c + rho P gamma
        P = np.array([[0.7, 0.3], [0.4, 0.6]])
        m = PomdpModel(P[None], np.ones((1, 2, 1)),
                       np.array([[1.0], [2.0]]), 0.5)
        start = vector_set([[3.0, 4.0]], [1], stage=1)
        out = bellman_backup_step(start, m)
        assert len(out) == 1
        expect = m.costs[:, 0] + 0.5 * P @ np.array([3.0, 4.0])
        assert np.allclose(out.vectors[0], expect)

    def test_stage1_replacement_envelope(self):
        """One backup from the zero terminal set gives
        min(replacement cost, operating cost)."""
        m = replacement(horizon=3)
        g1 = bellman_backup_step(
            vector_set(np.zeros((1, 2)), [1], stage=1), m)
        rng = make_rng(3)
        for pi in uniform_simplex(rng, 40, 2):
            v = evaluate_value(g1, pi)[0]
            assert v == pytest.approx(min(0.5, float(pi @ [1.0, 0.0])))

    def test_monahan_counts_enumeration(self):
        m = replacement(horizon=3)
        start = vector_set([[0.0, 0.0], [0.3, 0.1], [0.5, 0.2]],
                           [1, 1, 1], stage=1)
        _, count = monahan_step(start, m, return_enumeration_size=True)
        assert count == 2 * 3 ** 2  # U * |Gamma|^Y

    def test_methods_agree_pointwise(self):
        m = replacement(horizon=4)
        cur_ip = vector_set(np.zeros((1, 2)), [1], stage=4)
        cur_mo = cur_ip
        rng = make_rng(4)
        pis = uniform_simplex(rng, 200, 2)
        for _ in range(4):
            cur_ip = incremental_pruning_step(cur_ip, m)
            cur_mo = monahan_step(cur_mo, m)
            for pi in pis[:50]:
                assert evaluate_value(cur_ip, pi)[0] == pytest.approx(
                    evaluate_value(cur_mo, pi)[0], abs=1e-9)

    def test_budget_blowup(self):
        rng = make_rng(5)
        P = np.stack([random_tp2_stochastic(rng, 3) for _ in range(3)])
        B = np.stack([random_tp2_stochastic(rng, 3) for _ in range(3)])
        m = PomdpModel(P, B, rng.uniform(size=(3, 3)), 0.95)
        start = vector_set(rng.normal(size=(4, 3)),
                           np.ones(4, dtype=int), stage=1)
        with pytest.raises(Blowup):
            monahan_step(start, m, budget=10)  # 3 * 4^3 raw vectors


class TestFiniteHorizon:
    def test_horizon_zero_terminal(self):
        m = build_machine_replacement(0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
                                      rho=1.0, horizon=4)
        res = solve_finite_horizon(m, 0)
        assert res.value([0.2, 0.8]) == pytest.approx(0.0)

    def test_against_brute_force(self):
        m = replacement(horizon=4)
        res = solve_finite_horizon(m, 4)
        rng = make_rng(6)
        for pi in uniform_simplex(rng, 10, 2):
            assert res.value(pi) == pytest.approx(
                brute_force_value(m, pi, 4), abs=1e-9)

    def test_zero_costs_zero_sets(self):
        m = PomdpModel(np.stack([np.eye(2)]), np.full((1, 2, 2), 0.5),
                       np.zeros((2, 1)), 1.0, horizon=5)
        res = solve_finite_horizon(m, 5)
        assert all(np.allclose(s.vectors, 0.0) for s in res.stage_sets)

    def test_concavity_of_produced_sets(self):
        m = replacement(horizon=6)
        res = solve_finite_horizon(m, 6)
        rng = make_rng(7)
        for _ in range(200):
            p1 = uniform_simplex(rng, 1, 2)[0]
            p2 = uniform_simplex(rng, 1, 2)[0]
            lam = rng.uniform()
            mid = lam * p1 + (1 - lam) * p2
            v_mid = evaluate_value(res.final, mid)[0]
            blend = lam * evaluate_value(res.final, p1)[0] \
                + (1 - lam) * evaluate_value(res.final, p2)[0]
            assert v_mid >= blend - 1e-9

    def test_serialization_round_trip(self):
        m = replacement(horizon=3)
        res = solve_finite_horizon(m, 3)
        back = SolveResult.from_json(res.to_json())
        rng = make_rng(8)
        for pi in uniform_simplex(rng, 20, 2):
            assert back.value(pi) == pytest.approx(res.value(pi))
            assert back.action(pi) == res.action(pi)


class TestDiscounted:
    def test_zero_costs_converge_immediately(self):
        m = PomdpModel(np.stack([np.eye(2)]), np.full((1, 2, 2), 0.5),
                       np.zeros((2, 1)), 0.9)
        res = value_iteration_discounted(m, 1e-8)
        assert res.final.stage == 1
        assert res.value([0.4, 0.6]) == pytest.approx(0.0)

    def test_geometric_error_bound(self):
        m = replacement(rho=0.9)
        ref = value_iteration_discounted(m, 1e-10)
        maxc = np.abs(np.asarray(m.costs)).max()
        for N in (5, 10, 20):
            cur = vector_set(np.zeros((1, 2)), [1])
            for _ in range(N):
                cur = bellman_backup_step(cur, m)
            measured = sup_difference(cur, ref.final)
            assert measured <= 0.9 ** (N + 1) * maxc / (1 - 0.9) + 1e-9

    def test_fixed_point_stability(self):
        m = replacement(rho=0.9)
        res = value_iteration_discounted(m, 1e-8)
        extra = bellman_backup_step(res.final, m)
        assert sup_difference(extra, res.final) <= 1e-6

    def test_iteration_cap_is_not_a_vector_blowup(self):
        with pytest.raises(PreconditionFailed):
            value_iteration_discounted(replacement(rho=0.9), 1e-6,
                                       max_iterations=1)


class TestPolicyEvaluation:
    def test_optimal_greedy_recovers_value(self):
        m = replacement(rho=0.9)
        res = value_iteration_discounted(m, 1e-7)
        pe = policy_evaluation(m, res.policy(), 1e-8, resolution=2000)
        rng = make_rng(9)
        for pi in uniform_simplex(rng, 100, 2):
            assert pe.value(pi) == pytest.approx(res.value(pi), abs=2e-4)

    def test_constant_action_zero_cost(self):
        m = PomdpModel(np.stack([np.eye(2)] * 2), np.full((2, 2, 2), 0.5),
                       np.zeros((2, 2)), 0.9)
        pe = policy_evaluation(m, lambda pi: 2, 1e-10, resolution=50)
        assert np.allclose(pe.values, 0.0)

    def test_suboptimal_policy_dominates_optimum(self):
        m = replacement(rho=0.9)
        res = value_iteration_discounted(m, 1e-7)
        pe = policy_evaluation(m, lambda pi: 2, 1e-8, resolution=2000)
        rng = make_rng(10)
        for pi in uniform_simplex(rng, 100, 2):
            assert pe.value(pi) >= res.value(pi) - 1e-6

    def test_against_monte_carlo(self):
        from pomdpkit.filters import simulate_trajectory

        m = replacement(rho=0.8)
        policy = lambda pi: 1 if pi[1] < 0.6 else 2  # noqa: E731
        pe = policy_evaluation(m, policy, 1e-9, resolution=3000)
        pi0 = np.array([0.5, 0.5])
        costs = [simulate_trajectory(m, policy, 80, seed=s,
                                     pi0=pi0).discounted_cost
                 for s in range(3000)]
        mc = np.mean(costs)
        se = np.std(costs) / np.sqrt(len(costs))
        assert abs(pe.value(pi0) - mc) < 3 * se + 1e-3


class TestLovejoy:
    def test_exact_when_budget_exceeds_sets(self):
        m = replacement(horizon=5)
        exact = solve_finite_horizon(m, 5)
        lb = lovejoy_bounds(m, 200, horizon=5)
        rng = make_rng(11)
        for pi in uniform_simplex(rng, 50, 2):
            assert lb.upper_value(pi) == pytest.approx(
                evaluate_value(exact.final, pi)[0], abs=1e-9)

    def test_single_point_upper_is_hyperplane(self):
        m = replacement(horizon=4)
        exact = solve_finite_horizon(m, 4)
        lb = lovejoy_bounds(m, 1, horizon=4)
        assert all(len(s) == 1 for s in lb.upper_sets[1:])
        rng = make_rng(12)
        for pi in uniform_simplex(rng, 50, 2):
            assert lb.upper_value(pi) >= \
                evaluate_value(exact.final, pi)[0] - 1e-9

    def test_sandwich_at_coarse_budget(self):
        m = replacement(horizon=6)
        exact = solve_finite_horizon(m, 6)
        lb = lovejoy_bounds(m, 5, horizon=6)
        rng = make_rng(13)
        for pi in uniform_simplex(rng, 1000, 2):
            v = evaluate_value(exact.final, pi)[0]
            assert lb.lower_value(pi) <= v + 1e-9
            assert v <= lb.upper_value(pi) + 1e-9


class TestGridOracle:
    def test_iteration_cap_raises(self):
        sm = build_quickest_detection(
            [0.0, 1.0], [[0.9]], [0.1], [[0.7, 0.3], [0.2, 0.8]],
            d=0.05, beta=1.0, delay_kind="classical")
        with pytest.raises(PreconditionFailed):
            solve_stopping_grid(sm, 200, epsilon=1e-10, max_iterations=1)

    def test_zero_cost_zero_table(self):
        m = PomdpModel(np.stack([np.eye(2)]), np.full((1, 2, 2), 0.5),
                       np.zeros((2, 1)), 1.0, horizon=3)
        g = grid_value_oracle(m, 50, horizon=3)
        assert np.allclose(g.values, 0.0)

    def test_horizon_zero_is_terminal(self):
        m = PomdpModel(np.stack([np.eye(2)]), np.full((1, 2, 2), 0.5),
                       np.zeros((2, 1)), 1.0, horizon=3,
                       terminal_cost=[2.0, 5.0])
        g = grid_value_oracle(m, 10, horizon=0)
        assert np.allclose(g.values, g.points @ np.array([2.0, 5.0]))

    def test_resolution_refinement_converges(self):
        m = build_machine_replacement(0.37, 0.83, 0.77, 0.45,
                                      [1.1, 0.1], rho=1.0, horizon=5)
        exact = solve_finite_horizon(m, 5)
        rng = make_rng(14)
        pis = uniform_simplex(rng, 100, 2)
        errs = []
        for res in (37, 203, 1013):
            g = grid_value_oracle(m, res, horizon=5)
            errs.append(max(abs(g.value(p)
                                - evaluate_value(exact.final, p)[0])
                            for p in pis))
        assert errs[1] <= errs[0] and errs[2] <= errs[1]
        assert errs[2] < 1e-4


class TestSegmentWeights:
    @pytest.mark.parametrize("resolution", [1, 2, 7, 200])
    def test_matches_np_interp(self, resolution):
        nodes = np.arange(resolution + 1) / resolution
        t = np.concatenate([[0.0, 1.0], nodes, make_rng(21).random(500)])
        idx, w = segment_weights(t, resolution)
        assert idx.shape == w.shape == (len(t), 2)
        assert (w >= 0).all()
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        table = np.sin(7 * nodes) + nodes ** 2
        assert np.allclose((table[idx] * w).sum(axis=1),
                           np.interp(t, nodes, table), rtol=0, atol=1e-12)
        # endpoints weigh one node only
        assert idx[:2].tolist() == [[0, 1], [resolution - 1, resolution]]
        assert w[:2].tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_is_the_two_state_barycentric_branch(self):
        t = np.concatenate([[0.0, 1.0, -0.5, 1.5], make_rng(22).random(300)])
        for resolution in (1, 3, 60):
            idx, w = barycentric_weights(np.column_stack([t, 1 - t]),
                                         resolution)
            seg_idx, seg_w = segment_weights(t, resolution)
            assert np.array_equal(idx, seg_idx)
            assert np.array_equal(w, seg_w)
        # t outside [0, 1] is clipped to the end nodes
        assert np.array_equal(seg_w[2:4], [[1.0, 0.0], [0.0, 1.0]])
