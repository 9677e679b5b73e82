"""Structure verifiers: assumption reports, monotone value checks,
threshold extraction, switching curves, convexity and cost comparisons."""

import numpy as np
import pytest

from helpers import (
    QUAD_B1,
    QUAD_B2,
    QUAD_P1,
    QUAD_P2,
    random_tp2_stochastic,
)
from pomdpkit.apps import (
    build_machine_replacement,
    build_quickest_detection,
    build_transmission_scheduling,
)
from pomdpkit.errors import PreconditionFailed
from pomdpkit.model import PomdpModel, QuadraticCost
from pomdpkit.orders import (CopositiveMethod, OrderVerdict, Verdict,
                             copositive_order_full)
from pomdpkit.rng import make_rng, uniform_simplex
from pomdpkit.solver import solve_finite_horizon, evaluate_value
from pomdpkit.stopgrid import solve_stopping_grid
from pomdpkit.structural import (
    check_stop_set_convex,
    compare_mdp_costs,
    compare_pomdp_costs,
    extract_thresholds_2state,
    pomdp_assumption_report,
    probe_switching_curve,
    report_to_json,
    sample_mlr_pair,
    transmission_policy_check,
    verify_value_monotone,
)


class TestAssumptionReport:
    def test_machine_replacement_passes_core_conditions(self):
        m = build_machine_replacement(0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
                                      rho=0.9)
        rep = pomdp_assumption_report(m)
        # replacement cost constant, operating cost decreasing: (C), (S)
        assert rep["C"].status is Verdict.HOLDS
        assert rep["S"].status is Verdict.HOLDS
        assert rep["F1"].status is Verdict.HOLDS

    def test_constant_costs_submodular(self):
        m = PomdpModel(np.stack([np.eye(2)] * 2), np.full((2, 2, 2), 0.5),
                       np.full((2, 2), 1.5), 0.9)
        rep = pomdp_assumption_report(m)
        assert rep["S"].status is Verdict.HOLDS

    def test_random_violator_carries_witness(self):
        costs = np.array([[0.0, 0.0], [1.0, 5.0]])  # increasing in state
        m = PomdpModel(np.stack([np.eye(2)] * 2), np.full((2, 2, 2), 0.5),
                       costs, 0.9)
        rep = pomdp_assumption_report(m)
        assert rep["C"].status is Verdict.FAILS
        assert rep["C"].witness is not None

    def test_quadratic_stop_cost_condition(self):
        # variance-penalized stop cost is first-order decreasing for any
        # nonnegative weight when the level vector is a unit vector
        e1 = np.array([1.0, 0.0, 0.0])
        # the transformed variance-penalty cost has linear part 2a e1
        good = QuadraticCost(lin=4.0 * e1, h=e1, alpha=2.0)
        m = PomdpModel(np.stack([QUAD_P1] * 2), np.stack([QUAD_B1] * 2),
                       np.zeros((3, 2)), 0.9)
        rep = pomdp_assumption_report(m, stop_cost=good,
                                      continue_cost=np.zeros(3))
        assert rep["C"].status is Verdict.HOLDS
        bad = QuadraticCost(lin=np.array([0.0, 1.0, 3.0]),
                            h=np.array([0.0, 0.5, 1.0]), alpha=1.0)
        rep = pomdp_assumption_report(m, stop_cost=bad,
                                      continue_cost=np.zeros(3))
        assert rep["C"].status is Verdict.FAILS

    def test_f3_witness_names_the_failing_action_pair(self):
        # actions 1 and 2 share their kernels, so only the pair (2, 3) can
        # fail: action 3 drives the state down where action 2 drives it up
        up = np.array([[0.1, 0.9], [0.05, 0.95]])
        down = np.array([[0.95, 0.05], [0.9, 0.1]])
        B = np.array([[0.8, 0.2], [0.3, 0.7]])
        m = PomdpModel(np.stack([up, up, down]), np.stack([B] * 3),
                       np.zeros((2, 3)), 0.9)
        exact = CopositiveMethod.EXACT_2STATE
        rep = pomdp_assumption_report(m, copositive_method=exact)
        assert copositive_order_full(up, B, up, B, method=exact).status \
            is Verdict.HOLDS
        pair = copositive_order_full(up, B, down, B, method=exact)
        assert pair.status is Verdict.FAILS
        assert rep["F3"] == OrderVerdict(
            Verdict.FAILS, {"action_pair": (2, 3), **pair.witness})

    def test_report_json(self):
        m = build_machine_replacement(0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
                                      rho=0.9)
        doc = report_to_json(pomdp_assumption_report(m))
        assert '"status"' in doc


class TestVerifyValueMonotone:
    def test_solved_monotone_model_holds(self):
        m = PomdpModel(np.stack([QUAD_P1]), np.stack([QUAD_B1]),
                       np.array([[2.0], [1.0], [0.5]]), 0.8)
        res = solve_finite_horizon(m, 4)
        v = verify_value_monotone(lambda pi: res.value(pi), m, 2000, seed=0)
        assert v.status is Verdict.HOLDS

    def test_constant_value_holds(self):
        m = PomdpModel(np.stack([QUAD_P1]), np.stack([QUAD_B1]),
                       np.zeros((3, 1)), 0.8)
        v = verify_value_monotone(lambda pi: 1.0, m, 200, seed=1)
        assert v.status is Verdict.HOLDS

    def test_increasing_cost_violator_fails(self):
        m = PomdpModel(np.stack([QUAD_P1]), np.stack([QUAD_B1]),
                       np.array([[0.0], [1.0], [3.0]]), 0.8)
        res = solve_finite_horizon(m, 3)
        v = verify_value_monotone(lambda pi: res.value(pi), m, 2000, seed=2)
        assert v.status is Verdict.FAILS

    def test_sampler_produces_comparable_pairs(self):
        from pomdpkit.orders import Comparison, mlr_compare

        rng = make_rng(3)
        for _ in range(200):
            hi, lo = sample_mlr_pair(rng, int(rng.integers(2, 6)))
            assert mlr_compare(hi, lo) in (Comparison.GE, Comparison.EQ)


class TestExtractThresholds:
    def test_single_threshold_policy(self):
        scan = extract_thresholds_2state(
            lambda pi: 1 if pi[1] < 0.37 else 2, 1001)
        assert scan.monotone
        assert len(scan.thresholds) == 1
        assert scan.thresholds[0] == pytest.approx(0.37, abs=2e-3)

    def test_constant_policy_no_thresholds(self):
        scan = extract_thresholds_2state(lambda pi: 2, 501)
        assert scan.monotone and scan.thresholds == []

    def test_inversion_detected(self):
        scan = extract_thresholds_2state(
            lambda pi: 2 if 0.3 < pi[1] < 0.6 else 1, 501)
        assert not scan.monotone
        assert scan.inversion is not None


class TestSwitchingCurve:
    def _stopping_policy(self):
        sm = build_quickest_detection(
            [0.0, 0.5, 0.5], [[0.5, 0.2], [0.3, 0.6]], [0.3, 0.1],
            [[0.7, 0.2, 0.1], [0.15, 0.5, 0.35], [0.15, 0.5, 0.35]],
            d=2.5, beta=2.0, alpha=0.0, delay_kind="predicted", rho=0.9)
        sol = solve_stopping_grid(sm, 120, epsilon=1e-10)
        return lambda pi: sol.action(pi)

    def test_monotone_policy_passes_and_exports_curve(self):
        probe = probe_switching_curve(self._stopping_policy(), 3, 40, 60,
                                      seed=4)
        assert probe.verdict.status is Verdict.HOLDS
        assert len(probe.curve) > 0
        csv_text = probe.to_csv()
        assert csv_text.startswith("line,anchor,eps_star")

    def test_all_stop_policy(self):
        probe = probe_switching_curve(lambda pi: 1, 3, 10, 30, seed=5)
        assert probe.verdict.status is Verdict.HOLDS
        assert probe.curve == []

    def test_two_region_violator_fails(self):
        def bad(pi):
            return 1 if 0.2 < pi[2] < 0.5 else 2

        probe = probe_switching_curve(bad, 3, 30, 80, seed=6)
        assert probe.verdict.status is Verdict.FAILS


class TestStopSetConvex:
    def test_linear_stop_cost_convex(self):
        sm = build_quickest_detection(
            [0.0, 0.5, 0.5], [[0.5, 0.2], [0.3, 0.6]], [0.3, 0.1],
            [[0.7, 0.2, 0.1], [0.15, 0.5, 0.35], [0.15, 0.5, 0.35]],
            d=2.5, beta=2.0, alpha=0.0, delay_kind="predicted", rho=0.9)
        sol = solve_stopping_grid(sm, 120, epsilon=1e-10)
        v = check_stop_set_convex(lambda pi: sol.action(pi), 3, 500, seed=7)
        assert v.status is Verdict.HOLDS

    def test_empty_stop_set_vacuous(self):
        v = check_stop_set_convex(lambda pi: 2, 3, 100, seed=8)
        assert v.status is Verdict.HOLDS

    def test_nonconvex_set_fails(self):
        def bad(pi):
            return 1 if pi[2] < 0.2 or pi[2] > 0.8 else 2

        v = check_stop_set_convex(bad, 3, 500, seed=9)
        assert v.status is Verdict.FAILS


class TestCompareMdpCosts:
    def _pair(self, rng):
        X, U = 4, 2
        Ps, Pbars = [], []
        for _ in range(U):
            lv = np.cumsum(0.3 + rng.uniform(0, 0.8, X))
            Pb = random_tp2_stochastic(rng, X)
            shift = rng.uniform(0.05, 0.3)
            P = Pb * (1 - shift)
            P[:, -1] += shift
            Ps.append(P)
            Pbars.append(Pb)
        c = np.sort(rng.uniform(0, 2, (X, U)), axis=0)[::-1]
        tc = np.sort(rng.uniform(0, 1, X))[::-1]
        obs = np.stack([np.full((X, 2), 0.5)] * U)
        m1 = PomdpModel(np.stack(Ps), obs, c, 1.0, horizon=10,
                        terminal_cost=tc)
        m2 = PomdpModel(np.stack(Pbars), obs, c, 1.0, horizon=10,
                        terminal_cost=tc)
        return m1, m2

    def test_identical_models_equal(self):
        rng = make_rng(10)
        m1, m2 = self._pair(rng)
        assert compare_mdp_costs(m2, m2).status is Verdict.HOLDS

    def test_shifted_mass_strictly_cheaper(self):
        rng = make_rng(11)
        for _ in range(10):
            m1, m2 = self._pair(rng)
            assert compare_mdp_costs(m1, m2).status is Verdict.HOLDS

    def test_precondition_gate(self):
        rng = make_rng(12)
        m1, m2 = self._pair(rng)
        with pytest.raises(PreconditionFailed):
            compare_mdp_costs(m2, m1)  # dominance direction reversed


class TestComparePomdpCosts:
    def test_blackwell_ordered_observations(self):
        rng = make_rng(13)
        X = 2
        P = random_tp2_stochastic(rng, X)
        kernels = [random_tp2_stochastic(rng, X, 3) for _ in range(2)]
        R = rng.dirichlet(np.ones(2), size=3)
        garbled = [K @ R for K in kernels]
        c = np.sort(rng.uniform(0, 2, (X, 2)), axis=0)[::-1]
        good = PomdpModel(np.stack([P, P]), np.stack(kernels), c, 1.0,
                          horizon=5)
        bad = PomdpModel(np.stack([P, P]), np.stack(garbled), c, 1.0,
                         horizon=5)
        v = compare_pomdp_costs(good, bad, kind="observation",
                                n_beliefs=300, seed=3)
        assert v.status is Verdict.HOLDS

    def test_identical_models_equal(self):
        rng = make_rng(14)
        P = random_tp2_stochastic(rng, 2)
        B = random_tp2_stochastic(rng, 2, 3)
        c = np.sort(rng.uniform(0, 2, (2, 1)), axis=0)[::-1]
        m = PomdpModel(P[None], B[None], c, 1.0, horizon=5)
        v = compare_pomdp_costs(m, m, kind="observation", n_beliefs=100,
                                seed=4)
        assert v.status is Verdict.HOLDS

    def test_all_mass_to_best_state_is_cheapest(self):
        rng = make_rng(15)
        X = 2
        jump = np.zeros((X, X))
        jump[:, -1] = 1.0
        P = random_tp2_stochastic(rng, X)
        B = random_tp2_stochastic(rng, X, 3)
        c = np.sort(rng.uniform(0.2, 2, (X, 1)), axis=0)[::-1]
        best = PomdpModel(jump[None], B[None], c, 1.0, horizon=5)
        other = PomdpModel(P[None], B[None], c, 1.0, horizon=5)
        v = compare_pomdp_costs(best, other, kind="transition",
                                n_beliefs=300, seed=5)
        assert v.status is Verdict.HOLDS


class TestTransmissionScheduling:
    def _mdp(self, c_N=lambda i: float(i)):
        return build_transmission_scheduling(
            K=2, L=4, N=8, P_channel=[[0.8, 0.2], [0.3, 0.7]],
            err_prob=[0.6, 0.2], c_action=[0.0, 0.4], c_N=c_N)

    def test_linear_terminal_cost_monotone(self):
        rep = transmission_policy_check(self._mdp())
        assert rep["decreasing_in_n"].status is Verdict.HOLDS
        assert rep["threshold_in_buffer"].status is Verdict.HOLDS
        assert rep["threshold_increasing_in_n"].status is Verdict.HOLDS

    def test_value_decreasing_in_remaining_time(self):
        values, _ = self._mdp().solve()
        for n in range(len(values) - 1):
            assert (values[n + 1] <= values[n] + 1e-9).all()

    def test_single_packet_trivially_monotone(self):
        mdp = build_transmission_scheduling(
            K=2, L=1, N=4, P_channel=[[0.8, 0.2], [0.3, 0.7]],
            err_prob=[0.6, 0.2], c_action=[0.0, 0.4],
            c_N=lambda i: float(i))
        rep = transmission_policy_check(mdp)
        assert rep["threshold_in_buffer"].status is Verdict.HOLDS

    def test_concave_terminal_cost_reported_not_asserted(self):
        mdp = self._mdp(c_N=lambda i: float(np.sqrt(i)))
        rep = transmission_policy_check(mdp)
        assert rep["convex_terminal"].status is Verdict.FAILS
        assert "threshold_in_buffer" in rep
