"""Structure verifiers: assumption reports, monotone value checks,
threshold extraction, switching curves, convexity and cost comparisons."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    QUAD_B1,
    QUAD_B2,
    QUAD_P1,
    QUAD_P2,
    count_calls,
    random_tp2_stochastic,
)
from pomdpkit import structural
from pomdpkit.apps import build_machine_replacement, build_quickest_detection
from pomdpkit.cli import _report_json
from pomdpkit.errors import DimensionMismatch, PreconditionFailed
from pomdpkit.model import PomdpModel, QuadraticCost, StoppingModel
from pomdpkit.orders import OrderVerdict, Verdict, copositive_order_full
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
    sample_mlr_pair,
    verify_value_monotone,
)


def stopping_model(stop_cost, continue_cost) -> StoppingModel:
    return StoppingModel(QUAD_P1, QUAD_B1, stop_cost, continue_cost, 0.9)


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
        rep = pomdp_assumption_report(stopping_model(good, np.zeros(3)))
        assert rep["C"].status is Verdict.HOLDS
        bad = QuadraticCost(lin=np.array([0.0, 1.0, 3.0]),
                            h=np.array([0.0, 0.5, 1.0]), alpha=1.0)
        rep = pomdp_assumption_report(stopping_model(bad, np.zeros(3)))
        assert rep["C"].status is Verdict.FAILS

    def test_quadratic_cost_with_non_monotone_level_fails(self):
        # cost 0, -1, 0 at e1, e2, e3: h' pi reaches 1 at e2, where moving
        # mass from state 2 to 3 raises the cost at rate 2
        cost = QuadraticCost(lin=np.zeros(3), h=np.array([0.0, 1.0, 0.0]),
                             alpha=1.0)
        rep = pomdp_assumption_report(stopping_model(cost, np.zeros(3)))
        assert rep["C"] == OrderVerdict(Verdict.FAILS,
                                        {"state": 2, "gap": -2.0})

    def test_increasing_linear_stop_cost_fails(self):
        rep = pomdp_assumption_report(
            stopping_model(np.array([0.0, 1.0, 1.0]), np.zeros(3)))
        assert rep["C"] == OrderVerdict(Verdict.FAILS,
                                        {"state": 1, "gap": -1.0})

    def test_increasing_continue_cost_fails(self):
        rep = pomdp_assumption_report(
            stopping_model(np.zeros(3), np.array([0.0, 0.0, 2.0])))
        assert rep["C"] == OrderVerdict(Verdict.FAILS,
                                        {"state": 2, "gap": -2.0})

    def test_stopping_model_reads_as_two_actions(self):
        # the report of a stopping model is that of the 2-action POMDP
        # sharing its kernels, with its own belief costs for (C) and (S)
        stop, cont = np.array([1.0, 0.5, 0.5]), np.array([2.0, 1.0, 0.0])
        rep = pomdp_assumption_report(stopping_model(stop, cont))
        pm = PomdpModel(np.stack([QUAD_P1] * 2), np.stack([QUAD_B1] * 2),
                        np.column_stack([stop, cont]), 0.9)
        assert rep == pomdp_assumption_report(pm)

    def test_failing_s_reads_as_two_actions(self):
        # one (S) check for both model kinds, so a failure carries one
        # witness: delta = cont - stop rises from -1 at e1 to 0.5 at e3
        stop, cont = np.array([2.0, 1.0, 0.0]), np.array([1.0, 0.5, 0.5])
        rep = pomdp_assumption_report(stopping_model(stop, cont))
        pm = PomdpModel(np.stack([QUAD_P1] * 2), np.stack([QUAD_B1] * 2),
                        np.column_stack([stop, cont]), 0.9)
        assert rep["S"] == OrderVerdict(
            Verdict.FAILS, {"line": "e_X", "vertex": 1, "value": 1.5})
        assert rep == pomdp_assumption_report(pm)

    def test_f3_witness_names_the_failing_action_pair(self):
        # actions 1 and 2 share their kernels, so only the pair (2, 3) can
        # fail: action 3 drives the state down where action 2 drives it up
        up = np.array([[0.1, 0.9], [0.05, 0.95]])
        down = np.array([[0.95, 0.05], [0.9, 0.1]])
        B = np.array([[0.8, 0.2], [0.3, 0.7]])
        m = PomdpModel(np.stack([up, up, down]), np.stack([B] * 3),
                       np.zeros((2, 3)), 0.9)
        rep = pomdp_assumption_report(m)
        assert copositive_order_full(up, B, up, B).status is Verdict.HOLDS
        pair = copositive_order_full(up, B, down, B)
        assert pair.status is Verdict.FAILS
        assert pair.witness["value"] < 0
        assert rep["F3"] == OrderVerdict(
            Verdict.FAILS, {"action_pair": (2, 3), **pair.witness})

    def test_report_json(self):
        m = build_machine_replacement(0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
                                      rho=0.9)
        doc = _report_json(pomdp_assumption_report(m))
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

    def test_model_without_horizon_raises(self):
        m1, m2 = self._pair(make_rng(10))
        m1 = PomdpModel(m1.transitions, m1.observations, m1.costs, 0.9)
        with pytest.raises(DimensionMismatch, match="needs a horizon"):
            compare_mdp_costs(m1, m2)


def blackwell_pair(seed: int) -> tuple:
    """Two 2-state models whose second kernels garble the first's."""
    rng = make_rng(seed)
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
    return good, bad


def single_action_model(seed: int) -> PomdpModel:
    """A 2-state, 1-action model with a 3-symbol TP2 kernel."""
    rng = make_rng(seed)
    P = random_tp2_stochastic(rng, 2)
    B = random_tp2_stochastic(rng, 2, 3)
    c = np.sort(rng.uniform(0, 2, (2, 1)), axis=0)[::-1]
    return PomdpModel(P[None], B[None], c, 1.0, horizon=5)


def exact_cost(model: PomdpModel, belief) -> Fraction:
    """The optimal cost over ``model.horizon`` stages at
    ``belief / sum(belief)`` in rationals on the float gradient vectors."""
    q = [Fraction(p) for p in belief]
    final = solve_finite_horizon(model, model.horizon).final
    return min(sum(p * Fraction(v) for p, v in zip(q, g.tolist()))
               for g in final.vectors) / sum(q)


class TestComparePomdpCosts:
    def test_blackwell_ordered_observations(self):
        good, bad = blackwell_pair(13)
        v = compare_pomdp_costs(good, bad, kind="observation")
        assert v.status is Verdict.HOLDS

    def test_identical_models_equal(self):
        m = single_action_model(14)
        v = compare_pomdp_costs(m, m, kind="observation")
        assert v.status is Verdict.HOLDS

    def test_failure_carries_an_exact_witness(self, monkeypatch):
        # J1 - J2 = 0 everywhere, which exceeds a negative tolerance
        monkeypatch.setattr(structural, "COMPARE_TOL", -1e-3)
        m = single_action_model(14)
        v = compare_pomdp_costs(m, m, kind="observation")
        assert v.status is Verdict.FAILS
        # the reported costs are the rational ones at the belief
        J = float(exact_cost(m, v.witness["belief"]))
        assert v.witness["J1"] == v.witness["J2"] == J

    def test_witness_attains_the_largest_gap(self, monkeypatch):
        # below any gap, so the witness is where J1 - J2 is largest; on
        # this pair J1 - J2 runs from about -0.086 to -0.014
        monkeypatch.setattr(structural, "COMPARE_TOL", -10.0)
        good, bad = blackwell_pair(29)
        v = compare_pomdp_costs(good, bad, kind="observation")
        assert v.status is Verdict.FAILS
        belief = v.witness["belief"]
        gap = exact_cost(good, belief) - exact_cost(bad, belief)
        assert gap > -10.0
        assert float(gap) == pytest.approx(
            v.witness["J1"] - v.witness["J2"], abs=1e-12)
        j1 = solve_finite_horizon(good, good.horizon)
        j2 = solve_finite_horizon(bad, bad.horizon)
        for pi in uniform_simplex(make_rng(3), 300, 2):
            assert j1.value(pi) - j2.value(pi) <= float(gap) + 1e-9

    def test_solves_over_the_model_horizon(self, monkeypatch):
        horizons = count_calls(monkeypatch, structural,
                               "solve_finite_horizon")
        good, bad = blackwell_pair(13)
        compare_pomdp_costs(good, bad, kind="observation")
        assert [args[1] for args in horizons] == [5, 5]

    def test_model_without_horizon_raises(self):
        good, bad = blackwell_pair(13)
        good = PomdpModel(good.transitions, good.observations, good.costs,
                          0.9)
        with pytest.raises(DimensionMismatch, match="needs a horizon"):
            compare_pomdp_costs(good, bad, kind="observation")

    def test_witness_failing_the_exact_check_holds(self, monkeypatch):
        # a float gap the belief does not show in rationals is rounding
        m = single_action_model(14)
        monkeypatch.setattr(structural, "sup_envelope_gap",
                            lambda A, B: (1.0, np.array([0.5, 0.5])))
        v = compare_pomdp_costs(m, m, kind="observation")
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
        v = compare_pomdp_costs(best, other, kind="transition")
        assert v.status is Verdict.HOLDS

    def test_transitions_not_dominated_raise(self):
        # model1 keeps the state where model2 moves all mass to the best
        # state, so model1's transitions do not dominate model2's
        rng = make_rng(15)
        X = 2
        jump = np.zeros((X, X))
        jump[:, -1] = 1.0
        P = random_tp2_stochastic(rng, X)
        B = random_tp2_stochastic(rng, X, 3)
        c = np.sort(rng.uniform(0.2, 2, (X, 1)), axis=0)[::-1]
        best = PomdpModel(jump[None], B[None], c, 1.0, horizon=5)
        other = PomdpModel(P[None], B[None], c, 1.0, horizon=5)
        with pytest.raises(PreconditionFailed,
                           match=r"action 1 .*Fails.*'belief'"):
            compare_pomdp_costs(other, best, kind="transition")
