"""Application builders: replacement, quickest detection, sampling
control, search, social learning, bandits and their structural claims."""

import numpy as np
import pytest

from helpers import count_calls
from pomdpkit import grid, solver
from pomdpkit.apps import (
    BANDIT_NODES,
    _bandit_index,
    build_machine_replacement,
    build_quickest_detection,
    build_sampling_control,
    build_search_pomdp,
    gittins_index,
    run_bandit_benchmark,
    solve_social_learning_stop,
)
from pomdpkit.cli import BANDIT
from pomdpkit.errors import (
    DimensionMismatch,
    InvalidProbability,
    NegativeEntry,
    NonStochasticRow,
    NonTransient,
    PreconditionFailed,
    PriorMassOnState1,
)
from pomdpkit.model import QuadraticCost, StoppingModel, validate_model
from pomdpkit.rng import make_rng
from pomdpkit.stopgrid import solve_stopping_grid


class TestMachineReplacement:
    def test_printed_matrices(self):
        m = build_machine_replacement(0.3, 0.9, 0.8, 1.5, [1.0, 0.0])
        assert np.allclose(m.P(1), [[0, 1], [0, 1]])
        assert np.allclose(m.P(2), [[1, 0], [0.3, 0.7]])
        assert np.allclose(m.B(1), [[0.9, 0.1], [0.2, 0.8]])
        assert np.allclose(m.cost_vector(1), [1.5, 1.5])

    def test_zero_deterioration_identity(self):
        m = build_machine_replacement(0.0, 0.9, 0.8, 1.0, [1.0, 0.0])
        assert np.allclose(m.P(2), np.eye(2))

    def test_passes_validation(self):
        m = build_machine_replacement(0.3, 0.9, 0.8, 1.5, [1.0, 0.0])
        validate_model(m)


class TestQuickestDetection:
    def test_kolmogorov_shiryayev_form(self):
        sm = build_quickest_detection(
            [0.0, 1.0], [[0.9]], [0.1], [[0.7, 0.3], [0.2, 0.8]],
            d=0.05, beta=1.0, alpha=0.0, delay_kind="classical")
        pi = np.array([0.3, 0.7])
        assert sm.stop_cost(pi) == pytest.approx(1.0 * 0.7)  # false alarm
        assert sm.continue_cost(pi) == pytest.approx(0.05 * 0.3)  # delay

    def test_precondition_errors(self):
        with pytest.raises(PriorMassOnState1):
            build_quickest_detection([0.5, 0.5], [[0.9]], [0.1],
                                     [[0.7, 0.3], [0.2, 0.8]], 1.0, 1.0)
        with pytest.raises(NonTransient):
            build_quickest_detection([0.0, 1.0], [[1.0]], [0.0],
                                     [[0.7, 0.3], [0.2, 0.8]], 1.0, 1.0)

    def test_cost_transformation_policy_invariant(self):
        sm = build_quickest_detection(
            [0.0, 0.5, 0.5], [[0.5, 0.2], [0.3, 0.6]], [0.3, 0.1],
            [[0.7, 0.2, 0.1], [0.15, 0.5, 0.35], [0.15, 0.5, 0.35]],
            d=2.5, beta=2.0, alpha=0.5, delay_kind="predicted", rho=0.9)
        # pin the stop cost through -(alpha + beta) f' pi and move the
        # shift's one-step drift into the continue cost
        shift = (0.5 + 2.0) * np.array([0.0, 1.0, 1.0])
        stop, cont = sm.stop_cost, sm.continue_cost
        new_stop = QuadraticCost(stop.lin - shift, stop.h, stop.alpha)
        new_cont = QuadraticCost(cont.lin - shift + 0.9 * (sm.P @ shift),
                                 cont.h, cont.alpha)
        shifted = StoppingModel(P=sm.P, B=sm.B, stop_cost=new_stop,
                                continue_cost=new_cont, discount=0.9)
        a = solve_stopping_grid(sm, 120, epsilon=1e-10)
        b = solve_stopping_grid(shifted, 120, epsilon=1e-10)
        agree = (a.stop_mask == b.stop_mask).mean()
        assert agree > 0.99

    def test_risk_sensitive_exponential_identity(self):
        """Both sides of the exponential-cost identity agree on every
        simulated path of the 2-state model."""
        eps, d, beta = 0.4, 0.6, 0.9
        P = np.array([[1.0, 0.0], [0.1, 0.9]])
        B = np.array([[0.7, 0.3], [0.2, 0.8]])
        rng = make_rng(1)
        n = 300
        lhs = np.empty(n)
        rhs = np.empty(n)
        for t in range(n):
            x = 1  # state 2 (0-indexed 1): pre-change start
            tau0 = None
            # fixed-threshold policy on the exact filter
            pi = np.array([0.0, 1.0])
            k = 0
            stopped = None
            while k < 200:
                if pi[0] > 0.65 and stopped is None:
                    stopped = k
                    break
                x = int(rng.choice(2, p=P[x]))
                y = int(rng.choice(2, p=B[x]))
                raw = B[:, y] * (P.T @ pi)
                pi = raw / raw.sum()
                k += 1
                if x == 0 and tau0 is None:
                    tau0 = k
            tau = stopped if stopped is not None else 200
            if tau0 is None:
                tau0 = 201
            # direct cumulative exponential cost
            delay_steps = max(tau - tau0, 0)
            fa = 1.0 if tau < tau0 else 0.0
            lhs[t] = np.exp(eps * (d * delay_steps + beta * fa))
            rhs[t] = (np.exp(eps * beta) - 1) * fa \
                + np.exp(eps * d * delay_steps)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)


class TestSamplingControl:
    def test_single_interval_costs(self):
        m = build_sampling_control([[1.0, 0.0], [0.1, 0.9]],
                                   [[0.7, 0.3], [0.2, 0.8]],
                                   intervals=[1], m=0.25, d=0.4, rho=0.95)
        # C_1 = m + c with c = d e1 on the original states
        assert np.allclose(m.cost_vector(2)[:2], [0.65, 0.25])
        assert m.cost_vector(2)[2] == 0.0

    def test_matrix_power_sums(self):
        P = np.array([[1.0, 0.0], [0.1, 0.9]])
        m = build_sampling_control(P, [[0.7, 0.3], [0.2, 0.8]],
                                   intervals=[3], m=0.0, d=1.0, rho=0.95)
        accum = np.eye(2) + P + P @ P
        expect = accum @ np.array([1.0, 0.0])
        assert np.allclose(m.cost_vector(2)[:2], expect)
        assert np.allclose(m.P(2)[:2, :2], np.linalg.matrix_power(P, 3))

    def test_threshold_structure_with_monotone_intervals(self):
        m = build_sampling_control([[1.0, 0.0], [0.1, 0.9]],
                                   [[0.7, 0.3], [0.2, 0.8]],
                                   intervals=[1, 2, 4, 8], m=0.05, d=0.08,
                                   rho=0.97)
        from pomdpkit.grid import GridValue

        g = GridValue(m, 150)
        g.iterate(epsilon=1e-10)
        ts = np.linspace(0, 1, 601)
        edge = np.column_stack([1 - ts, ts, 0 * ts])
        acts = g.lookahead_actions(edge)
        jumps = np.diff(acts)
        assert (jumps >= 0).all()          # intervals grow with pi(2)
        assert (jumps > 0).sum() <= 4      # at most L interior thresholds
        assert acts[0] == 1                # announce near the change


class TestSearchPomdp:
    def test_augmented_dimensions(self):
        m = build_search_pomdp([[0.8, 0.2], [0.3, 0.7]],
                               overlook=[0.2, 0.3], blocking=[0.1, 0.1])
        assert m.num_states == 5
        assert m.num_obs == 3
        validate_model(m)

    def test_perfect_search_detects(self):
        m = build_search_pomdp([[1.0, 0.0], [0.0, 1.0]],
                               overlook=[0.0, 0.0], blocking=[0.0, 0.0])
        # searching cell 1 with the target there transitions to found
        assert m.P(1)[0, 4] == pytest.approx(1.0)

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            build_search_pomdp([[0.8, 0.2], [0.3, 0.7]],
                               overlook=[1.2, 0.0], blocking=[0.0, 0.0])

    def test_detection_reward_negative_costs(self):
        m = build_search_pomdp([[0.8, 0.2], [0.3, 0.7]],
                               overlook=[0.2, 0.3], blocking=[0.1, 0.1])
        assert m.cost_vector(1)[0] == pytest.approx(-(0.9 * 0.8))
        assert m.cost_vector(1)[4] == 0.0


class TestSocialLearning:
    COSTS = [[4.57, 5.57], [2.57, 0.0]]
    B = [[0.9, 0.1], [0.1, 0.9]]

    def test_double_threshold_and_nonconcave_value(self):
        res = solve_social_learning_stop(self.COSTS, self.B, d=1.8,
                                         beta=2.0, rho=0.9, resolution=499)
        assert len(res.stop_intervals) >= 2
        V = res.values
        nonconcave = any(
            V[i] < 0.5 * (V[i - 1] + V[i + 1]) - 1e-9
            for i in range(1, len(V) - 1))
        assert nonconcave

    def test_intervals_end_at_stopping_points(self):
        res = solve_social_learning_stop(self.COSTS, self.B, d=1.8,
                                         beta=2.0, rho=0.9, resolution=499)
        ts = list(res.grid)
        for lo, hi in res.stop_intervals:
            a, b = ts.index(lo), ts.index(hi)
            assert res.stop_mask[a:b + 1].all()
            assert a == 0 or not res.stop_mask[a - 1]
            assert b == len(ts) - 1 or not res.stop_mask[b + 1]
        assert sum(b - a + 1 for a, b in (
            (ts.index(lo), ts.index(hi)) for lo, hi in res.stop_intervals)
        ) == res.stop_mask.sum()
        everywhere = solve_social_learning_stop(self.COSTS, self.B, d=1.8,
                                                beta=0.0, rho=0.9,
                                                resolution=199)
        assert everywhere.stop_intervals == [(0.0, 1.0)]

    def test_free_stop_stops_everywhere(self):
        res = solve_social_learning_stop(self.COSTS, self.B, d=1.8,
                                         beta=0.0, rho=0.9, resolution=199)
        assert res.stop_mask.all()

    def test_iteration_cap_raises(self, monkeypatch):
        # one sweep leaves 63 of the 500 stop decisions wrong
        monkeypatch.setattr(grid, "MAX_SWEEPS", 1)
        with pytest.raises(PreconditionFailed):
            solve_social_learning_stop(self.COSTS, self.B, d=1.8, beta=2.0,
                                       rho=0.9)


class TestGittins:
    P = [[0.8, 0.2], [0.3, 0.7]]
    B = [[0.85, 0.15], [0.25, 0.75]]

    def test_constant_reward_closed_form(self):
        g = gittins_index(self.P, self.B, [0.7, 0.7], 0.8, [0.5, 0.5],
                          tol_m=1e-7)
        assert g == pytest.approx(0.7 / 0.2, abs=1e-6)

    P3 = [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]]
    B3 = [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]]

    # each case's ``bisection`` value is the index found by the earlier
    # bisection on the retirement reward (a bracket midpoint within
    # tol_m = 1e-4 of the index), kept as reference data; RESTART holds
    # the value this solve gives for it
    RESTART = {
        "0x1.96e3c00000002p+1": "0x1.96e38c941d2dbp+1",
        "0x1.053f600000001p+2": "0x1.053eb920a1292p+2",
        "0x1.ff19e00000002p+2": "0x1.ff1a004f90cc0p+2",
        "0x1.7d18d55555555p+1": "0x1.7d183236f90f1p+1",
        "0x1.d590c00000002p+1": "0x1.d58f2abe696cap+1",
        "0x1.f8e0555555554p+0": "0x1.f8dd1961a8efdp+0",
        "0x1.9ded000000000p+0": "0x1.9dec0ce80fe82p+0",
    }

    @pytest.mark.parametrize("two_state, r, rho, pi, bisection", [
        (True, [0.2, 1.0], 0.8, [0.6, 0.4], "0x1.96e3c00000002p+1"),
        (True, [0.2, 1.0], 0.8, [0.3, 0.7], "0x1.053f600000001p+2"),
        (True, [1.0, 0.3], 0.9, [0.5, 0.5], "0x1.ff19e00000002p+2"),
        (True, [1.0, 0.3], 0.7, [0.8, 0.2], "0x1.7d18d55555555p+1"),
        (False, [0.1, 0.5, 1.0], 0.8, [0.2, 0.3, 0.5],
         "0x1.d590c00000002p+1"),
        (False, [1.0, 0.2, 0.4], 0.7, [1 / 3, 1 / 3, 1 / 3],
         "0x1.f8e0555555554p+0"),
        (False, [1.0, 0.2, 0.4], 0.7, [0.1, 0.1, 0.8],
         "0x1.9ded000000000p+0"),
    ])
    def test_pinned_values(self, monkeypatch, two_state, r, rho, pi,
                           bisection):
        P, B = (self.P, self.B) if two_state else (self.P3, self.B3)
        lps = count_calls(monkeypatch, solver, "solve_lp")
        g = gittins_index(P, B, r, rho, pi)
        assert abs(g - float.fromhex(bisection)) <= 1e-4
        # bit for bit, so a change to the VI loop or its stop test shows
        assert g == float.fromhex(self.RESTART[bisection])
        # the bisection needed 13,069 LPs on the last case
        assert len(lps) <= 1000

    def test_zero_discount_is_the_immediate_reward(self):
        g = gittins_index(self.P, self.B, [0.2, 1.0], 0.0, [0.3, 0.7])
        assert g == pytest.approx(0.76, abs=1e-12)

    @pytest.mark.parametrize("pi, error", [
        ([0.5, 0.9], NonStochasticRow),
        # pi' P is still stochastic here, so only the belief check sees it
        ([-0.5, 1.5], NegativeEntry),
        ([0.2, 0.3, 0.5], DimensionMismatch),
    ])
    def test_rejects_a_point_off_the_simplex(self, pi, error):
        with pytest.raises(error):
            gittins_index(self.P, self.B, [0.2, 1.0], 0.8, pi)

    @pytest.mark.parametrize("tol_m", [0.0, -1e-4, float("nan")])
    def test_rejects_a_nonpositive_tolerance(self, tol_m):
        with pytest.raises(DimensionMismatch):
            gittins_index(self.P, self.B, [0.2, 1.0], 0.8, [0.5, 0.5],
                          tol_m=tol_m)

    def test_mlr_monotone_for_increasing_rewards(self):
        vals = [gittins_index(self.P, self.B, [0.2, 1.0], 0.8, [1 - t, t],
                              tol_m=1e-4) for t in (0.1, 0.4, 0.7, 0.95)]
        assert all(vals[i] <= vals[i + 1] + 1e-6 for i in range(3))


class TestOpportunisticPolicy:
    def test_bandit_policies_statistically_equal(self):
        res = run_bandit_benchmark(self.p(), self.b(), [0.2, 1.0], 0.8,
                                   episodes=800, horizon=40, seed=6)
        assert res["ci_overlap"]

    @pytest.mark.parametrize("seed", [2, 6, 12])
    def test_index_policy_is_the_opportunistic_policy(self, seed):
        # the index rises in pi(2), so among identical arms it plays the
        # arm with the larger pi(2), as the opportunistic policy does
        res = run_bandit_benchmark(BANDIT["P"], BANDIT["B"], BANDIT["r"],
                                   BANDIT["rho"], seed=seed)
        assert res["gittins"] == res["opportunistic"]

    def test_interpolated_index_tracks_the_restart_index(self):
        P, B, r, rho = BANDIT["P"], BANDIT["B"], BANDIT["r"], BANDIT["rho"]
        index = _bandit_index(P, B, r, rho)
        nodes = np.arange(BANDIT_NODES + 1) / BANDIT_NODES
        assert (np.diff(index(nodes)) > 0.1).all()
        # off the nodes: the quarter points of each cell
        ts = (np.arange(2 * BANDIT_NODES) + 0.5) / (2 * BANDIT_NODES)
        exact = [gittins_index(P, B, r, rho, [1 - t, t]) for t in ts]
        gap = index(ts) - exact
        # the index is neither convex nor concave in pi(2): at 10 nodes
        # the chords overstate it by up to 0.017 and understate it by
        # up to 0.002
        assert gap.max() <= 0.02
        assert gap.min() >= -0.005

    @staticmethod
    def p():
        return [[0.8, 0.2], [0.3, 0.7]]

    @staticmethod
    def b():
        return [[0.85, 0.15], [0.25, 0.75]]
