"""Myopic bound construction, overlap volume and loss estimation."""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import sandwich_model
from pomdpkit.errors import LpInfeasible, PreconditionFailed
from pomdpkit.grid import GridValue
from pomdpkit.model import PomdpModel
from pomdpkit.myopic import (
    BoundsCounters,
    MyopicPair,
    PerBeliefBounds,
    _monotone_polytope,
    blackwell_myopic_region,
    lp_feasibility_C1_C2,
    optimize_overlap_2action,
    overlap_indicator_pair,
    overlap_volume,
    percent_loss,
    transformed_costs,
)
from pomdpkit.presets import example1, example3
from pomdpkit.rng import make_rng, uniform_simplex

DATA = Path(__file__).parent / "data"
SAMPLE_BLOCK = 10 ** 6


class TestFeasibilityLPs:
    def test_increasing_costs_trivially_feasible(self):
        rng = make_rng(0)
        P = np.stack([rng.dirichlet(np.ones(3), size=3) for _ in range(2)])
        costs = np.column_stack([[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]])
        m = PomdpModel(P, np.stack([np.full((3, 2), 0.5)] * 2), costs, 0.6)
        pair = lp_feasibility_C1_C2(m)
        assert (np.diff(pair.C_upper, axis=0) > 0).all()
        assert (np.diff(pair.C_lower, axis=0) < 0).all()

    def test_decreasing_costs_give_zero_lower_transform(self):
        rng = make_rng(1)
        P = np.stack([rng.dirichlet(np.ones(3), size=3) for _ in range(2)])
        costs = np.column_stack([[3.0, 2.0, 1.0], [2.5, 1.5, 0.5]])
        m = PomdpModel(P, np.stack([np.full((3, 2), 0.5)] * 2), costs, 0.6)
        pair = lp_feasibility_C1_C2(m)
        assert np.allclose(pair.f_lower, 0.0, atol=1e-7)

    def test_example1_both_feasible(self):
        pair = lp_feasibility_C1_C2(example1(0.5))
        assert (np.diff(pair.C_upper, axis=0) > 0).all()
        assert (np.diff(pair.C_lower, axis=0) < 0).all()


class TestOverlapOptimization:
    def test_equal_transitions_overlap_from_costs(self):
        rng = make_rng(2)
        P = rng.dirichlet(np.ones(3), size=3)
        costs = np.column_stack([[1.0, 2.0, 3.0], [1.2, 2.1, 3.4]])
        m = PomdpModel(np.stack([P, P]), np.stack([np.full((3, 2), 0.5)] * 2),
                       costs, 0.5)
        pair = optimize_overlap_2action(m)
        # with P(1) = P(2) the transform cancels in the region boundary
        d_up = pair.C_upper[:, 0] - pair.C_upper[:, 1]
        d_lo = pair.C_lower[:, 0] - pair.C_lower[:, 1]
        base = costs[:, 0] - costs[:, 1]
        assert np.allclose(d_up, base, atol=1e-9)
        assert np.allclose(d_lo, base, atol=1e-9)

    def test_vertex_enumeration_oracle_2state(self):
        """Coordinate minima match a brute-force polytope vertex scan."""
        from pomdpkit.simplexlp import solve_lp

        rng = make_rng(3)
        for _ in range(20):
            P = np.stack([rng.dirichlet(np.ones(2), size=2)
                          for _ in range(2)])
            costs = rng.uniform(0, 2, size=(2, 2))
            m = PomdpModel(P, np.stack([np.full((2, 2), 0.5)] * 2),
                           costs, 0.7)
            D = m.P(2) - m.P(1)
            A, b = _monotone_polytope(m, "increasing", 1e-6)
            try:
                alphas = []
                for i in range(2):
                    res = solve_lp(D[i], A_ub=A, b_ub=b)
                    if not res.optimal:
                        raise LpInfeasible("skip")
                    alphas.append(res.value)
            except LpInfeasible:
                continue
            # brute force: vertices of {A f <= b, f >= 0} in 2d
            rows = np.vstack([A, -np.eye(2)])
            rhs = np.concatenate([b, np.zeros(2)])
            verts = []
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    M = rows[[i, j]]
                    if abs(np.linalg.det(M)) < 1e-12:
                        continue
                    p = np.linalg.solve(M, rhs[[i, j]])
                    if (rows @ p <= rhs + 1e-9).all():
                        verts.append(p)
            if not verts:
                continue
            for i in range(2):
                best = min(float(D[i] @ v) for v in verts)
                assert alphas[i] <= best + 1e-7

    def test_example1_reproduces_benchmark_volumes(self):
        # the bundled benchmark table used a 0.05 strictness margin
        targets = {0.4: 95.3, 0.9: 84.1}
        for rho, tgt in targets.items():
            pair = optimize_overlap_2action(example1(rho), delta=0.05)
            vol, _ = overlap_volume(example1(rho), pair,
                                    n_samples=200_000, seed=1)
            assert 100 * vol == pytest.approx(tgt, abs=1.0)


class TestMyopicActions:
    def test_direct_argmin(self):
        rng = make_rng(4)
        m, pair = sandwich_model(rng)
        for pi in uniform_simplex(rng, 100, 3):
            lo = pair.lower_actions(pi[None])[0]
            hi = pair.upper_actions(pi[None])[0]
            assert lo == int(np.argmin(pi @ pair.C_lower)) + 1
            assert hi == int(np.argmin(pi @ pair.C_upper)) + 1
            assert lo <= hi

    def test_vertex_of_monotone_costs(self):
        rng = make_rng(5)
        m, pair = sandwich_model(rng)
        eX = np.zeros(3)
        eX[-1] = 1.0
        hi = pair.upper_actions(eX[None])[0]
        assert hi == int(np.argmin(pair.C_upper[-1])) + 1


class TestPerBeliefBounds:
    def test_two_action_consistency(self):
        rng = make_rng(6)
        m, pair = sandwich_model(rng)
        engine = PerBeliefBounds(m)
        for pi in uniform_simplex(rng, 30, 3):
            lo, hi, fu, fl = engine.bounds(pi)
            # per-belief optimization can only widen the overlap
            plo = pair.lower_actions(pi[None])[0]
            phi = pair.upper_actions(pi[None])[0]
            assert lo is not None and hi is not None
            assert hi <= phi and lo >= plo

    def test_eight_action_ordering(self):
        m = example3(0.5)
        engine = PerBeliefBounds(m)
        rng = make_rng(7)
        for pi in uniform_simplex(rng, 25, 8):
            lo, hi, fu, fl = engine.bounds(pi)
            assert 1 <= hi <= lo <= 8 or (lo is not None and lo <= hi)
            assert lo is not None and hi is not None
            assert lo <= hi

    def test_dominant_action_collapses_bounds(self):
        m = example3(0.5)
        engine = PerBeliefBounds(m)
        e1 = np.zeros(8)
        e1[0] = 1.0
        lo, hi, _, _ = engine.bounds(e1)
        assert lo == hi == 1

    @pytest.mark.parametrize("rho", [0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_masks_match_recorded_per_lp_engine(self, rho):
        rec = json.loads(DATA.joinpath("overlap_masks.json").read_text())
        pis = uniform_simplex(make_rng(rec["seed"]), rec["beliefs"], 8)
        mask = PerBeliefBounds(example3(rho)).overlap_indicator(pis)
        assert np.packbits(mask).tobytes().hex() == rec["masks"][str(rho)]

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_transforms_certify_the_reported_actions(self, rho):
        m = example3(rho)
        engine = PerBeliefBounds(m)
        for pi in uniform_simplex(make_rng(12), 40, 8):
            lo, hi, f_upper, f_lower = engine.bounds(pi)
            for tag, action, f in (("C1", hi, f_upper), ("C2", lo, f_lower)):
                assert (f >= 0).all()
                slack = engine.b[tag] - engine.A[tag] @ f
                assert slack.min() >= -1e-9
                vals = pi @ transformed_costs(m, f)
                assert vals[action - 1] <= vals.min() + 1e-9

    def test_unordered_bounds_raise(self):
        # swapping the polytopes turns the upper bound into a lower one
        engine = PerBeliefBounds(example3(0.5))
        engine.A = {"C1": engine.A["C2"], "C2": engine.A["C1"]}
        engine.b = {"C1": engine.b["C2"], "C2": engine.b["C1"]}
        with pytest.raises(PreconditionFailed):
            engine.overlap_indicator(uniform_simplex(make_rng(13), 50, 8))

    def test_counters(self):
        engine = PerBeliefBounds(example3(0.5))
        engine.overlap_indicator(uniform_simplex(make_rng(14), 50, 8))
        assert engine.counters == BoundsCounters(
            solves=14, pivots=3314, bland=0, beliefs=50)


class TestOverlapVolume:
    def test_identical_actions_full_overlap(self):
        rng = make_rng(8)
        P = rng.dirichlet(np.ones(3), size=3)
        costs = np.column_stack([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        m = PomdpModel(np.stack([P, P]), np.stack([np.full((3, 2), 0.5)] * 2),
                       costs, 0.5)
        pair = lp_feasibility_C1_C2(m)
        vol, _ = overlap_volume(m, pair, n_samples=20_000, seed=2)
        assert vol == pytest.approx(1.0)

    def test_two_state_exact_matches_monte_carlo(self):
        # the exact volume follows the pair's own argmin actions for any U;
        # a 100,000-point midpoint grid misplaces each cut by 5e-6 at most
        rng = make_rng(9)
        t = (np.arange(100_000) + 0.5) / 100_000
        grid = np.column_stack([1 - t, t])
        for k in range(30):
            U = 2 + k % 3
            P = rng.dirichlet(np.ones(2), size=(U, 2))
            costs = rng.uniform(0, 2, size=(2, U))
            m = PomdpModel(P, np.full((U, 2, 2), 0.5), costs, 0.7)
            pair = lp_feasibility_C1_C2(m)
            exact, se = overlap_volume(m, pair)
            assert se == 0.0 and type(exact) is float
            ref = (pair.upper_actions(grid) == pair.lower_actions(grid)).mean()
            assert abs(exact - ref) < 2e-5

    def test_triangle_cut_through_a_vertex(self):
        # upper plays 2 where pi(3) > pi(2), a cut through e1; lower plays
        # 2 where pi(2) < 1/2.  Both play 2 where pi(3) > pi(2) (area 1/4)
        # and both play 1 where pi(2) >= 1/2 (area 1/8): 3/4 overlaps
        zeros = np.zeros(3)
        pair = MyopicPair(zeros, zeros,
                          C_upper=np.column_stack([zeros, [0.0, 1.0, -1.0]]),
                          C_lower=np.column_stack([zeros,
                                                   [-0.5, 0.5, -0.5]]))
        assert overlap_volume(example1(0.5), pair) == (
            pytest.approx(0.75, abs=1e-15), 0.0)

    @staticmethod
    def _sampled(pair, n, seed):
        """Monte Carlo overlap and its standard error, drawn in blocks of
        at most 10**6 beliefs to keep memory small."""
        rng = make_rng(seed)
        hits = 0
        for start in range(0, n, SAMPLE_BLOCK):
            pis = uniform_simplex(rng, min(SAMPLE_BLOCK, n - start), 3)
            hits += int(overlap_indicator_pair(pair, pis).sum())
        p = hits / n
        return p, np.sqrt(max(p * (1 - p), 1e-12) / n)

    @pytest.mark.parametrize("rho", [0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_three_state_exact_matches_monte_carlo(self, rho):
        # table (a): example1 at the CLI's 0.05 margin, 10**7 samples
        pair = optimize_overlap_2action(example1(rho), delta=0.05)
        exact, se = overlap_volume(example1(rho), pair)
        assert se == 0.0 and type(exact) is float
        p, stderr = self._sampled(pair, 10 ** 7, seed=1)
        assert abs(exact - p) <= 3 * stderr

    def test_random_three_state_models_match_monte_carlo(self):
        # four models each for U = 2, 3, 4; draws whose C1/C2 polytope is
        # empty are skipped, so the seed fixes the twelve models
        rng = make_rng(13)
        models = []
        while len(models) < 12:
            U = 2 + len(models) // 4
            P = rng.dirichlet(np.ones(3), size=(U, 3))
            costs = rng.uniform(0, 2, size=(3, U))
            m = PomdpModel(P, np.full((U, 3, 2), 0.5), costs, 0.7)
            try:
                models.append((m, lp_feasibility_C1_C2(m)))
            except LpInfeasible:
                continue
        vols = []
        for m, pair in models:
            exact, se = overlap_volume(m, pair)
            p, stderr = self._sampled(pair, 10 ** 6, seed=3)
            assert se == 0.0 and abs(exact - p) <= 4 * stderr
            vols.append(exact)
        assert sum(0.05 < v < 0.95 for v in vols) >= 8


class TestPercentLoss:
    def test_full_overlap_zero_loss(self):
        rng = make_rng(11)
        P = rng.dirichlet(np.ones(3), size=3)
        costs = np.column_stack([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        m = PomdpModel(np.stack([P, P]), np.stack([np.full((3, 2), 0.5)] * 2),
                       costs, 0.5)
        pair = lp_feasibility_C1_C2(m)

        def optimal(pis):
            return pair.upper_actions(pis)

        loss = percent_loss(m, pair, np.array([1.0, 0.0, 0.0]), optimal,
                            n_runs=200, horizon=40, seed=3)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_seed_reproducibility(self):
        m = example1(0.4)
        pair = optimize_overlap_2action(m)
        g = GridValue(m, 60)
        g.iterate(epsilon=1e-7)
        e3 = np.array([0.0, 0.0, 1.0])
        a = percent_loss(m, pair, e3, g.lookahead_actions, 100, 50, seed=5)
        b = percent_loss(m, pair, e3, g.lookahead_actions, 100, 50, seed=5)
        assert a == b


class TestBlackwellRegion:
    def test_uniform_kernel_factorizes(self):
        from helpers import random_tp2_stochastic

        rng = make_rng(12)
        P = random_tp2_stochastic(rng, 3)
        B2 = random_tp2_stochastic(rng, 3)
        B1 = np.full((3, 3), 1 / 3)
        costs = np.column_stack([[1.1, 0.75, 0.5], [1.35, 0.9, 0.35]])
        m = PomdpModel(np.stack([P, P]), np.stack([B1, B2]), costs, 0.7)
        region = blackwell_myopic_region(m)
        assert region.policy([0.0, 0.0, 1.0]) == 2

    def test_dominated_cost_gives_empty_region(self):
        from helpers import random_tp2_stochastic

        rng = make_rng(13)
        P = random_tp2_stochastic(rng, 3)
        B2 = random_tp2_stochastic(rng, 3)
        B1 = np.full((3, 3), 1 / 3)
        costs = np.column_stack([[0.5, 0.4, 0.3], [1.5, 1.4, 1.3]])
        m = PomdpModel(np.stack([P, P]), np.stack([B1, B2]), costs, 0.7)
        region = blackwell_myopic_region(m)
        for pi in uniform_simplex(rng, 50, 3):
            assert region.policy(pi) == 1

    def test_not_dominated_raises(self):
        from helpers import random_tp2_stochastic

        rng = make_rng(14)
        P = random_tp2_stochastic(rng, 2)
        B2 = np.array([[0.95, 0.05], [0.05, 0.95]])
        B1 = np.full((2, 2), 0.5)
        costs = np.ones((2, 2))
        m = PomdpModel(np.stack([P, P]), np.stack([B2, B1]), costs, 0.7)
        with pytest.raises(PreconditionFailed):
            blackwell_myopic_region(m)


def _random_models(rng, count=24):
    for k in range(count):
        X, U = 2 + k % 4, 2 + k % 3
        P = rng.dirichlet(np.ones(X), size=(U, X))
        B = rng.dirichlet(np.ones(2), size=(U, X))
        yield PomdpModel(P, B, rng.uniform(0, 2, size=(X, U)),
                         float(rng.uniform(0.3, 0.95)))


class TestTransformStack:
    def test_transformed_costs_match_column_loop(self):
        rng = make_rng(18)
        for m in [example1(0.4), example3(0.9), *_random_models(rng)]:
            X, U = m.num_states, m.num_actions
            f = rng.uniform(0, 3, size=X)
            ref = np.empty((X, U))
            for u in range(1, U + 1):
                ref[:, u - 1] = m.cost_vector(u) \
                    + (np.eye(X) - m.discount * m.P(u)) @ f
            assert np.array_equal(transformed_costs(m, f), ref)

    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_monotone_polytope_matches_row_loop(self, direction):
        rng = make_rng(19)
        for m in [example1(0.4), example3(0.9), *_random_models(rng)]:
            X, U = m.num_states, m.num_actions
            rows, rhs = [], []
            for u in range(1, U + 1):
                M = np.eye(X) - m.discount * m.P(u)
                c = m.cost_vector(u)
                for i in range(X - 1):
                    grow, gap = M[i + 1] - M[i], c[i + 1] - c[i]
                    if direction == "increasing":
                        rows.append(-grow)
                        rhs.append(gap - 1e-6)
                    else:
                        rows.append(grow)
                        rhs.append(-gap - 1e-6)
            A, b = _monotone_polytope(m, direction, 1e-6)
            assert np.array_equal(A, np.asarray(rows))
            assert np.array_equal(b, np.asarray(rhs))


class TestInvariances:
    def test_cost_transformation_leaves_policy_unchanged(self):
        rng = make_rng(15)
        m, pair = sandwich_model(rng)
        g_plain = GridValue(m, 60)
        g_plain.iterate(epsilon=1e-9)
        shifted = PomdpModel(
            np.asarray(m.transitions), np.asarray(m.observations),
            transformed_costs(m, pair.f_upper), m.discount)
        g_shift = GridValue(shifted, 60)
        g_shift.iterate(epsilon=1e-9)
        pis = uniform_simplex(rng, 300, 3)
        a = g_plain.lookahead_actions(pis)
        b = g_shift.lookahead_actions(pis)
        assert (a == b).mean() > 0.99  # ties at region boundaries only

    def test_overlap_region_inclusion_over_random_feasible_draws(self):
        from pomdpkit.simplexlp import solve_lp

        rng = make_rng(16)
        m, pair = sandwich_model(rng)
        A, b = _monotone_polytope(m, "increasing", 1e-6)
        pis = uniform_simplex(rng, 4000, 3)
        star_region = pair.upper_actions(pis) == 1
        hits = 0
        for _ in range(100):
            # nonnegative objectives keep the LP bounded on f >= 0
            w = np.abs(rng.normal(size=3)) + 0.01
            res = solve_lp(w, A_ub=A, b_ub=b)
            if not res.optimal:
                continue
            hits += 1
            other = transformed_costs(m, res.x)
            region = pis @ (other[:, 0] - other[:, 1]) <= 0
            assert (region <= star_region).all()  # subset inclusion
        assert hits == 100

    def test_jensen_step_for_blackwell_pair(self):
        """More informative kernels reduce the expected posterior value
        of any concave function."""
        from helpers import random_tp2_stochastic

        rng = make_rng(17)
        for _ in range(30):
            X = 3
            B2 = random_tp2_stochastic(rng, X, 4)
            R = rng.dirichlet(np.ones(3), size=4)
            B1 = B2 @ R
            pi = uniform_simplex(rng, 1, X)[0]
            # concave test function: min of a few hyperplanes
            H = rng.normal(size=(5, X))

            def V(p):
                return float((H @ p).min())

            def expected(Bk):
                total = 0.0
                for y in range(Bk.shape[1]):
                    s = float(Bk[:, y] @ pi)
                    if s <= 0:
                        continue
                    total += V(Bk[:, y] * pi / s) * s
                return total

            assert expected(B2) <= expected(B1) + 1e-9
