"""Vector-set machinery: cross-sums, pruning, backups, solvers, bounds
and grid value iteration, with independent oracles for each."""

from fractions import Fraction
from math import comb, floor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_calls, random_tp2_stochastic
from pomdpkit import grid, solver
from pomdpkit.apps import build_machine_replacement, build_quickest_detection
from pomdpkit.cli import load_model
from pomdpkit.errors import Blowup, DimensionMismatch, PreconditionFailed
from pomdpkit.filters import hmm_filter_step, normalizer_vector
from pomdpkit.grid import (GridValue, _comb_table, barycentric_weights,
                           converge, lattice_rank, nearest_lattice_index,
                           segment_weights, simplex_lattice)
from pomdpkit.model import PomdpModel
from pomdpkit.rng import make_rng, uniform_simplex
from pomdpkit.simplexlp import solve_lp
from pomdpkit.solver import (
    DEDUP_TOL,
    PRUNE_TOL,
    BeliefPool,
    SolveResult,
    VectorSet,
    bellman_backup_step,
    cross_sum,
    evaluate_value,
    gap_within,
    lovejoy_bounds,
    lp_prune,
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

    def test_duplicate_under_higher_tag_is_dropped(self):
        # [2, 0] sorts between the two copies of [1, 1] in (tag, vector)
        # order; the copy under tag 2 must still go
        vs = vector_set([[1.0, 1.0], [2.0, 0.0], [1.0, 1.0]], [1, 1, 2])
        assert vs.actions.tolist() == [1, 1]
        assert vs.vectors.tolist() == [[1.0, 1.0], [2.0, 0.0]]

    def test_near_duplicate_apart_in_sort_order_is_merged(self):
        # [2, 0] is stored between [1 + 1e-15, 1] and [1, 1], which a
        # vector set keeps apart; the prune keeps one copy, under the
        # lower tag
        vs = vector_set([[1.0, 1.0], [2.0, 0.0], [1.0 + 1e-15, 1.0]],
                        [2, 1, 1])
        assert vs.actions.tolist() == [1, 1, 2]
        kept = lp_prune(vs)
        assert kept.actions.tolist() == [1, 1]
        assert kept.vectors.tolist() == [[1.0 + 1e-15, 1.0], [2.0, 0.0]]

    def test_vector_set_is_stored_in_tie_break_order(self):
        # four vectors tie at the uniform belief, across tags and within
        # one tag; the first tie in storage order must be the pick
        vs = vector_set([[1.0, 1.0], [3.0, 3.0], [2.0, 0.0], [0.0, 2.0],
                         [0.5, 1.5]], [2, 1, 1, 2, 1])
        assert vs.actions.tolist() == [1, 1, 1, 2, 2]
        assert vs.vectors.tolist() == [[0.5, 1.5], [2.0, 0.0], [3.0, 3.0],
                                       [0.0, 2.0], [1.0, 1.0]]
        value, vec, action = evaluate_value(vs, [0.5, 0.5])
        assert (value, vec.tolist(), action) == (1.0, [0.5, 1.5], 1)

    def test_pick_matches_lowest_tag_then_smallest_vector(self):
        rng = make_rng(7)
        for _ in range(100):
            # small integer entries make exact ties common
            vs = vector_set(rng.integers(0, 3, size=(12, 3)).astype(float),
                            rng.integers(1, 4, size=12))
            pis = np.vstack([np.eye(3), np.full((1, 3), 1 / 3),
                             uniform_simplex(rng, 5, 3)])
            for pi in pis:
                vals = vs.vectors @ pi
                tied = [k for k in range(len(vs))
                        if vals[k] <= vals.min() + DEDUP_TOL]
                lowest = min(vs.actions[k] for k in tied)
                want = min(tuple(vs.vectors[k]) for k in tied
                           if vs.actions[k] == lowest)
                _, vec, action = evaluate_value(vs, pi)
                assert (tuple(vec), action) == (want, lowest)

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


@st.composite
def planted_sets(draw):
    """A random vector set, and the same rows with near-copies (offsets
    of at most 1e-13, same tag) of some of them planted in."""
    X = draw(st.integers(2, 4))
    n = draw(st.integers(1, 8))
    entry = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(-2.0, 2.0)
    V = np.array(draw(st.lists(st.lists(entry, min_size=X, max_size=X),
                               min_size=n, max_size=n)))
    a = np.array(draw(st.lists(st.integers(1, 3), min_size=n,
                               max_size=n)))
    picks = draw(st.lists(st.integers(0, n - 1), max_size=4))
    offsets = draw(st.lists(st.lists(st.floats(-1e-13, 1e-13), min_size=X,
                                     max_size=X),
                            min_size=len(picks), max_size=len(picks)))
    planted = vector_set(np.vstack([V, V[picks] + np.reshape(offsets,
                                                             (-1, X))]),
                         np.concatenate([a, a[picks]]))
    return vector_set(V, a), planted


def rewrapped(vs):
    return VectorSet(vs.vectors, vs.actions, vs.stage)


class TestExactDedup:
    """A vector set drops exact repeats only; near-copies are the
    prune's to drop."""

    def test_chain_of_near_copies_is_left_to_the_prune(self):
        # (0, 0) under tag 2 is within 1e-12 of both other rows, which are
        # 1.5e-12 apart; all three stay until the prune, which keeps one
        # copy under the lowest tag
        vs = VectorSet([[0, 0], [5e-13, 1.5e-12], [9e-13, 6e-13]],
                       [2, 2, 1])
        assert len(vs) == 3
        assert same_set(rewrapped(vs), vs)
        kept = lp_prune(vs)
        assert kept.actions.tolist() == [1]
        assert kept.vectors.tolist() == [[9e-13, 6e-13]]

    @settings(max_examples=200, deadline=None)
    @given(planted_sets())
    def test_near_copies_leave_the_prune_unchanged(self, sets):
        vs, planted = sets
        kept, kept_planted = lp_prune(vs), lp_prune(planted)
        for s in (vs, planted, kept, kept_planted):
            assert same_set(rewrapped(s), s)
        # a kept near-copy can sort apart from its original, so match
        # rows: each has a partner within 1e-12 under the same tag
        assert len(kept_planted) == len(kept)
        near = ((np.abs(kept.vectors[:, None] - kept_planted.vectors[None])
                 .max(axis=2) <= 1e-12)
                & (kept.actions[:, None] == kept_planted.actions[None]))
        assert near.any(axis=0).all() and near.any(axis=1).all()


def lp_only_prune(gamma):
    """The prune with one LP per vector and no prechecks: the reference
    that every decision of :func:`lp_prune` must reproduce."""
    n = len(gamma)
    if n <= 1:
        return gamma
    X = gamma.dim
    alive = list(range(n))
    V = gamma.vectors
    # a VectorSet is stored in canonical order; visit it in reverse
    for idx in reversed(range(n)):
        others = [i for i in alive if i != idx]
        if not others:
            continue
        diff = V[idx][None, :] - V[others]
        A_ub = np.hstack([diff, -np.ones((len(others), 1))])
        A_eq = np.hstack([np.ones((1, X)), np.zeros((1, 1))])
        c = np.zeros(X + 1)
        c[-1] = 1.0
        res = solve_lp(c, A_ub=A_ub, b_ub=np.zeros(len(others)),
                       A_eq=A_eq, b_eq=[1.0], free_vars=[X])
        if res.optimal and res.value >= -PRUNE_TOL:
            alive.remove(idx)
    keep = sorted(alive)
    return VectorSet(V[keep], gamma.actions[keep], stage=gamma.stage)


def random_prune_input(rng):
    """A set of 1..15 vectors in X = 2..6 with exact duplicates,
    pointwise-dominated copies and copies tied at a vertex mixed in."""
    X = int(rng.integers(2, 7))
    k = int(rng.integers(1, 13))
    kind = rng.integers(3)
    if kind == 0:
        V = rng.normal(size=(k, X))
    elif kind == 1:
        V = rng.integers(0, 4, size=(k, X)).astype(float)
    else:
        V = np.round(rng.normal(size=(k, X)), 1)
    extra = []
    for _ in range(int(rng.integers(4))):
        v = V[rng.integers(k)]
        how = rng.integers(3)
        if how == 0:
            w = v.copy()
        elif how == 1:
            w = v + rng.integers(2, size=X) * rng.random(X)
        else:
            w = rng.normal(size=X)
            j = rng.integers(X)
            w[j] = v[j]
        extra.append(w)
    V = np.vstack([V] + extra)
    return vector_set(V, rng.integers(1, 4, size=len(V)))


def same_set(a, b):
    return (np.array_equal(a.vectors, b.vectors)
            and np.array_equal(a.actions, b.actions))


class TestPruneDecisions:
    """The dominance and witness prechecks of :func:`lp_prune` against the
    LP alone."""

    def test_matches_lp_only_prune(self):
        rng = np.random.default_rng(0)
        sizes = []
        for _ in range(200):
            vs = random_prune_input(rng)
            sizes.append(len(vs))
            assert same_set(lp_prune(vs), lp_only_prune(vs))
        assert 1 in sizes

    def test_pool_matches_lp_only_prune(self):
        # the same 200 inputs, with a pool of random beliefs and vertices
        rng = np.random.default_rng(0)
        pool_rng = np.random.default_rng(1)
        settled = 0
        for _ in range(200):
            vs = random_prune_input(rng)
            pool = BeliefPool(vs.dim)
            pool.beliefs = np.vstack([
                pool_rng.dirichlet(np.ones(vs.dim), size=8), np.eye(vs.dim)])
            assert same_set(lp_prune(vs, pool), lp_only_prune(vs))
            # every belief an LP keep added is a belief
            assert (pool.beliefs >= 0).all()
            assert np.allclose(pool.beliefs.sum(axis=1), 1.0)
            settled += pool.settled
        assert settled > 0

    def test_near_duplicates_side_with_highs(self):
        # gradient spreads of 1e-9..1e-7, where the LP kernel's ratio test
        # can be off by up to about 1e-7 (see TestKnownGap)
        linprog = pytest.importorskip("scipy.optimize").linprog

        def highs_margin(V, idx, others):
            X = V.shape[1]
            res = linprog(
                np.r_[np.zeros(X), 1.0],
                A_ub=np.hstack([V[idx] - V[others],
                                -np.ones((len(others), 1))]),
                b_ub=np.zeros(len(others)),
                A_eq=np.r_[np.ones(X), 0.0][None, :], b_eq=[1.0],
                bounds=[(0, None)] * X + [(None, None)], method="highs",
                options={"primal_feasibility_tolerance": 1e-10,
                         "dual_feasibility_tolerance": 1e-10})
            assert res.status == 0, res.message
            return res.fun

        rng = np.random.default_rng(7)
        for spread in (1e-9, 3e-9, 1e-8, 3e-8, 1e-7):
            for _ in range(40):
                X = int(rng.integers(2, 5))
                k = int(rng.integers(3, 9))
                vs = vector_set(
                    rng.normal(size=X) + spread * rng.normal(size=(k, X)),
                    rng.integers(1, 3, size=k))
                ours, ref = lp_prune(vs), lp_only_prune(vs)
                if same_set(ours, ref):
                    continue
                # both visit in reverse stored order, so they share the
                # survivors up to the first vector they decide apart
                V = vs.vectors
                kept = [{tuple(v) for v in s.vectors} for s in (ours, ref)]
                idx = max(i for i in range(len(V))
                          if (tuple(V[i]) in kept[0])
                          != (tuple(V[i]) in kept[1]))
                others = [j for j in range(len(V)) if j != idx and (
                    j < idx or tuple(V[j]) in kept[0])]
                assert (highs_margin(V, idx, others) < -PRUNE_TOL) \
                    == (tuple(V[idx]) in kept[0])

    def test_sampling_horizon_7_lp_count(self, monkeypatch):
        # a count, not a time: the LP-only prune solves 841 LPs here, the
        # dominance and vertex prechecks leave 314 and the solve's belief
        # pool 145
        calls = count_calls(monkeypatch, solver, "solve_lp")
        solve_finite_horizon(load_model("sampling"), 7)
        assert 0 < len(calls) <= 160

    def test_search_horizon_8_lp_count(self, monkeypatch):
        # the prechecks alone leave 541 LPs here, the belief pool 267
        calls = count_calls(monkeypatch, solver, "solve_lp")
        solve_finite_horizon(load_model("search"), 8)
        assert 0 < len(calls) <= 295

    def test_sampling_horizon_7_pool_counters(self):
        res = solve_finite_horizon(load_model("sampling"), 7)
        assert (res.pool_keeps, res.prune_lps) == (169, 144)
        assert "pool_keeps" not in res.to_json()
        back = SolveResult.from_json(res.to_json())
        assert (back.pool_keeps, back.prune_lps) == (0, 0)

    def test_replacement_vi_stop_test_lp_count(self, monkeypatch):
        # the witness settles all 236 "not yet" stop tests; the LP-only
        # stop test ran sup_difference 237 times, 947 LPs in all
        sups = count_calls(monkeypatch, solver, "sup_difference")
        res = value_iteration_discounted(load_model("machine-replacement"),
                                         1e-6)
        assert res.final.stage == 237
        assert res.error_bound == 1.899999999999998e-05
        assert [A.stage for A, _ in sups] == [237]
        lps = count_calls(monkeypatch, solver, "solve_lp")
        assert solver.sup_difference(*sups[0]) <= 1e-6
        assert 0 < len(lps) <= 4


def plain_finite_horizon(model, horizon):
    sets = [vector_set(model.terminal_vector()[None, :], [1],
                       stage=horizon)]
    for _ in range(horizon):
        sets.append(bellman_backup_step(sets[-1], model, pool=None))
    return sets


def plain_value_iteration(model, epsilon):
    current = vector_set(np.zeros((1, model.num_states)), [1], stage=0)
    for n in range(1, 1000):
        nxt = bellman_backup_step(current, model, pool=None)
        nxt = VectorSet(nxt.vectors, nxt.actions, stage=n)
        if gap_within(nxt, current, epsilon):
            return [nxt]
        current = nxt
    raise AssertionError("no convergence")


class TestBeliefPool:
    """One pool per solve changes which prunes need an LP, not what they
    keep."""

    @pytest.mark.parametrize("name, solve, plain", [
        ("search", lambda m: solve_finite_horizon(m, 8),
         lambda m: plain_finite_horizon(m, 8)),
        ("sampling", lambda m: solve_finite_horizon(m, 7),
         lambda m: plain_finite_horizon(m, 7)),
        ("sampling", lambda m: value_iteration_discounted(m, 0.05),
         lambda m: plain_value_iteration(m, 0.05)),
    ])
    def test_stage_sets_match_unpooled_backups(self, name, solve, plain):
        model = load_model(name)
        ours, ref = solve(model).stage_sets, plain(model)
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            assert same_set(a, b) and a.stage == b.stage

    def test_no_state_leaks_between_solves(self, monkeypatch):
        model = load_model("sampling")
        counts = []
        for _ in range(2):
            calls = count_calls(monkeypatch, solver, "solve_lp")
            solve_finite_horizon(model, 5)
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts[0] == counts[1] > 0

    def test_cap_keeps_the_most_recent(self, monkeypatch):
        monkeypatch.setattr(solver, "POOL_CAP", 3)
        pool = BeliefPool(2)
        for k in range(5):
            pool.add(np.array([k, 1.0]))
        assert np.allclose(pool.beliefs[:, 0], [2 / 3, 3 / 4, 4 / 5])
        # an LP point a rounding error off the simplex is clipped onto it
        pool.add(np.array([-1e-12, 2.0]))
        assert np.array_equal(pool.beliefs[-1], [0.0, 1.0])


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

    def test_monahan_counts_enumeration(self, monkeypatch):
        monkeypatch.setattr(solver, "VECTOR_BUDGET", 17)
        m = replacement(horizon=3)
        start = vector_set([[0.0, 0.0], [0.3, 0.1], [0.5, 0.2]],
                           [1, 1, 1], stage=1)
        with pytest.raises(Blowup) as info:
            bellman_backup_step(start, m, method="monahan")
        assert info.value.size == 18 == 2 * 3 ** 2  # U * |Gamma|^Y

    def test_methods_agree_pointwise(self):
        m = replacement(horizon=4)
        cur_ip = vector_set(np.zeros((1, 2)), [1], stage=4)
        cur_mo = cur_ip
        rng = make_rng(4)
        pis = uniform_simplex(rng, 200, 2)
        for _ in range(4):
            cur_ip = bellman_backup_step(cur_ip, m, method="ip")
            cur_mo = bellman_backup_step(cur_mo, m, method="monahan")
            for pi in pis[:50]:
                assert evaluate_value(cur_ip, pi)[0] == pytest.approx(
                    evaluate_value(cur_mo, pi)[0], abs=1e-9)

    def test_budget_blowup(self, monkeypatch):
        monkeypatch.setattr(solver, "VECTOR_BUDGET", 10)
        rng = make_rng(5)
        P = np.stack([random_tp2_stochastic(rng, 3) for _ in range(3)])
        B = np.stack([random_tp2_stochastic(rng, 3) for _ in range(3)])
        m = PomdpModel(P, B, rng.uniform(size=(3, 3)), 0.95)
        start = vector_set(rng.normal(size=(4, 3)),
                           np.ones(4, dtype=int), stage=1)
        with pytest.raises(Blowup):
            # 3 * 4^3 raw vectors
            bellman_backup_step(start, m, method="monahan")


class TestFiniteHorizon:
    def test_horizon_zero_terminal(self):
        m = build_machine_replacement(0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
                                      rho=1.0, horizon=4)
        res = solve_finite_horizon(m, 0)
        assert res.value([0.2, 0.8]) == pytest.approx(0.0)

    def test_negative_horizon_rejected(self):
        # this once returned one set at stage -2
        with pytest.raises(DimensionMismatch):
            solve_finite_horizon(replacement(horizon=4), -2)

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

    def test_iteration_cap_is_not_a_vector_blowup(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_BACKUPS", 1)
        with pytest.raises(PreconditionFailed):
            value_iteration_discounted(replacement(rho=0.9), 1e-6)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-6, float("nan")])
    def test_nonpositive_epsilon_rejected_before_a_backup(self, monkeypatch,
                                                          epsilon):
        backups = count_calls(monkeypatch, solver, "bellman_backup_step")
        with pytest.raises(DimensionMismatch):
            value_iteration_discounted(replacement(rho=0.9), epsilon)
        assert not backups


def exact_pool_gap(A, B):
    """``max |min_A - min_B|`` over the vertices and the uniform belief, in
    ``Fraction`` arithmetic from the float vectors."""
    X = A.dim
    pool = [[Fraction(int(i == j)) for j in range(X)] for i in range(X)]
    pool.append([Fraction(1, X)] * X)

    def envelope(vs, pi):
        return min(sum(Fraction(v) * p for v, p in zip(row, pi))
                   for row in vs.vectors.tolist())

    return max(abs(envelope(A, pi) - envelope(B, pi)) for pi in pool)


class TestGapWithin:
    """The VI stop decision against ``sup_difference(A, B) <= epsilon``;
    every "not yet" the witness settles without an LP is re-checked in
    exact arithmetic."""

    @staticmethod
    def decide(sups, A, B, epsilon):
        """The decision, and whether the witness settled it."""
        before = len(sups)
        decision = gap_within(A, B, epsilon)
        assert decision == (sup_difference(A, B) <= epsilon)
        witnessed = len(sups) == before
        if witnessed:
            assert not decision
            assert exact_pool_gap(A, B) > Fraction(epsilon)
        return decision, witnessed

    @pytest.mark.parametrize("name, epsilon", [
        ("machine-replacement", 1e-6), ("sampling", 0.05), ("search", 1e-6)])
    def test_matches_lp_decision_on_vi_runs(self, monkeypatch, name,
                                            epsilon):
        stops = count_calls(monkeypatch, solver, "gap_within")
        res = value_iteration_discounted(load_model(name), epsilon)
        assert len(stops) == res.final.stage
        sups = count_calls(monkeypatch, solver, "sup_difference")
        decisions = [self.decide(sups, *args) for args in stops]
        # on these runs the witness settles every "not yet"
        assert decisions == [(False, True)] * (len(stops) - 1) \
            + [(True, False)]

    def test_matches_lp_decision_near_epsilon(self, monkeypatch):
        sups = count_calls(monkeypatch, solver, "sup_difference")
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(60):
            X = int(rng.integers(2, 5))
            A = vector_set(rng.normal(size=(int(rng.integers(1, 6)), X)))
            if rng.random() < 0.5:
                # a constant shift: the gap is the same at every belief
                B = vector_set(A.vectors + rng.uniform(-1.0, 1.0))
            else:
                B = vector_set(rng.normal(size=(int(rng.integers(1, 6)), X)))
            gap = sup_difference(A, B)
            for offset in (-1e-8, -1e-9, -1e-10, 0.0, 1e-10, 1e-9, 1e-8):
                seen.add(self.decide(sups, A, B, gap + offset))
        # both answers, and "not yet" both with and without an LP
        assert seen == {(True, False), (False, False), (False, True)}


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
            assert lb.lower.value(pi) <= v + 1e-9
            assert v <= lb.upper_value(pi) + 1e-9

    def test_negative_horizon_rejected(self):
        with pytest.raises(DimensionMismatch):
            lovejoy_bounds(replacement(horizon=4), 5, horizon=-1)


class TestGridOracle:
    def test_iteration_cap_raises(self, monkeypatch):
        sm = build_quickest_detection(
            [0.0, 1.0], [[0.9]], [0.1], [[0.7, 0.3], [0.2, 0.8]],
            d=0.05, beta=1.0, delay_kind="classical")
        monkeypatch.setattr(grid, "MAX_SWEEPS", 1)
        with pytest.raises(PreconditionFailed):
            solve_stopping_grid(sm, 200, epsilon=1e-10)

    def test_zero_cost_zero_table(self):
        m = PomdpModel(np.stack([np.eye(2)]), np.full((1, 2, 2), 0.5),
                       np.zeros((2, 1)), 1.0, horizon=3)
        g = GridValue(m, 50).iterate(horizon=3)
        assert np.allclose(g.values, 0.0)

    def test_horizon_zero_is_terminal(self):
        m = PomdpModel(np.stack([np.eye(2)]), np.full((1, 2, 2), 0.5),
                       np.zeros((2, 1)), 1.0, horizon=3,
                       terminal_cost=[2.0, 5.0])
        g = GridValue(m, 10).iterate(horizon=0)
        assert np.allclose(g.values, g.points @ np.array([2.0, 5.0]))

    @pytest.mark.parametrize("kwargs", [
        {}, {"epsilon": 1e-6, "horizon": 3}, {"horizon": -1}],
        ids=["neither", "both", "negative-horizon"])
    def test_iterate_rejects_bad_arguments(self, kwargs):
        # with neither argument this was a raw TypeError
        with pytest.raises(DimensionMismatch):
            GridValue(replacement(horizon=3), 5).iterate(**kwargs)

    def test_resolution_refinement_converges(self):
        m = build_machine_replacement(0.37, 0.83, 0.77, 0.45,
                                      [1.1, 0.1], rho=1.0, horizon=5)
        exact = solve_finite_horizon(m, 5)
        rng = make_rng(14)
        pis = uniform_simplex(rng, 100, 2)
        errs = []
        for res in (37, 203, 1013):
            g = GridValue(m, res).iterate(horizon=5)
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


class TestCombTable:
    def test_matches_math_comb(self):
        for n in range(70):
            for k in range(n + 3):
                T = [[comb(i, j) for j in range(k + 1)] for i in range(n + 1)]
                if max(map(max, T)) > np.iinfo(np.int64).max:
                    with pytest.raises(OverflowError):
                        _comb_table(n, k)
                    continue
                got = _comb_table(n, k)
                assert got.dtype == np.int64
                assert got.tolist() == T
                # every grid shares the memoised table
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0, 0] = 2


def _composition_rank(comps, M):
    """Reference rank: one hockey-stick count per coordinate of the
    composition itself."""
    X = comps.shape[-1]
    idx = np.zeros(comps.shape[:-1], dtype=np.int64)
    remaining = np.full(comps.shape[:-1], M, dtype=np.int64)
    for i in range(X - 1):
        k = X - i - 1  # parts after this coordinate
        idx += (np.array([comb(int(r) + k, k) for r in remaining.ravel()])
                - np.array([comb(int(r) + k, k)
                            for r in (remaining - comps[..., i]).ravel()])
                ).reshape(idx.shape)
        remaining = remaining - comps[..., i]
    return idx


def _freudenthal_reference(pi, M):
    """Reference interpolation of one belief, in plain Python floats.

    The steps of :func:`barycentric_weights`, one belief at a time:
    cumulative coordinates summed from the last state, their floor, a
    stable sort of the fractional parts in descending order, and the
    vertex walk from the floor, one unit step per coordinate in that
    order, each vertex ranked by :func:`_composition_rank`.  The weight
    sum is numpy's sum of the row, whose order of additions depends on X.
    """
    X = len(pi)
    cum = [0.0] * (X - 1)
    cum[X - 2] = pi[X - 1]
    for i in range(X - 3, -1, -1):
        cum[i] = cum[i + 1] + pi[i + 1]
    x = [min(max(M * c, 0.0), float(M)) for c in cum]
    base = [max(min(floor(v + 1e-12), M - 1), 0) for v in x]
    d = [min(max(v - b, 0.0), 1.0) for v, b in zip(x, base)]
    order = sorted(range(X - 1), key=lambda i: -d[i])
    vertex = list(base)
    comps = []
    for k in range(X):
        if k:
            vertex[order[k - 1]] += 1
        comps.append([M - vertex[0]]
                     + [vertex[i - 1] - vertex[i] for i in range(1, X - 1)]
                     + [vertex[X - 2]])
    ds = [d[i] for i in order]
    w = ([1.0 - ds[0]] + [ds[k] - ds[k + 1] for k in range(X - 2)]
         + [ds[X - 2]])
    w = np.array([max(v, 0.0) for v in w])
    return _composition_rank(np.array(comps), M), w / w.sum()


class TestBarycentricWeights:
    @pytest.mark.parametrize("X, M", [(3, 100), (3, 7), (4, 30), (8, 6)])
    def test_matches_per_row_reference(self, X, M):
        rng = make_rng(50 + X)
        nodes = simplex_lattice(X, M)
        # cell faces: means of 2 or 4 lattice nodes tie fractional parts
        pick = rng.integers(0, len(nodes), size=(4, 200))
        faces = np.vstack([(nodes[pick[0]] + nodes[pick[1]]) / 2,
                           nodes[pick].mean(axis=0)])
        # simplex boundary: vertices, and beliefs with zero coordinates
        sparse = rng.dirichlet(np.ones(X), 300)
        sparse[rng.random((300, X)) < 0.5] = 0.0
        sparse[sparse.sum(axis=1) == 0, 0] = 1.0
        sparse /= sparse.sum(axis=1, keepdims=True)
        some_nodes = nodes[rng.permutation(len(nodes))[:500]]
        pis = np.vstack([rng.dirichlet(np.ones(X), 300), some_nodes, faces,
                         np.eye(X), sparse])
        idx, w = barycentric_weights(pis, M)
        ref = [_freudenthal_reference(pi.tolist(), M) for pi in pis]
        assert np.array_equal(idx, np.array([r[0] for r in ref]))
        assert np.array_equal(w, np.array([r[1] for r in ref]))
        # the tie rule is exercised: many faces have equal fractional parts
        x = M * np.cumsum(faces[:, ::-1], axis=1)[:, -2::-1]
        frac = x - np.floor(x + 1e-12)
        ties = [len(set(f)) < X - 1 for f in frac.tolist()]
        assert sum(ties) > 20


class TestConverge:
    @pytest.mark.parametrize("epsilon", [0.0, -1e-6, float("nan")])
    def test_nonpositive_epsilon_rejected_before_a_sweep(self, epsilon):
        sweeps = []

        def step(values):
            sweeps.append(values)
            return 0.5 * values, None

        with pytest.raises(DimensionMismatch):
            converge(step, np.ones(3), epsilon)
        assert not sweeps


class TestNearestLatticeIndex:
    @pytest.mark.parametrize("X, M", [(2, 7), (3, 6), (4, 5)])
    def test_matches_brute_force_l1_nearest(self, X, M):
        nodes = simplex_lattice(X, M)
        pis = np.vstack([make_rng(40 + X).dirichlet(np.ones(X), 500),
                         nodes])
        dist = np.abs(pis[:, None, :] - nodes[None, :, :]).sum(axis=2)
        got = dist[np.arange(len(pis)), nearest_lattice_index(pis, M)]
        assert np.allclose(got, dist.min(axis=1), rtol=0, atol=1e-12)


class TestLatticeRank:
    @pytest.mark.parametrize("X", range(2, 9))
    def test_matches_composition_rank(self, X):
        rng = make_rng(30 + X)
        for M in (1, 5, 40):
            cuts = np.sort(rng.integers(0, M + 1, size=(200, X - 1)), axis=1)
            edges = np.concatenate([np.zeros((200, 1), dtype=np.int64), cuts,
                                    np.full((200, 1), M)], axis=1)
            comps = np.diff(edges, axis=1)
            assert np.array_equal(lattice_rank(comps, M),
                                  _composition_rank(comps, M))
        # the lattice itself is listed in rank order
        nodes = np.rint(simplex_lattice(X, 5) * 5).astype(np.int64)
        assert np.array_equal(lattice_rank(nodes, 5), np.arange(len(nodes)))

    def test_barycentric_vertices_rank_their_compositions(self):
        # each returned index is the rank of a lattice vertex whose
        # weighted mean is the belief itself
        rng = make_rng(37)
        for X, M in ((3, 100), (4, 30), (8, 6)):
            pis = rng.dirichlet(np.ones(X), 300)
            idx, w = barycentric_weights(pis, M)
            nodes = simplex_lattice(X, M)
            assert np.allclose((w[..., None] * nodes[idx]).sum(axis=1), pis,
                               rtol=0, atol=1e-12)
