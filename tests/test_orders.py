"""Stochastic-order and matrix-structure tests, including the printed
3-state worked examples and randomized order-theory properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    P_PERMUTED_3,
    P_TP2_3,
    QUAD_B1,
    QUAD_B2,
    QUAD_P1,
    QUAD_P2,
    random_tp2_stochastic,
)
from pomdpkit import orders
from pomdpkit.errors import DimensionMismatch
from pomdpkit.grid import simplex_lattice
from pomdpkit.model import PomdpModel
from pomdpkit.orders import (
    COPOSITIVE_MAX_STATES,
    Comparison,
    Verdict,
    blackwell_factorize,
    check_F4,
    copositive_order_full,
    copositive_order_transitions,
    fosd_compare,
    is_tp2,
    ORDER_TOL,
    mdp_monotone_report,
    mlr_compare,
    mlr_rows,
    tail_sum_supermodular,
)
from pomdpkit.rng import make_rng, uniform_simplex


def beliefs(dim):
    return st.lists(st.floats(0.01, 1.0), min_size=dim, max_size=dim).map(
        lambda v: np.asarray(v) / np.sum(v))


class TestMlrCompare:
    def test_printed_comparable_pair(self):
        assert mlr_compare([0.2, 0.3, 0.5], [0.4, 0.5, 0.1]) is Comparison.GE

    def test_printed_incomparable_pair(self):
        assert mlr_compare([0.3, 0.2, 0.5],
                           [0.4, 0.5, 0.1]) is Comparison.INCOMPARABLE

    def test_reflexive(self):
        pi = np.array([0.1, 0.2, 0.7])
        assert mlr_compare(pi, pi) is Comparison.EQ

    @settings(max_examples=150, deadline=None)
    @given(beliefs(3), beliefs(3), beliefs(3))
    def test_transitive_on_random_triples(self, a, b, c):
        if mlr_compare(a, b) in (Comparison.GE, Comparison.EQ) and \
                mlr_compare(b, c) in (Comparison.GE, Comparison.EQ):
            assert mlr_compare(a, c) in (Comparison.GE, Comparison.EQ)


def _outer_verdict(p, q, tol=ORDER_TOL):
    """Reference verdict from the full outer-product table."""
    d = np.outer(p, q) - np.outer(q, p)    # d[i, j] = p_i q_j - q_i p_j
    upper = d[np.triu_indices(len(p), k=1)]
    ge, le = (upper <= tol).all(), (upper >= -tol).all()
    if ge and le:
        return Comparison.EQ
    return Comparison.GE if ge else Comparison.LE if le else \
        Comparison.INCOMPARABLE


@st.composite
def belief_pair_batches(draw):
    """Row pairs with exact zeros, equal rows and incomparable rows."""
    X = draw(st.integers(1, 5))
    n = draw(st.integers(0, 8))
    entry = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5]) | st.floats(0.0, 1.0)
    rows = st.lists(st.lists(entry, min_size=X, max_size=X),
                    min_size=n, max_size=n)
    a = np.array(draw(rows), dtype=float).reshape(n, X)
    b = np.array(draw(rows), dtype=float).reshape(n, X)
    same = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    dtype=bool)
    b[same] = a[same]
    return a, b


class TestMlrRows:
    @settings(max_examples=300, deadline=None)
    @given(belief_pair_batches())
    def test_rows_agree_with_single_comparisons(self, pair):
        a, b = pair
        ge, le = mlr_rows(a, b)
        assert ge.shape == le.shape == (len(a),)
        for k in range(len(a)):
            verdict = mlr_compare(a[k], b[k])
            assert verdict is _outer_verdict(a[k], b[k])
            assert verdict is {(True, True): Comparison.EQ,
                               (True, False): Comparison.GE,
                               (False, True): Comparison.LE,
                               (False, False): Comparison.INCOMPARABLE}[
                                   (bool(ge[k]), bool(le[k]))]

    def test_each_kind_of_row(self):
        a = np.array([[0.2, 0.3, 0.5], [0.3, 0.2, 0.5], [0.0, 0.5, 0.5],
                      [0.1, 0.2, 0.7], [0.0, 0.0, 1.0]])
        b = np.array([[0.4, 0.5, 0.1], [0.4, 0.5, 0.1], [0.5, 0.5, 0.0],
                      [0.1, 0.2, 0.7], [0.0, 1.0, 0.0]])
        ge, le = mlr_rows(a, b)
        assert ge.tolist() == [True, False, True, True, True]
        assert le.tolist() == [False, False, False, True, False]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mlr_rows(np.ones((2, 3)), np.ones((2, 4)))
        with pytest.raises(DimensionMismatch):
            mlr_rows(np.ones(3), np.ones(3))


class TestFosdCompare:
    def test_mlr_implies_fosd(self):
        rng = make_rng(0)
        from helpers import random_belief_pair

        for _ in range(500):
            hi, lo = random_belief_pair(rng, int(rng.integers(2, 6)))
            assert mlr_compare(hi, lo) in (Comparison.GE, Comparison.EQ)
            assert fosd_compare(hi, lo) in (Comparison.GE, Comparison.EQ)

    def test_printed_example(self):
        assert fosd_compare([1 / 3, 1 / 3, 1 / 3],
                            [0, 2 / 3, 1 / 3]) is Comparison.LE

    def test_two_state_complete_order(self):
        rng = make_rng(1)
        for _ in range(100):
            a = uniform_simplex(rng, 1, 2)[0]
            b = uniform_simplex(rng, 1, 2)[0]
            cmp = fosd_compare(a, b)
            assert cmp is not Comparison.INCOMPARABLE
            assert (cmp in (Comparison.GE, Comparison.EQ)) == \
                (a[1] >= b[1] - 1e-12)


class TestTp2:
    def test_reference_matrix_holds(self):
        assert is_tp2(P_TP2_3)

    def test_permutation_fails_with_witness(self):
        v = is_tp2(P_PERMUTED_3)
        assert v.status is Verdict.FAILS
        assert v.witness[:4] == (1, 2, 1, 2)
        assert v.witness[4] == pytest.approx(-1.0)

    def test_identity(self):
        assert is_tp2(np.eye(2))

    def test_product_closure(self):
        rng = make_rng(2)
        for _ in range(200):
            X = int(rng.integers(2, 5))
            M = random_tp2_stochastic(rng, X)
            N = random_tp2_stochastic(rng, X)
            assert is_tp2(M @ N)

    def test_tp2_first_column_nonincreasing(self):
        rng = make_rng(3)
        for _ in range(100):
            P = random_tp2_stochastic(rng, int(rng.integers(2, 6)))
            assert (np.diff(P[:, 0]) <= 1e-12).all()


class TestTailSumSupermodular:
    def test_equal_matrices_hold(self):
        assert tail_sum_supermodular(P_TP2_3, P_TP2_3)

    def test_direct_violation(self):
        Pu = np.array([[0.5, 0.5], [0.5, 0.5]])
        Pu1 = np.array([[0.1, 0.9], [0.6, 0.4]])
        v = tail_sum_supermodular(Pu, Pu1)
        assert v.status is Verdict.FAILS
        assert v.witness["l"] == 2

    def test_agrees_with_enumeration(self):
        rng = make_rng(4)
        for _ in range(100):
            X = int(rng.integers(2, 5))
            Pu = random_tp2_stochastic(rng, X)
            Pu1 = random_tp2_stochastic(rng, X)
            expect = True
            for ell in range(X):
                tails = (Pu1[:, ell:].sum(axis=1)
                         - Pu[:, ell:].sum(axis=1))
                if (np.diff(tails) < -1e-12).any():
                    expect = False
            assert bool(tail_sum_supermodular(Pu, Pu1)) == expect


class TestCopositiveOrders:
    def test_reference_quadruple_holds_elementwise(self):
        assert copositive_order_full(QUAD_P1, QUAD_B1, QUAD_P2, QUAD_B2)

    def test_identical_pair_holds(self):
        assert copositive_order_full(P_TP2_3, P_TP2_3, P_TP2_3, P_TP2_3)

    def test_identical_transitions_hold(self):
        assert copositive_order_transitions(P_TP2_3, P_TP2_3)

    def test_rows_dominating_last_row(self):
        rng = make_rng(5)
        P = random_tp2_stochastic(rng, 3)
        # rows of Q MLR-dominate the last row of P
        Q = np.vstack([P[-1], P[-1], P[-1]])
        Q = Q * np.array([0.5, 1.0, 2.0])[None, :]
        Q = Q / Q.sum(axis=1, keepdims=True)
        assert copositive_order_transitions(P, Q)

    def test_exact_2state_matches_quadratic_sign(self):
        rng = make_rng(6)
        falsified = 0
        ts = np.linspace(0, 1, 2001)
        pis = np.column_stack([ts, 1 - ts])
        for _ in range(3000):
            P = rng.dirichlet(np.ones(2), size=2)
            Q = rng.dirichlet(np.ones(2), size=2)
            v = copositive_order_transitions(P, Q)
            g = np.outer(P[:, 0], Q[:, 1]) - np.outer(P[:, 1], Q[:, 0])
            G = 0.5 * (g + g.T)
            # closed form on the segment: nonnegative diagonal and
            # G12 + sqrt(G11 G22) >= 0
            a, b, c = G[0, 0], G[0, 1], G[1, 1]
            closed = (min(a, c) >= -ORDER_TOL and b + np.sqrt(
                max(a, 0.0) * max(c, 0.0)) >= -ORDER_TOL)
            assert (v.status is Verdict.HOLDS) == closed
            # independent scalar quadratic scan
            vals = np.einsum("ni,ij,nj->n", pis, G, pis)
            if v.status is Verdict.FAILS:
                falsified += 1
                pi = np.asarray(v.witness["belief"])
                assert v.witness["value"] == pytest.approx(pi @ G @ pi,
                                                           rel=1e-9)
                assert v.witness["value"] <= vals.min() + ORDER_TOL
            else:
                assert vals.min() >= -1e-9
        assert falsified > 10  # the random family must exercise both sides

    def test_grid_falsify_finds_witness(self):
        P = np.array([[0.9, 0.1], [0.8, 0.2]])
        Q = np.array([[0.1, 0.9], [0.2, 0.8]])
        v = copositive_order_transitions(Q, P)
        assert v.status is Verdict.FAILS
        assert v.witness["index"] == 1
        assert v.witness["value"] < -ORDER_TOL

    def test_elementwise_never_contradicts_grid(self):
        # X = 3..6 against a dense lattice scan of every Gamma; Q tilts
        # P's rows toward high states, so both verdicts occur, and some
        # Holds verdicts have Gamma entries below zero
        rng = make_rng(7)
        negative_holds = 0
        for X, resolution in ((3, 60), (4, 24), (5, 14), (6, 10)):
            grid = simplex_lattice(X, resolution)
            for _ in range(50):
                P = random_tp2_stochastic(rng, X)
                Q = P * np.exp(rng.uniform(0, 3) * np.arange(X)) \
                    * rng.uniform(0.7, 1.3, (X, X))
                Q /= Q.sum(axis=1, keepdims=True)
                v = copositive_order_transitions(P, Q)
                assert v.status is not Verdict.UNDETERMINED
                gammas = []
                for j in range(X - 1):
                    g = np.outer(P[:, j], Q[:, j + 1]) \
                        - np.outer(P[:, j + 1], Q[:, j])
                    gammas.append(0.5 * (g + g.T))
                lows = [np.einsum("ni,ij,nj->n", grid, G, grid).min()
                        for G in gammas]
                if v.status is Verdict.HOLDS:
                    assert min(lows) >= -1e-9
                    negative_holds += any((G < -ORDER_TOL).any()
                                          for G in gammas)
                else:
                    j = v.witness["index"] - 1
                    pi = np.asarray(v.witness["belief"])
                    assert pi.min() >= 0 and pi.sum() == pytest.approx(1)
                    assert v.witness["value"] == pytest.approx(
                        pi @ gammas[j] @ pi, rel=1e-9)
                    assert v.witness["value"] < -ORDER_TOL
                    assert v.witness["value"] <= lows[j] + ORDER_TOL
        assert negative_holds > 0

    def test_above_the_cap_is_undetermined_without_enumeration(
            self, monkeypatch):
        def no_enumeration(G):
            raise AssertionError("faces enumerated above the cap")

        monkeypatch.setattr(orders, "_simplex_minimum", no_enumeration)
        X = COPOSITIVE_MAX_STATES + 1
        P = random_tp2_stochastic(make_rng(8), X)
        Q = np.full((X, X), 1.0 / X)
        # identical matrices give Gamma = 0, which holds before the cap
        assert copositive_order_transitions(P, P).status is Verdict.HOLDS
        v = copositive_order_transitions(Q, P)
        assert v.status is Verdict.UNDETERMINED
        assert v.witness["index"] == 1
        assert str(X) in v.witness["reason"]


class TestCheckF4:
    def test_identical_pair_holds(self):
        assert check_F4(P_TP2_3, P_TP2_3, P_TP2_3, P_TP2_3)

    def test_reference_quadruple(self):
        v = check_F4(QUAD_P1, QUAD_B1, QUAD_P2, QUAD_B2)
        # verified against the exhaustive double sum below
        M1 = QUAD_P1 @ QUAD_B1
        M2 = QUAD_P2 @ QUAD_B2
        heads = np.cumsum(M2 - M1, axis=1)
        assert bool(v) == bool((heads <= 1e-12).all())
        assert bool(v)

    def test_constructed_violator(self):
        v = check_F4(QUAD_P2, QUAD_B2, QUAD_P1, QUAD_B1)
        assert v.status is Verdict.FAILS


class TestBlackwell:
    def test_uniform_kernel_is_dominated(self):
        B2 = random_tp2_stochastic(make_rng(8), 3)
        B1 = np.full((3, 3), 1 / 3)
        R = blackwell_factorize(B1, B2)
        assert R is not None
        assert np.abs(B2 @ R - B1).max() <= 1e-7

    def test_identity_factorization(self):
        B = random_tp2_stochastic(make_rng(9), 3)
        R = blackwell_factorize(B, B)
        assert R is not None
        assert np.abs(B @ R - B).max() <= 1e-7

    def test_garbled_kernel_recovers_factor(self):
        rng = make_rng(10)
        for _ in range(20):
            B2 = random_tp2_stochastic(rng, 3, 4)
            S = rng.dirichlet(np.ones(3), size=4)
            B1 = B2 @ S
            R = blackwell_factorize(B1, B2)
            assert R is not None
            assert np.abs(B2 @ R - B1).max() <= 1e-7
            assert np.allclose(R.sum(axis=1), 1.0, atol=1e-9)

    def test_infeasible_direction(self):
        B2 = np.array([[0.95, 0.05], [0.05, 0.95]])
        B1 = np.full((2, 2), 0.5)
        assert blackwell_factorize(B2, B1) is None

    def test_lp_matches_row_by_row_build(self, monkeypatch):
        def loop_lp(B1, B2):
            # one residual pair per (i, j), then one row sum per k
            X, Y1 = B1.shape
            Y2 = B2.shape[1]
            nv = Y2 * Y1 + 1
            A_ub, b_ub = [], []
            for i in range(X):
                for j in range(Y1):
                    row = np.zeros(nv)
                    for k in range(Y2):
                        row[k * Y1 + j] = B2[i, k]
                    row[-1] = -1.0
                    row2 = -row
                    row2[-1] = -1.0
                    A_ub += [row, row2]
                    b_ub += [B1[i, j], -B1[i, j]]
            A_eq = np.zeros((Y2, nv))
            for k in range(Y2):
                A_eq[k, k * Y1:(k + 1) * Y1] = 1.0
            return np.array(A_ub), np.array(b_ub), A_eq

        seen = []
        solve_lp = orders.solve_lp

        def recording(c, **lp):
            seen.append(lp)
            return solve_lp(c, **lp)

        monkeypatch.setattr(orders, "solve_lp", recording)
        rng = make_rng(12)
        for _ in range(20):
            X, Y1, Y2 = rng.integers(1, 5, size=3)
            B1 = rng.dirichlet(np.ones(Y1), size=X)
            B2 = rng.dirichlet(np.ones(Y2), size=X)
            blackwell_factorize(B1, B2)
            A_ub, b_ub, A_eq = loop_lp(B1, B2)
            assert np.array_equal(seen[-1]["A_ub"], A_ub)
            assert np.array_equal(seen[-1]["b_ub"], b_ub)
            assert np.array_equal(seen[-1]["A_eq"], A_eq)


class TestMdpMonotoneReport:
    def test_zero_cost_mdp_all_hold(self):
        rng = make_rng(11)
        P = np.stack([random_tp2_stochastic(rng, 3)] * 2)
        m = PomdpModel(P, np.stack([np.full((3, 2), 0.5)] * 2),
                       np.zeros((3, 2)), 0.9)
        rep = mdp_monotone_report(m)
        assert all(v.status is Verdict.HOLDS for v in rep.values())

    def test_a2_matches_row_by_row_fosd(self):
        rng = make_rng(12)
        verdicts = set()
        for k in range(60):
            X, U = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            P = np.stack([random_tp2_stochastic(rng, X) for _ in range(U)])
            if k % 2:  # break one row so that (A2) can fail anywhere
                P[rng.integers(U), rng.integers(X)] = rng.dirichlet(
                    np.ones(X))
            m = PomdpModel(P, np.stack([np.full((X, 2), 0.5)] * U),
                           np.zeros((X, U)), 0.9)
            want = None
            for u in range(U):
                for i in range(X - 1):
                    if want is None and fosd_compare(P[u, i + 1], P[u, i]) \
                            not in (Comparison.GE, Comparison.EQ):
                        want = {"action": u + 1, "rows": (i + 1, i + 2)}
            got = mdp_monotone_report(m)["A2"]
            assert got.witness == want
            assert got.status is (Verdict.HOLDS if want is None
                                  else Verdict.FAILS)
            verdicts.add(got.status)
        assert verdicts == {Verdict.HOLDS, Verdict.FAILS}

    def test_random_violator_fails_with_witness(self):
        P = np.stack([np.eye(3)] * 2)
        costs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 5.0]])
        m = PomdpModel(P, np.stack([np.full((3, 2), 0.5)] * 2), costs, 0.9)
        rep = mdp_monotone_report(m)
        assert rep["A1"].status is Verdict.FAILS
        assert rep["A1"].witness is not None
