"""Dominating transition constructions and the sandwich filter."""

import numpy as np
import pytest

from helpers import random_tp2_stochastic
from pomdpkit.bounds import (
    CountingPredictor,
    rank1_bounds,
    sandwich_filter,
)
from pomdpkit.cli import _sandwich_csv
from pomdpkit.errors import NotTP2, OrderingViolation
from pomdpkit.orders import (
    Comparison,
    copositive_order_transitions,
    mlr_compare,
)
from pomdpkit.rng import make_rng


class TestRank1Bounds:
    def test_rows_are_extreme_rows(self):
        P = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
        lo, hi = rank1_bounds(P)
        assert np.allclose(lo, np.tile([0.6, 0.3, 0.1], (3, 1)))
        assert np.allclose(hi, np.tile([0.1, 0.3, 0.6], (3, 1)))

    def test_identical_rows_collapse(self):
        P = np.tile([0.3, 0.7], (2, 1))
        lo, hi = rank1_bounds(P)
        assert np.allclose(lo, P) and np.allclose(hi, P)

    def test_requires_tp2(self):
        with pytest.raises(NotTP2):
            rank1_bounds([[0.0, 1.0], [1.0, 0.0]])

    def test_output_passes_copositive_checker(self):
        rng = make_rng(0)
        for _ in range(30):
            P = random_tp2_stochastic(rng, int(rng.integers(2, 6)))
            lo, hi = rank1_bounds(P)
            assert copositive_order_transitions(lo, P)
            assert copositive_order_transitions(P, hi)


def _reference_sandwich(P_lower, P, P_upper, B, observations, pi0):
    """Per-step sandwich check: each step raises before the next one is
    filtered, so the first failing step (or zero likelihood) wins."""
    X = len(pi0)
    levels = np.arange(1, X + 1, dtype=float)
    pis = [np.asarray(pi0, dtype=float)] * 3
    preds = [CountingPredictor(T) for T in (P_lower, P, P_upper)]
    for k, y in enumerate(observations):
        col = np.asarray(B)[:, y - 1]
        for f, pred in enumerate(preds):
            unnorm = col * pred.predict(pis[f])
            if unnorm.sum() <= 0:
                return k + 1, "zero-likelihood observation"
            pis[f] = unnorm / unnorm.sum()
        lo, ex, hi = pis
        if mlr_compare(lo, ex) not in (Comparison.LE, Comparison.EQ):
            return k + 1, "lower filter not MLR below"
        if mlr_compare(ex, hi) not in (Comparison.LE, Comparison.EQ):
            return k + 1, "upper filter not MLR above"
        means = [levels @ p for p in pis]
        if not (means[0] <= means[1] + 1e-9 and means[1] <= means[2] + 1e-9):
            return k + 1, "conditional means out of order"
        maps = [int(np.argmax(p)) for p in pis]
        if not maps[0] <= maps[1] <= maps[2]:
            return k + 1, "MAP estimates out of order"
    return None


def _raised(*args, **kwargs):
    try:
        sandwich_filter(*args, **kwargs)
    except OrderingViolation as e:
        return e.step, str(e).split(": ", 1)[1]
    return None


class TestSandwichFilter:
    def _chain(self, rng, X):
        P = random_tp2_stochastic(rng, X)
        B = random_tp2_stochastic(rng, X)
        x = int(rng.integers(X))
        ys = []
        for _ in range(500):
            x = int(rng.choice(X, p=P[x]))
            ys.append(int(rng.choice(X, p=B[x])) + 1)
        return P, B, ys

    def test_identical_bounds_collapse(self):
        rng = make_rng(4)
        P, B, ys = self._chain(rng, 3)
        run = sandwich_filter(P, P, P, B, ys, np.full(3, 1 / 3))
        for s in run.steps:
            assert np.allclose(s.lower, s.exact)
            assert np.allclose(s.upper, s.exact)

    def test_rank1_bounds_never_violate(self):
        rng = make_rng(5)
        for _ in range(3):
            P, B, ys = self._chain(rng, 5)
            lo, hi = rank1_bounds(P)
            run = sandwich_filter(lo, P, hi, B, ys, np.full(5, 0.2))
            assert len(run.steps) == len(ys)

    def test_violation_detected_for_bad_bounds(self):
        rng = make_rng(6)
        P, B, ys = self._chain(rng, 3)
        lo, hi = rank1_bounds(P)
        with pytest.raises(OrderingViolation):
            sandwich_filter(hi, P, lo, B, ys, np.full(3, 1 / 3))

    def test_one_step_bound_without_tp2_exact_matrix(self):
        """The single-step bracket only needs the copositive ordering."""
        rng = make_rng(7)
        for _ in range(50):
            # dominating pair via rank-1 rows of a TP2 envelope, exact
            # matrix built between them (itself not necessarily TP2)
            M = random_tp2_stochastic(rng, 4)
            lam = rng.uniform(0, 1, size=(4, 1))
            P = lam * M[0][None, :] + (1 - lam) * M[-1][None, :]
            lo = np.tile(M[0], (4, 1))
            hi = np.tile(M[-1], (4, 1))
            assert copositive_order_transitions(lo, P)
            B = random_tp2_stochastic(rng, 4)
            pi = rng.dirichlet(np.ones(4))
            y = int(rng.integers(1, 5))
            col = B[:, y - 1]
            posts = []
            for T in (lo, P, hi):
                raw = col * (T.T @ pi)
                posts.append(raw / raw.sum())
            assert mlr_compare(posts[0], posts[1]) in (Comparison.LE,
                                                       Comparison.EQ)
            assert mlr_compare(posts[1], posts[2]) in (Comparison.LE,
                                                       Comparison.EQ)

    def test_multiply_counters(self):
        rng = make_rng(8)
        P, B, ys = self._chain(rng, 6)
        lo, hi = rank1_bounds(P)
        run = sandwich_filter(lo, P, hi, B, ys[:100], np.full(6, 1 / 6))
        # rank-1 predictor: r * X per step; dense: X * X per step
        assert run.lower_multiplies == 1 * 6 * 100
        assert run.exact_multiplies == 6 * 6 * 100

    def test_counting_predictor_groups_rows(self):
        P = np.array([[0.7, 0.3], [0.7, 0.3]])
        pred = CountingPredictor(P)
        assert pred.rank == 1
        out = pred.predict(np.array([0.25, 0.75]))
        assert np.allclose(out, [0.7, 0.3])

    def test_csv_emission(self):
        rng = make_rng(9)
        P, B, ys = self._chain(rng, 3)
        lo, hi = rank1_bounds(P)
        run = sandwich_filter(lo, P, hi, B, ys[:5], np.full(3, 1 / 3))
        lines = _sandwich_csv(run).strip().splitlines()
        assert lines[0].startswith("k,map_lower")
        assert len(lines) == 6

    def test_posterior_array_and_steps(self):
        rng = make_rng(10)
        P, B, ys = self._chain(rng, 4)
        lo, hi = rank1_bounds(P)
        run = sandwich_filter(lo, P, hi, B, ys[:50], np.full(4, 0.25))
        assert run.posteriors.shape == (50, 3, 4)
        assert np.allclose(run.posteriors.sum(axis=-1), 1.0)
        for s, p in zip(run.steps, run.posteriors):
            assert np.array_equal(s.lower, p[0])
            assert np.array_equal(s.exact, p[1])
            assert np.array_equal(s.upper, p[2])

    def test_partway_violations_match_per_step_reference(self):
        rng = make_rng(11)
        raised = []
        for _ in range(60):
            X = int(rng.integers(3, 7))
            P, B, ys = self._chain(rng, X)
            ys = ys[:300]
            lo, hi = rank1_bounds(P)
            # pull one bound part of the way towards the other, so the
            # bracket fails only at some beliefs
            lam = rng.uniform(0, 0.3) * rng.uniform(0, 1, size=(X, 1))
            if rng.uniform() < 0.5:
                lo = (1 - lam) * lo + lam * hi
            else:
                hi = (1 - lam) * hi + lam * lo
            pi0 = rng.dirichlet(np.ones(X))
            got = _raised(lo, P, hi, B, ys, pi0)
            assert got == _reference_sandwich(lo, P, hi, B, ys, pi0)
            raised.append(got)
        steps = [r[0] for r in raised if r is not None]
        assert sum(k > 1 for k in steps) >= 10
        assert {r[1] for r in raised if r is not None} == {
            "lower filter not MLR below", "upper filter not MLR above"}

    def test_map_check_follows_mlr_checks(self):
        # MLR-equal to 1e-12 yet the MAP estimates swap; symbol 1 pins
        # every filter to state 1, so only step 2 fails, and only the
        # MAP check
        ex = np.tile([0.5 + 1e-13, 0.5], (2, 1))
        lo = np.tile([0.5, 0.5 + 1e-13], (2, 1))
        B = np.array([[1.0, 1.0], [0.0, 1.0]])
        pi0 = np.array([0.5, 0.5])
        got = _raised(lo, ex, ex, B, [1, 2, 2], pi0)
        assert got == (2, "MAP estimates out of order")
        assert got == _reference_sandwich(lo, ex, ex, B, [1, 2, 2], pi0)

    def test_earlier_violation_beats_later_zero_likelihood(self):
        P = np.array([[0.8, 0.2], [0.3, 0.7]])
        lo, hi = rank1_bounds(P)
        # symbol 3 has zero likelihood in every state
        B = np.array([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0]])
        pi0 = np.array([0.5, 0.5])
        ys = [1, 2, 3, 1]
        got = _raised(hi, P, lo, B, ys, pi0)
        assert got == (1, "lower filter not MLR below")
        assert got == _reference_sandwich(hi, P, lo, B, ys, pi0)
        assert _raised(lo, P, hi, B, ys, pi0) == (
            3, "zero-likelihood observation")
        assert _raised(hi, P, lo, B, ys, pi0, check=False) == (
            3, "zero-likelihood observation")
        assert _raised(hi, P, lo, B, [3, 1], pi0) == (
            1, "zero-likelihood observation")

    @pytest.mark.parametrize("check", [True, False])
    def test_one_zero_row_stops_the_run(self, check):
        # the lower filter always predicts state 1, which symbol 2 rules
        # out; the exact and upper filters see symbol 2 with mass 1/4
        lo = np.array([[1.0, 0.0], [1.0, 0.0]])
        P = np.full((2, 2), 0.5)
        B = np.array([[0.5, 0.0, 0.5], [0.25, 0.5, 0.25]])
        pi0 = np.array([0.5, 0.5])
        ys = [1, 3, 2, 1]
        got = _raised(lo, P, P, B, ys, pi0, check=check)
        assert got == (3, "zero-likelihood observation")
        assert got == _reference_sandwich(lo, P, P, B, ys, pi0)
