"""Unit tests for the embedded dense two-phase simplex solver."""

import itertools

import numpy as np
import pytest

from helpers import lp_fixture
from pomdpkit.rng import make_rng
from pomdpkit.simplexlp import TOL, LpResult, _leaving_rows, solve_lp


class TestBasics:
    def test_simple_bounded(self):
        res = solve_lp([-1, -1], A_ub=[[1, 1]], b_ub=[1])
        assert res.optimal
        assert res.value == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible(self):
        res = solve_lp([1], A_ub=[[1]], b_ub=[-1])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp([-1], A_ub=[[-1]], b_ub=[0])
        assert res.status == "unbounded"

    def test_free_variable_split(self):
        res = solve_lp([1], A_ub=[[-1]], b_ub=[3], free_vars=[0])
        assert res.optimal
        assert res.x[0] == pytest.approx(-3.0, abs=1e-9)

    def test_equality_with_simplex(self):
        # max t st t <= 2 pi1, t <= pi2 on the unit simplex -> t = 2/3
        A_ub = [[-2, 0, 1], [0, -1, 1]]
        res = solve_lp([0, 0, -1], A_ub=A_ub, b_ub=[0, 0],
                       A_eq=[[1, 1, 0]], b_eq=[1], free_vars=[2])
        assert res.optimal
        assert -res.value == pytest.approx(2 / 3, abs=1e-9)

    def test_beale_degenerate_cycle_guard(self):
        c = [-0.75, 150, -0.02, 6]
        A = [[0.25, -60, -1 / 25, 9], [0.5, -90, -1 / 50, 3], [0, 0, 1, 0]]
        res = solve_lp(c, A_ub=A, b_ub=[0, 0, 1])
        assert res.optimal
        assert res.value == pytest.approx(-0.05, abs=1e-9)

    def test_zero_rows_checked(self):
        res = solve_lp([1.0], A_ub=[[0.0]], b_ub=[-0.5])
        assert res.status == "infeasible"
        res = solve_lp([1.0], A_ub=[[0.0], [1.0]], b_ub=[0.5, 2.0])
        assert res.optimal

    def test_feasibility_helper(self):
        assert solve_lp(np.zeros(2), A_ub=[[1, 1]], b_ub=[1]).optimal
        assert not solve_lp(np.zeros(2), A_eq=[[1, 1]], b_eq=[-1]).optimal


class TestAgainstEnumeration:
    """Random 2-variable LPs validated against vertex enumeration."""

    def test_random_instances(self):
        rng = make_rng(0)
        for _ in range(300):
            A = rng.normal(size=(5, 2))
            b = rng.uniform(0.1, 2.0, size=5)
            c = rng.normal(size=2)
            res = solve_lp(c, A_ub=A, b_ub=b)
            # origin is feasible, so status is optimal or unbounded
            assert res.status in ("optimal", "unbounded")
            if res.status != "optimal":
                continue
            best = 0.0
            pts = [np.zeros(2)]
            for i, j in itertools.combinations(range(5), 2):
                M = A[[i, j]]
                if abs(np.linalg.det(M)) < 1e-9:
                    continue
                p = np.linalg.solve(M, b[[i, j]])
                if (p >= -1e-9).all() and (A @ p <= b + 1e-9).all():
                    pts.append(p)
            for i in range(5):
                for k in range(2):
                    if abs(A[i, k]) > 1e-9:
                        p = np.zeros(2)
                        p[k] = b[i] / A[i, k]
                        if p[k] >= -1e-9 and (A @ p <= b + 1e-9).all():
                            pts.append(p)
            best = min(c @ p for p in pts)
            assert res.value <= best + 1e-6
            assert (A @ res.x <= b + 1e-7).all()
            assert (res.x >= -1e-9).all()

    def test_degenerate_envelope_instances(self):
        """Near-duplicate rows with all-zero rhs (the pruning workload)."""
        rng = make_rng(7)
        for _ in range(200):
            base = rng.normal(size=3)
            vecs = base + 1e-7 * rng.normal(size=(6, 3))
            vecs[0] = base
            delta = vecs[int(rng.integers(6))]
            rows = []
            for g in vecs:
                row = np.zeros(4)
                row[:3] = delta - g
                row[3] = 1.0
                rows.append(row)
            A_eq = np.zeros((1, 4))
            A_eq[0, :3] = 1.0
            c = np.zeros(4)
            c[3] = -1.0
            res = solve_lp(c, A_ub=np.asarray(rows), b_ub=np.zeros(6),
                           A_eq=A_eq, b_eq=[1.0], free_vars=[3])
            assert res.optimal
            assert res.value <= 1e-6  # margin cannot be positive


class TestCounters:
    def test_defaults_change_nothing(self):
        res = LpResult("optimal", x=np.zeros(1), value=0.0)
        assert (res.pivots, res.refactorizations, res.bland,
                res.retried) == (0, 0, False, False)

    def test_crash_basis_phase1_pivots(self):
        """Every row of the recorded pruning LP but the simplex equality
        is a <= row with zero rhs, so it starts on its slack; only the
        equality row needs an artificial.  A zero objective leaves phase 2
        nothing to do, so every pivot counted is phase 1's."""
        lp = lp_fixture("search_prune")
        assert len(lp["b_ub"]) == 91 and not any(lp["b_ub"])
        lp["c"] = np.zeros(len(lp["c"]))
        res = solve_lp(**lp)
        assert res.optimal
        assert res.pivots == 2
        assert (res.refactorizations, res.bland, res.retried) == \
            (0, False, False)

    def test_pivots_counted(self):
        res = solve_lp([-1, -1], A_ub=[[1, 1]], b_ub=[1])
        assert res.optimal and res.pivots == 1
        # the origin is optimal on the slack basis: no pivot at all
        assert solve_lp([1, 1], A_ub=[[1, 1]], b_ub=[1]).pivots == 0


class TestLockstepRatioTest:
    """``_leaving_rows`` on one entering column (rows of a batch of 1)."""

    @staticmethod
    def leave(rhs, col):
        rhs = np.array([rhs], dtype=float)
        col = np.array([col], dtype=float)
        big = col > TOL * max(1.0, np.abs(col).max())
        basis = np.arange(col.shape[1])[None]
        return int(_leaving_rows(rhs, col, big, basis,
                                 np.array([False]))[0])

    def test_small_positive_entry_bounds_the_step(self):
        # an entry between TOL and PIVOT_TOL still blocks a larger step
        assert self.leave([1e-9, 1.0], [1e-8, 1.0]) == 0

    def test_largest_entry_among_fitting_rows(self):
        assert self.leave([0.0, 0.0, 1.0], [0.5, 2.0, 1.0]) == 1

    def test_rounding_noise_does_not_become_the_pivot(self):
        # the 1e-12 entry would bind, but it is below the pivot tolerance
        assert self.leave([0.0, 2.0], [1e-12, 1.0]) == 1
