"""Differential tests of the embedded simplex against scipy's HiGHS.

scipy is a test-only dependency, so the module skips itself without it.
The control ``highs_lp`` has the contract of ``solve_lp``; statuses must
agree and optimal values must agree to ``VALUE_TOL``.  The lockstep
``dual_feasible`` must give HiGHS's verdict on every problem of a batch,
with a certificate that passes its numpy check.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

linprog = pytest.importorskip("scipy.optimize").linprog

from helpers import count_calls, lp_fixture
from pomdpkit import simplexlp, solver
from pomdpkit.cli import load_model
from pomdpkit.errors import LpNumericFailure
from pomdpkit.myopic import _monotone_polytope
from pomdpkit.presets import example3
from pomdpkit.simplexlp import CERT_TOL, LpResult, dual_feasible, solve_lp

VALUE_TOL = 1e-9
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


def highs_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, free_vars=()):
    """``solve_lp`` solved by ``linprog(method="highs")``.

    HiGHS's presolve may call an unbounded LP infeasible, so a
    non-optimal status is decided again with a zero objective: that LP is
    never unbounded, and it is optimal exactly when the original LP is
    feasible.  HiGHS may also end an unbounded LP with model status
    Unknown (scipy status 4); a feasible LP is then unbounded exactly
    when some direction ``d`` in the box ``|d| <= 1`` with
    ``A_ub d <= 0``, ``A_eq d = 0`` and ``d >= 0`` off the free
    variables has ``c'd < 0``, which a bounded LP decides.
    """
    c = np.asarray(c, dtype=float)
    free = set(free_vars)
    bounds = [(None, None) if i in free else (0, None)
              for i in range(c.size)]

    def run(cost, rhs_ub=b_ub, rhs_eq=b_eq, bounds=bounds, unknown=False):
        res = linprog(cost, A_ub=A_ub, b_ub=rhs_ub, A_eq=A_eq, b_eq=rhs_eq,
                      bounds=bounds, method="highs", options=HIGHS_OPTIONS)
        # 0 optimal, 2 infeasible, 3 unbounded, 4 unknown where allowed;
        # anything else is a failure
        assert res.status in (0, 2, 3) + ((4,) if unknown else ()), \
            res.message
        return res

    res = run(c, unknown=True)
    if res.status == 0:
        return LpResult("optimal", x=res.x, value=float(res.fun))
    if run(np.zeros_like(c)).status != 0:
        return LpResult("infeasible")
    if res.status == 4:
        ray = run(c, rhs_ub=None if b_ub is None else np.zeros(len(b_ub)),
                  rhs_eq=None if b_eq is None else np.zeros(len(b_eq)),
                  bounds=[(-1, 1) if i in free else (0, 1)
                          for i in range(c.size)])
        # a bounded feasible LP that HiGHS could not solve is a failure
        assert ray.status == 0 and ray.fun < -VALUE_TOL, res.message
    return LpResult("unbounded")


def assert_agrees(lp):
    ours = solve_lp(**lp)
    control = highs_lp(**lp)
    assert ours.status == control.status
    if control.optimal:
        assert abs(ours.value - control.value) <= VALUE_TOL


class TestRecordedFixtures:
    def test_search_prune(self):
        lp = lp_fixture("search_prune")
        assert np.asarray(lp["A_ub"]).shape == (91, 6)
        assert_agrees(lp)

    def test_per_belief_infeasible(self):
        lp = lp_fixture("per_belief_infeasible")
        assert np.asarray(lp["A_ub"]).shape == (63, 8)
        assert highs_lp(**lp).status == "infeasible"
        assert_agrees(lp)


def fail_ratio_test_once(monkeypatch, corrupt_basis=False):
    """The first ratio test of a solve finds no leaving row, as after
    numerical corruption; ``corrupt_basis`` also makes the basis matrix
    singular by repeating its first column."""
    original = simplexlp._Tableau.leaving_row
    fired = []

    def leaving_row(self, col):
        if fired:
            return original(self, col)
        fired.append(True)
        if corrupt_basis:
            self.basis[1] = self.basis[0]
        return -1

    monkeypatch.setattr(simplexlp._Tableau, "leaving_row", leaving_row)


def klee_minty(d):
    """Chvatal's form of the Klee-Minty cube: Dantzig pricing from the
    origin visits all 2^d vertices."""
    A = np.eye(d)
    for i in range(d):
        A[i, :i] = 2 * 10.0 ** np.arange(i, 0, -1)
    return -10.0 ** np.arange(d - 1, -1, -1), A, 100.0 ** np.arange(d)


class TestRecoveryPaths:
    """Each recovery path of ``solve_lp``, forced from outside, ends at
    HiGHS's optimum and shows on the solve's counters."""

    def test_refactorization(self, monkeypatch):
        lp = lp_fixture("search_prune")
        fail_ratio_test_once(monkeypatch)
        res = solve_lp(**lp)
        assert res.refactorizations == 1 and not res.retried
        assert abs(res.value - highs_lp(**lp).value) <= VALUE_TOL

    def test_repaired_basis(self, monkeypatch):
        lp = lp_fixture("search_prune")
        repairs = count_calls(monkeypatch, simplexlp._Tableau,
                              "_repair_basis")
        fail_ratio_test_once(monkeypatch, corrupt_basis=True)
        res = solve_lp(**lp)
        assert len(repairs) == 1
        assert res.refactorizations == 1 and not res.retried
        assert abs(res.value - highs_lp(**lp).value) <= VALUE_TOL

    def test_perturbed_retry(self, monkeypatch):
        core = simplexlp._solve_core

        def fail_unperturbed(*args):
            if args[6] == 0.0:      # the perturbation
                raise LpNumericFailure("forced")
            return core(*args)

        monkeypatch.setattr(simplexlp, "_solve_core", fail_unperturbed)
        lp = {"c": [-1.0, -2.0], "A_ub": [[1.0, 1.0], [1.0, 3.0]],
              "b_ub": [4.0, 6.0]}
        res = solve_lp(**lp)
        assert res.retried
        assert abs(res.value - highs_lp(**lp).value) <= VALUE_TOL

    def test_bland_switch(self, monkeypatch):
        # solve_lp's row equilibration rescales the slacks and shortens
        # the Klee-Minty walk to 2d - 1 pivots, so the tableau is driven
        # directly; every pivot counts as a stall
        c, A, b = klee_minty(8)
        monkeypatch.setattr(simplexlp, "STALL_TOL", np.inf)
        counts = {"pivots": 0, "refactorizations": 0, "bland": False}
        tab = simplexlp._Tableau(np.hstack([A, np.eye(8)]), b,
                                 np.arange(8, 16), counts)
        tab.price(np.concatenate([c, np.zeros(8)]))
        assert tab.solve(np.ones(16, dtype=bool), 10_000) == "optimal"
        assert counts["bland"] and counts["pivots"] > 3 * (8 + 16)
        control = highs_lp(c, A_ub=A, b_ub=b).value
        assert tab.objective() == pytest.approx(control, rel=1e-12)


def highs_feasible(M, b) -> bool:
    """Whether ``M f <= b, f >= 0`` has a solution, by HiGHS.

    The dual simplex leaves some ``example3`` probes with status 4
    ("model status unknown"); those are decided again by HiGHS's
    interior-point method.
    """
    for method in ("highs-ds", "highs-ipm"):
        res = linprog(np.zeros(M.shape[1]), A_ub=M, b_ub=b,
                      bounds=(0, None), method=method)
        if res.status in (0, 2):
            return res.status == 0
    raise AssertionError(res.message)


def assert_dual_agrees(M, b):
    """``dual_feasible`` on the batch gives HiGHS's verdicts, and every
    certificate passes: ``M f <= b, f >= 0`` for a feasible problem,
    ``z >= 0, M'z >= 0, b'z < 0`` for an infeasible one, to
    ``CERT_TOL`` per unit of row size."""
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    res = dual_feasible(M, b)
    assert res.feasible.shape == (len(M),)
    for k in range(len(M)):
        assert res.feasible[k] == highs_feasible(M[k], b[k])
        scale = np.abs(M[k]).max(axis=1, initial=0.0)
        if res.feasible[k]:
            f = res.f[k]
            assert (f >= 0).all()
            size = np.maximum(scale, 1.0) + np.abs(M[k]) @ f
            assert (M[k] @ f - b[k] <= CERT_TOL * size).all()
            assert not res.ray[k].any()
        else:
            z = res.ray[k]
            assert (z >= 0).all()
            assert (z @ M[k]).min() >= -CERT_TOL * max(1.0, scale.max())
            assert b[k] @ z < 0
            assert not res.f[k].any()
    return res


def belief_probe(rho, tag, action, pi):
    """Per-belief bound problem of ``example3``: a transform in the tag
    polytope that makes ``action`` myopic at ``pi``."""
    m = example3(rho)
    A, b = _monotone_polytope(
        m, "increasing" if tag == "C1" else "decreasing", 1e-6)
    E = np.stack([np.eye(8) - rho * m.P(u) for u in range(1, 9)])
    lin = np.einsum("x,uxy->uy", pi, E)
    base = pi @ m.costs
    others = [u for u in range(8) if u != action - 1]
    rows = lin[action - 1] - lin[others]
    rhs = base[others] - base[action - 1]
    return np.vstack([A, rows]), np.concatenate([b, rhs])


@st.composite
def small_feasibility_batches(draw):
    """Batches of small-integer ``M f <= b`` with zero rows, negative
    right-hand sides and duplicated rows."""
    B = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    X = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    M = rng.integers(-3, 4, size=(B, m, X)).astype(float)
    b = rng.integers(-2, 3, size=(B, m)).astype(float)
    zero = draw(st.lists(st.integers(0, m - 1), max_size=2))
    M[:, zero] = 0.0
    dup = draw(st.lists(st.integers(0, m - 1), max_size=3))
    return (np.concatenate([M, M[:, dup]], axis=1),
            np.concatenate([b, b[:, dup]], axis=1))


class TestDualFeasible:
    def test_recorded_per_belief_fixture(self):
        lp = lp_fixture("per_belief_infeasible")
        M = np.asarray(lp["A_ub"])[None]
        b = np.asarray(lp["b_ub"])[None]
        assert M.shape == (1, 63, 8)
        res = assert_dual_agrees(M, b)
        assert not res.feasible[0]

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.3, 0.95), st.sampled_from(["C1", "C2"]),
           st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.sampled_from([0.2, 1.0, 5.0]))
    def test_example3_belief_probes(self, rho, tag, action, seed, alpha):
        pi = np.random.default_rng(seed).dirichlet(np.full(8, alpha))
        M, b = belief_probe(rho, tag, action, pi)
        assert_dual_agrees(M[None], b[None])

    def test_near_vertex_belief_probe(self):
        # tableau entries grow to about 1e7 on the way; an entry of 7e-8
        # is then rounding noise and must not be taken as a pivot
        pi = np.array([2.994232135164629e-22, 6.3231071587212346e-06,
                       8.94207820448972e-27, 1.2495623224721431e-05,
                       6.638228366844047e-14, 1.8934429043583725e-07,
                       6.354639115746263e-19, 0.9999809919252597])
        M, b = belief_probe(0.5223585634113783, "C1", 6, pi)
        assert not assert_dual_agrees(M[None], b[None]).feasible[0]

    @settings(max_examples=300, deadline=None)
    @given(small_feasibility_batches())
    def test_small_integer_batches(self, batch):
        assert_dual_agrees(*batch)

    def test_mixed_batch_matches_single_problems(self):
        pi = np.random.default_rng(5).dirichlet(np.ones(8))
        probes = [belief_probe(0.6, tag, a, pi)
                  for tag in ("C1", "C2") for a in range(1, 9)]
        M = np.stack([p[0] for p in probes])
        b = np.stack([p[1] for p in probes])
        res = assert_dual_agrees(M, b)
        assert 0 < res.feasible.sum() < len(M)
        for k in range(len(M)):
            one = dual_feasible(M[k:k + 1], b[k:k + 1])
            assert one.feasible[0] == res.feasible[k]
            np.testing.assert_array_equal(one.f[0], res.f[k])
            np.testing.assert_array_equal(one.ray[0], res.ray[k])

    def test_empty_batch(self):
        res = dual_feasible(np.zeros((0, 4, 3)), np.zeros((0, 4)))
        assert res.feasible.shape == (0,)
        assert res.f.shape == (0, 3) and res.ray.shape == (0, 4)
        assert res.pivots == 0

    def test_iteration_cap_raises(self, monkeypatch):
        lp = lp_fixture("per_belief_infeasible")
        monkeypatch.setattr(simplexlp, "DUAL_MAX_ITER", 1)
        with pytest.raises(LpNumericFailure):
            dual_feasible(np.asarray(lp["A_ub"])[None],
                          np.asarray(lp["b_ub"])[None])


@st.composite
def degenerate_lps(draw):
    """Small-integer LPs with zero and negative right-hand sides,
    duplicated rows and, optionally, a free variable and a simplex
    equality row over the other variables."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 6))
    coef = st.integers(-3, 3)
    A = np.array(draw(st.lists(st.lists(coef, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    b = np.array(draw(st.lists(st.integers(-2, 2), min_size=m,
                               max_size=m)), dtype=float)
    dup = draw(st.lists(st.integers(0, m - 1), max_size=3))
    A = np.vstack([A, A[dup]])
    b = np.concatenate([b, b[dup]])
    c = np.array(draw(st.lists(coef, min_size=n, max_size=n)), dtype=float)
    free = draw(st.sampled_from([(), (n - 1,)]))
    lp = {"c": c, "A_ub": A, "b_ub": b, "free_vars": free}
    if draw(st.booleans()):
        row = np.ones((1, n))
        row[0, list(free)] = 0.0
        lp.update(A_eq=row, b_eq=[1.0])
    return lp


@st.composite
def envelope_lps(draw):
    """Pruning LPs ``min z st (g - g_k)' pi <= z`` on the simplex, over
    near-duplicate gradient vectors (all-zero right-hand side)."""
    X = draw(st.integers(2, 5))
    k = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    # spreads from 1e-9 to 1e-7 fall between the kernel's pivot
    # thresholds, where it is off by up to about 1e-7 (see TestKnownGap)
    spread = draw(st.sampled_from([0.0, 1e-10, 1e-5, 1e-3, 1.0]))
    rng = np.random.default_rng(seed)
    base = rng.normal(size=X)
    vecs = base + spread * rng.normal(size=(k + 1, X))
    dup = draw(st.lists(st.integers(0, k), max_size=2))
    vecs = np.vstack([vecs, vecs[dup]])
    diff = vecs[0][None, :] - vecs[1:]
    c = np.zeros(X + 1)
    c[-1] = 1.0
    return {"c": c,
            "A_ub": np.hstack([diff, -np.ones((len(diff), 1))]),
            "b_ub": np.zeros(len(diff)),
            "A_eq": np.hstack([np.ones((1, X)), np.zeros((1, 1))]),
            "b_eq": [1.0], "free_vars": [X]}


class TestGeneratedLps:
    @settings(max_examples=400, deadline=None)
    @given(degenerate_lps())
    # unbounded along d = (0, 0, 1, 2, 2); HiGHS ends it with status Unknown
    @example({"c": np.array([1.0, 1.0, -1.0, 1.0, -1.0]),
              "A_ub": np.array([[0.0, -1.0, 2.0, -2.0, 1.0],
                                [0.0, 0.0, -3.0, 0.0, -1.0],
                                [-1.0, 0.0, 1.0, -2.0, -1.0],
                                [0.0, 0.0, -2.0, 1.0, 0.0],
                                [0.0, 0.0, 0.0, -2.0, 1.0]]),
              "b_ub": np.array([0.0, -1.0, 0.0, 0.0, -1.0]),
              "free_vars": ()})
    def test_degenerate_integer_lps(self, lp):
        assert_agrees(lp)

    @settings(max_examples=200, deadline=None)
    @given(envelope_lps())
    def test_envelope_pruning_lps(self, lp):
        assert_agrees(lp)


class TestKnownGap:
    """Gradient gaps between the pivot thresholds ``TOL`` and ``PIVOT_TOL``.

    The ratio test looks only at rows whose entry exceeds ``PIVOT_TOL``
    while any does, so a row with a smaller positive entry does not block
    the step and ends up violated.  Here ``g0 - g2 = (1e-8, 1e-8)`` forces
    ``z >= 1e-8``, yet the kernel returns ``pi = (0, 1)``, ``z = -2e-8``.
    """

    @pytest.mark.xfail(strict=True, reason="rows with entries below "
                       "PIVOT_TOL do not block the ratio test")
    def test_gaps_below_pivot_tol(self):
        g = np.array([[-1.83 + 1e-8, 1.8],
                      [-1.83, 1.8 + 2e-8],
                      [-1.83, 1.8 - 1e-8]])
        diff = g[0] - g[1:]
        assert_agrees({"c": [0.0, 0.0, 1.0],
                       "A_ub": np.hstack([diff, -np.ones((2, 1))]),
                       "b_ub": np.zeros(2),
                       "A_eq": [[1.0, 1.0, 0.0]], "b_eq": [1.0],
                       "free_vars": [2]})


def highs_control(call):
    """Run ``call`` with every solver LP solved by HiGHS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_lp", highs_lp)
        return call()


@pytest.fixture(scope="module")
def search():
    return load_model("search")


class TestSearchPreset:
    """The ``search`` preset at horizon 10 and under discounted VI, where
    the kernel once raised ``LpNumericFailure``."""

    def test_horizon_10_envelope_matches_highs(self, search):
        ours = solver.solve_finite_horizon(search, 10)
        control = highs_control(
            lambda: solver.solve_finite_horizon(search, 10))
        X = search.num_states
        rng = np.random.default_rng(0)
        pis = np.vstack([rng.dirichlet(np.ones(X), 200), np.eye(X)])
        assert len(ours.stage_sets) == len(control.stage_sets) == 11
        # near-ties at PRUNE_TOL may keep different vectors, so compare
        # envelopes, not vector counts
        for a, b in zip(ours.stage_sets, control.stage_sets):
            assert a.stage == b.stage
            np.testing.assert_allclose((pis @ a.vectors.T).min(axis=1),
                                       (pis @ b.vectors.T).min(axis=1),
                                       rtol=0, atol=VALUE_TOL)

    def test_discounted_vi_matches_highs(self, search):
        uniform = np.full(search.num_states, 1.0 / search.num_states)
        ours = solver.value_iteration_discounted(search, 1e-6)
        control = highs_control(
            lambda: solver.value_iteration_discounted(search, 1e-6))
        assert abs(ours.value(uniform) - control.value(uniform)) \
            <= VALUE_TOL


def envelope_pair(rng) -> tuple:
    """Two sets of 1..6 vectors in X = 2..4; half the time B repeats
    vectors of A shifted by 1e-10..1e-7, so the envelopes nearly tie."""
    X = int(rng.integers(2, 5))
    A = rng.normal(size=(int(rng.integers(1, 7)), X))
    B = rng.normal(size=(int(rng.integers(1, 7)), X))
    if rng.random() < 0.5:
        k = min(len(A), len(B))
        scale = 10.0 ** rng.uniform(-10, -7)
        B[:k] = A[:k] + scale * rng.normal(size=(k, X))
    return solver.vector_set(A), solver.vector_set(B)


class TestEnvelopeGapWitness:
    """``sup_envelope_gap`` against HiGHS, and its belief attains it."""

    def test_gap_matches_highs_and_belief_attains_it(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            A, B = envelope_pair(rng)
            gap, pi = solver.sup_envelope_gap(A, B)
            control = highs_control(lambda: solver.sup_envelope_gap(A, B))
            assert abs(gap - control[0]) <= VALUE_TOL
            attained = (A.vectors @ pi).min() - (B.vectors @ pi).min()
            assert abs(attained - gap) <= 1e-9
            assert abs(pi.sum() - 1.0) <= 1e-12 and (pi >= -1e-12).all()
