"""Linear threshold policies, the spherical parametrization and SPSA."""

import itertools

import numpy as np
import pytest

from pomdpkit.apps import build_quickest_detection
from pomdpkit.cli import load_model
from pomdpkit.errors import DimensionMismatch
from pomdpkit.filters import PathSampler, cumulative, sample_index
from pomdpkit.rng import make_rng, uniform_simplex
from pomdpkit.stopgrid import batched_stopping_costs, solve_stopping_grid
from pomdpkit.threshold import (
    SpsaHyper,
    evaluate_stop_policy,
    evaluate_threshold_policy,
    linear_threshold_action,
    linear_threshold_actions,
    spherical_to_theta,
    spsa_fit,
    threshold_constraints_ok,
    truncation_horizon,
)


def qd3_model(rho=0.9):
    return build_quickest_detection(
        [0.0, 0.5, 0.5], [[0.5, 0.2], [0.3, 0.6]], [0.3, 0.1],
        [[0.7, 0.2, 0.1], [0.15, 0.5, 0.35], [0.15, 0.5, 0.35]],
        d=2.5, beta=2.0, alpha=0.0, delay_kind="predicted", rho=rho)


class TestLinearThreshold:
    def test_vertex_e1_stops(self):
        assert linear_threshold_action([1.0, 1.0], [1.0, 0.0, 0.0]) == 1

    def test_vertex_eX_boundary_continues(self):
        # decision value is exactly zero at e_3 for theta = (1, 1)
        assert linear_threshold_action([1.0, 1.0], [0.0, 0.0, 1.0]) == 2

    def test_monotone_along_vertex_lines(self):
        rng = make_rng(0)
        for _ in range(100):
            phi = rng.normal(size=2)
            theta = spherical_to_theta(phi)
            base = uniform_simplex(rng, 1, 3)[0]
            base[2] = 0.0
            base /= base.sum()
            eps = np.linspace(0, 1, 100)
            pis = (1 - eps)[:, None] * base[None, :]
            pis[:, 2] += eps
            acts = linear_threshold_actions(theta, pis)
            assert (np.diff(acts) >= 0).all()

    def test_batched_matches_scalar(self):
        rng = make_rng(1)
        theta = spherical_to_theta(rng.normal(size=3))
        pis = uniform_simplex(rng, 50, 4)
        batched = linear_threshold_actions(theta, pis)
        for pi, a in zip(pis, batched):
            assert linear_threshold_action(theta, pi) == a

    @pytest.mark.parametrize("X", [2, 3, 4, 5])
    def test_one_theta_per_row_matches_one_theta(self, X):
        rng = make_rng(X)
        thetas = np.stack([spherical_to_theta(rng.normal(size=X - 1))
                           for _ in range(4)])
        pis = uniform_simplex(rng, 200, X)
        rows = rng.integers(0, 4, size=200)
        per_row = linear_threshold_actions(thetas[rows], pis)
        for k in range(4):
            mask = rows == k
            assert np.array_equal(
                per_row[mask], linear_threshold_actions(thetas[k], pis[mask]))


class TestSphericalParametrization:
    def test_reference_point(self):
        assert np.allclose(spherical_to_theta([0.0, 1.0]), [1.0, 1.0])

    def test_constraints_by_construction(self):
        rng = make_rng(2)
        for _ in range(300):
            dim = int(rng.integers(1, 6))
            theta = spherical_to_theta(rng.normal(scale=3, size=dim))
            if theta[-1] <= 0:  # phi(X-1) = 0 exactly is measure zero
                continue
            assert threshold_constraints_ok(theta)

    def test_checker_rejects_violations(self):
        assert not threshold_constraints_ok([0.5, 1.0])   # theta(X-2) < 1
        assert not threshold_constraints_ok([1.0, 0.0])   # theta(X-1) = 0
        assert not threshold_constraints_ok([-0.1, 2.0, 1.0])
        assert threshold_constraints_ok([1.5, 2.0, 1.0])


def _reference_stopping_costs(sm, policy_values, pi0s, horizon, rng):
    """The boolean-mask loop that ``batched_stopping_costs`` replaced:
    full-length arrays, written back row by row."""
    beliefs = np.atleast_2d(np.asarray(pi0s, dtype=float)).copy()
    n = len(beliefs)
    sampler = PathSampler(sm.P[None], sm.B[None])
    states = sample_index(cumulative(beliefs), rng)
    total = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    disc = 1.0
    for k in range(horizon):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        acts = policy_values(beliefs[idx], idx)
        stopping = idx[acts == 1]
        if stopping.size:
            total[stopping] += disc * sm.stop_cost.batch(beliefs[stopping])
            alive[stopping] = False
        going = idx[acts == 2]
        if going.size:
            total[going] += disc * sm.continue_cost.batch(beliefs[going])
            states[going], ys = sampler.draw(0, states[going], rng)
            beliefs[going] = sampler.filter(0, beliefs[going], ys)
        disc *= sm.discount
    if alive.any():
        total[alive] += disc * sm.stop_cost.batch(beliefs[alive])
    return total


def _reference_threshold_actions(theta, pis):
    X = pis.shape[1]
    slopes = np.broadcast_to(theta[..., :X - 2], (pis.shape[0], X - 2))
    decision = pis[:, 1] + np.einsum("ij,ij->i", pis[:, 2:], slopes) \
        - theta[..., X - 2]
    return np.where(decision < 0, 1, 2)


def _reference_spsa(sm, iterations, seed, restarts):
    """The SPSA loop as it stood before its traces were preallocated,
    on the reference path costs and threshold rule."""
    hyper = SpsaHyper()
    dim = sm.num_states - 1
    K = truncation_horizon(sm)
    rngs = [make_rng(seed, shard=r + 1) for r in range(restarts)]
    phis = make_rng(seed).normal(scale=1.0, size=(restarts, dim))
    traces = [[phis[r].copy()] for r in range(restarts)]
    costs = [[] for _ in range(restarts)]
    for n in range(iterations):
        delta = hyper.perturbation(n)
        gain = hyper.gain_at(n)
        for r in range(restarts):
            rng = rngs[r]
            omega = rng.integers(0, 2, size=dim) * 2.0 - 1.0
            pair = np.stack([phis[r] + delta * omega,
                             phis[r] - delta * omega])
            thetas = np.stack([spherical_to_theta(p) for p in pair])
            pi0 = uniform_simplex(rng, 2, sm.num_states)
            j = _reference_stopping_costs(
                sm, lambda pis, idx: _reference_threshold_actions(
                    thetas[idx], pis), pi0, K, rng)
            grad = (j[0] - j[1]) / (2.0 * delta) * omega
            phis[r] = phis[r] - gain * grad
            traces[r].append(phis[r].copy())
            costs[r].append(0.5 * (j[0] + j[1]))
    return [(np.asarray(t), np.asarray(c)) for t, c in zip(traces, costs)]


class TestStoppingCostsReference:
    @pytest.mark.parametrize("name", ["qd-ph", "qd-classical"])
    def test_per_row_and_shared_theta(self, name):
        sm = load_model(name)
        X = sm.num_states
        K = truncation_horizon(sm)
        for seed in (1, 4, 9):
            rng = make_rng(seed)
            thetas = np.stack([spherical_to_theta(rng.normal(size=X - 1))
                               for _ in range(40)])
            pis = uniform_simplex(rng, 40, X)
            policies = [
                lambda b, idx: linear_threshold_actions(thetas[idx], b),
                lambda b, idx: linear_threshold_actions(thetas[0], b)]
            # a short horizon leaves paths alive at its end
            for policy, horizon in itertools.product(policies, (3, K)):
                got = batched_stopping_costs(sm, policy, pis, horizon,
                                             make_rng(seed + 100))
                want = _reference_stopping_costs(sm, policy, pis, horizon,
                                                 make_rng(seed + 100))
                assert np.array_equal(got, want), (name, seed, horizon)

    def test_all_stop_zero_horizon_and_all_continue(self):
        sm = load_model("qd-ph")
        pis = uniform_simplex(make_rng(2), 7, 3)
        cases = [(lambda b, idx: np.ones(len(b), int), 5),
                 (lambda b, idx: np.full(len(b), 2), 0),
                 (lambda b, idx: np.full(len(b), 2), 4)]
        for policy, horizon in cases:
            got = batched_stopping_costs(sm, policy, pis, horizon,
                                         make_rng(3))
            want = _reference_stopping_costs(sm, policy, pis, horizon,
                                             make_rng(3))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("decision", [0, 3, -1])
    def test_decision_other_than_stop_or_continue_raises(self, decision):
        sm = load_model("qd-ph")
        pis = uniform_simplex(make_rng(1), 3, 3)
        with pytest.raises(DimensionMismatch,
                           match=rf"step 0: .*\[{decision}\]"):
            batched_stopping_costs(
                sm, lambda b, idx: np.full(len(b), decision), pis, 5,
                make_rng(1))
        # one bad path among continuing ones, a step in
        calls = []

        def late(b, idx):
            calls.append(idx)
            acts = np.full(len(b), 2)
            if len(calls) == 2:
                acts[-1] = decision
            return acts

        with pytest.raises(DimensionMismatch, match="step 1: "):
            batched_stopping_costs(sm, late, pis, 5, make_rng(1))

    @pytest.mark.parametrize("name", ["qd-ph", "qd-classical"])
    def test_spsa_traces_match_reference(self, name):
        sm = load_model(name)
        runs = spsa_fit(sm, 60, seed=11, restarts=3)
        want = _reference_spsa(sm, 60, seed=11, restarts=3)
        for run, (phi_trace, cost_trace) in zip(runs, want):
            assert np.array_equal(run.phi_trace, phi_trace)
            assert np.array_equal(run.cost_trace, cost_trace)
            assert np.array_equal(run.theta,
                                  spherical_to_theta(phi_trace[-1]))


class TestSampleCost:
    def test_zero_costs(self):
        sm = qd3_model()
        zero = build_quickest_detection(
            [0.0, 0.5, 0.5], [[0.5, 0.2], [0.3, 0.6]], [0.3, 0.1],
            [[0.7, 0.2, 0.1], [0.15, 0.5, 0.35], [0.15, 0.5, 0.35]],
            d=0.0, beta=0.0, alpha=0.0, delay_kind="predicted", rho=0.9)
        costs = evaluate_stop_policy(zero, lambda b: np.full(len(b), 2), 3,
                                     seed=1)
        assert costs == pytest.approx(np.zeros(3))

    def test_immediate_stop_pays_stop_cost(self):
        sm = qd3_model()
        pi0 = np.array([0.0, 0.4, 0.6])
        c = batched_stopping_costs(sm, lambda b, idx: np.ones(len(b), int),
                                   pi0, truncation_horizon(sm), make_rng(2))
        assert c == pytest.approx([sm.stop_cost(pi0)])

    def test_zero_horizon_pays_stop_cost_at_prior(self):
        sm = qd3_model()
        pis = uniform_simplex(make_rng(1), 3, 3)
        stop = [sm.stop_cost(p) for p in pis]
        assert batched_stopping_costs(
            sm, lambda b, idx: np.full(len(b), 2), pis, 0, make_rng(1)) \
            == pytest.approx(stop)

    def test_truncation_horizon_bound(self):
        sm = qd3_model(rho=0.9)
        K = truncation_horizon(sm)
        cmax = 2.5  # largest cost coefficient in the model
        assert 0.9 ** K * cmax / (1 - 0.9) < 1e-5

    def test_mean_matches_grid_policy_value(self):
        sm = qd3_model()
        sol = solve_stopping_grid(sm, 120, epsilon=1e-10)
        costs = evaluate_stop_policy(sm, sol.actions, 4000, seed=3)
        # expected value of V over uniform priors
        rng = make_rng(3)
        pis = uniform_simplex(rng, 4000, 3)
        expect = np.mean([sol.value(p) for p in pis])
        se = costs.std(ddof=1) / np.sqrt(len(costs))
        assert abs(costs.mean() - expect) < 4 * se + 1e-3


class TestSpsa:
    def test_quadratic_stub_converges(self):
        class Quad:
            dim = 2

            def __call__(self, phi_mat, rng):
                return ((phi_mat - np.array([0.7, -0.3])) ** 2).sum(axis=1)

        runs = spsa_fit(None, 4000, seed=3,
                        hyper=SpsaHyper(gain=0.5, step=0.05),
                        restarts=3, objective=Quad())
        for r in runs:
            assert np.abs(r.phi_trace[-1]
                          - np.array([0.7, -0.3])).max() < 1e-2

    def test_zero_gradient_landscape_constant(self):
        class Flat:
            dim = 2

            def __call__(self, phi_mat, rng):
                return np.ones(phi_mat.shape[0])

        runs = spsa_fit(None, 100, seed=4, restarts=2, objective=Flat())
        for r in runs:
            assert np.allclose(r.phi_trace[0], r.phi_trace[-1])

    def test_iterates_satisfy_constraints(self):
        sm = qd3_model()
        runs = spsa_fit(sm, 300, seed=5, restarts=2)
        for r in runs:
            for phi in r.phi_trace[::20]:
                theta = spherical_to_theta(phi)
                if theta[-1] > 0:
                    assert threshold_constraints_ok(theta)

    def test_fit_improves_on_initial_policy(self):
        sm = qd3_model()
        runs = spsa_fit(sm, 1500, seed=6, restarts=3)
        best = min(runs, key=lambda r: evaluate_threshold_policy(
            sm, r.theta, 2000, seed=99).mean())
        first = evaluate_threshold_policy(
            sm, spherical_to_theta(best.phi_trace[0]), 2000, seed=99)
        final = evaluate_threshold_policy(sm, best.theta, 2000, seed=99)
        assert final.mean() <= first.mean() + 1e-9
