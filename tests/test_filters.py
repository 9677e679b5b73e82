"""Belief recursions: reference values, invariance properties and
trajectory simulation."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import P_TP2_3, random_belief_pair, random_tp2_stochastic
from pomdpkit.cli import _trajectory_csv, load_model
from pomdpkit.errors import DimensionMismatch, ZeroLikelihood
from pomdpkit.filters import (
    PathSampler,
    bayes_batch,
    cumulative,
    hmm_filter_step,
    hmm_predictor_step,
    normalizer_vector,
    sample_index,
    simulate_trajectory,
    social_action_likelihoods,
    social_learning_step,
)
from pomdpkit.model import PomdpModel, validate_model
from pomdpkit.orders import Comparison, mlr_compare, fosd_compare
from pomdpkit.rng import make_rng, uniform_simplex


def reference_model():
    return validate_model({
        "X": 3, "U": 1, "Y": 3,
        "P": [P_TP2_3.tolist()],
        "B": [P_TP2_3.tolist()],
        "c": [[0.0]] * 3,
        "rho": 0.9,
    })


PI1 = np.array([0.2, 0.2, 0.6])
PI2 = np.array([0.3, 0.2, 0.5])


class TestHmmFilter:
    def test_reference_posteriors(self):
        m = reference_model()
        s1 = hmm_filter_step(PI1, 1, 1, m)
        assert np.allclose(np.round(s1.posterior, 4),
                           [0.5410, 0.2787, 0.1803])
        s2 = hmm_filter_step(PI1, 2, 1, m)
        assert np.allclose(np.round(s2.posterior, 4),
                           [0.1793, 0.4620, 0.3587])

    def test_noninformative_update(self):
        m = validate_model({
            "X": 3, "U": 1, "Y": 4,
            "P": [np.eye(3).tolist()],
            "B": [[[0.25] * 4] * 3],
            "c": [[0.0]] * 3,
            "rho": 0.9,
        })
        s = hmm_filter_step(PI1, 2, 1, m)
        assert np.allclose(s.posterior, PI1)
        assert s.normalizer == pytest.approx(0.25)

    def test_zero_likelihood_raises(self):
        m = validate_model({
            "X": 2, "U": 1, "Y": 2,
            "P": [np.eye(2).tolist()],
            "B": [[[1.0, 0.0], [0.0, 1.0]]],
            "c": [[0.0]] * 2,
            "rho": 0.9,
        })
        with pytest.raises(ZeroLikelihood):
            hmm_filter_step(np.array([1.0, 0.0]), 2, 1, m)

    def test_normalizer_identity(self):
        m = reference_model()
        rng = make_rng(0)
        for _ in range(50):
            pi = uniform_simplex(rng, 1, 3)[0]
            sig = normalizer_vector(pi, 1, m)
            assert sig.sum() == pytest.approx(1.0, abs=1e-12)
            for y in range(1, 4):
                step = hmm_filter_step(pi, y, 1, m)
                assert step.normalizer == pytest.approx(sig[y - 1])


class TestPredictorAndNormalizer:
    def test_reference_ratio(self):
        m = reference_model()
        ratio = hmm_predictor_step(PI1, 1, m) / hmm_predictor_step(PI2, 1, m)
        assert np.allclose(np.round(ratio, 4), [0.8148, 1.0, 1.1282])

    def test_reference_sigma_vectors(self):
        m = reference_model()
        assert np.allclose(np.round(normalizer_vector(PI1, 1, m), 4),
                           [0.2440, 0.3680, 0.3880])
        assert np.allclose(np.round(normalizer_vector(PI2, 1, m), 4),
                           [0.2690, 0.3680, 0.3630])

    def test_sigma_fosd_monotone_in_prior(self):
        m = reference_model()
        assert fosd_compare(normalizer_vector(PI1, 1, m),
                            normalizer_vector(PI2, 1, m)) is Comparison.GE


class TestOrderPreservation:
    def test_bayes_rule_preserves_mlr(self):
        rng = make_rng(1)
        for _ in range(500):
            X = int(rng.integers(2, 5))
            hi, lo = random_belief_pair(rng, X)
            b = rng.uniform(0.05, 1.0, X)
            post_hi = b * hi / (b @ hi)
            post_lo = b * lo / (b @ lo)
            assert mlr_compare(post_hi, post_lo) in (Comparison.GE,
                                                     Comparison.EQ)

    def test_filter_monotone_in_prior_under_tp2(self):
        rng = make_rng(2)
        for _ in range(300):
            X = int(rng.integers(2, 5))
            P = random_tp2_stochastic(rng, X)
            B = random_tp2_stochastic(rng, X, int(rng.integers(2, 5)))
            m = PomdpModel(P[None], B[None], np.zeros((X, 1)), 0.9)
            hi, lo = random_belief_pair(rng, X)
            y = int(rng.integers(1, B.shape[1] + 1))
            try:
                post_hi = hmm_filter_step(hi, y, 1, m).posterior
                post_lo = hmm_filter_step(lo, y, 1, m).posterior
            except ZeroLikelihood:
                continue
            assert mlr_compare(post_hi, post_lo) in (Comparison.GE,
                                                     Comparison.EQ)

    def test_filter_monotone_in_observation_under_tp2(self):
        rng = make_rng(3)
        for _ in range(300):
            X = int(rng.integers(2, 5))
            Y = int(rng.integers(2, 5))
            P = random_tp2_stochastic(rng, X)
            B = random_tp2_stochastic(rng, X, Y)
            m = PomdpModel(P[None], B[None], np.zeros((X, 1)), 0.9)
            pi = uniform_simplex(rng, 1, X)[0]
            posts = [hmm_filter_step(pi, y, 1, m).posterior
                     for y in range(1, Y + 1)]
            for k in range(Y - 1):
                assert mlr_compare(posts[k + 1], posts[k]) in (
                    Comparison.GE, Comparison.EQ)

    def test_fosd_non_closure_witness(self):
        """First-order dominance flips through this Bayes update."""
        pi1 = np.array([1 / 3, 1 / 3, 1 / 3])
        pi2 = np.array([0.0, 2 / 3, 1 / 3])
        assert fosd_compare(pi1, pi2) is Comparison.LE
        b = np.array([0.0, 0.5, 0.5])
        t1 = b * pi1 / (b @ pi1)
        t2 = b * pi2 / (b @ pi2)
        assert np.allclose(t1, [0.0, 0.5, 0.5])
        assert np.allclose(t2, [0.0, 2 / 3, 1 / 3])
        assert fosd_compare(t1, t2) is Comparison.GE


PRESETS = ("example1", "example2", "example3", "example4",
           "machine-replacement", "sampling", "search")


@st.composite
def preset_batches(draw):
    """A preset, one of its actions and observations, and a belief batch
    whose rows may put zero mass on some states."""
    model = load_model(draw(st.sampled_from(PRESETS)))
    X = model.num_states
    u = draw(st.integers(1, model.num_actions))
    y = draw(st.integers(1, model.num_obs))
    rows = draw(st.lists(
        st.lists(st.sampled_from([0.0, 1e-3, 0.2, 0.5, 1.0])
                 | st.floats(0.0, 1.0), min_size=X, max_size=X)
        .filter(lambda r: sum(r) > 0), min_size=1, max_size=6))
    pis = np.asarray(rows)
    return model, u, y, pis / pis.sum(axis=1, keepdims=True)


class TestBayesBatch:
    @settings(max_examples=200, deadline=None)
    @given(preset_batches())
    def test_matches_scalar_filter_row_by_row(self, case):
        model, u, y, pis = case
        post, sigma = bayes_batch(pis @ model.P(u), model.B(u)[:, y - 1],
                                  pis)
        for pi, p, s in zip(pis, post, sigma):
            try:
                ref = hmm_filter_step(pi, y, u, model)
            except ZeroLikelihood:
                assert np.array_equal(p, pi) and s == 0.0
                continue
            assert np.allclose(p, ref.posterior, rtol=0, atol=1e-12)
            assert s == pytest.approx(ref.normalizer, rel=0, abs=1e-12)

    def test_no_zero_row_is_plain_division(self):
        rng = make_rng(3)
        pred = rng.dirichlet(np.ones(5), 7)
        lik = rng.uniform(0.1, 1.0, 5)
        post, sigma = bayes_batch(pred, lik, np.zeros_like(pred))
        assert np.array_equal(
            post, (pred * lik) / (pred * lik).sum(axis=1)[:, None])
        assert np.array_equal(sigma, (pred * lik).sum(axis=1))

    def test_zero_likelihood_returns_prior(self):
        prior = np.array([[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]])
        post, sigma = bayes_batch(prior, np.array([0.0, 1.0]), prior)
        assert np.array_equal(post, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(sigma, [0.0, 0.7, 1.0])


class _PresetUniforms:
    """Stands in for a Generator: ``random(n)`` returns the next n of the
    preset uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.asarray(out, dtype=float)


class TestPathSampler:
    def test_zero_probability_index_never_drawn(self):
        p = np.array([[0.0, 0.25, 0.0, 0.75],
                      [0.5, 0.0, 0.5, 0.0],
                      [0.0, 0.0, 1.0, 0.0]])
        for row, cdf in zip(p, cumulative(p)):
            # u = 0 and every CDF value a draw can take exactly
            for u in np.concatenate([[0.0], cdf[cdf < 1.0]]):
                idx = sample_index(cdf[None], _PresetUniforms([u]))[0]
                assert row[idx] > 0, (row, u, idx)
        # a deterministic swap chain read through an identity kernel
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        sampler = PathSampler(P[None], np.eye(2)[None])
        states, ys = sampler.draw(0, np.array([0, 1]),
                                  _PresetUniforms([0.0] * 4))
        assert states.tolist() == [1, 0]
        assert ys.tolist() == [1, 0]

    def test_bisect_matches_sample_index(self):
        # the scalar form of the rule, which simulate_trajectory uses
        p = np.array([[0.0, 0.25, 0.0, 0.75],
                      [0.5, 0.0, 0.5, 0.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.1, 0.2, 0.3, 0.4]])
        uniforms = make_rng(5).random(200)
        for cdf in cumulative(p):
            for u in np.concatenate([[0.0], cdf[cdf < 1.0], uniforms]):
                want = sample_index(cdf[None], _PresetUniforms([u]))[0]
                assert bisect_right(cdf.tolist(), float(u)) == want, (cdf, u)

    def test_one_draw_call_is_the_per_draw_stream(self):
        for seed in (0, 1, 7):
            rng = make_rng(seed)
            single = [rng.random(1)[0] for _ in range(301)]
            assert np.array_equal(make_rng(seed).random(301), single)

    def test_draw_frequencies_match_kernels(self):
        sm = load_model("qd-ph")
        P, B = np.asarray(sm.P), np.asarray(sm.B)
        n = 100_000
        sampler = PathSampler(P[None], B[None])
        for x in range(P.shape[0]):
            states, ys = sampler.draw(0, np.full(n, x), make_rng(x))
            joint = np.zeros_like(B)
            np.add.at(joint, (states, ys), 1.0)
            freq = joint / n
            want = P[x][:, None] * B
            se = np.sqrt(want * (1 - want) / n)
            assert (np.abs(freq - want) <= 4 * se).all(), (x, freq, want)


class TestSocialLearning:
    COSTS = np.array([[4.57, 5.57], [2.57, 0.0]])
    B = np.array([[0.9, 0.1], [0.1, 0.9]])

    def test_posterior_matches_enumeration(self):
        pi = np.array([0.5, 0.5])
        L = social_action_likelihoods(pi, self.COSTS, self.B)
        # enumerate the two observations by hand
        expect = np.zeros((2, 2))
        for y in range(2):
            eta = self.B[:, y] * pi
            eta = eta / eta.sum()
            a = int(np.argmin(self.COSTS.T @ eta))
            expect[:, a] += self.B[:, y]
        assert np.allclose(L, expect)
        step = social_learning_step(pi, 1, self.COSTS, self.B)
        manual = expect[:, 0] * pi
        assert np.allclose(step.posterior, manual / manual.sum())

    @staticmethod
    def _enumerate(pi, costs, B):
        # the agent who sees y takes the first action of least expected
        # cost sum_i c[i, a] B[i, y] pi[i]; L[:, a] sums those B[:, y]
        X, A = costs.shape
        L = np.zeros((X, A))
        for y in range(B.shape[1]):
            expected = [sum(costs[i, a] * B[i, y] * pi[i] for i in range(X))
                        for a in range(A)]
            L[:, min(range(A), key=expected.__getitem__)] += B[:, y]
        return L

    def test_batch_rows_match_enumeration(self):
        rng = make_rng(31)
        # action a is cheapest in state a; actions 3 and 4 always tie
        costs = np.array([[0.0, 1.0, 2.0, 2.0],
                          [1.0, 0.2, 1.0, 1.0],
                          [2.0, 1.0, 0.1, 0.1]])
        B = rng.dirichlet(np.ones(3), size=3)
        pis = uniform_simplex(rng, 200, 3)
        L = social_action_likelihoods(pis, costs, B)
        assert L.shape == (200, 3, 4)
        for pi, row in zip(pis, L):
            assert np.array_equal(row, self._enumerate(pi, costs, B))
            assert np.array_equal(row,
                                  social_action_likelihoods(pi, costs, B))
        assert L[:, :, :3].any(axis=(0, 1)).all() and not L[:, :, 3].any()

    def test_cost_ties_go_to_the_smaller_action(self):
        # an uninformative signal leaves eta = pi / 2; at pi = (1/2, 1/2)
        # both actions cost 1/4 exactly
        costs = np.array([[0.0, 1.0], [1.0, 0.0]])
        B = np.full((2, 2), 0.5)
        pis = np.array([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
        L = social_action_likelihoods(pis, costs, B)
        for pi, row in zip(pis, L):
            assert np.array_equal(row, self._enumerate(pi, costs, B))
        assert np.array_equal(L[:, 0, 0], [1.0, 0.0, 1.0])

    def test_cascade_region_freezes_belief(self):
        # deep inside the high-pi(2) cascade interval every private
        # signal maps to the same action, so the public belief is fixed
        pi = np.array([0.05, 0.95])
        L = social_action_likelihoods(pi, self.COSTS, self.B)
        assert np.allclose(L[:, 1], 1.0)
        step = social_learning_step(pi, 2, self.COSTS, self.B)
        assert np.allclose(step.posterior, pi)

    def test_single_action_is_uninformative(self):
        pi = np.array([0.3, 0.7])
        step = social_learning_step(pi, 1, self.COSTS[:, :1], self.B)
        assert np.allclose(step.posterior, pi)


def _reference_trajectory(model, policy, horizon, seed):
    """The per-step loop that ``simulate_trajectory`` replaced: one
    ``random(1)`` call per draw and lists grown step by step."""
    rng = make_rng(seed)
    X = model.num_states
    pi = np.full(X, 1.0 / X)
    sampler = PathSampler(model.transitions, model.observations)
    x = sample_index(cumulative(pi[None]), rng)
    states, beliefs = [int(x[0]) + 1], [pi.copy()]
    observations, actions, cost_terms = [], [], []
    rho = model.discount
    for k in range(horizon):
        u = int(policy(pi))
        actions.append(u)
        cost_terms.append(rho ** k * model.costs[x[0], u - 1])
        x, y = sampler.draw(u - 1, x, rng)
        pi = sampler.filter(u - 1, pi[None], y)[0]
        states.append(int(x[0]) + 1)
        observations.append(int(y[0]) + 1)
        beliefs.append(pi)
    total = float(np.sum(cost_terms))
    if model.horizon is not None and horizon >= model.horizon:
        total += rho ** horizon * float(model.terminal_vector()[x[0]])
    return {"states": np.asarray(states),
            "observations": np.asarray(observations),
            "actions": np.asarray(actions), "beliefs": np.asarray(beliefs),
            "cost_terms": np.asarray(cost_terms), "discounted_cost": total}


def _finite_horizon_example1():
    m = load_model("example1")
    return PomdpModel(m.transitions, m.observations, m.costs, 1.0,
                      horizon=40, terminal_cost=[3.0, 1.0, 2.0])


class TestSimulateTrajectory:
    # X = 2, 3, 3 (five actions), 5 and 8, plus a finite horizon with a
    # terminal cost
    MODELS = ["machine-replacement", "example1", "sampling", "search",
              "example3", "example1-horizon40"]

    @pytest.mark.parametrize("name", MODELS)
    def test_matches_per_step_reference(self, name):
        m = (_finite_horizon_example1() if name == "example1-horizon40"
             else load_model(name))
        U = m.num_actions
        costs = np.asarray(m.costs)
        policies = [lambda pi: int(np.argmin(pi @ costs)) + 1,
                    lambda pi: int(pi[0] * 1e6) % U + 1]
        for policy in policies:
            for seed in (0, 3, 11):
                traj = simulate_trajectory(m, policy, 150, seed)
                want = _reference_trajectory(m, policy, 150, seed)
                for key, value in want.items():
                    got = getattr(traj, key)
                    assert np.asarray(got).dtype == np.asarray(value).dtype
                    assert np.array_equal(got, value), (name, seed, key)

    @pytest.mark.parametrize("action", [0, -1, 3])
    def test_action_outside_range_raises(self, action):
        m = load_model("example1")   # U = 2
        with pytest.raises(DimensionMismatch,
                           match=rf"step 0: .*action {action}\b"):
            simulate_trajectory(m, lambda pi: action, 5, 1)
        # a valid start does not hide a later bad action
        calls = []

        def late(pi):
            calls.append(pi)
            return 1 if len(calls) < 3 else action

        with pytest.raises(DimensionMismatch, match="step 2: "):
            simulate_trajectory(m, late, 5, 1)

    def test_deterministic_chain_tracks_state(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        B = np.eye(2)
        m = PomdpModel(P[None], B[None], np.zeros((2, 1)), 0.9)
        traj = simulate_trajectory(m, lambda pi: 1, 20, seed=0)
        for k in range(1, 21):
            expected = np.zeros(2)
            expected[traj.states[k] - 1] = 1.0
            assert np.allclose(traj.beliefs[k], expected)

    def test_seed_reproducibility(self):
        m = reference_model()
        a = simulate_trajectory(m, lambda pi: 1, 50, seed=42)
        b = simulate_trajectory(m, lambda pi: 1, 50, seed=42)
        assert (a.states == b.states).all()
        assert (a.observations == b.observations).all()
        assert a.discounted_cost == b.discounted_cost

    def test_filter_recursion_holds_stepwise(self):
        m = reference_model()
        traj = simulate_trajectory(m, lambda pi: 1, 30, seed=7)
        for k in range(30):
            step = hmm_filter_step(traj.beliefs[k],
                                   int(traj.observations[k]), 1, m)
            assert np.allclose(step.posterior, traj.beliefs[k + 1])

    def test_visit_frequencies_near_stationary(self):
        P = np.array([[0.9, 0.1], [0.4, 0.6]])
        m = PomdpModel(P[None], np.full((1, 2, 2), 0.5),
                       np.zeros((2, 1)), 0.9)
        traj = simulate_trajectory(m, lambda pi: 1, 100_000, seed=1)
        # left eigenvector oracle
        w, v = np.linalg.eig(P.T)
        stat = np.real(v[:, np.argmax(np.real(w))])
        stat = stat / stat.sum()
        freq1 = np.mean(traj.states[1:] == 1)
        se = np.sqrt(stat[0] * (1 - stat[0]) / 100_000) * 3
        # serial correlation widens the band; triple it again
        assert abs(freq1 - stat[0]) < 9 * se

    def test_csv_dump_shape(self):
        m = reference_model()
        traj = simulate_trajectory(m, lambda pi: 1, 5, seed=3)
        lines = _trajectory_csv(traj).strip().splitlines()
        assert lines[0].startswith("k,x,y,u,pi1")
        assert len(lines) == 6
