"""Belief-state recursions: HMM filter/predictor, the batched Bayes
kernel, the batched path sampler, social-learning filter and seeded
trajectory simulation.

Every batched posterior in the package goes through :func:`bayes_batch`
except those of :func:`bounds.sandwich_filter`, which raises at a
zero-likelihood observation and whose per-step update of three rows is
cheaper than the masking in :func:`bayes_batch` (through it, a
10,000-step 8-state run gave bit-identical posteriors in 0.40-0.44 s
instead of 0.27-0.31 s; best of 7, 2-core x86-64).  The zero-likelihood
rule of :func:`bayes_batch`: a row whose normalizer is at most
``ZERO_LIKELIHOOD`` keeps its prior belief and reports ``sigma = 0``, so
a continuation weighted by sigma drops it.  The single-belief updates
below instead raise :class:`ZeroLikelihood`, because there the
observation comes from the caller.

Every sampled state and observation goes through :func:`sample_index`,
and every simulated path through :class:`PathSampler`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroLikelihood
from .model import PomdpModel
from .rng import make_rng

ZERO_LIKELIHOOD = 1e-300


@dataclass(frozen=True)
class FilterStep:
    posterior: np.ndarray
    normalizer: float


def _bayes(unnormalized: np.ndarray) -> FilterStep:
    sigma = float(unnormalized.sum())
    if sigma <= ZERO_LIKELIHOOD:
        raise ZeroLikelihood(f"observation has zero mass (sigma={sigma!r})")
    return FilterStep(unnormalized / sigma, sigma)


def bayes_batch(pred: np.ndarray, lik: np.ndarray,
                prior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise Bayes update ``posterior ∝ pred * lik``.

    ``pred`` (n, X) holds predicted beliefs ``P'(u) pi``, ``lik`` the
    likelihoods ``B_y(u)`` (broadcast against ``pred``) and ``prior``
    (n, X) the beliefs returned for zero-likelihood rows.  Returns
    ``(posterior, sigma)`` with ``sigma`` the row sums of ``pred * lik``;
    rows with ``sigma <= ZERO_LIKELIHOOD`` get their prior and sigma 0.
    """
    post = pred * lik
    sigma = post.sum(axis=1)
    zero = sigma <= ZERO_LIKELIHOOD
    post = post / np.where(zero, 1.0, sigma)[:, None]
    post[zero] = prior[zero]
    return post, np.where(zero, 0.0, sigma)


def cumulative(p) -> np.ndarray:
    """Cumulative sums along the last axis, scaled to end at exactly one."""
    cdf = np.cumsum(np.asarray(p, dtype=float), axis=-1)
    return cdf / cdf[..., -1:]


def sample_index(cdf: np.ndarray, rng) -> np.ndarray:
    """One inverse-CDF draw per row of ``cdf`` (rows from :func:`cumulative`).

    Draws ``u ~ U[0, 1)`` per row, in row order, and returns the number
    of entries ``<= u``: the rule of ``Generator.choice``.  An index of
    probability zero is never returned, even for ``u = 0``.
    """
    return (cdf <= rng.random(len(cdf))[:, None]).sum(axis=1)


class PathSampler:
    """Paths of the chain ``x' ~ P(u)[x]``, ``y ~ B(u)[x']`` and their
    filtered beliefs.

    ``P`` (U, X, X) and ``B`` (U, X, Y) are the stacked kernels; actions,
    states and observations are 0-indexed.
    """

    def __init__(self, P, B):
        self.P = np.asarray(P, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self._Pc = cumulative(self.P)
        self._Bc = cumulative(self.B)

    def draw(self, actions, states, rng) -> tuple[np.ndarray, np.ndarray]:
        """Next states and observations: one draw per row for every next
        state, then one per row for every observation.  ``actions`` is
        one action for all rows or one per row."""
        states = sample_index(self._Pc[actions, states], rng)
        return states, sample_index(self._Bc[actions, states], rng)

    def filter(self, u: int, beliefs: np.ndarray,
               ys: np.ndarray) -> np.ndarray:
        """Posteriors of the rows that took action ``u`` and saw ``ys``."""
        post, _ = bayes_batch(beliefs @ self.P[u], self.B[u][:, ys].T,
                              beliefs)
        return post


def hmm_filter_step(pi, y: int, u: int, model: PomdpModel) -> FilterStep:
    """One filter update ``T(pi, y, u) = B_y(u) P'(u) pi / sigma``."""
    pi = np.asarray(pi, dtype=float)
    return _bayes(model.B(u)[:, y - 1] * (model.P(u).T @ pi))


def hmm_predictor_step(pi, u: int, model: PomdpModel) -> np.ndarray:
    """One-step-ahead prediction ``P'(u) pi``."""
    return model.P(u).T @ np.asarray(pi, dtype=float)


def normalizer_vector(pi, u: int, model: PomdpModel) -> np.ndarray:
    """Observation likelihoods ``sigma(pi, ., u)``; entries sum to one."""
    pred = hmm_predictor_step(pi, u, model)
    return model.B(u).T @ pred


def social_action_likelihoods(pis, local_costs, B) -> np.ndarray:
    """Matrices ``L[n, i, a] = P(a | x = e_i, pi_n)`` for myopic social
    agents, one per row of the (n, X) batch ``pis``; a single belief
    gives its one (X, A) matrix.

    An agent observing y picks ``a = argmin_a c_a' eta`` with
    ``eta ∝ B_y pi``; cost ties resolve to the smaller action index.
    """
    pis = np.asarray(pis, dtype=float)
    c = np.asarray(local_costs, dtype=float)  # (X, A)
    B = np.asarray(B, dtype=float)            # (X, Y)
    batch = np.atleast_2d(pis)
    n, X = batch.shape
    if c.shape[0] != X or B.shape[0] != X:
        raise DimensionMismatch("costs/kernel do not match belief length")
    L = np.zeros((n, X, c.shape[1]))
    rows = np.arange(n)
    for y in range(B.shape[1]):
        # argmin returns the first minimum: ties -> smallest index
        chosen = np.argmin((B[:, y] * batch) @ c, axis=1)
        L[rows, :, chosen] += B[:, y]
    return L if pis.ndim == 2 else L[0]


def social_learning_step(pi, a: int, local_costs, B) -> FilterStep:
    """Public-belief update driven by an observed action ``a``."""
    L = social_action_likelihoods(pi, local_costs, B)
    return _bayes(L[:, a - 1] * np.asarray(pi, dtype=float))


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray        # (N+1,) 1-indexed, includes x_0
    observations: np.ndarray  # (N,) 1-indexed, y_1..y_N
    actions: np.ndarray       # (N,) 1-indexed, u_0..u_{N-1}
    beliefs: np.ndarray       # (N+1, X) pi_0..pi_N
    cost_terms: np.ndarray    # (N,) discounted per-step costs
    discounted_cost: float


def simulate_trajectory(model: PomdpModel, policy, horizon: int,
                        seed: int) -> Trajectory:
    """Simulate the POMDP dynamics for ``horizon`` steps from the uniform
    belief.

    ``policy`` maps a belief vector to a 1-indexed action.  The belief
    sequence follows the filter recursion step by step and the returned
    cost is ``sum_k rho^k c(x_k, u_k)`` plus the terminal cost when the
    model carries a finite horizon.
    """
    if horizon < 1:
        raise DimensionMismatch("horizon must be >= 1")
    rng = make_rng(seed)
    X = model.num_states
    pi = np.full(X, 1.0 / X)
    sampler = PathSampler(model.transitions, model.observations)
    x = sample_index(cumulative(pi[None]), rng)
    states = [int(x[0]) + 1]
    beliefs = [pi.copy()]
    observations = []
    actions = []
    cost_terms = []
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
    return Trajectory(
        states=np.asarray(states),
        observations=np.asarray(observations),
        actions=np.asarray(actions),
        beliefs=np.asarray(beliefs),
        cost_terms=np.asarray(cost_terms),
        discounted_cost=total,
    )
