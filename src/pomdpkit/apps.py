"""Model builders and application routines for the worked examples:
machine replacement, quickest change detection with phase-type change
times, controlled-sampling detection, optimal search, social-learning
stopping, and POMDP bandits with a Gittins index (from one
restart-in-belief solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidProbability,
    NonTransient,
    PriorMassOnState1,
    check_at_least,
)
from .filters import (PathSampler, bayes_batch, cumulative, sample_index,
                      social_action_likelihoods)
from .grid import continuation, converge, segment_weights, vertex_major
from .model import PomdpModel, QuadraticCost, StoppingModel, belief
from .rng import make_rng
from .solver import value_iteration_discounted

GRID_TOL = 1e-9   # sweep tolerance of the social-learning grid
BANDIT_NODES = 10   # the bandit's index is solved at pi(2) = k / BANDIT_NODES
BANDIT_INDEX_TOL = 1e-4   # tol_m of each of those restart solves


def build_machine_replacement(theta: float, p: float, q: float, R: float,
                              op_costs, rho: float = 0.95,
                              horizon: int | None = None) -> PomdpModel:
    """Two-state machine replacement.

    State 1 is a poorly performing machine, state 2 a brand new one;
    action 1 replaces (machine restarts in state 2) at cost R, action 2
    keeps operating at ``op_costs``.  ``theta`` is the deterioration
    probability; ``p``/``q`` are the good/poor product-quality
    probabilities.
    """
    P1 = np.array([[0.0, 1.0], [0.0, 1.0]])
    P2 = np.array([[1.0, 0.0], [theta, 1.0 - theta]])
    B = np.array([[p, 1.0 - p], [1.0 - q, q]])
    op = np.asarray(op_costs, dtype=float)
    costs = np.column_stack([np.full(2, float(R)), op])
    return PomdpModel(
        transitions=np.stack([P1, P2]),
        observations=np.stack([B, B]),
        costs=costs,
        discount=rho,
        horizon=horizon,
    )


def build_quickest_detection(pi0, P_bar, P_col, B, d: float, beta: float,
                             alpha: float = 0.0,
                             delay_kind: str = "classical",
                             rho: float = 1.0) -> StoppingModel:
    """Quickest detection with a phase-type change time.

    State 1 (the change) is absorbing; ``P_bar``/``P_col`` give the
    transient block and its absorption column.  The stop cost charges a
    false alarm ``beta (1 - e1)' pi`` plus an optional variance penalty
    ``alpha (e1' pi - (e1' pi)^2)``; the continue cost is the delay
    ``d e1' P' pi`` ("predicted") or ``d e1' pi`` ("classical").
    """
    P_bar = np.atleast_2d(np.asarray(P_bar, dtype=float))
    P_col = np.asarray(P_col, dtype=float).reshape(-1)
    X = P_bar.shape[0] + 1
    pi0 = np.asarray(pi0, dtype=float)
    if pi0.shape != (X,):
        raise DimensionMismatch("prior length must match 1 + transient size")
    if pi0[0] > 0:
        raise PriorMassOnState1(f"prior puts mass {pi0[0]} on the change")
    if np.max(np.abs(np.linalg.eigvals(P_bar))) >= 1 - 1e-12:
        raise NonTransient("states 2..X must be transient")
    B = np.asarray(B, dtype=float)
    if B.shape[0] != X:
        raise DimensionMismatch("kernel must have one row per state")
    if X > 2 and not np.allclose(B[1:], B[1], atol=1e-12):
        raise DimensionMismatch(
            "rows 2..X of the kernel must be identical")
    P = np.zeros((X, X))
    P[0, 0] = 1.0
    P[1:, 0] = P_col
    P[1:, 1:] = P_bar
    e1 = np.zeros(X)
    e1[0] = 1.0
    stop = QuadraticCost(lin=alpha * e1 + beta * (1 - e1), h=e1, alpha=alpha)
    if delay_kind == "predicted":
        cont = d * P[:, 0]
    elif delay_kind == "classical":
        cont = d * e1
    else:
        raise DimensionMismatch(f"unknown delay kind {delay_kind!r}")
    return StoppingModel(P=P, B=B, stop_cost=stop, continue_cost=cont,
                         discount=rho)


def build_sampling_control(P, B, intervals, m, d: float,
                           rho: float = 1.0) -> PomdpModel:
    """Quickest detection with controlled sampling intervals.

    Action 1 announces the change (absorbing into a fictitious cost-free
    state); action 1+l looks again after ``intervals[l-1]`` slots, pays
    the measurement cost plus the accumulated delay
    ``(I + P + ... + P^(D-1)) d e1`` and moves by ``P^D``.
    """
    P = np.asarray(P, dtype=float)
    B = np.asarray(B, dtype=float)
    X = P.shape[0]
    L = len(intervals)
    m = np.asarray(m, dtype=float)
    if m.ndim == 0:
        m = np.full((L, X), float(m))
    if m.shape != (L, X):
        raise DimensionMismatch("measurement cost must be a scalar or (L, X)")
    Xa = X + 1
    U = L + 1
    e1 = np.zeros(X)
    e1[0] = 1.0
    trans = np.zeros((U, Xa, Xa))
    obs = np.zeros((U, Xa, B.shape[1]))
    costs = np.zeros((Xa, U))
    # action 1: announce and absorb
    trans[0, :, Xa - 1] = 1.0
    obs[0] = np.vstack([B, np.full((1, B.shape[1]), 1.0 / B.shape[1])])
    costs[:X, 0] = 1.0 - e1
    for el, D in enumerate(intervals):
        accum = np.zeros((X, X))
        power = np.eye(X)
        for _ in range(int(D)):
            accum += power
            power = power @ P
        trans[el + 1, :X, :X] = power
        trans[el + 1, Xa - 1, Xa - 1] = 1.0
        obs[el + 1] = np.vstack([B,
                                 np.full((1, B.shape[1]),
                                         1.0 / B.shape[1])])
        costs[:X, el + 1] = m[el] + accum @ (d * e1)
    return PomdpModel(transitions=trans, observations=obs, costs=costs,
                      discount=rho, allow_undiscounted=rho >= 1.0)


def build_search_pomdp(P, overlook, blocking,
                       rho: float = 0.95) -> PomdpModel:
    """Optimal search for a moving target as a 2X+1 state POMDP.

    Action u searches cell u; the augmented state tracks (last outcome,
    position) plus a terminal found state.  Observations are a
    deterministic readout of the outcome component: 1 = not found,
    2 = blocked, 3 = found.  Each search pays minus its detection
    probability.
    """
    P = np.asarray(P, dtype=float)
    X = P.shape[0]
    beta = np.asarray(overlook, dtype=float)
    q = np.asarray(blocking, dtype=float)
    if ((beta < 0) | (beta > 1)).any() or ((q < 0) | (q > 1)).any():
        raise InvalidProbability("overlook/blocking must be in [0, 1]")
    U = X
    S = 2 * X + 1
    trans = np.zeros((U, S, S))
    obs = np.zeros((U, S, 3))
    costs = np.zeros((S, U))
    for u in range(U):
        bF = np.zeros(X)        # P(found | x, u)
        bN = np.zeros(X)        # P(not found | x, u)
        bB = np.full(X, q[u])   # P(blocked | x, u)
        for j in range(X):
            if j == u:
                bF[j] = (1 - q[u]) * (1 - beta[u])
                bN[j] = beta[u] * (1 - q[u])
            else:
                bN[j] = 1 - q[u]
        block = np.zeros((X, S))
        block[:, :X] = bN[:, None] * P
        block[:, X:2 * X] = bB[:, None] * P
        block[:, S - 1] = bF
        trans[u, :X] = block
        trans[u, X:2 * X] = block
        trans[u, S - 1, S - 1] = 1.0
        obs[u, :X, 0] = 1.0
        obs[u, X:2 * X, 1] = 1.0
        obs[u, S - 1, 2] = 1.0
        costs[:X, u] = -bF
        costs[X:2 * X, u] = -bF
    return PomdpModel(transitions=trans, observations=obs, costs=costs,
                      discount=rho)


@dataclass
class SocialLearningStopResult:
    grid: np.ndarray          # pi(2) values
    values: np.ndarray        # transformed value function on the grid
    stop_mask: np.ndarray
    stop_intervals: list      # (lo, hi) pairs in pi(2)


def _pi2_nodes(resolution: int) -> np.ndarray:
    """The nodes ``k / resolution`` of a pi(2) grid; raises
    :class:`DimensionMismatch` unless ``resolution >= 1``."""
    check_at_least("grid resolution", resolution, 1)
    return np.linspace(0.0, 1.0, resolution + 1)


def solve_social_learning_stop(local_costs, B, d: float, beta: float,
                               rho: float, resolution: int = 499
                               ) -> SocialLearningStopResult:
    """Grid DP for the social-learning stopping problem (X = 2).

    The public belief jumps through the social-learning filter, whose
    action likelihoods depend on the belief itself; the transformed
    continue cost is ``d e1' pi - (1 - rho) beta e2' pi`` and stopping
    costs zero.  The grid is the nodes ``k / resolution`` of pi(2).
    """
    ts = _pi2_nodes(resolution)
    pis = np.column_stack([1.0 - ts, ts])
    cont_cost = d * pis[:, 0] - (1.0 - rho) * beta * pis[:, 1]
    # the public belief does not move on its own; the action seen is the
    # observation, with likelihoods that depend on the belief itself
    L = social_action_likelihoods(pis, local_costs, B)
    maps = []
    for a in range(L.shape[2]):
        post, sigma = bayes_batch(pis, L[:, :, a], pis)
        maps.append(vertex_major(*segment_weights(post[:, 1], resolution),
                                 sigma))

    def step(V):
        return np.minimum(0.0, cont_cost + rho * continuation(V, maps)), None

    V, _ = converge(step, np.zeros(len(ts)), GRID_TOL)
    stop = V >= -1e-12   # stopping attains the zero branch
    # maximal runs of stopping points, closed at their last point
    edges = np.diff(np.concatenate([[0], stop.astype(int), [0]]))
    intervals = [(float(ts[a]), float(ts[b - 1])) for a, b in
                 zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))]
    return SocialLearningStopResult(ts, V, stop, intervals)


def gittins_index(P, B, r, rho: float, pi, tol_m: float = 1e-4) -> float:
    """Gittins index at ``pi`` as the value of the restart-in-``pi`` problem.

    Katehakis & Veinott (1987): the index equals the optimal value at
    ``pi`` of an arm that may, at each step, continue (``P``, ``B``,
    reward ``r``) or restart from ``pi`` (every transition row ``pi' P``,
    the same ``B``, reward ``r' pi``).  One discounted vector-set solve of
    that 2-action model at VI tolerance ``tol_m (1 - rho)`` gives the
    index within ``rho tol_m <= tol_m``.
    """
    r = np.asarray(r, dtype=float)
    pi = belief(pi)
    if pi.shape != r.shape:
        raise DimensionMismatch("belief and reward must have one entry "
                                "per state")
    if not tol_m > 0:
        raise DimensionMismatch(f"tol_m must be positive, got {tol_m}")
    model = PomdpModel(
        transitions=np.stack([P, np.tile(pi @ P, (r.size, 1))]),
        observations=np.stack([B, B]),
        costs=-np.column_stack([r, np.full(r.size, r @ pi)]),
        discount=rho,
    )
    return -value_iteration_discounted(model, tol_m * (1.0 - rho)).value(pi)


def _bandit_index(P, B, r, rho: float):
    """The index policy's score: :func:`gittins_index` at the nodes
    ``k / BANDIT_NODES`` of pi(2), linearly interpolated between them."""
    nodes = np.array([gittins_index(P, B, r, rho, [1.0 - t, t],
                                    tol_m=BANDIT_INDEX_TOL)
                      for t in _pi2_nodes(BANDIT_NODES)])

    def index(pi2: np.ndarray) -> np.ndarray:
        idx, w = segment_weights(pi2, BANDIT_NODES)
        return (nodes[idx] * w).sum(axis=1)

    return index


def run_bandit_benchmark(P, B, r, rho: float, episodes: int = 1000,
                         horizon: int = 40, seed: int = 0) -> dict:
    """Opportunistic vs index-driven policies on a two-project bandit.

    Both policies run on paired random streams; returns per-policy mean
    discounted rewards with 95% confidence intervals and their overlap.
    The index policy reads the restart index at ``BANDIT_NODES + 1``
    nodes of pi(2) and interpolates between them.
    """
    check_at_least("episodes", episodes, 2)   # a sample std needs two
    check_at_least("horizon", horizon, 1)
    P = np.asarray(P, dtype=float)
    B = np.asarray(B, dtype=float)
    r = np.asarray(r, dtype=float)
    gamma_of = _bandit_index(P, B, r, rho)
    sampler = PathSampler(P[None], B[None])

    def run(policy: str) -> np.ndarray:
        rng = make_rng(seed)
        n = episodes
        beliefs = rng.dirichlet(np.ones(2), size=(n, 2))  # (n, arm, X)
        states = sample_index(cumulative(beliefs.reshape(2 * n, 2)),
                              rng).reshape(n, 2)
        total = np.zeros(n)
        disc = 1.0
        rows = np.arange(n)
        for k in range(horizon):
            p2 = beliefs[:, :, 1]
            if policy == "opportunistic":
                score = p2
            else:
                score = np.column_stack([gamma_of(p2[:, 0]),
                                         gamma_of(p2[:, 1])])
            arm = (score[:, 1] > score[:, 0] + 1e-12).astype(int)
            x = states[rows, arm]
            total += disc * r[x]
            states[rows, arm], ys = sampler.draw(0, x, rng)
            beliefs[rows, arm] = sampler.filter(0, beliefs[rows, arm], ys)
            disc *= rho
        return total

    out = {}
    for policy in ("opportunistic", "gittins"):
        rewards = run(policy)
        mean = float(rewards.mean())
        half = float(1.96 * rewards.std(ddof=1) / np.sqrt(episodes))
        out[policy] = {"mean": mean, "ci_low": mean - half,
                       "ci_high": mean + half}
    a, b = out["opportunistic"], out["gittins"]
    out["ci_overlap"] = bool(a["ci_low"] <= b["ci_high"]
                             and b["ci_low"] <= a["ci_high"])
    return out
