"""Model builders and application routines for the worked examples:
machine replacement, quickest change detection with phase-type change
times, controlled-sampling detection, optimal search, social learning,
POMDP bandits with a retirement index, and transmission scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidProbability,
    NonTransient,
    PreconditionFailed,
    PriorMassOnState1,
)
from .filters import (PathSampler, bayes_batch, cumulative, sample_index,
                      social_action_likelihoods)
from .grid import continuation, converge, posterior_maps, segment_weights
from .model import PomdpModel, QuadraticCost, StoppingModel
from .orders import Comparison, mlr_compare, mlr_halfspaces
from .rng import make_rng
from .solver import (
    VectorSet,
    bellman_backup_step,
    evaluate_value,
    sup_difference,
    vector_set,
)


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


def absorption_pmf(pi0, P_bar, P_col, k_max: int) -> np.ndarray:
    """Distribution of the absorption time into state 1.

    ``nu_0 = pi0(1)`` and ``nu_k = pibar0' P_bar^(k-1) P_col``.
    """
    pi0 = np.asarray(pi0, dtype=float)
    P_bar = np.asarray(P_bar, dtype=float)
    P_col = np.asarray(P_col, dtype=float)
    out = np.empty(k_max + 1)
    out[0] = pi0[0]
    w = pi0[1:].copy()
    for k in range(1, k_max + 1):
        out[k] = float(w @ P_col)
        w = w @ P_bar
    return out


def build_quickest_detection(pi0, P_bar, P_col, B, d: float, beta: float,
                             alpha: float = 0.0, f=None,
                             delay_kind: str = "classical",
                             rho: float = 1.0) -> StoppingModel:
    """Quickest detection with a phase-type change time.

    State 1 (the change) is absorbing; ``P_bar``/``P_col`` give the
    transient block and its absorption column.  The stop cost charges a
    false alarm ``beta f' pi`` plus an optional variance penalty
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
    if f is None:
        f = np.ones(X)
        f[0] = 0.0
    f = np.asarray(f, dtype=float)
    e1 = np.zeros(X)
    e1[0] = 1.0
    stop = QuadraticCost(lin=alpha * e1 + beta * f, h=e1, alpha=alpha)
    if delay_kind == "predicted":
        cont = d * P[:, 0]
    elif delay_kind == "classical":
        cont = d * e1
    else:
        raise DimensionMismatch(f"unknown delay kind {delay_kind!r}")
    return StoppingModel(P=P, B=B, stop_cost=stop, continue_cost=cont,
                         discount=rho)


def transformed_detection_costs(sm: StoppingModel, alpha: float,
                                beta: float, f) -> tuple:
    """Shifted costs with the stop cost pinned through ``-(a+b) f' pi``.

    The shift leaves the optimal policy unchanged and makes both costs
    decreasing under the usual parameter conditions.
    """
    f = np.asarray(f, dtype=float)
    stop = sm.stop_cost
    if not isinstance(stop, QuadraticCost):
        raise DimensionMismatch("expected the quickest-detection stop cost")
    new_stop = QuadraticCost(stop.lin - (alpha + beta) * f, stop.h,
                             stop.alpha)
    cont = np.asarray(sm.continue_cost, dtype=float)
    new_cont = cont - (alpha + beta) * f \
        + sm.discount * (alpha + beta) * (sm.P @ f)
    return new_stop, new_cont


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
    elif m.ndim == 1 and m.size == L:
        m = np.tile(m[:, None], (1, X))
    elif m.ndim == 1 and m.size == X:
        m = np.tile(m[None, :], (L, 1))
    if m.shape != (L, X):
        raise DimensionMismatch("measurement cost must broadcast to (L, X)")
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
    accum = np.zeros((X, X))
    power = np.eye(X)
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


def build_search_pomdp(P, overlook, blocking, cost_kind: str = "detect",
                       action_costs=None, rho: float = 0.95,
                       horizon: int | None = None) -> PomdpModel:
    """Optimal search for a moving target as a 2X+1 state POMDP.

    Action u searches cell u; the augmented state tracks (last outcome,
    position) plus a terminal found state.  Observations are a
    deterministic readout of the outcome component: 1 = not found,
    2 = blocked, 3 = found.
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
        if cost_kind == "detect":
            costs[:X, u] = -bF
            costs[X:2 * X, u] = -bF
        elif cost_kind == "delay":
            costs[:2 * X, u] = 1.0
        elif cost_kind == "cost":
            c = np.asarray(action_costs, dtype=float)
            costs[:2 * X, u] = c[u]
        else:
            raise DimensionMismatch(f"unknown cost kind {cost_kind!r}")
    return PomdpModel(transitions=trans, observations=obs, costs=costs,
                      discount=rho, horizon=horizon)


@dataclass(frozen=True)
class SocialLearningPartition:
    kappas: tuple     # kappa_0 .. kappa_4
    intervals: tuple  # P_1 .. P_4 as (lo, hi] pairs


def social_learning_partition(local_costs, B) -> SocialLearningPartition:
    """Closed-form cascade/learning partition of the public-belief line."""
    c = np.asarray(local_costs, dtype=float)
    B = np.asarray(B, dtype=float)
    d1 = c[0, 1] - c[0, 0]   # c(e1,2) - c(e1,1)
    d2 = c[1, 0] - c[1, 1]   # c(e2,1) - c(e2,2)
    if d1 <= 0 or d2 <= 0:
        raise PreconditionFailed(
            "needs c(e1,1) < c(e1,2) and c(e2,2) < c(e2,1)")
    k1 = d1 * B[0, 0] / (d1 * B[0, 0] + d2 * B[1, 0])
    k2 = d1 / (d1 + d2)
    k3 = d1 * B[0, 1] / (d1 * B[0, 1] + d2 * B[1, 1])
    kappas = (1.0, float(k1), float(k2), float(k3), 0.0)
    intervals = tuple((kappas[i + 1], kappas[i]) for i in range(4))
    return SocialLearningPartition(kappas, intervals)


@dataclass
class SocialLearningStopResult:
    grid: np.ndarray          # pi(2) values
    values: np.ndarray        # transformed value function on the grid
    stop_mask: np.ndarray
    stop_intervals: list      # (lo, hi) pairs in pi(2)


def solve_social_learning_stop(local_costs, B, d: float, beta: float,
                               rho: float, grid_size: int = 500,
                               epsilon: float = 1e-9,
                               max_iterations: int = 20_000
                               ) -> SocialLearningStopResult:
    """Grid DP for the social-learning stopping problem (X = 2).

    The public belief jumps through the social-learning filter, whose
    action likelihoods depend on the belief itself; the transformed
    continue cost is ``d e1' pi - (1 - rho) beta e2' pi`` and stopping
    costs zero.
    """
    ts = np.linspace(0.0, 1.0, grid_size)
    pis = np.column_stack([1.0 - ts, ts])
    cont_cost = d * pis[:, 0] - (1.0 - rho) * beta * pis[:, 1]
    # the public belief does not move on its own; the action seen is the
    # observation, with likelihoods that depend on the belief itself
    L = social_action_likelihoods(pis, local_costs, B)
    maps = []
    for a in range(L.shape[2]):
        post, sigma = bayes_batch(pis, L[:, :, a], pis)
        maps.append((*segment_weights(post[:, 1], grid_size - 1), sigma))

    def step(V):
        return np.minimum(0.0, cont_cost + rho * continuation(V, maps)), None

    V, _ = converge(step, np.zeros(grid_size), epsilon, max_iterations)
    stop = V >= -1e-12   # stopping attains the zero branch
    # maximal runs of stopping points, closed at their last point
    edges = np.diff(np.concatenate([[0], stop.astype(int), [0]]))
    intervals = [(float(ts[a]), float(ts[b - 1])) for a, b in
                 zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))]
    return SocialLearningStopResult(ts, V, stop, intervals)


def solve_retirement_value(P, B, r, rho: float, M: float,
                           epsilon: float) -> VectorSet:
    """Vector-set solve of the continue-or-retire problem.

    Returns the negated-value set W with ``V(pi, M) = -min_W w' pi``;
    iterates ``W = min(-M, -r' pi + rho sum_y W(T) sigma)`` to the given
    tolerance.
    """
    r = np.asarray(r, dtype=float)
    X = r.size
    model = PomdpModel(
        transitions=np.stack([np.asarray(P, dtype=float)]),
        observations=np.stack([np.asarray(B, dtype=float)]),
        costs=(-r).reshape(X, 1),
        discount=rho,
    )
    retire = vector_set(np.full((1, X), -M), [1])
    current = retire
    for n in range(10_000):
        backed = bellman_backup_step(current, model, method="ip")
        merged = vector_set(
            np.vstack([backed.vectors, retire.vectors]),
            np.concatenate([backed.actions * 0 + 2, [1]]),
            stage=0)
        from .solver import lp_prune

        nxt = lp_prune(merged)
        gap = sup_difference(nxt, current)
        current = nxt
        if gap <= epsilon:
            return current
    raise PreconditionFailed("retirement solve did not converge")


def gittins_index(P, B, r, rho: float, pi, tol_m: float = 1e-4,
                  inner_epsilon: float | None = None) -> float:
    """Retirement threshold at which continuing and stopping tie.

    Bisection on the retirement reward M of ``V(pi, M) - M`` (monotone
    decreasing); the inner solve is vector-set value iteration with the
    retirement hyperplane M included each backup.
    """
    r = np.asarray(r, dtype=float)
    pi = np.asarray(pi, dtype=float)
    M_hi = float(r.max() / (1.0 - rho))
    M_lo = 0.0
    eps_in = inner_epsilon if inner_epsilon is not None \
        else max(tol_m * (1.0 - rho) / 8.0, 1e-12)

    def v_minus_m(M: float) -> float:
        W = solve_retirement_value(P, B, r, rho, M, eps_in)
        value = -evaluate_value(W, pi)[0]
        return value - M

    slack_hi = v_minus_m(M_hi)
    if slack_hi > 2 * eps_in / max(1.0 - rho, 1e-9):
        return M_hi
    while M_hi - M_lo > tol_m:
        mid = 0.5 * (M_lo + M_hi)
        if v_minus_m(mid) > eps_in / (1.0 - rho):
            M_lo = mid
        else:
            M_hi = mid
    return 0.5 * (M_lo + M_hi)


def gittins_index_table_2state(P, B, r, rho: float, grid_size: int = 201,
                               m_steps: int = 96,
                               vi_tol: float = 1e-9) -> tuple:
    """Retirement index over a pi(2) grid via a shared M-sweep.

    For each retirement reward M on a grid the whole value table
    ``V(., M)`` comes from one vectorized solve; the index at a node is
    where ``V - M`` crosses zero (linearly interpolated between sweep
    points).  Returns ``(pi2_grid, gamma_values)``.
    """
    P = np.asarray(P, dtype=float)
    B = np.asarray(B, dtype=float)
    r = np.asarray(r, dtype=float)
    ts = np.linspace(0.0, 1.0, grid_size)
    pts = np.column_stack([1 - ts, ts])
    maps = list(posterior_maps(
        pts, P, B, lambda post: segment_weights(post[:, 1], grid_size - 1)))
    base = pts @ r

    def solve(M: float) -> np.ndarray:
        def step(V):
            return np.maximum(M, base + rho * continuation(V, maps)), None

        return converge(step, np.full(grid_size, M), vi_tol, 100_000)[0]

    M_hi = float(r.max() / (1.0 - rho))
    Ms = np.linspace(0.0, M_hi, m_steps)
    slack = np.empty((m_steps, grid_size))
    for k, M in enumerate(Ms):
        slack[k] = solve(M) - M
    gamma = np.full(grid_size, M_hi)
    tol = 10 * vi_tol / (1 - rho)
    for g in range(grid_size):
        below = np.flatnonzero(slack[:, g] <= tol)
        if below.size == 0:
            continue
        j = below[0]
        if j == 0:
            gamma[g] = 0.0
            continue
        a, b = slack[j - 1, g], slack[j, g]
        w = a / (a - b) if a > b else 0.0
        gamma[g] = Ms[j - 1] + w * (Ms[j] - Ms[j - 1])
    return ts, gamma


def run_bandit_benchmark(P, B, r, rho: float, episodes: int = 1000,
                         horizon: int = 40, seed: int = 0,
                         grid_size: int = 201) -> dict:
    """Opportunistic vs index-driven policies on a two-project bandit.

    Both policies run on paired random streams; returns per-policy mean
    discounted rewards with 95% confidence intervals and their overlap.
    The index policy interpolates a precomputed 2-state index table.
    """
    P = np.asarray(P, dtype=float)
    B = np.asarray(B, dtype=float)
    r = np.asarray(r, dtype=float)
    ts, gamma = gittins_index_table_2state(P, B, r, rho, grid_size)

    def gamma_of(pi2: np.ndarray) -> np.ndarray:
        idx, w = segment_weights(pi2, grid_size - 1)
        return (gamma[idx] * w).sum(axis=1)

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


@dataclass(frozen=True)
class OpportunisticChoice:
    index: int | None
    comparable: bool


def opportunistic_bandit_policy(beliefs) -> OpportunisticChoice:
    """Pick the MLR-largest belief when the beliefs form a chain.

    Returns ``comparable=False`` when some pair is MLR incomparable; the
    caller then projects with :func:`project_to_mlr_band` and retries.
    Ties resolve to the smallest project index.
    """
    pis = [np.asarray(b, dtype=float) for b in beliefs]
    best = 0
    for k in range(1, len(pis)):
        cmp = mlr_compare(pis[k], pis[best])
        if cmp is Comparison.INCOMPARABLE:
            return OpportunisticChoice(None, False)
        if cmp is Comparison.GE:
            best = k
    # verify chain property across all pairs
    for i in range(len(pis)):
        for j in range(i + 1, len(pis)):
            if mlr_compare(pis[i], pis[j]) is Comparison.INCOMPARABLE:
                return OpportunisticChoice(None, False)
    return OpportunisticChoice(best + 1, True)


def project_to_mlr_band(pi, lower=None, upper=None, iterations: int = 400
                        ) -> np.ndarray:
    """Nearest belief (squared Euclidean) MLR-between two references.

    Dykstra's alternating projections onto the simplex and the MLR
    half-spaces (which are linear once the references are fixed).
    """
    pi = np.asarray(pi, dtype=float)
    X = pi.size
    halfspaces = []
    if lower is not None:       # a @ x <= 0  <=>  x >= lower (MLR)
        halfspaces += list(mlr_halfspaces(lower, below=False))
    if upper is not None:
        halfspaces += list(mlr_halfspaces(upper, below=True))
    sets = halfspaces + ["simplex"]
    x = pi.copy()
    mem = [np.zeros(X) for _ in sets]
    for _ in range(iterations):
        for k, s in enumerate(sets):
            y = x + mem[k]
            if isinstance(s, str):
                z = _project_simplex(y)
            else:
                val = s @ y
                z = y - (val / (s @ s)) * s if val > 0 else y
            mem[k] = y - z
            x = z
    return np.clip(x, 0, None) / max(x.sum(), 1e-300)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    cond = u - (css - 1) / k > 0
    rho_idx = np.max(np.flatnonzero(cond)) + 1
    tau = (css[rho_idx - 1] - 1) / rho_idx
    return np.clip(v - tau, 0.0, None)


@dataclass
class TransmissionMdp:
    """Finite-horizon transmission-scheduling MDP over (buffer, channel).

    Actions: 1 = idle, 2 = transmit.  A transmit succeeds with
    probability ``1 - err_prob[s]``; the terminal cost charges
    ``c_N(i)`` for i packets left after N slots.
    """

    channel: np.ndarray       # (K, K) channel transition matrix
    err_prob: np.ndarray      # (K,)
    action_cost: np.ndarray   # (2,)
    terminal: np.ndarray      # (L+1,)
    buffer_size: int
    horizon: int

    def solve(self):
        """Backward DP; returns values[n][i, s] and policies[n][i, s]
        for n = 0..N (n counts remaining slots)."""
        K = self.channel.shape[0]
        L = self.buffer_size
        V = np.tile(self.terminal[:, None], (1, K)).astype(float)
        values = [V.copy()]
        policies = []
        for n in range(1, self.horizon + 1):
            EV = V @ self.channel.T      # E[V(i, s') | s]
            Q = np.empty((L + 1, K, 2))
            for a in range(2):
                gamma = np.zeros(K) if a == 0 else 1.0 - self.err_prob
                down = np.vstack([EV[0:1], EV[:-1]])  # V(i-1, .)
                Q[:, :, a] = self.action_cost[a] \
                    + gamma[None, :] * down + (1 - gamma[None, :]) * EV
            Q[0, :, :] = 0.0            # empty buffer: done, no cost
            # maximal selection: transmit on ties, which is the monotone
            # version of the optimal policy; an empty buffer idles
            pol = np.where(Q[:, :, 1] <= Q[:, :, 0] + 1e-12, 2, 1)
            pol[0, :] = 1
            V = Q.min(axis=2)
            values.append(V.copy())
            policies.append(pol)
        return values, policies


def build_transmission_scheduling(K: int, L: int, N: int, P_channel,
                                  err_prob, c_action,
                                  c_N) -> TransmissionMdp:
    P_channel = np.asarray(P_channel, dtype=float)
    err_prob = np.asarray(err_prob, dtype=float)
    c_action = np.asarray(c_action, dtype=float)
    c_N = np.asarray([c_N(i) if callable(c_N) else c_N[i]
                      for i in range(L + 1)], dtype=float)
    if P_channel.shape != (K, K) or err_prob.shape != (K,):
        raise DimensionMismatch("channel matrices must be (K, K) and (K,)")
    return TransmissionMdp(P_channel, err_prob, c_action, c_N, L, N)
