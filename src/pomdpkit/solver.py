"""Piecewise-linear-concave value-function machinery.

Cross-sums, LP dominance pruning, incremental-pruning and full-enumeration
Bellman backups, finite-horizon and discounted solving, reduced-grid
upper/lower bounds, a simplex-grid oracle and policy evaluation.

The value function of every finite POMDP stage is the lower envelope of a
finite set of hyperplanes ("gradient vectors"); all solvers here
manipulate these sets.  Ties break to the lowest action tag and then to
the lexicographically smallest vector so results are deterministic across
platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import Blowup, DimensionMismatch, PreconditionFailed
from .grid import GridValue, barycentric_weights
from .model import PomdpModel
from .simplexlp import solve_lp

DEDUP_TOL = 1e-12
PRUNE_TOL = 1e-11
VECTOR_BUDGET = 100_000


@dataclass(frozen=True)
class VectorSet:
    """A set of (gradient vector, 1-indexed action tag) pairs."""

    vectors: np.ndarray  # (n, X)
    actions: np.ndarray  # (n,)
    stage: int = 0

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        a = np.atleast_1d(np.asarray(self.actions, dtype=int))
        if V.shape[0] != a.shape[0]:
            raise DimensionMismatch("one action tag per vector required")
        V, a = _dedup(V, a)
        V.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "vectors", V)
        object.__setattr__(self, "actions", a)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _sort_order(V: np.ndarray, a: np.ndarray) -> np.ndarray:
    keys = tuple(V[:, j] for j in reversed(range(V.shape[1]))) + (a,)
    return np.lexsort(keys)


def _dedup(V: np.ndarray, a: np.ndarray) -> tuple:
    """Lexicographic dedup at DEDUP_TOL, keeping the lowest action tag."""
    if V.shape[0] <= 1:
        return V.copy(), a.copy()
    order = _sort_order(V, a)
    V, a = V[order], a[order]
    keep = [0]
    for i in range(1, V.shape[0]):
        if np.max(np.abs(V[i] - V[keep[-1]])) > DEDUP_TOL:
            keep.append(i)
        # equal vectors: the earlier one has the lower action tag already
    return V[keep].copy(), a[keep].copy()


def vector_set(vectors, actions=None, stage: int = 0) -> VectorSet:
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    if actions is None:
        actions = np.ones(V.shape[0], dtype=int)
    return VectorSet(V, np.asarray(actions, dtype=int), stage)


def evaluate_value(gamma: VectorSet, pi) -> tuple[float, np.ndarray, int]:
    """Exact ``min_gamma gamma' pi`` with deterministic tie-breaking.

    Returns ``(value, argmin vector, action tag)``.
    """
    pi = np.asarray(pi, dtype=float)
    vals = gamma.vectors @ pi
    best = float(vals.min())
    tied = np.flatnonzero(vals <= best + DEDUP_TOL)
    # among ties the lowest action wins, then the lexicographically
    # smallest vector
    acts = gamma.actions[tied]
    lowest = acts.min()
    cand = tied[acts == lowest]
    order = _sort_order(gamma.vectors[cand], gamma.actions[cand])
    pick = int(cand[order[0]])
    return best, gamma.vectors[pick], int(gamma.actions[pick])


def evaluate_batch(gamma: VectorSet, pis: np.ndarray) -> np.ndarray:
    """Envelope values at many beliefs (rows of ``pis``)."""
    return (pis @ gamma.vectors.T).min(axis=1)


def cross_sum(A: VectorSet, B: VectorSet) -> VectorSet:
    """All pairwise sums; action tags take the smaller parent tag."""
    if A.dim != B.dim:
        raise DimensionMismatch("vector sets must share their dimension")
    V = (A.vectors[:, None, :] + B.vectors[None, :, :]).reshape(-1, A.dim)
    a = np.minimum(A.actions[:, None], B.actions[None, :]).reshape(-1)
    return VectorSet(V, a, stage=A.stage)


def lp_prune(gamma: VectorSet) -> VectorSet:
    """Remove every vector that is never strictly below the others.

    For each vector the LP ``min_{pi, z} z  s.t. (g - g_other)' pi <= z``
    over the simplex finds the best margin by which ``g`` undercuts the
    rest; a nonnegative optimum means ``g`` never attains the envelope
    strictly and can be dropped without changing the pointwise value.
    """
    n = len(gamma)
    if n <= 1:
        return gamma
    X = gamma.dim
    alive = list(range(n))
    V = gamma.vectors
    order = list(_sort_order(V, gamma.actions))
    # visit in reverse canonical order so the kept set is deterministic
    for idx in reversed(order):
        others = [i for i in alive if i != idx]
        if not others:
            continue
        diff = V[idx][None, :] - V[others]
        # variables: pi (X, >=0), z (free); min z st diff @ pi - z <= 0
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


def _backup_components(model: PomdpModel, gamma_next: VectorSet,
                       rho: float):
    """Per-(u, y) gradient-vector sets of one Bellman backup."""
    U, Y = model.num_actions, model.num_obs
    G = gamma_next.vectors
    out = {}
    for u in range(1, U + 1):
        P = model.P(u)
        B = model.B(u)
        base = model.cost_vector(u) / Y
        for y in range(1, Y + 1):
            M = P * B[:, y - 1][None, :]   # P(u) diag(B_y(u))
            out[(u, y)] = base[None, :] + rho * (G @ M.T)
    return out


def incremental_pruning_step(gamma_next: VectorSet, model: PomdpModel,
                             budget: int = VECTOR_BUDGET) -> VectorSet:
    """One Bellman backup with pruning interleaved into the cross-sums."""
    rho = model.discount
    comps = _backup_components(model, gamma_next, rho)
    U, Y = model.num_actions, model.num_obs
    stage = gamma_next.stage - 1
    all_vectors = []
    all_actions = []
    for u in range(1, U + 1):
        acc = None
        for y in range(1, Y + 1):
            piece = lp_prune(vector_set(comps[(u, y)],
                                        np.full(comps[(u, y)].shape[0], u)))
            acc = piece if acc is None else lp_prune(cross_sum(acc, piece))
            if len(acc) > budget:
                raise Blowup(stage, len(acc), budget)
        all_vectors.append(acc.vectors)
        all_actions.append(np.full(len(acc), u))
    merged = vector_set(np.vstack(all_vectors),
                        np.concatenate(all_actions), stage)
    if len(merged) > budget:
        raise Blowup(stage, len(merged), budget)
    return lp_prune(merged)


def monahan_step(gamma_next: VectorSet, model: PomdpModel,
                 budget: int = VECTOR_BUDGET,
                 return_enumeration_size: bool = False):
    """Full ``U |Gamma|^Y`` enumeration followed by a single prune.

    Each per-(u, y) component carries ``c_u / Y``, so the Y-fold
    cross-sum accumulates the full cost vector exactly once.
    """
    rho = model.discount
    comps = _backup_components(model, gamma_next, rho)
    U, Y = model.num_actions, model.num_obs
    stage = gamma_next.stage - 1
    all_vectors = []
    all_actions = []
    count = 0
    for u in range(1, U + 1):
        raw = comps[(u, 1)]
        for y in range(2, Y + 1):
            raw = (raw[:, None, :] + comps[(u, y)][None, :, :]).reshape(
                -1, model.num_states)
            if raw.shape[0] > budget:
                raise Blowup(stage, raw.shape[0], budget)
        count += len(gamma_next) ** Y
        all_vectors.append(raw)
        all_actions.append(np.full(raw.shape[0], u))
    if count > budget:
        raise Blowup(stage, count, budget)
    merged = vector_set(np.vstack(all_vectors),
                        np.concatenate(all_actions), stage)
    pruned = lp_prune(merged)
    if return_enumeration_size:
        return pruned, count
    return pruned


def bellman_backup_step(gamma_next: VectorSet, model: PomdpModel,
                        method: str = "ip",
                        budget: int = VECTOR_BUDGET) -> VectorSet:
    if method == "ip":
        return incremental_pruning_step(gamma_next, model, budget)
    if method == "monahan":
        return monahan_step(gamma_next, model, budget)
    raise ValueError(f"unknown backup method {method!r}")


@dataclass
class SolveResult:
    stage_sets: list            # Gamma_N .. Gamma_0 (finite) or [final]
    error_bound: float
    discounted: bool

    @property
    def final(self) -> VectorSet:
        return self.stage_sets[-1]

    def value(self, pi) -> float:
        return evaluate_value(self.final, pi)[0]

    def action(self, pi) -> int:
        return evaluate_value(self.final, pi)[2]

    def policy(self):
        return lambda pi: self.action(pi)

    def to_json(self) -> str:
        doc = {
            "error_bound": self.error_bound,
            "discounted": self.discounted,
            "stages": [
                {
                    "stage": vs.stage,
                    "vectors": [
                        {"gamma": list(map(float, g)), "action": int(a)}
                        for g, a in zip(vs.vectors, vs.actions)
                    ],
                }
                for vs in self.stage_sets
            ],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "SolveResult":
        doc = json.loads(text)
        sets = []
        for st in doc["stages"]:
            V = [e["gamma"] for e in st["vectors"]]
            a = [e["action"] for e in st["vectors"]]
            sets.append(vector_set(V, a, stage=st["stage"]))
        return SolveResult(sets, doc["error_bound"], doc["discounted"])


def solve_finite_horizon(model: PomdpModel, horizon: int,
                         method: str = "ip",
                         budget: int = VECTOR_BUDGET) -> SolveResult:
    """Stagewise sets ``Gamma_N .. Gamma_0`` for an N-stage problem."""
    terminal = model.terminal_vector()
    sets = [vector_set(terminal[None, :], [1], stage=horizon)]
    for _ in range(horizon):
        sets.append(bellman_backup_step(sets[-1], model, method, budget))
    return SolveResult(sets, 0.0, discounted=False)


def sup_envelope_gap(A: VectorSet, B: VectorSet) -> float:
    """Exact ``max_pi [min_A(pi) - min_B(pi)]`` via one LP per B vector."""
    X = A.dim
    nA = len(A)
    c = np.zeros(X + 1)
    c[X] = -1.0
    A_eq = np.zeros((1, X + 1))
    A_eq[0, :X] = 1.0
    best = -np.inf
    for j, delta in enumerate(B.vectors):
        # max t st t <= (g - delta)' pi for g in A; delta argmin for B
        rows = np.zeros((nA + len(B) - 1, X + 1))
        rows[:nA, :X] = delta - A.vectors
        rows[:nA, X] = 1.0
        rows[nA:, :X] = delta - np.delete(B.vectors, j, axis=0)
        res = solve_lp(c, A_ub=rows, b_ub=np.zeros(len(rows)),
                       A_eq=A_eq, b_eq=[1.0], free_vars=[X])
        if res.optimal:
            best = max(best, -res.value)
    return best


def sup_difference(A: VectorSet, B: VectorSet) -> float:
    """Exact ``sup_pi |min_A(pi) - min_B(pi)|``."""
    return max(sup_envelope_gap(A, B), sup_envelope_gap(B, A))


def value_iteration_discounted(model: PomdpModel, epsilon: float,
                               method: str = "ip",
                               budget: int = VECTOR_BUDGET,
                               max_iterations: int = 10_000):
    """Iterate Bellman backups until ``sup |V_n - V_{n-1}| <= epsilon``.

    The sup-difference is computed exactly with LPs over the two vector
    sets, so the reported error bound ``epsilon * rho / (1 - rho)`` is
    rigorous.
    """
    rho = model.discount
    if not 0 <= rho < 1:
        raise DimensionMismatch("discounted solving needs rho < 1")
    current = vector_set(np.zeros((1, model.num_states)), [1], stage=0)
    for n in range(1, max_iterations + 1):
        nxt = bellman_backup_step(current, model, method, budget)
        nxt = VectorSet(nxt.vectors, nxt.actions, stage=n)
        gap = sup_difference(nxt, current)
        current = nxt
        if gap <= epsilon:
            bound = epsilon * rho / (1.0 - rho)
            return SolveResult([current], bound, discounted=True)
    raise PreconditionFailed(f"value iteration did not reach epsilon="
                             f"{epsilon} in {max_iterations} backups")


def policy_evaluation(model: PomdpModel, policy, epsilon: float,
                      resolution: int | None = None,
                      max_iterations: int = 100_000) -> GridValue:
    """Expected discounted cost of a stationary belief policy.

    Iterates the fixed-policy Bellman operator on a simplex grid until
    successive sweeps differ by at most ``epsilon``; the returned table
    interpolates like the grid oracle.
    """
    rho = model.discount
    if not 0 <= rho < 1:
        raise DimensionMismatch("policy evaluation needs rho < 1")
    grid = GridValue(model, resolution or default_resolution(model))
    actions = np.array([int(policy(p)) for p in grid.points], dtype=int)
    grid.iterate_policy(actions, epsilon, max_iterations)
    return grid


def default_resolution(model: PomdpModel) -> int:
    return {2: 1000, 3: 120}.get(model.num_states, 30)


def grid_value_oracle(model: PomdpModel, resolution: int,
                      horizon: int | None = None,
                      epsilon: float | None = None) -> GridValue:
    """Value iteration on the uniform simplex lattice.

    Interpolates linearly for X = 2 and by nearest lattice point for
    X >= 3; returns the table with its greedy policy on the lattice
    attached.
    """
    if (horizon is None) == (epsilon is None):
        raise DimensionMismatch("give exactly one of horizon / epsilon")
    grid = GridValue(model, resolution)
    if horizon is not None:
        grid.iterate(horizon=horizon)
    else:
        grid.iterate(epsilon=epsilon)
    return grid


def _lovejoy_resolution(model: PomdpModel, max_points: int) -> int:
    """Largest lattice resolution whose size fits the point budget."""
    X = model.num_states
    res = 1
    while True:
        size = _lattice_size(X, res + 1)
        if size > max_points:
            break
        res += 1
    return res


def _lattice_size(X: int, res: int) -> int:
    from math import comb

    return comb(res + X - 1, X - 1)


@dataclass
class LovejoyBounds:
    upper_sets: list          # stagewise pruned vector sets, N..0
    lower_tables: list        # stagewise grid values, N..0
    grid_points: np.ndarray
    resolution: int
    model: PomdpModel

    def upper_value(self, pi) -> float:
        return evaluate_value(self.upper_sets[-1], pi)[0]

    def lower_value(self, pi) -> float:
        idx, w = barycentric_weights(
            np.asarray(pi, dtype=float)[None, :], self.resolution)
        return float((self.lower_tables[-1][idx] * w).sum())


def lovejoy_bounds(model: PomdpModel, grid_points: int,
                   horizon: int | None = None,
                   method: str = "ip") -> LovejoyBounds:
    """Reduced-grid upper bound and concave-interpolation lower bound.

    The upper recursion prunes each backed-up set to the argmin vectors
    at the grid beliefs (at most ``grid_points`` survive), which can only
    raise the envelope.  The lower recursion runs :class:`GridValue`
    sweeps with barycentric interpolation on the lattice; interpolating a
    concave function never overestimates it, so the table underestimates
    the exact value at all stages.
    """
    N = horizon if horizon is not None else model.horizon
    if N is None:
        raise DimensionMismatch("lovejoy_bounds needs a horizon")
    X = model.num_states
    res = _lovejoy_resolution(model, max(grid_points, X))
    lower_grid = GridValue(model, res, interpolation="freudenthal")
    pts = lower_grid.points
    if grid_points < X:
        # too few points for a lattice: prune at the barycenter plus the
        # first vertices (the lower interpolant keeps the full lattice)
        extra = [np.eye(X)[i] for i in range(grid_points - 1)]
        upper_pts = np.vstack([np.full((1, X), 1.0 / X)] + [
            e[None, :] for e in extra])
    else:
        upper_pts = pts
    terminal = model.terminal_vector()
    upper = [vector_set(terminal[None, :], [1], stage=N)]
    lower = [pts @ terminal]
    for k in range(N):
        full = bellman_backup_step(upper[-1], model, method)
        vals = upper_pts @ full.vectors.T
        mask = sorted(set(np.argmin(vals, axis=1).tolist()))
        upper.append(VectorSet(full.vectors[mask], full.actions[mask],
                               stage=full.stage))
        lower.append(lower_grid.sweep(lower[-1])[0])
    bounds = LovejoyBounds(upper, lower, pts, res, model)
    return bounds
