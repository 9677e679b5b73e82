"""Piecewise-linear-concave value-function machinery.

Cross-sums, LP dominance pruning, the Bellman backup (incremental pruning
or full enumeration), finite-horizon and discounted solving and
reduced-grid upper/lower bounds.

The value function of every finite POMDP stage is the lower envelope of a
finite set of hyperplanes ("gradient vectors"); all solvers here
manipulate these sets.  Ties break to the lowest action tag and then to
the lexicographically smallest vector so results are deterministic across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import Blowup, DimensionMismatch, PreconditionFailed, \
    check_at_least
from .grid import GridValue
from .model import PomdpModel
from .simplexlp import solve_lp

DEDUP_TOL = 1e-12      # evaluate_value's tie window
PRUNE_TOL = 1e-11
WITNESS_MARGIN = 1e-9
VECTOR_BUDGET = 100_000
MAX_BACKUPS = 10_000   # backups before discounted VI gives up
POOL_CAP = 512         # witness beliefs a solve keeps, the most recent


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
    """Drop exact repeats, keeping the lowest action tag of each vector;
    the result is in ``_sort_order`` and is its own dedup.  Near-equal
    vectors are left to :func:`lp_prune`."""
    if V.shape[0] <= 1:
        return V.copy(), a.copy()
    # vector-major with the tag last, so repeats are adjacent, lowest tag
    # first
    order = np.lexsort((a,) + tuple(V[:, j]
                                    for j in reversed(range(V.shape[1]))))
    V, a = V[order], a[order]
    keep = np.ones(len(V), dtype=bool)
    keep[1:] = (V[1:] != V[:-1]).any(axis=1)
    V, a = V[keep], a[keep]
    order = _sort_order(V, a)
    return V[order], a[order]


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
    # a VectorSet is stored sorted by action tag, then by vector, so the
    # first tie has the lowest action and the lexicographically smallest
    # vector
    pick = int(np.argmax(vals <= best + DEDUP_TOL))
    return best, gamma.vectors[pick], int(gamma.actions[pick])


def cross_sum(A: VectorSet, B: VectorSet) -> VectorSet:
    """All pairwise sums; action tags take the smaller parent tag."""
    if A.dim != B.dim:
        raise DimensionMismatch("vector sets must share their dimension")
    V = (A.vectors[:, None, :] + B.vectors[None, :, :]).reshape(-1, A.dim)
    a = np.minimum(A.actions[:, None], B.actions[None, :]).reshape(-1)
    return VectorSet(V, a, stage=A.stage)


class BeliefPool:
    """The witness beliefs of one solve: where an LP of an earlier prune
    found a kept vector strictly lowest, the most recent ``POOL_CAP``.

    Counts the keeps that only a pooled belief witnessed and the prune
    LPs left to solve.
    """

    def __init__(self, dim: int):
        self.beliefs = np.empty((0, dim))
        self.settled = 0
        self.lps = 0

    def add(self, pi: np.ndarray) -> None:
        pi = np.clip(pi, 0.0, None)
        self.beliefs = np.vstack([self.beliefs, pi / pi.sum()])[-POOL_CAP:]


def _pool_values(V: np.ndarray, pool: BeliefPool | None = None) -> np.ndarray:
    """Each row's values at the vertices (exact), the uniform belief and
    the pooled beliefs, shape (n, X + 1 + pooled).  The mean and the dot
    products round within about X ulps of ``max |V|``, which
    ``WITNESS_MARGIN`` covers while ``X max |V| < 1e6``."""
    cols = [V, V.mean(axis=1, keepdims=True)]
    if pool is not None:
        cols.append(V @ pool.beliefs.T)
    return np.hstack(cols)


def _margin(g: np.ndarray, rivals: np.ndarray, region=()) -> tuple:
    """``(max_pi min_r (r - g)' pi, pi)`` over the beliefs where ``g`` is
    ``<=`` every row of ``region``; ``(None, None)`` when the LP is not
    optimal.

    The LP is ``min_{pi, z} z  s.t. (g - r)' pi <= z`` for each rival,
    ``(g - b)' pi <= 0`` for each region row, over the simplex.  It is the
    only LP of this module, so pruning and the envelope gap decide alike.
    """
    X = g.size
    rows = np.vstack([rivals, np.reshape(region, (-1, X))])
    A_ub = np.zeros((len(rows), X + 1))
    A_ub[:, :X] = g[None, :] - rows
    A_ub[:len(rivals), X] = -1.0
    A_eq = np.hstack([np.ones((1, X)), np.zeros((1, 1))])
    c = np.zeros(X + 1)
    c[-1] = 1.0
    res = solve_lp(c, A_ub=A_ub, b_ub=np.zeros(len(rows)),
                   A_eq=A_eq, b_eq=[1.0], free_vars=[X])
    if not res.optimal:
        return None, None
    return -res.value, res.x[:X]


def lp_prune(gamma: VectorSet, pool: BeliefPool | None = None) -> VectorSet:
    """Remove every vector that is never strictly below the others.

    Vectors are visited in reverse canonical order (the order a
    ``VectorSet`` is stored in) against the set that survives so far, and
    each visit makes one of three decisions:

    * **dominated** -- a survivor is ``<= g + PRUNE_TOL`` in every
      coordinate, so ``g`` undercuts it nowhere by more than ``PRUNE_TOL``
      (the LP's verdict too): dropped, near-copies of a survivor included;
    * **witnessed** -- at a vertex, the uniform belief or a belief of
      ``pool`` ``g`` lies below every survivor by more than ``PRUNE_TOL +
      WITNESS_MARGIN``: kept (see :func:`_pool_values` for the margin);
    * **LP** -- otherwise :func:`_margin` finds the best margin by which
      ``g`` undercuts the rest over the simplex, and a margin
      ``<= PRUNE_TOL`` drops ``g``.  A keep adds the LP's belief to
      ``pool``, where later prunes of the same solve find it; with no
      ``pool`` the call starts an empty one of its own.

    The first two settle with no LP what the LP would decide, so the LP
    stays the judge of every vector they leave open.
    """
    n = len(gamma)
    if n <= 1:
        return gamma
    if pool is None:
        pool = BeliefPool(gamma.dim)
    alive = list(range(n))
    V = gamma.vectors
    # a kept vector's LP optimum would witness nothing later in this call,
    # as that vector stays lowest there
    at_pool = _pool_values(V, pool)
    for idx in range(n - 1, -1, -1):
        others = [i for i in alive if i != idx]
        if not others:
            continue
        if (V[others] <= V[idx] + PRUNE_TOL).all(axis=1).any():
            alive.remove(idx)
            continue
        below = at_pool[idx] < (at_pool[others].min(axis=0)
                                - (PRUNE_TOL + WITNESS_MARGIN))
        if below.any():
            # the first witness lies past the X + 1 fixed columns
            if np.argmax(below) > gamma.dim:
                pool.settled += 1
            continue
        margin, pi = _margin(V[idx], V[others])
        pool.lps += 1
        if margin is not None and margin <= PRUNE_TOL:
            alive.remove(idx)
        elif pi is not None:
            pool.add(pi)
    keep = sorted(alive)
    return VectorSet(V[keep], gamma.actions[keep], stage=gamma.stage)


def bellman_backup_step(gamma_next: VectorSet, model: PomdpModel,
                        method: str = "ip",
                        pool: BeliefPool | None = None) -> VectorSet:
    """One Bellman backup.

    For each action u the backed-up set is the cross-sum over
    observations y of the pieces ``c_u / Y + rho Gamma P(u) diag(B_y(u))``
    (the ``c_u / Y`` shares add up to the cost vector exactly once); the
    sets of all actions are merged and pruned.  ``"ip"`` (incremental
    pruning) also prunes every piece and every partial cross-sum;
    ``"monahan"`` enumerates all ``U |Gamma|^Y`` vectors and prunes once.
    Every prune shares ``pool`` (see :func:`lp_prune`).
    """
    if method not in ("ip", "monahan"):
        raise ValueError(f"unknown backup method {method!r}")
    U, Y = model.num_actions, model.num_obs
    stage = gamma_next.stage - 1
    if method == "monahan" and U * len(gamma_next) ** Y > VECTOR_BUDGET:
        raise Blowup(stage, U * len(gamma_next) ** Y, VECTOR_BUDGET)
    prune = ((lambda vs: lp_prune(vs, pool)) if method == "ip"
             else (lambda vs: vs))
    G = gamma_next.vectors
    per_action = []
    for u in range(1, U + 1):
        P, B = model.P(u), model.B(u)
        base = model.cost_vector(u) / Y
        acc = None
        for y in range(Y):
            piece = prune(vector_set(
                base + model.discount * (G @ (P * B[:, y]).T),
                np.full(len(G), u)))
            acc = piece if acc is None else prune(cross_sum(acc, piece))
            if len(acc) > VECTOR_BUDGET:
                raise Blowup(stage, len(acc), VECTOR_BUDGET)
        per_action.append(acc)
    merged = VectorSet(np.vstack([vs.vectors for vs in per_action]),
                       np.concatenate([vs.actions for vs in per_action]),
                       stage)
    if len(merged) > VECTOR_BUDGET:
        raise Blowup(stage, len(merged), VECTOR_BUDGET)
    return lp_prune(merged, pool)


@dataclass
class SolveResult:
    stage_sets: list            # Gamma_N .. Gamma_0 (finite) or [final]
    error_bound: float
    discounted: bool
    # prune counters of the solve, not in the CLI's JSON: keeps that
    # only a pooled belief settled, and the prune LPs left
    pool_keeps: int = 0
    prune_lps: int = 0

    @property
    def final(self) -> VectorSet:
        return self.stage_sets[-1]

    def value(self, pi) -> float:
        return evaluate_value(self.final, pi)[0]

    def action(self, pi) -> int:
        return evaluate_value(self.final, pi)[2]

    def policy(self):
        return lambda pi: self.action(pi)


def solve_finite_horizon(model: PomdpModel, horizon: int,
                         method: str = "ip") -> SolveResult:
    """Stagewise sets ``Gamma_N .. Gamma_0`` for an N-stage problem."""
    check_at_least("horizon", horizon, 0)
    terminal = model.terminal_vector()
    sets = [vector_set(terminal[None, :], [1], stage=horizon)]
    pool = BeliefPool(model.num_states)
    for _ in range(horizon):
        sets.append(bellman_backup_step(sets[-1], model, method, pool))
    return SolveResult(sets, 0.0, False, pool.settled, pool.lps)


def sup_envelope_gap(A: VectorSet, B: VectorSet) -> tuple:
    """Exact ``max_pi [min_A(pi) - min_B(pi)]`` and a belief attaining it.

    One :func:`_margin` LP per vector ``delta`` of B, over the beliefs
    where ``delta`` is lowest in B; ``(-inf, None)`` if none is optimal.
    """
    best = (-np.inf, None)
    for j, delta in enumerate(B.vectors):
        gap, pi = _margin(delta, A.vectors, np.delete(B.vectors, j, axis=0))
        if gap is not None and gap > best[0]:
            best = (gap, pi)
    return best


def sup_difference(A: VectorSet, B: VectorSet) -> float:
    """Exact ``sup_pi |min_A(pi) - min_B(pi)|``."""
    return max(sup_envelope_gap(A, B)[0], sup_envelope_gap(B, A)[0])


def gap_within(A: VectorSet, B: VectorSet, epsilon: float) -> bool:
    """``sup_difference(A, B) <= epsilon``; a vertex or the uniform belief
    where the envelopes differ by more than ``epsilon + WITNESS_MARGIN``
    settles False with no LP."""
    at_pool = (_pool_values(A.vectors).min(axis=0)
               - _pool_values(B.vectors).min(axis=0))
    if (np.abs(at_pool) > epsilon + WITNESS_MARGIN).any():
        return False
    return sup_difference(A, B) <= epsilon


def value_iteration_discounted(model: PomdpModel, epsilon: float,
                               method: str = "ip"):
    """Iterate Bellman backups until ``sup |V_n - V_{n-1}| <= epsilon``.

    The stop test is :func:`gap_within`: a vertex or uniform-belief
    witness settles "not yet", and exact LPs over the two vector sets
    decide the rest, so the reported error bound
    ``epsilon * rho / (1 - rho)`` is rigorous.
    """
    rho = model.discount
    if not 0 <= rho < 1:
        raise DimensionMismatch("discounted solving needs rho < 1")
    if not epsilon > 0:
        raise DimensionMismatch(f"epsilon must be positive, got {epsilon}")
    current = vector_set(np.zeros((1, model.num_states)), [1], stage=0)
    pool = BeliefPool(model.num_states)
    for n in range(1, MAX_BACKUPS + 1):
        nxt = bellman_backup_step(current, model, method, pool)
        nxt = VectorSet(nxt.vectors, nxt.actions, stage=n)
        if gap_within(nxt, current, epsilon):
            return SolveResult([nxt], epsilon * rho / (1.0 - rho), True,
                               pool.settled, pool.lps)
        current = nxt
    raise PreconditionFailed(f"value iteration did not reach epsilon="
                             f"{epsilon} in {MAX_BACKUPS} backups")


def _lovejoy_resolution(model: PomdpModel, max_points: int) -> int:
    """Largest lattice resolution whose size fits the point budget."""
    X = model.num_states
    res = 1
    # the lattice of resolution res + 1 has comb(res + X, X - 1) points
    while comb(res + X, X - 1) <= max_points:
        res += 1
    return res


@dataclass
class LovejoyBounds:
    upper_sets: list          # stagewise pruned vector sets, N..0
    lower: GridValue          # the stage-0 lower table on its lattice

    def upper_value(self, pi) -> float:
        return evaluate_value(self.upper_sets[-1], pi)[0]


def lovejoy_bounds(model: PomdpModel, grid_points: int,
                   horizon: int | None = None) -> LovejoyBounds:
    """Reduced-grid upper bound and concave-interpolation lower bound.

    The upper recursion prunes each backed-up set to the argmin vectors
    at the grid beliefs (at most ``grid_points`` survive), which can only
    raise the envelope.  The lower bound is :meth:`GridValue.iterate`
    over the horizon with barycentric interpolation on the lattice;
    interpolating a concave function never overestimates it, so the table
    underestimates the exact value.  Raises
    :class:`DimensionMismatch` when there is no horizon or it is negative,
    or when ``grid_points`` is below 1.
    """
    N = horizon if horizon is not None else model.horizon
    if N is None:
        raise DimensionMismatch("lovejoy_bounds needs a horizon")
    check_at_least("horizon", N, 0)
    check_at_least("grid_points", grid_points, 1)
    X = model.num_states
    res = _lovejoy_resolution(model, max(grid_points, X))
    lower = GridValue(model, res)
    pts = lower.points
    if grid_points < X:
        # too few points for a lattice: prune at the barycenter plus the
        # first vertices (the lower interpolant keeps the full lattice)
        upper_pts = np.vstack([np.full((1, X), 1.0 / X),
                               np.eye(X)[:grid_points - 1]])
    else:
        upper_pts = pts
    upper = [vector_set(model.terminal_vector()[None, :], [1], stage=N)]
    pool = BeliefPool(X)
    for _ in range(N):
        full = bellman_backup_step(upper[-1], model, pool=pool)
        vals = upper_pts @ full.vectors.T
        mask = sorted(set(np.argmin(vals, axis=1).tolist()))
        upper.append(VectorSet(full.vectors[mask], full.actions[mask],
                               stage=full.stage))
    return LovejoyBounds(upper, lower.iterate(horizon=N))
