"""Myopic policy bounds: cost-transformation LPs, overlap maximization,
per-belief bound LPs, overlap volume, percent-loss estimation and the
Blackwell myopic region.

Transformed costs ``C_u = c_u + (I - rho P(u)) f`` leave the optimal
policy unchanged for any ``f``; choosing ``f`` to make the transformed
costs elementwise monotone yields myopic policies that provably bracket
the optimal one.  Since every construct here is invariant under shifting
``f`` by a multiple of the all-ones vector, ``f >= 0`` is imposed
without loss of generality to keep the LPs bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpInfeasible, PreconditionFailed, check_at_least
from .filters import PathSampler, cumulative, sample_index
from .model import PomdpModel
from .orders import blackwell_factorize
from .rng import make_rng, uniform_simplex
from .simplexlp import dual_feasible, solve_lp

STRICTNESS = 1e-6
BELIEF_CHUNK = 1024  # beliefs per lockstep batch; bounds the tableau memory


@dataclass(frozen=True)
class MyopicPair:
    """Transform vectors and the resulting monotone cost matrices."""

    f_upper: np.ndarray
    f_lower: np.ndarray
    C_upper: np.ndarray  # (X, U), strictly increasing columns
    C_lower: np.ndarray  # (X, U), strictly decreasing columns

    def upper_actions(self, pis: np.ndarray) -> np.ndarray:
        return (pis @ self.C_upper).argmin(axis=1) + 1

    def lower_actions(self, pis: np.ndarray) -> np.ndarray:
        return (pis @ self.C_lower).argmin(axis=1) + 1


# every C1/C2 construction walks this table: the upper bound comes from
# increasing transformed costs, the lower bound from decreasing ones
POLYTOPES = (("C1", "increasing"), ("C2", "decreasing"))


def _transform_matrices(model: PomdpModel) -> np.ndarray:
    """The stack ``I - rho P(u)``, shape (U, X, X)."""
    return np.eye(model.num_states) - model.discount * model.transitions


def transformed_costs(model: PomdpModel, f: np.ndarray) -> np.ndarray:
    """Matrix with columns ``c_u + (I - rho P(u)) f``."""
    return model.costs + (_transform_matrices(model) @ f).T


def _monotone_polytope(model: PomdpModel, direction: str,
                       delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows A, b with ``A f <= b`` encoding monotone transformed costs."""
    sign = -1.0 if direction == "increasing" else 1.0
    grow = np.diff(_transform_matrices(model), axis=1)  # (U, X-1, X)
    gap = np.diff(model.costs, axis=0).T  # (U, X-1)
    return ((sign * grow).reshape(-1, model.num_states),
            (-sign * gap - delta).reshape(-1))


def _pair(model: PomdpModel, f_upper: np.ndarray,
          f_lower: np.ndarray) -> MyopicPair:
    return MyopicPair(f_upper=f_upper, f_lower=f_lower,
                      C_upper=transformed_costs(model, f_upper),
                      C_lower=transformed_costs(model, f_lower))


def lp_feasibility_C1_C2(model: PomdpModel,
                         delta: float = STRICTNESS) -> MyopicPair:
    """Find transform vectors making costs strictly monotone (C1)/(C2).

    Minimizes ``1'f`` over each polytope with strictness margin
    ``delta``; raises ``LpInfeasible("C1")`` or ``LpInfeasible("C2")``.
    """
    fs = []
    for tag, direction in POLYTOPES:
        A, b = _monotone_polytope(model, direction, delta)
        res = solve_lp(np.ones(model.num_states), A_ub=A, b_ub=b)
        if not res.optimal:
            raise LpInfeasible(tag)
        fs.append(res.x)
    return _pair(model, *fs)


def optimize_overlap_2action(model: PomdpModel,
                             delta: float = STRICTNESS) -> MyopicPair:
    """Transform vectors maximizing the overlap region for U = 2.

    Per-coordinate minimization of ``e_i' (P(2) - P(1)) f`` over the
    monotone polytope, followed by a feasibility LP that attains every
    coordinate minimum simultaneously.  Raises
    ``LpInfeasible("NoMaximizer")`` when no single vector attains them
    all (then only per-belief optimization applies).
    """
    if model.num_actions != 2:
        raise PreconditionFailed("overlap maximization needs U = 2")
    X = model.num_states
    D = model.P(2) - model.P(1)
    fs = []
    for (tag, direction), sign in zip(POLYTOPES, (1.0, -1.0)):
        A, b = _monotone_polytope(model, direction, delta)
        alphas = np.empty(X)
        for i in range(X):
            res = solve_lp(sign * D[i], A_ub=A, b_ub=b)
            if not res.optimal:
                raise LpInfeasible(
                    tag if res.status == "infeasible" else "NoMaximizer")
            alphas[i] = res.value
        res = solve_lp(np.ones(X), A_ub=A, b_ub=b, A_eq=sign * D,
                       b_eq=alphas)
        if not res.optimal:
            raise LpInfeasible("NoMaximizer")
        fs.append(res.x)
    return _pair(model, *fs)


@dataclass
class BoundsCounters:
    """What a ``PerBeliefBounds`` engine has done so far."""

    solves: int = 0   # lockstep ``dual_feasible`` calls
    pivots: int = 0
    bland: int = 0    # problems that switched to Bland's rule
    beliefs: int = 0  # beliefs with both bounds decided


class PerBeliefBounds:
    """Per-belief myopic bounds for U > 2 via feasibility problems.

    For a given belief, the upper bound is the smallest action some
    transform in the C1 polytope makes myopically optimal; the lower
    bound is the largest action some transform in the C2 polytope does.
    Each probe (polytope, action) is decided for a whole chunk of
    beliefs at once by ``dual_feasible``: C1 for a = 1..U over the beliefs
    still undecided, then C2 for a = U..1, then the order check
    ``lower <= upper`` at every belief.  ``counters`` sums the work.
    """

    def __init__(self, model: PomdpModel):
        self.model = model
        self.X, self.U = model.num_states, model.num_actions
        self.A, self.b = {}, {}
        for tag, direction in POLYTOPES:
            self.A[tag], self.b[tag] = _monotone_polytope(model, direction,
                                                          STRICTNESS)
        ok = dual_feasible(np.stack(list(self.A.values())),
                           np.stack(list(self.b.values()))).feasible
        for (tag, _), feasible in zip(POLYTOPES, ok):
            if not feasible:
                raise LpInfeasible(tag)
        # E[u] @ f adds the transform contribution to C_u
        self.E = _transform_matrices(model)
        self.c = model.costs  # (X, U)
        self.counters = BoundsCounters()

    def _scan(self, tag: str, pis: np.ndarray, actions
              ) -> tuple[np.ndarray, np.ndarray]:
        """First action of ``actions`` that a transform in the tag
        polytope makes myopic at each belief (0 where none does), with
        that transform."""
        base = pis @ self.c  # (B, U)
        lin = np.einsum("bx,uxy->buy", pis, self.E)  # (B, U, X)
        found = np.zeros(len(pis), dtype=int)
        fs = np.zeros((len(pis), self.X))
        todo = np.arange(len(pis))
        A, b = self.A[tag], self.b[tag]
        for a in actions:
            if not todo.size:
                break
            i = a - 1
            others = [u for u in range(self.U) if u != i]
            L, c = lin[todo], base[todo]
            rows = L[:, [i]] - L[:, others]
            rhs = c[:, others] - c[:, [i]]
            M = np.concatenate(
                [np.broadcast_to(A, (todo.size,) + A.shape), rows], axis=1)
            res = dual_feasible(M, np.hstack(
                [np.broadcast_to(b, (todo.size, b.size)), rhs]))
            self.counters.solves += 1
            self.counters.pivots += res.pivots
            self.counters.bland += res.bland
            hit = todo[res.feasible]
            found[hit] = a
            fs[hit] = res.f[res.feasible]
            todo = todo[~res.feasible]
        return found, fs

    def _decide(self, pis: np.ndarray):
        """``(lower, upper, f_upper, f_lower)`` arrays for one chunk."""
        hi, f_upper = self._scan("C1", pis, range(1, self.U + 1))
        lo, f_lower = self._scan("C2", pis, range(self.U, 0, -1))
        if ((hi > 0) & (lo > hi)).any():
            raise PreconditionFailed(
                "myopic bounds are not ordered on this model")
        self.counters.beliefs += len(pis)
        return lo, hi, f_upper, f_lower

    def bounds(self, pi) -> tuple[int, int, np.ndarray, np.ndarray]:
        """``(mu_lower, mu_upper, f_upper, f_lower)`` at one belief."""
        lo, hi, f_upper, f_lower = self._decide(
            np.asarray(pi, dtype=float)[None])
        return (int(lo[0]) or None, int(hi[0]) or None,
                f_upper[0] if hi[0] else None, f_lower[0] if lo[0] else None)

    def overlap_indicator(self, pis: np.ndarray) -> np.ndarray:
        """Overlap mask ``mu_upper == mu_lower`` for many beliefs, decided
        ``BELIEF_CHUNK`` beliefs at a time."""
        pis = np.atleast_2d(pis)
        out = np.zeros(len(pis), dtype=bool)
        for start in range(0, len(pis), BELIEF_CHUNK):
            lo, hi, _, _ = self._decide(pis[start:start + BELIEF_CHUNK])
            out[start:start + BELIEF_CHUNK] = (hi > 0) & (lo == hi)
        return out


def overlap_indicator_pair(pair: MyopicPair, pis: np.ndarray) -> np.ndarray:
    return pair.upper_actions(pis) == pair.lower_actions(pis)


def overlap_volume(model: PomdpModel, pair: MyopicPair | None = None,
                   n_samples: int = 1_000_000,
                   seed: int = 0) -> tuple[float, float]:
    """Fraction of the simplex where the myopic bounds of ``pair`` (the
    per-belief ones when it is None) coincide.

    For a fixed pair on X <= 3 states the fraction is exact (stderr 0,
    ``n_samples`` and ``seed`` unused): see :func:`_exact_overlap`.
    Otherwise it is a Monte Carlo estimate over ``n_samples`` uniform
    simplex samples, returned with its standard error.
    """
    X = model.num_states
    if pair is not None and X <= 3:
        return _exact_overlap(pair), 0.0
    check_at_least("n_samples", n_samples, 1)
    rng = make_rng(seed)
    pis = uniform_simplex(rng, n_samples, X)
    if pair is None:
        mask = PerBeliefBounds(model).overlap_indicator(pis)
    else:
        mask = overlap_indicator_pair(pair, pis)
    p = float(mask.mean())
    stderr = float(np.sqrt(max(p * (1 - p), 1e-12) / n_samples))
    return p, stderr


def _exact_overlap(pair: MyopicPair) -> float:
    """Exact overlap fraction of the segment (X = 2) or triangle (X = 3).

    The zero set of every action-cost difference of either bound cuts the
    simplex into convex pieces on which both bounds are constant; the
    measures of the pieces whose vertex mean gets the same action from
    both add up.  Pieces are vertex rows of beliefs in boundary order.
    """
    X = pair.C_upper.shape[0]
    pieces = [np.eye(X)]
    for C in (pair.C_upper, pair.C_lower):
        i, j = np.triu_indices(C.shape[1], 1)
        for diff in (C[:, i] - C[:, j]).T:
            pieces = [side for piece in pieces
                      for side in _split(piece, piece @ diff)]
    sizes = np.array([_measure(piece) for piece in pieces])
    means = np.array([piece.mean(axis=0) for piece in pieces])
    return float(sizes[overlap_indicator_pair(pair, means)].sum()
                 / _measure(np.eye(X)))


def _split(piece: np.ndarray, s: np.ndarray) -> list[np.ndarray]:
    """The two sides of a convex piece cut where the affine function with
    vertex values ``s`` vanishes (Sutherland-Hodgman, both sides at
    once); the piece itself when the cut misses its interior.

    A segment's crossing is found from both of its edges; the crossing
    formula is symmetric, so the copy is the same point and changes
    neither the segment's length nor its interior."""
    if (s >= 0).all() or (s <= 0).all():
        return [piece]
    k = len(piece)
    neg, pos = [], []
    for a in range(k):
        b = (a + 1) % k
        if s[a] <= 0:
            neg.append(piece[a])
        if s[a] >= 0:
            pos.append(piece[a])
        if s[a] * s[b] < 0:
            cross = (s[a] * piece[b] - s[b] * piece[a]) / (s[a] - s[b])
            neg.append(cross)
            pos.append(cross)
    return [np.array(neg), np.array(pos)]


def _measure(piece: np.ndarray) -> float:
    """Length (X = 2) or area (X = 3) of a piece in the coordinates
    (pi(2), ..., pi(X))."""
    y = piece[:, 1:]
    if y.shape[1] == 1:
        return float(np.ptp(y))
    x, z = y.T
    return 0.5 * abs(float(x @ np.roll(z, -1) - z @ np.roll(x, -1)))


def _simulate_paths(model: PomdpModel, policy_batch, pi0: np.ndarray,
                    n_runs: int, horizon: int, rng,
                    stage_costs) -> np.ndarray:
    """Vectorized path simulation; returns discounted costs per path.

    ``policy_batch`` maps an (n, X) belief array to 1-indexed actions;
    ``stage_costs(states, actions, beliefs)`` gives per-path costs.
    """
    sampler = PathSampler(model.transitions, model.observations)
    beliefs = np.tile(pi0, (n_runs, 1))
    states = sample_index(cumulative(beliefs), rng)
    total = np.zeros(n_runs)
    disc = 1.0
    for k in range(horizon):
        actions = policy_batch(beliefs)
        total += disc * stage_costs(states, actions, beliefs)
        a0 = actions - 1
        states, ys = sampler.draw(a0, states, rng)
        new_beliefs = np.empty_like(beliefs)
        for u in range(model.num_actions):
            sel = a0 == u
            if sel.any():
                new_beliefs[sel] = sampler.filter(u, beliefs[sel], ys[sel])
        beliefs = new_beliefs
        disc *= model.discount
    return total


def percent_loss(model: PomdpModel, pair: MyopicPair, pi0,
                 optimal_policy_batch, n_runs: int = 1000,
                 horizon: int = 100, seed: int = 0) -> float:
    """Upper bound on the relative loss of the overlap-patched policy.

    The patched policy follows the (coinciding) myopic bounds inside the
    overlap region and plays action 1 outside; the reference follows the
    optimal policy but substitutes the per-state minimal cost outside
    the overlap region.  Both are estimated over ``n_runs`` Monte Carlo
    paths of the given horizon with paired random streams.
    """
    check_at_least("n_runs", n_runs, 1)
    check_at_least("horizon", horizon, 1)
    pi0 = np.asarray(pi0, dtype=float)
    actual = np.asarray(model.costs)

    def patched_policy(pis):
        acts = pair.upper_actions(pis)
        acts[~overlap_indicator_pair(pair, pis)] = 1
        return acts

    def actual_costs(states, actions, beliefs):
        return actual[states, actions - 1]

    cheap = actual.min(axis=1)

    def tilde_costs(states, actions, beliefs):
        base = actual[states, actions - 1]
        return np.where(overlap_indicator_pair(pair, beliefs), base,
                        cheap[states])

    rng1 = make_rng(seed)
    j_patched = _simulate_paths(model, patched_policy, pi0, n_runs,
                                horizon, rng1, actual_costs).mean()
    rng2 = make_rng(seed)
    j_tilde = _simulate_paths(model, optimal_policy_batch, pi0, n_runs,
                              horizon, rng2, tilde_costs).mean()
    return float((j_patched - j_tilde) / j_tilde)


class BlackwellRegion:
    """Region where the more informative action is provably optimal."""

    def __init__(self, factor: np.ndarray, cost_1, cost_2):
        self.factor = factor
        self.cost_1 = cost_1
        self.cost_2 = cost_2

    def policy(self, pi) -> int:
        pi = np.asarray(pi, dtype=float)[None]
        v1, v2 = (pi @ self.cost_1)[0], (pi @ self.cost_2)[0]
        return 2 if v2 < v1 else 1

    def in_region(self, pi) -> bool:
        return self.policy(pi) == 2


def blackwell_myopic_region(model: PomdpModel) -> BlackwellRegion:
    """Myopic lower-bound policy when kernel 2 Blackwell-dominates 1.

    Requires ``B(1) = B(2) R`` for a stochastic R; on the region where
    action 2 is myopically cheaper the optimal policy provably plays 2.
    """
    R = blackwell_factorize(model.B(1), model.B(2))
    if R is None:
        raise PreconditionFailed("kernel 2 does not Blackwell dominate 1")
    return BlackwellRegion(R, model.cost_vector(1), model.cost_vector(2))
