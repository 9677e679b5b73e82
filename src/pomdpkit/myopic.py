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

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import LpInfeasible, PreconditionFailed
from .filters import PathSampler, cumulative, sample_index
from .model import PomdpModel, belief_cost_value
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

    def upper_action(self, pi) -> int:
        return int(np.argmin(np.asarray(pi) @ self.C_upper)) + 1

    def lower_action(self, pi) -> int:
        return int(np.argmin(np.asarray(pi) @ self.C_lower)) + 1

    def upper_actions(self, pis: np.ndarray) -> np.ndarray:
        return (pis @ self.C_upper).argmin(axis=1) + 1

    def lower_actions(self, pis: np.ndarray) -> np.ndarray:
        return (pis @ self.C_lower).argmin(axis=1) + 1


def transformed_costs(model: PomdpModel, f: np.ndarray) -> np.ndarray:
    """Matrix with columns ``c_u + (I - rho P(u)) f``."""
    X, U = model.num_states, model.num_actions
    out = np.empty((X, U))
    for u in range(1, U + 1):
        out[:, u - 1] = model.cost_vector(u) \
            + (np.eye(X) - model.discount * model.P(u)) @ f
    return out


def _monotone_polytope(model: PomdpModel, direction: str,
                       delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows A, b with ``A f <= b`` encoding monotone transformed costs."""
    X, U = model.num_states, model.num_actions
    rows = []
    rhs = []
    for u in range(1, U + 1):
        M = np.eye(X) - model.discount * model.P(u)
        c = model.cost_vector(u)
        for i in range(X - 1):
            grow = M[i + 1] - M[i]
            gap = c[i + 1] - c[i]
            if direction == "increasing":
                rows.append(-grow)
                rhs.append(gap - delta)
            else:
                rows.append(grow)
                rhs.append(-gap - delta)
    return np.asarray(rows), np.asarray(rhs)


def lp_feasibility_C1_C2(model: PomdpModel,
                         delta: float = STRICTNESS) -> MyopicPair:
    """Find transform vectors making costs strictly monotone (C1)/(C2).

    Minimizes ``1'f`` over each polytope with strictness margin
    ``delta``; raises ``LpInfeasible("C1")`` or ``LpInfeasible("C2")``.
    """
    X = model.num_states
    fs = {}
    for tag, direction in (("C1", "increasing"), ("C2", "decreasing")):
        A, b = _monotone_polytope(model, direction, delta)
        res = solve_lp(np.ones(X), A_ub=A, b_ub=b)
        if not res.optimal:
            raise LpInfeasible(tag)
        fs[tag] = res.x
    return MyopicPair(
        f_upper=fs["C1"],
        f_lower=fs["C2"],
        C_upper=transformed_costs(model, fs["C1"]),
        C_lower=transformed_costs(model, fs["C2"]),
    )


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
    out = {}
    for tag, direction, sign in (("C1", "increasing", 1.0),
                                 ("C2", "decreasing", -1.0)):
        A, b = _monotone_polytope(model, direction, delta)
        alphas = np.empty(X)
        for i in range(X):
            res = solve_lp(sign * D[i], A_ub=A, b_ub=b)
            if not res.optimal:
                raise LpInfeasible(
                    tag if res.status == "infeasible" else "NoMaximizer")
            alphas[i] = res.value
        A_eq = sign * D
        res = solve_lp(np.ones(X), A_ub=A, b_ub=b, A_eq=A_eq, b_eq=alphas)
        if not res.optimal:
            raise LpInfeasible("NoMaximizer")
        out[tag] = res.x
    return MyopicPair(
        f_upper=out["C1"],
        f_lower=out["C2"],
        C_upper=transformed_costs(model, out["C1"]),
        C_lower=transformed_costs(model, out["C2"]),
    )


def myopic_actions(pair: MyopicPair, pi) -> tuple[int, int]:
    """``(mu_lower(pi), mu_upper(pi))`` from the transformed costs."""
    return pair.lower_action(pi), pair.upper_action(pi)


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

    def __init__(self, model: PomdpModel, delta: float = STRICTNESS):
        self.model = model
        X, U = model.num_states, model.num_actions
        self.X, self.U = X, U
        self.A = {}
        self.b = {}
        for tag, direction in (("C1", "increasing"), ("C2", "decreasing")):
            A, b = _monotone_polytope(model, direction, delta)
            if not dual_feasible(A[None], b[None]).feasible[0]:
                raise LpInfeasible(tag)
            self.A[tag], self.b[tag] = A, b
        # E[u] @ f adds the transform contribution to C_u
        self.E = np.stack([np.eye(X) - model.discount * model.P(u)
                           for u in range(1, U + 1)])
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


def per_belief_bounds_multiaction(model: PomdpModel, pi,
                                  delta: float = STRICTNESS,
                                  engine: PerBeliefBounds | None = None):
    """``(mu_lower, mu_upper, f_upper, f_lower)`` per-belief LP bounds."""
    engine = engine or PerBeliefBounds(model, delta)
    return engine.bounds(pi)


def overlap_indicator_pair(pair: MyopicPair, pis: np.ndarray) -> np.ndarray:
    return pair.upper_actions(pis) == pair.lower_actions(pis)


def overlap_volume(model: PomdpModel, pair: MyopicPair | None = None,
                   n_samples: int = 1_000_000, seed: int = 0,
                   per_belief: bool = False) -> tuple[float, float]:
    """Fraction of the simplex where the myopic bounds coincide.

    Monte Carlo over uniform simplex samples; for X = 2 with a fixed
    pair the estimate is replaced by exact interval arithmetic on the
    unit segment (stderr 0).
    """
    X = model.num_states
    if not per_belief and pair is not None and X == 2:
        vol = _overlap_interval_2state(pair)
        return vol, 0.0
    rng = make_rng(seed)
    pis = uniform_simplex(rng, n_samples, X)
    if per_belief:
        mask = PerBeliefBounds(model).overlap_indicator(pis)
    else:
        if pair is None:
            raise PreconditionFailed("need a MyopicPair or per_belief=True")
        mask = overlap_indicator_pair(pair, pis)
    p = float(mask.mean())
    stderr = float(np.sqrt(max(p * (1 - p), 1e-12) / n_samples))
    return p, stderr


def _overlap_interval_2state(pair: MyopicPair) -> float:
    """Exact overlap length on the segment pi(2) in [0, 1]."""
    def region(C, want_first: bool):
        # beliefs where action (1 if want_first else 2) is the argmin;
        # g(t) = d[0] (1-t) + d[1] t with action 1 winning where g <= 0
        d = C[:, 0] - C[:, 1]
        g0, g1 = d[0], d[1]
        if not want_first:
            g0, g1 = -g0, -g1
        if g0 <= 0 and g1 <= 0:
            return [(0.0, 1.0)]
        if g0 > 0 and g1 > 0:
            return []
        t = g0 / (g0 - g1)
        seg = (0.0, t) if g0 <= 0 else (t, 1.0)
        return [seg] if seg[1] > seg[0] else []

    def intersect(a, b):
        out = []
        for lo1, hi1 in a:
            for lo2, hi2 in b:
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if hi > lo:
                    out.append((lo, hi))
        return out

    # equality region: both bounds pick 1, or both pick 2
    both1 = intersect(region(pair.C_upper, True),
                      region(pair.C_lower, True))
    both2 = intersect(region(pair.C_upper, False),
                      region(pair.C_lower, False))
    return sum(hi - lo for lo, hi in both1 + both2)


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
        v1 = belief_cost_value(self.cost_1, np.asarray(pi, dtype=float))
        v2 = belief_cost_value(self.cost_2, np.asarray(pi, dtype=float))
        return 2 if v2 < v1 else 1

    def in_region(self, pi) -> bool:
        return self.policy(pi) == 2


def blackwell_myopic_region(model: PomdpModel,
                            cost_1=None, cost_2=None) -> BlackwellRegion:
    """Myopic lower-bound policy when kernel 2 Blackwell-dominates 1.

    Requires ``B(1) = B(2) R`` for a stochastic R; on the region where
    action 2 is myopically cheaper the optimal policy provably plays 2.
    ``cost_1``/``cost_2`` may supply concave belief costs replacing the
    linear model costs.
    """
    R = blackwell_factorize(model.B(1), model.B(2))
    if R is None:
        raise PreconditionFailed("kernel 2 does not Blackwell dominate 1")
    c1 = cost_1 if cost_1 is not None else model.cost_vector(1)
    c2 = cost_2 if cost_2 is not None else model.cost_vector(2)
    return BlackwellRegion(R, c1, c2)


def table_csv(rows: list[dict]) -> str:
    """CSV emitter for Table-1 style myopic summaries."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["rho", "vol", "L1", "L2"])
    for r in rows:
        w.writerow([f"{r['rho']:.12g}", f"{r['vol']:.12g}",
                    "" if r.get("L1") is None else f"{r['L1']:.12g}",
                    "" if r.get("L2") is None else f"{r['L2']:.12g}"])
    return out.getvalue()
