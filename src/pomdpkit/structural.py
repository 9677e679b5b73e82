"""Verifiers for monotone-structure claims on concrete models.

Assumption reports, monotone value/policy verification against a solved
value function, threshold extraction on the 2-state simplex, switching
curve probing on lines through simplex vertices, convexity sampling of
stop sets, and cost-ordering comparisons between models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, PreconditionFailed
from .model import PomdpModel, QuadraticCost, StoppingModel
from .orders import (
    Comparison,
    HOLDS,
    OrderVerdict,
    Verdict,
    blackwell_factorize,
    check_F4,
    copositive_order_full,
    copositive_order_transitions,
    fails,
    fosd_compare,
    is_tp2,
    mdp_monotone_report,
)
from .rng import make_rng, uniform_simplex
from .solver import solve_finite_horizon, sup_envelope_gap

VALUE_TOL = 1e-9
# J1 <= J2 + COMPARE_TOL on the whole simplex counts as cheaper
COMPARE_TOL = 1e-7


def _quadratic_decreasing(cost: QuadraticCost) -> OrderVerdict:
    """First-order decreasing check for ``lin' pi - alpha (h' pi)^2``.

    Moving mass from state i to i + 1 changes the cost at rate
    ``lin_{i+1} - lin_i + 2 alpha (h_i - h_{i+1}) t`` with ``t = h' pi``,
    which ranges over ``[min h, max h]`` on the simplex.  The rate is
    linear in ``t``, so checking ``lin_i - lin_{i+1} >= 2 alpha (h_i -
    h_{i+1}) t`` at both ends is exact for any ``h``.
    """
    lin, h, alpha = cost.lin, cost.h, cost.alpha
    lhs = lin[:-1] - lin[1:]
    rhs = np.outer(2 * alpha * (h[:-1] - h[1:]),
                   [h.min(), h.max()]).max(axis=1)
    bad = np.argwhere(lhs < rhs - VALUE_TOL)
    if bad.size:
        i = int(bad[0][0])
        return fails({"state": i + 1, "gap": float(lhs[i] - rhs[i])})
    return HOLDS


def _linear_decreasing(c: np.ndarray) -> OrderVerdict:
    """Each column of the (X, U) cost matrix is decreasing in the state."""
    grow = np.argwhere(np.diff(c, axis=0) > VALUE_TOL)
    if grow.size:
        x = grow[0]
        return fails({"state": int(x[0]) + 1, "action": int(x[1]) + 1})
    return HOLDS


def _submodular_on_lines(delta: QuadraticCost) -> OrderVerdict:
    """Submodularity of a two-action cost difference on vertex lines.

    For a difference ``phi' pi + alpha (h' pi)^2`` the two families of
    linear inequalities are checked at the sub-simplex vertices, which
    suffices because they are linear in the base belief.  A linear
    difference (``alpha = 0``) reduces to ``delta_1 >= delta_x >=
    delta_X`` for every state x.
    """
    phi = delta.lin
    alpha = -delta.alpha   # stored as lin - alpha (h)^2
    h = delta.h
    X = phi.size
    for j in range(X - 1):       # vertices of {pi(X) = 0}
        lhs = phi[X - 1] - phi[j] + 2 * alpha * h[X - 1] * (h[X - 1] - h[j])
        if lhs > VALUE_TOL:
            return fails({"line": "e_X", "vertex": j + 1,
                          "value": float(lhs)})
    for j in range(1, X):        # vertices of {pi(1) = 0}
        lhs = phi[0] - phi[j] + 2 * alpha * h[X - 1] * (h[0] - h[j])
        if lhs < -VALUE_TOL:
            return fails({"line": "e_1", "vertex": j + 1,
                          "value": float(lhs)})
    return HOLDS


def pomdp_assumption_report(model: PomdpModel | StoppingModel) -> dict:
    """Verdicts for (C), (F1), (F2), (F3'), (F4) and (S).

    A :class:`StoppingModel` is read as two actions (stop, continue) that
    share its ``P`` and ``B``; its (C) and (S) are checked on its own
    belief costs.
    """
    report = {}
    stopping = isinstance(model, StoppingModel)
    if stopping:
        P, B = [model.P] * 2, [model.B] * 2
        report["C"] = _quadratic_decreasing(model.stop_cost)
        if report["C"].status is Verdict.HOLDS:
            report["C"] = _quadratic_decreasing(model.continue_cost)
    else:
        P, B = model.transitions, model.observations
        report["C"] = _linear_decreasing(model.costs)
    U = len(P)

    for key, matrices in (("F1", B), ("F2", P)):
        report[key] = HOLDS
        for u, matrix in enumerate(matrices, 1):
            v = is_tp2(matrix)
            if v.status is Verdict.FAILS:
                report[key] = fails({"action": u, "minor": v.witness})
                break
    report["F3"] = HOLDS
    for u in range(1, U):
        v = copositive_order_full(P[u - 1], B[u - 1], P[u], B[u])
        if v.status is not Verdict.HOLDS:
            report["F3"] = OrderVerdict(v.status, {"action_pair": (u, u + 1),
                                                   **(v.witness or {})})
            break
    report["F4"] = HOLDS
    for u in range(1, U):
        v = check_F4(P[u - 1], B[u - 1], P[u], B[u])
        if v.status is Verdict.FAILS:
            report["F4"] = fails({"action_pair": (u, u + 1), **v.witness})
            break
    if stopping:
        report["S"] = _submodular_on_lines(_belief_cost_difference(
            model.continue_cost, model.stop_cost))
    else:
        # consecutive actions, each difference a linear QuadraticCost; a
        # witness names its action pair when there are more than two
        report["S"] = HOLDS
        for u in range(U - 1):
            delta = model.costs[:, u + 1] - model.costs[:, u]
            v = _submodular_on_lines(
                QuadraticCost(delta, np.zeros_like(delta), 0.0))
            if v.status is Verdict.FAILS:
                report["S"] = v if U == 2 else fails(
                    {"action_pair": (u + 1, u + 2), **v.witness})
                break
    return report


def _belief_cost_difference(q2: QuadraticCost,
                            q1: QuadraticCost) -> QuadraticCost:
    """Continue-minus-stop cost as a QuadraticCost (phi, h, alpha)."""
    if q1.alpha and q2.alpha:
        raise DimensionMismatch(
            "cost difference supports one quadratic term only")
    if q1.alpha:
        return QuadraticCost(q2.lin - q1.lin, q1.h, -q1.alpha)
    return QuadraticCost(q2.lin - q1.lin, q2.h, q2.alpha)


def sample_mlr_pair(rng: np.random.Generator, dim: int) -> tuple:
    """An MLR-comparable belief pair, larger one first.

    Draws a base point on a random line from a vertex e_i (i = 1 or X)
    to the opposite sub-simplex; beliefs on such lines always form a
    chain.
    """
    base = uniform_simplex(rng, 1, dim)[0]
    toward_last = bool(rng.integers(2))
    anchor = dim - 1 if toward_last else 0
    base[anchor] = 0.0
    total = base.sum()
    if total <= 0:
        base = np.full(dim, 1.0 / dim)
        base[anchor] = 0.0
        total = base.sum()
    base /= total
    e = np.zeros(dim)
    e[anchor] = 1.0
    eps = np.sort(rng.uniform(0.0, 1.0, size=2))
    lo = (1 - eps[0]) * base + eps[0] * e
    hi = (1 - eps[1]) * base + eps[1] * e
    if toward_last:
        return hi, lo
    return lo, hi


def verify_value_monotone(value_fn, model: PomdpModel, n_pairs: int,
                          seed: int) -> OrderVerdict:
    """Check the value is MLR decreasing on sampled comparable pairs."""
    rng = make_rng(seed)
    X = model.num_states
    for _ in range(n_pairs):
        hi, lo = sample_mlr_pair(rng, X)
        v_hi = value_fn(hi)
        v_lo = value_fn(lo)
        if v_hi > v_lo + VALUE_TOL:
            return fails({"high": hi.tolist(), "low": lo.tolist(),
                          "v_high": float(v_hi), "v_low": float(v_lo)})
    return HOLDS


@dataclass
class ThresholdScan:
    thresholds: list[float]
    monotone: bool
    inversion: tuple | None = None


def extract_thresholds_2state(policy_fn, grid_size: int) -> ThresholdScan:
    """Scan pi(2) on a uniform grid for a nondecreasing step policy.

    Returns the jump points, or flags the first inversion when the
    policy is not a nondecreasing step function.
    """
    ts = np.linspace(0.0, 1.0, grid_size)
    actions = np.array([int(policy_fn(np.array([1 - t, t]))) for t in ts])
    jumps = []
    for k in range(1, grid_size):
        if actions[k] < actions[k - 1]:
            return ThresholdScan([], False,
                                 (float(ts[k]), int(actions[k - 1]),
                                  int(actions[k])))
        if actions[k] > actions[k - 1]:
            jumps.append(float(0.5 * (ts[k - 1] + ts[k])))
    return ThresholdScan(jumps, True)


@dataclass
class SwitchingCurveProbe:
    verdict: OrderVerdict
    curve: list  # (line id, anchor, eps*, belief at switch)


def probe_switching_curve(policy_fn, dim: int, n_lines: int,
                          points_per_line: int,
                          seed: int = 0) -> SwitchingCurveProbe:
    """Verify single-crossing of a stop/continue policy along vertex lines.

    Sweeps lines from e_X to the opposite face and from e_1 to its face;
    the policy must change at most once per line, stopping on the e_1
    side.  The per-line switch locations trace the switching curve.
    """
    rng = make_rng(seed)
    curve = []
    eps_grid = np.linspace(0.0, 1.0, points_per_line)
    for anchor_idx, name in ((dim - 1, "e_X"), (0, "e_1")):
        for ln in range(n_lines):
            base = uniform_simplex(rng, 1, dim)[0]
            base[anchor_idx] = 0.0
            base /= base.sum()
            e = np.zeros(dim)
            e[anchor_idx] = 1.0
            actions = []
            for eps in eps_grid:
                pi = (1 - eps) * base + eps * e
                actions.append(int(policy_fn(pi)))
            actions = np.asarray(actions)
            # along e_X lines MLR increases with eps; along e_1 lines it
            # decreases, so the policy must be monotone accordingly
            seq = actions if anchor_idx == dim - 1 else actions[::-1]
            diffs = np.diff(seq)
            if (diffs < 0).any() or (diffs > 0).sum() > 1:
                return SwitchingCurveProbe(
                    fails({"line": f"{name}#{ln}", "base": base.tolist(),
                           "actions": actions.tolist()}), curve)
            switches = np.flatnonzero(np.diff(actions) != 0)
            if len(switches) == 1:
                k = int(switches[0])
                eps_star = float(0.5 * (eps_grid[k] + eps_grid[k + 1]))
                pi_star = (1 - eps_star) * base + eps_star * e
                curve.append((f"{name}#{ln}", base.tolist(), eps_star,
                              pi_star.tolist()))
    return SwitchingCurveProbe(HOLDS, curve)


def check_stop_set_convex(policy_fn, dim: int, n_triples: int,
                          seed: int) -> OrderVerdict:
    """Midpoints of sampled stop-belief pairs must also stop."""
    rng = make_rng(seed)
    stops = []
    tries = 0
    while len(stops) < 2 * n_triples and tries < 200 * n_triples:
        pi = uniform_simplex(rng, 1, dim)[0]
        tries += 1
        if int(policy_fn(pi)) == 1:
            stops.append(pi)
    if len(stops) < 2:
        return HOLDS  # empty or near-empty stop set: vacuously convex
    for _ in range(n_triples):
        i, j = rng.integers(len(stops), size=2)
        lam = rng.uniform()
        mid = lam * stops[i] + (1 - lam) * stops[j]
        if int(policy_fn(mid)) != 1:
            return fails({"a": stops[i].tolist(), "b": stops[j].tolist(),
                          "lambda": float(lam)})
    return HOLDS


def solve_mdp_finite(P: np.ndarray, costs: np.ndarray, horizon: int,
                     terminal: np.ndarray, discount: float = 1.0):
    """Backward DP for a fully observed MDP; returns (J, policy) stages."""
    U, X, _ = P.shape
    J = terminal.astype(float).copy()
    policies = []
    for _ in range(horizon):
        Q = np.stack([costs[:, u] + discount * P[u] @ J
                      for u in range(U)], axis=1)
        policies.append(Q.argmin(axis=1) + 1)
        J = Q.min(axis=1)
    return J, policies[::-1]


def compare_mdp_costs(mdp1: PomdpModel, mdp2: PomdpModel) -> OrderVerdict:
    """Check ``J1(x) <= J2(x)`` over ``mdp1.horizon`` stages for MDPs whose
    rows FOSD-dominate.

    Preconditions: identical costs, (A1) decreasing costs and (A2)
    FOSD-increasing rows for the second model, and every row of the
    first model FOSD-dominating the matching row of the second.
    """
    N = mdp1.horizon
    if N is None:
        raise DimensionMismatch("compare_mdp_costs needs a horizon")
    if not np.allclose(mdp1.costs, mdp2.costs):
        raise PreconditionFailed("models must share their costs")
    report = mdp_monotone_report(mdp2)
    for key in ("A1", "A2"):
        if report[key].status is Verdict.FAILS:
            raise PreconditionFailed(f"({key}) fails: {report[key].witness}")
    for u in range(1, mdp2.num_actions + 1):
        P1, P2 = mdp1.P(u), mdp2.P(u)
        for i in range(P1.shape[0]):
            if fosd_compare(P1[i], P2[i]) not in (Comparison.GE,
                                                  Comparison.EQ):
                raise PreconditionFailed(
                    f"(A5) fails: row {i+1} of action {u}")
    J1, _ = solve_mdp_finite(np.asarray(mdp1.transitions), mdp1.costs, N,
                             mdp1.terminal_vector(), mdp1.discount)
    J2, _ = solve_mdp_finite(np.asarray(mdp2.transitions), mdp2.costs, N,
                             mdp2.terminal_vector(), mdp2.discount)
    bad = np.argwhere(J1 > J2 + VALUE_TOL)
    if bad.size:
        x = int(bad[0][0])
        return fails({"state": x + 1, "J1": float(J1[x]),
                      "J2": float(J2[x])})
    return HOLDS


def compare_pomdp_costs(model1: PomdpModel, model2: PomdpModel,
                        kind: str) -> OrderVerdict:
    """Check the cost-dominance direction on the whole belief simplex.

    ``kind="transition"``: model1's transitions copositive-dominate
    model2's (model1 is cheaper).  ``kind="observation"``: model1's
    kernel Blackwell-dominates model2's (model1 is cheaper).  Both
    models are solved exactly over ``model1.horizon`` stages, and
    :func:`solver.sup_envelope_gap` gives ``max_pi J1 - J2`` with a belief
    attaining it.  A gap above ``COMPARE_TOL`` fails only when that
    belief shows it in rational arithmetic too; otherwise the float gap
    overstated it by rounding.
    """
    N = model1.horizon
    if N is None:
        raise DimensionMismatch("compare_pomdp_costs needs a horizon")
    if kind == "observation":
        for u in range(1, model1.num_actions + 1):
            if blackwell_factorize(model2.B(u), model1.B(u)) is None:
                raise PreconditionFailed(
                    f"kernel for action {u} is not Blackwell dominated")
    elif kind == "transition":
        rep = pomdp_assumption_report(model1)
        for key in ("C", "F1", "F2"):
            if rep[key].status is not Verdict.HOLDS:
                raise PreconditionFailed(f"({key}) fails on model1")
        for u in range(1, model1.num_actions + 1):
            v = copositive_order_transitions(model2.P(u), model1.P(u))
            if v.status is not Verdict.HOLDS:
                raise PreconditionFailed(
                    f"transitions for action {u} are not copositive "
                    f"dominated ({v.status.value}): {v.witness}")
    else:
        raise DimensionMismatch(f"unknown comparison kind {kind!r}")
    r1 = solve_finite_horizon(model1, N)
    r2 = solve_finite_horizon(model2, N)
    gap, pi = sup_envelope_gap(r1.final, r2.final)
    if gap > COMPARE_TOL:
        pi = np.maximum(pi, 0.0)
        # J1 - J2 at pi / sum(pi), in rationals on the float entries
        q = [Fraction(p) for p in pi.tolist()]
        J1, J2 = (min(sum(p * Fraction(v) for p, v in zip(q, g.tolist()))
                      for g in r.final.vectors) / sum(q) for r in (r1, r2))
        if J1 - J2 > COMPARE_TOL:
            return fails({"belief": pi.tolist(), "J1": float(J1),
                          "J2": float(J2)})
    return HOLDS
