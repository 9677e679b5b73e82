"""Independent output checks, written from the model arrays alone.

Every check returns a list of problems (empty when the output is right).
They use numpy and, for the LP oracles, scipy's HiGHS; nothing here calls
the pomdpkit routine whose output it judges.
"""

from __future__ import annotations

import numpy as np

BELLMAN_RTOL = 1e-9      # stage values against a plain-numpy backup
METHOD_TOL = 1e-9        # incremental pruning against Monahan
WITNESS_TOL = 1e-9       # a kept vector must undercut the rest by more
FILTER_TOL = 1e-12       # posteriors against a plain-numpy HMM filter
ORDER_TOL = 1e-12        # likelihood-ratio cross products
ORACLE_MARGIN = 1e-6     # strictness of the monotone-cost constraints
TABLE_A = (95.3, 94.2, 92.4, 90.2, 87.4, 84.1)
TABLE_A_TOL_PP = 1.0
SPSA_RATIO = 1.05


def _linprog():
    from scipy.optimize import linprog

    return linprog


# -- exact vector sets ---------------------------------------------------

def envelope(vectors: np.ndarray, pis: np.ndarray) -> np.ndarray:
    return (pis @ vectors.T).min(axis=1)


def backup_values(model, vectors: np.ndarray, pis: np.ndarray) -> np.ndarray:
    """``min_u [c_u' pi + rho sum_y V(B_y(u) P(u)' pi)]`` at each belief.

    ``V`` is the envelope of ``vectors``; it is positively homogeneous,
    so the unnormalized posterior needs no division by its likelihood.
    """
    rho = float(model.discount)
    best = np.full(len(pis), np.inf)
    for u in range(model.num_actions):
        P = np.asarray(model.transitions[u])
        B = np.asarray(model.observations[u])
        pred = pis @ P
        q = pis @ np.asarray(model.costs)[:, u]
        for y in range(B.shape[1]):
            q = q + rho * envelope(vectors, pred * B[:, y])
        best = np.minimum(best, q)
    return best


def bellman_identity(model, stages, pis) -> list[str]:
    """Each stage set must equal the exact backup of the one after it."""
    terminal = model.terminal_cost
    terminal = (np.zeros(model.num_states) if terminal is None
                else np.asarray(terminal, dtype=float))
    problems = []
    first = envelope(stages[0][0], pis)
    if np.abs(first - pis @ terminal).max() > BELLMAN_RTOL:
        problems.append("terminal stage is not the terminal cost")
    for k in range(1, len(stages)):
        have = envelope(stages[k][0], pis)
        want = backup_values(model, stages[k - 1][0], pis)
        err = np.abs(have - want) / np.maximum(1.0, np.abs(want))
        if err.max() > BELLMAN_RTOL:
            problems.append(f"stage {k}: Bellman identity off by "
                            f"{err.max():.3g} (relative)")
    return problems


def bellman_residual(model, vectors, pis, bound: float) -> list[str]:
    res = np.abs(backup_values(model, vectors, pis) - envelope(vectors, pis))
    if res.max() > bound + BELLMAN_RTOL:
        return [f"Bellman residual {res.max():.3g} above {bound:.3g}"]
    return []


def same_values(stages_a, stages_b, pis) -> list[str]:
    if len(stages_a) != len(stages_b):
        return ["different numbers of stages"]
    for k, (a, b) in enumerate(zip(stages_a, stages_b)):
        va, vb = envelope(a[0], pis), envelope(b[0], pis)
        gap = np.abs(va - vb).max()
        if gap > METHOD_TOL * max(1.0, np.abs(va).max()):
            return [f"stage {k}: incremental pruning and Monahan differ "
                    f"by {gap:.3g}"]
    return []


def witnesses(stages) -> list[str]:
    """Every kept vector is the strict argmin at some belief (HiGHS)."""
    linprog = _linprog()
    problems = []
    for k, (V, *_) in enumerate(stages):
        n, X = V.shape
        if n < 2:
            continue
        for i in range(n):
            # min z  s.t. (g_i - g_j)' pi <= z for j != i, pi in simplex
            diff = V[i] - np.delete(V, i, axis=0)
            A_ub = np.hstack([diff, -np.ones((n - 1, 1))])
            A_eq = np.hstack([np.ones((1, X)), np.zeros((1, 1))])
            c = np.zeros(X + 1)
            c[-1] = 1.0
            res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n - 1), A_eq=A_eq,
                          b_eq=[1.0], bounds=[(0, None)] * X + [(None, None)],
                          method="highs")
            if res.status != 0 or res.fun >= -WITNESS_TOL:
                problems.append(f"stage {k}: vector {i} is never the strict "
                                f"argmin (margin {res.fun:.3g})")
    return problems


# -- myopic bounds -------------------------------------------------------

def table_a(text: str) -> list[str]:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    vols = [float(r[1]) for r in rows]
    if len(vols) != len(TABLE_A):
        return [f"table (a) has {len(vols)} rows"]
    problems = [f"table (a) rho {r[0]}: volume {v} is not within "
                f"{TABLE_A_TOL_PP} pp of {t}"
                for r, v, t in zip(rows, vols, TABLE_A)
                if abs(v - t) > TABLE_A_TOL_PP]
    losses = [float(x) for x in rows[0][2:4]]
    if not np.isfinite(losses).all():
        problems.append("percent losses are not finite")
    return problems


def pair_inside(C_upper, C_lower, pis, mask) -> list[str]:
    """Where the fixed pair's myopic actions agree, so must the
    per-belief bounds (they are at least as tight)."""
    pair = (pis @ C_upper).argmin(axis=1) == (pis @ C_lower).argmin(axis=1)
    outside = int((pair & ~mask).sum())
    if outside:
        return [f"{outside} fixed-pair overlap beliefs missing from the "
                f"per-belief mask"]
    return []


def per_belief_oracle(model, pis, mask) -> list[str]:
    """Per-belief overlap from LPs built on ``model.P``, ``model.costs``
    and ``model.discount`` and solved by HiGHS.

    Action ``a`` is attainable when some free transform ``f`` makes all
    ``c_u + (I - rho P(u)) f`` strictly increasing (C1) or strictly
    decreasing (C2) in the state and ``a`` myopically optimal.  The upper
    bound is the smallest C1-attainable action, the lower bound the
    largest C2-attainable one; C2 is probed from the top down to the
    upper bound only, since any C2 action above it breaks the order.
    """
    linprog = _linprog()
    X, U = model.num_states, model.num_actions
    c = np.asarray(model.costs, dtype=float)
    M = np.stack([np.eye(X) - model.discount * np.asarray(model.P(u))
                  for u in range(1, U + 1)])
    step = np.eye(X)[1:] - np.eye(X)[:-1]
    grow = np.concatenate([step @ M[u] for u in range(U)])
    gap = np.concatenate([step @ c[:, u] for u in range(U)])
    polytope = {"C1": (-grow, gap - ORACLE_MARGIN),
                "C2": (grow, -gap - ORACLE_MARGIN)}

    def attainable(tag, pi, a):
        A, b = polytope[tag]
        others = [u for u in range(U) if u != a]
        A = np.vstack([A, [pi @ (M[a] - M[u]) for u in others]])
        b = np.concatenate([b, [pi @ (c[:, u] - c[:, a]) for u in others]])
        res = linprog(np.zeros(X), A_ub=A, b_ub=b, bounds=(None, None),
                      method="highs")
        return res.status == 0

    problems = []
    for k, pi in enumerate(pis):
        hi = next((a for a in range(U) if attainable("C1", pi, a)), None)
        if hi is None:
            problems.append(f"belief {k}: no C1-attainable action")
            continue
        lo = next((a for a in range(U - 1, hi - 1, -1)
                   if attainable("C2", pi, a)), None)
        if lo is not None and lo > hi:
            problems.append(f"belief {k}: lower bound {lo + 1} above "
                            f"upper bound {hi + 1}")
        if (lo == hi) != bool(mask[k]):
            problems.append(f"belief {k}: overlap {bool(mask[k])} but the "
                            f"oracle says {lo == hi}")
    return problems


# -- grid policies, SPSA and filters ---------------------------------------

def single_threshold(stop_mask) -> list[str]:
    switches = int(np.count_nonzero(np.diff(stop_mask.astype(int))))
    if switches != 1:
        return [f"stop set has {switches} switches, not one threshold"]
    return []


def edge_policy(acts) -> list[str]:
    jumps = np.diff(acts)
    problems = []
    if (jumps < 0).any():
        problems.append("edge policy is not monotone")
    if int((jumps > 0).sum()) > 4:
        problems.append(f"{int((jumps > 0).sum())} interior thresholds")
    if acts[0] != 1:
        problems.append("edge policy does not start at action 1")
    return problems


def admissible(theta) -> bool:
    """``0 <= theta(i) <= theta(X-2)``, ``theta(X-2) >= 1``,
    ``theta(X-1) > 0``; a zero last coefficient is the boundary point
    the spherical map reaches at phi = 0 and is not held against it."""
    theta = np.asarray(theta)
    if theta[-1] < 0:
        return False
    if theta.size >= 2 and theta[-2] < 1:
        return False
    head = theta[:-2]
    return bool(((head >= 0) & (head <= theta[-2])).all())


def spsa_admissible(thetas_per_run) -> list[str]:
    bad = sum(not admissible(t) for thetas in thetas_per_run for t in thetas)
    return [f"{bad} SPSA iterates are not admissible"] if bad else []


def cost_ratio(fitted_costs, grid_cost) -> list[str]:
    """The best fitted threshold policy against the grid-optimal one."""
    ratio = min(fitted_costs) / grid_cost
    if not ratio <= SPSA_RATIO:
        return [f"fitted/grid cost ratio {ratio:.4f} above {SPSA_RATIO}"]
    return []


def hmm_filter(P, B, ys, pi0) -> np.ndarray:
    out = np.empty((len(ys), len(pi0)))
    pi = np.asarray(pi0, dtype=float)
    for k, y in enumerate(ys):
        un = B[:, y - 1] * (pi @ P)
        pi = un / un.sum()
        out[k] = pi
    return out


def mlr_bracket(lower, exact, upper) -> list[str]:
    """``lower <=_r exact <=_r upper`` at every step, from cross products:
    ``a <=_r b`` when ``b(i) a(j) <= a(i) b(j)`` for all ``i < j``."""
    def violations(a, b):
        d = b[:, :, None] * a[:, None, :] - a[:, :, None] * b[:, None, :]
        upper_tri = np.triu(np.ones(d.shape[1:], dtype=bool), k=1)
        return int((d[:, upper_tri] > ORDER_TOL).any(axis=1).sum())
    problems = []
    n = violations(lower, exact)
    if n:
        problems.append(f"lower filter not MLR below at {n} steps")
    n = violations(exact, upper)
    if n:
        problems.append(f"upper filter not MLR above at {n} steps")
    return problems


def sandwich(out, P, P_lower, B, ys, pi0) -> list[str]:
    problems = []
    ref = hmm_filter(P, B, ys, pi0)
    err = np.abs(ref - out["exact"]).max()
    if err > FILTER_TOL:
        problems.append(f"exact posteriors differ from the HMM filter by "
                        f"{err:.3g}")
    problems += mlr_bracket(out["lower"], out["exact"], out["upper"])
    X, steps = P.shape[0], len(ys)
    rank = {"lower": np.unique(P_lower, axis=0).shape[0],
            "exact": np.unique(P, axis=0).shape[0]}
    for key in ("lower", "exact"):
        want = rank[key] * X * steps
        if out[f"{key}_multiplies"] != want:
            problems.append(f"{key} multiplies {out[f'{key}_multiplies']} "
                            f"!= rank * X * steps = {want}")
    return problems


def trajectory(model, out, policy) -> list[str]:
    """Beliefs follow the HMM recursion, actions the policy, and the cost
    is the discounted sum of the visited state-action costs."""
    problems = []
    beliefs = out["beliefs"]
    un = np.empty_like(beliefs[1:])
    for k, (u, y) in enumerate(zip(out["actions"], out["observations"])):
        un[k] = (np.asarray(model.observations[u - 1])[:, y - 1]
                 * (beliefs[k] @ np.asarray(model.transitions[u - 1])))
    ref = un / un.sum(axis=1, keepdims=True)
    err = np.abs(ref - beliefs[1:]).max()
    if err > FILTER_TOL:
        problems.append(f"beliefs leave the HMM recursion by {err:.3g}")
    if any(policy(b) != u for b, u in zip(beliefs[:-1], out["actions"])):
        problems.append("actions do not follow the policy")
    c = np.asarray(model.costs)
    x, u = out["states"][:-1] - 1, out["actions"] - 1
    cost = float((model.discount ** np.arange(len(u)) * c[x, u]).sum())
    if abs(cost - out["cost"]) > 1e-9 * max(1.0, abs(cost)):
        problems.append(f"discounted cost {out['cost']} != {cost}")
    return problems
