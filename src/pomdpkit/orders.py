"""Stochastic orders and matrix-structure tests.

Implements the likelihood-ratio and first-order dominance comparisons,
TP2 checks, tail-sum supermodularity, the copositive orderings of
transition/observation pairs, the normalizer-dominance condition and
Blackwell factorization.  The copositive orderings are decided exactly
on the simplex: a failure carries a witness belief whose value is
checked in rational arithmetic (Kaplan 2000, "A test for copositive
matrices").  Copositivity is NP-complete in general, so above
``COPOSITIVE_MAX_STATES`` states a Gamma with a negative entry is
Undetermined.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch
from .simplexlp import solve_lp

ORDER_TOL = 1e-12
# largest X whose faces of at most 4 states are enumerated (about 1 ms
# per Gamma at X = 12)
COPOSITIVE_MAX_STATES = 12
# largest worst-case entry residual of a Blackwell factorization
BLACKWELL_TOL = 1e-7


class Comparison(enum.Enum):
    GE = "GE"
    LE = "LE"
    EQ = "EQ"
    INCOMPARABLE = "Incomparable"


class Verdict(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class OrderVerdict:
    status: Verdict
    witness: object = None

    def __post_init__(self):
        if self.status is Verdict.FAILS and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    def __bool__(self) -> bool:
        return self.status is Verdict.HOLDS


HOLDS = OrderVerdict(Verdict.HOLDS)


def fails(witness) -> OrderVerdict:
    return OrderVerdict(Verdict.FAILS, witness)


def _check_pair(pi1, pi2, ndim: int = 1) -> tuple:
    pi1 = np.asarray(pi1, dtype=float)
    pi2 = np.asarray(pi2, dtype=float)
    if pi1.shape != pi2.shape or pi1.ndim != ndim:
        raise DimensionMismatch(
            f"beliefs must be equal-shape {ndim}-d arrays, got {pi1.shape} "
            f"vs {pi2.shape}")
    return pi1, pi2


def _verdict(ge: bool, le: bool) -> Comparison:
    if ge and le:
        return Comparison.EQ
    if ge:
        return Comparison.GE
    if le:
        return Comparison.LE
    return Comparison.INCOMPARABLE


def mlr_rows(pi1, pi2) -> tuple:
    """Row-wise likelihood-ratio test of two (n, X) arrays of beliefs.

    Returns boolean arrays ``(ge, le)``: ``ge[k]`` holds when row k of
    pi1 dominates row k of pi2, i.e. pi1(i) pi2(j) <= pi2(i) pi1(j) to
    ``ORDER_TOL`` for all i < j, and ``le[k]`` when it is dominated.
    """
    pi1, pi2 = _check_pair(pi1, pi2, ndim=2)
    i, j = np.triu_indices(pi1.shape[1], k=1)
    diff = pi1[:, i] * pi2[:, j] - pi1[:, j] * pi2[:, i]
    return ((diff <= ORDER_TOL).all(axis=1),
            (diff >= -ORDER_TOL).all(axis=1))


def mlr_compare(pi1, pi2) -> Comparison:
    """Likelihood-ratio comparison of two beliefs, the one-row case of
    :func:`mlr_rows`: ``GE`` means pi1 dominates (pi1/pi2 increasing)."""
    pi1, pi2 = _check_pair(pi1, pi2)
    ge, le = mlr_rows(pi1[None], pi2[None])
    return _verdict(ge[0], le[0])


def fosd_compare(pi1, pi2) -> Comparison:
    """First-order stochastic dominance via tail sums."""
    pi1, pi2 = _check_pair(pi1, pi2)
    t1 = np.cumsum(pi1[::-1])[::-1]
    t2 = np.cumsum(pi2[::-1])[::-1]
    d = t1 - t2
    return _verdict((d >= -ORDER_TOL).all(), (d <= ORDER_TOL).all())


def is_tp2(M) -> OrderVerdict:
    """Totally positive of order 2: all 2x2 minors nonnegative.

    It suffices to check minors of adjacent rows and columns; a failing
    verdict carries ``(i1, i2, j1, j2, minor)`` with 1-indexed rows/cols
    found by scanning all pairs.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatch("is_tp2 expects a matrix")
    n, m = M.shape
    worst = (None, -ORDER_TOL)
    for i1, i2 in itertools.combinations(range(n), 2):
        minors = M[i1, :, None] * M[i2, None, :] \
            - M[i2, :, None] * M[i1, None, :]
        # minors[j1, j2] for j1 < j2
        iu = np.triu_indices(m, k=1)
        vals = minors[iu]
        k = int(np.argmin(vals))
        if vals[k] < worst[1]:
            worst = ((i1 + 1, i2 + 1, int(iu[0][k]) + 1,
                      int(iu[1][k]) + 1, float(vals[k])), vals[k])
    if worst[0] is not None:
        return fails(worst[0])
    return HOLDS


def tail_sum_supermodular(P_u, P_u1) -> OrderVerdict:
    """Tail sums of P(u+1) - P(u) must be increasing in the row index."""
    P_u = np.asarray(P_u, dtype=float)
    P_u1 = np.asarray(P_u1, dtype=float)
    if P_u.shape != P_u1.shape or P_u.ndim != 2:
        raise DimensionMismatch("matrices must share a square shape")
    tails = np.cumsum((P_u1 - P_u)[:, ::-1], axis=1)[:, ::-1]
    drops = np.diff(tails, axis=0)
    bad = np.argwhere(drops < -ORDER_TOL)
    if bad.size:
        i, ell = bad[0]
        return fails({"l": int(ell) + 1, "rows": (int(i) + 1, int(i) + 2),
                      "gap": float(drops[i, ell])})
    return HOLDS


def _simplex_minimum(G: np.ndarray) -> tuple:
    """``(value, pi)`` of the lowest negative stationary point of
    ``pi' G pi`` on the simplex; ``(0.0, None)`` when there is none.

    On face S such a point solves ``G_SS w = 1`` with ``w < 0`` and is
    ``w / sum(w)``.  A negative minimizer of minimal support has a
    nonsingular ``G_SS`` (a null vector v has ``1'v = 0``, and moving
    along it shrinks the support at the same value), so the faces, one
    batch per size, miss none.  ``G`` is ``sym(s a b' - t c d')``, of rank
    at most 4, and a nonsingular ``G_SS`` has at most ``rank(G)`` rows, so
    faces of at most 4 states suffice.  Values are the form at each
    point, so an ill-conditioned solve cannot understate them.
    """
    X = G.shape[0]
    best = (0.0, None)
    for size in range(1, min(X, 4) + 1):
        S = np.array(list(itertools.combinations(range(X), size)))
        A = G[S[:, :, None], S[:, None, :]]
        ok = np.linalg.slogdet(A)[0] != 0
        w = np.linalg.solve(A[ok], np.ones((ok.sum(), size, 1)))[..., 0]
        neg = (w < 0).all(axis=1)
        if neg.any():
            pi = w[neg] / w[neg].sum(axis=1, keepdims=True)
            vals = np.einsum("ki,kij,kj->k", pi, A[ok][neg], pi)
            k = int(np.argmin(vals))
            if vals[k] < best[0]:
                best = (float(vals[k]), np.zeros(X))
                best[1][S[ok][neg][k]] = pi[k]
    return best


def _copositive(forms, X: int) -> OrderVerdict:
    """Verdict on ``pi' Gamma pi >= 0`` over the simplex for each
    ``(tag, form)`` in order: the form ``((s, a, b), (t, c, d))`` is
    ``s (pi.a)(pi.b) - t (pi.c)(pi.d)`` and Gamma its symmetric matrix.

    Holds outright when Gamma has no entry below ``-ORDER_TOL``.
    Otherwise :func:`_simplex_minimum` decides, and a witness fails only
    when its exact value is also below ``-ORDER_TOL``.
    """
    for tag, ((s, a, b), (t, c, d)) in forms:
        g = s * np.outer(a, b) - t * np.outer(c, d)
        G = 0.5 * (g + g.T)
        if (G >= -ORDER_TOL).all():
            continue
        if X > COPOSITIVE_MAX_STATES:
            return OrderVerdict(Verdict.UNDETERMINED, {
                "index": tag, "reason": f"negative entry and X = {X} > "
                f"COPOSITIVE_MAX_STATES = {COPOSITIVE_MAX_STATES}"})
        value, pi = _simplex_minimum(G)
        if value < -ORDER_TOL:
            # the form at pi / sum(pi), in rationals on the float entries
            q = [Fraction(p) for p in pi.tolist()]
            pa, pb, pc, pd = (sum(p * Fraction(x) for p, x in
                                  zip(q, v.tolist()) if p)
                              for v in (a, b, c, d))
            exact = (Fraction(s) * pa * pb
                     - Fraction(t) * pc * pd) / sum(q) ** 2
            if exact < -ORDER_TOL:
                return fails({"index": tag, "belief": tuple(pi.tolist()),
                              "value": float(exact)})
    return HOLDS


def copositive_order_full(P_u, B_u, P_u1, B_u1) -> OrderVerdict:
    """Test ``(P(u), B(u)) <= (P(u+1), B(u+1))`` in the copositive order.

    Holds exactly when every filter update under the second pair MLR
    dominates the update under the first, for every belief and symbol.
    A failure names the 1-indexed Gamma ``(j, y)``, a witness belief and
    its exact value.
    """
    P_u = np.asarray(P_u, dtype=float)
    B_u = np.asarray(B_u, dtype=float)
    P_u1 = np.asarray(P_u1, dtype=float)
    B_u1 = np.asarray(B_u1, dtype=float)
    X = P_u.shape[0]
    Y = B_u.shape[1]
    if P_u1.shape != (X, X) or B_u.shape[0] != X or B_u1.shape != B_u.shape:
        raise DimensionMismatch("incompatible matrix dimensions")
    forms = (((j + 1, y + 1),
              ((B_u[j, y] * B_u1[j + 1, y], P_u[:, j], P_u1[:, j + 1]),
               (B_u[j + 1, y] * B_u1[j, y], P_u[:, j + 1], P_u1[:, j])))
             for j in range(X - 1) for y in range(Y))
    return _copositive(forms, X)


def copositive_order_transitions(P, Q) -> OrderVerdict:
    """Test ``P <= Q`` in the copositive order of transition matrices."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape or P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch("transition matrices must be equal square")
    forms = ((j + 1, ((1.0, P[:, j], Q[:, j + 1]),
                      (1.0, P[:, j + 1], Q[:, j])))
             for j in range(P.shape[0] - 1))
    return _copositive(forms, P.shape[0])


def check_F4(P_u, B_u, P_u1, B_u1) -> OrderVerdict:
    """Normalizer dominance condition.

    Holds iff the per-state observation likelihoods under action u+1
    first-order dominate those under u, i.e.
    ``sum_{y<=ybar} sum_j [P_ij(u+1) B_jy(u+1) - P_ij(u) B_jy(u)] <= 0``
    for every state i and cutoff ybar.  (Head sums of the larger action
    must be smaller; this is the direction that actually yields
    ``sigma(pi, u+1) >=_s sigma(pi, u)``.)
    """
    P_u, B_u = np.asarray(P_u, float), np.asarray(B_u, float)
    P_u1, B_u1 = np.asarray(P_u1, float), np.asarray(B_u1, float)
    M_u = P_u @ B_u      # (i, y): P(y | i, u)
    M_u1 = P_u1 @ B_u1
    heads = np.cumsum(M_u1 - M_u, axis=1)
    bad = np.argwhere(heads > ORDER_TOL)
    if bad.size:
        i, ybar = bad[0]
        return fails({"state": int(i) + 1, "ybar": int(ybar) + 1,
                      "value": float(heads[i, ybar])})
    return HOLDS


def blackwell_factorize(B1, B2) -> np.ndarray | None:
    """Find row-stochastic R with ``B1 = B2 @ R``; None when infeasible.

    Solved as a single LP minimizing the worst-case entry residual; the
    factorization witnesses that kernel ``B2`` Blackwell dominates
    ``B1``.
    """
    B1 = np.asarray(B1, dtype=float)
    B2 = np.asarray(B2, dtype=float)
    if B1.ndim != 2 or B2.ndim != 2 or B1.shape[0] != B2.shape[0]:
        raise DimensionMismatch("kernels must share their state dimension")
    X, Y1 = B1.shape
    Y2 = B2.shape[1]
    nR = Y2 * Y1
    # variables: vec(R) row-major, then t; minimize t
    c = np.zeros(nR + 1)
    c[-1] = 1.0
    # (B2 R)_ij - t <= B1_ij and -(B2 R)_ij - t <= -B1_ij, interleaved per
    # (i, j); kron(B2, I) has B2_ik at row (i, j), column (k, j)
    BR = np.kron(B2, np.eye(Y1))
    A_ub = np.hstack([np.stack([BR, -BR], axis=1).reshape(-1, nR),
                      np.full((2 * X * Y1, 1), -1.0)])
    b_ub = np.stack([B1, -B1], axis=2).reshape(-1)
    A_eq = np.hstack([np.kron(np.eye(Y2), np.ones(Y1)), np.zeros((Y2, 1))])
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(Y2))
    if not res.optimal or res.value > BLACKWELL_TOL:
        return None
    R = res.x[:nR].reshape(Y2, Y1)
    R = np.clip(R, 0.0, None)
    return R / R.sum(axis=1, keepdims=True)


def mdp_monotone_report(model) -> dict:
    """Verdicts for the four monotone-MDP conditions on a fully observed
    model: decreasing costs (A1), FOSD-increasing rows (A2), submodular
    costs (A3) and tail-sum supermodular transitions (A4).  A model with a
    finite horizon also needs a decreasing terminal cost for (A1)."""
    c = np.asarray(model.costs, dtype=float)
    P = np.asarray(model.transitions, dtype=float)
    U = P.shape[0]
    report: dict[str, OrderVerdict] = {}

    increase = np.argwhere(np.diff(c, axis=0) > ORDER_TOL)
    if increase.size:
        x, u = increase[0]
        report["A1"] = fails({"state": int(x) + 1, "action": int(u) + 1})
    else:
        report["A1"] = HOLDS
    if model.horizon is not None \
            and (np.diff(model.terminal_vector()) > ORDER_TOL).any():
        report["A1"] = fails({"terminal": True})

    report["A2"] = HOLDS
    # row i + 1 FOSD-dominates row i: the tail sums of fosd_compare
    tails = np.cumsum(P[:, :, ::-1], axis=2)[:, :, ::-1]
    drop = np.argwhere(~(np.diff(tails, axis=1) >= -ORDER_TOL).all(axis=2))
    if drop.size:
        u, i = drop[0]
        report["A2"] = fails({"action": int(u) + 1,
                              "rows": (int(i) + 1, int(i) + 2)})

    report["A3"] = HOLDS
    diffs = np.diff(c, axis=1)          # c(x, u+1) - c(x, u)
    grow = np.argwhere(np.diff(diffs, axis=0) > ORDER_TOL)
    if grow.size:
        x, u = grow[0]
        report["A3"] = fails({"state": int(x) + 1, "action": int(u) + 1})

    report["A4"] = HOLDS
    for u in range(U - 1):
        v = tail_sum_supermodular(P[u], P[u + 1])
        if v.status is Verdict.FAILS:
            report["A4"] = fails({"action": u + 1, **v.witness})
            break
    return report
