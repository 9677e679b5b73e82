"""Stochastic orders and matrix-structure tests.

Implements the likelihood-ratio and first-order dominance comparisons,
TP2 checks, tail-sum supermodularity, the copositive orderings of
transition/observation pairs, the normalizer-dominance condition and
Blackwell factorization.  Copositivity of a matrix is NP-complete in
general, so those tests return a three-valued verdict; only the 2-state
case is decided exactly.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedExact
from .grid import simplex_lattice
from .simplexlp import solve_lp

ORDER_TOL = 1e-12


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
UNDETERMINED = OrderVerdict(Verdict.UNDETERMINED)


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


def mlr_rows(pi1, pi2, tol: float = ORDER_TOL) -> tuple:
    """Row-wise likelihood-ratio test of two (n, X) arrays of beliefs.

    Returns boolean arrays ``(ge, le)``: ``ge[k]`` holds when row k of
    pi1 dominates row k of pi2, i.e. pi1(i) pi2(j) <= pi2(i) pi1(j) to
    ``tol`` for all i < j, and ``le[k]`` when it is dominated.
    """
    pi1, pi2 = _check_pair(pi1, pi2, ndim=2)
    i, j = np.triu_indices(pi1.shape[1], k=1)
    diff = pi1[:, i] * pi2[:, j] - pi1[:, j] * pi2[:, i]
    return (diff <= tol).all(axis=1), (diff >= -tol).all(axis=1)


def mlr_compare(pi1, pi2, tol: float = ORDER_TOL) -> Comparison:
    """Likelihood-ratio comparison of two beliefs, the one-row case of
    :func:`mlr_rows`: ``GE`` means pi1 dominates (pi1/pi2 increasing)."""
    pi1, pi2 = _check_pair(pi1, pi2)
    ge, le = mlr_rows(pi1[None], pi2[None], tol)
    return _verdict(ge[0], le[0])


def mlr_halfspaces(ref, below: bool) -> np.ndarray:
    """Rows ``a`` with ``a @ r <= 0`` iff r <=r ref (``below``) or
    r >=r ref: ``ref(i) r(j) - ref(j) r(i)``, negated for ``>=r``, one
    row per pair i < j in row-major order."""
    ref = np.asarray(ref, dtype=float)
    i, j = np.triu_indices(ref.size, k=1)
    sign = 1.0 if below else -1.0
    rows = np.zeros((i.size, ref.size))
    k = np.arange(i.size)
    rows[k, j], rows[k, i] = sign * ref[i], -sign * ref[j]
    return rows


def fosd_compare(pi1, pi2, tol: float = ORDER_TOL) -> Comparison:
    """First-order stochastic dominance via tail sums."""
    pi1, pi2 = _check_pair(pi1, pi2)
    t1 = np.cumsum(pi1[::-1])[::-1]
    t2 = np.cumsum(pi2[::-1])[::-1]
    d = t1 - t2
    return _verdict((d >= -tol).all(), (d <= tol).all())


def is_tp2(M, tol: float = ORDER_TOL) -> OrderVerdict:
    """Totally positive of order 2: all 2x2 minors nonnegative.

    It suffices to check minors of adjacent rows and columns; a failing
    verdict carries ``(i1, i2, j1, j2, minor)`` with 1-indexed rows/cols
    found by scanning all pairs.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatch("is_tp2 expects a matrix")
    n, m = M.shape
    worst = (None, -tol)
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


def tail_sum_supermodular(P_u, P_u1, tol: float = ORDER_TOL) -> OrderVerdict:
    """Tail sums of P(u+1) - P(u) must be increasing in the row index."""
    P_u = np.asarray(P_u, dtype=float)
    P_u1 = np.asarray(P_u1, dtype=float)
    if P_u.shape != P_u1.shape or P_u.ndim != 2:
        raise DimensionMismatch("matrices must share a square shape")
    tails = np.cumsum((P_u1 - P_u)[:, ::-1], axis=1)[:, ::-1]
    drops = np.diff(tails, axis=0)
    bad = np.argwhere(drops < -tol)
    if bad.size:
        i, ell = bad[0]
        return fails({"l": int(ell) + 1, "rows": (int(i) + 1, int(i) + 2),
                      "gap": float(drops[i, ell])})
    return HOLDS


class CopositiveMethod(enum.Enum):
    ELEMENTWISE_SUFFICIENT = "ElementwiseSufficient"
    GRID_FALSIFY = "GridFalsify"
    EXACT_2STATE = "Exact2State"


def _gamma_full(P_u, B_u, P_u1, B_u1, j: int, y: int) -> np.ndarray:
    """Symmetrized Gamma matrix (0-indexed j, y) for the (P,B) ordering."""
    g = (B_u[j, y] * B_u1[j + 1, y]
         * np.outer(P_u[:, j], P_u1[:, j + 1])
         - B_u[j + 1, y] * B_u1[j, y]
         * np.outer(P_u[:, j + 1], P_u1[:, j]))
    return 0.5 * (g + g.T)


def _gamma_transitions(P, Q, j: int) -> np.ndarray:
    g = np.outer(P[:, j], Q[:, j + 1]) - np.outer(P[:, j + 1], Q[:, j])
    return 0.5 * (g + g.T)


def _copositive_2state(G: np.ndarray, tol: float) -> OrderVerdict:
    """Exact copositivity of a symmetric 2x2 matrix on the simplex.

    ``pi' G pi >= 0`` on the unit segment iff the diagonal entries are
    nonnegative and ``G12 + sqrt(G11 G22) >= 0``.
    """
    a, b, c = G[0, 0], G[0, 1], G[1, 1]
    if a < -tol:
        return fails({"belief": (1.0, 0.0), "value": float(a)})
    if c < -tol:
        return fails({"belief": (0.0, 1.0), "value": float(c)})
    if b >= 0:
        return HOLDS
    slack = b + np.sqrt(max(a, 0.0) * max(c, 0.0))
    if slack >= -tol:
        return HOLDS
    # interior minimizer of the quadratic form on the segment
    t = (c - b) / (a + c - 2 * b)
    pi = np.array([t, 1 - t])
    return fails({"belief": tuple(pi), "value": float(pi @ G @ pi)})


def _copositive_verdicts(gammas, method: CopositiveMethod,
                         resolution: int) -> OrderVerdict:
    gammas = list(gammas)
    if not gammas:
        return HOLDS
    X = gammas[0][1].shape[0]
    if method is CopositiveMethod.EXACT_2STATE:
        if X != 2:
            raise UnsupportedExact(f"exact test only for X=2, got X={X}")
        for tag, G in gammas:
            v = _copositive_2state(G, 1e-12)
            if v.status is Verdict.FAILS:
                return fails({"index": tag, **v.witness})
        return HOLDS
    if method is CopositiveMethod.ELEMENTWISE_SUFFICIENT:
        for tag, G in gammas:
            if (G >= -1e-12).all():
                continue
            return UNDETERMINED
        return HOLDS
    if method is CopositiveMethod.GRID_FALSIFY:
        grid = simplex_lattice(X, resolution)
        for tag, G in gammas:
            vals = np.einsum("ni,ij,nj->n", grid, G, grid)
            k = int(np.argmin(vals))
            if vals[k] < -1e-9:
                return fails({"index": tag, "belief": tuple(grid[k]),
                              "value": float(vals[k])})
        return UNDETERMINED
    raise ValueError(f"unknown method {method!r}")


def copositive_order_full(P_u, B_u, P_u1, B_u1,
                          method: CopositiveMethod =
                          CopositiveMethod.ELEMENTWISE_SUFFICIENT,
                          resolution: int = 12) -> OrderVerdict:
    """Test ``(P(u), B(u)) <= (P(u+1), B(u+1))`` in the copositive order.

    Holds exactly when every filter update under the second pair MLR
    dominates the update under the first, for every belief and symbol.
    """
    P_u = np.asarray(P_u, dtype=float)
    B_u = np.asarray(B_u, dtype=float)
    P_u1 = np.asarray(P_u1, dtype=float)
    B_u1 = np.asarray(B_u1, dtype=float)
    X = P_u.shape[0]
    Y = B_u.shape[1]
    if P_u1.shape != (X, X) or B_u.shape[0] != X or B_u1.shape != B_u.shape:
        raise DimensionMismatch("incompatible matrix dimensions")
    gammas = (((j + 1, y + 1), _gamma_full(P_u, B_u, P_u1, B_u1, j, y))
              for j in range(X - 1) for y in range(Y))
    return _copositive_verdicts(gammas, method, resolution)


def copositive_order_transitions(P, Q,
                                 method: CopositiveMethod =
                                 CopositiveMethod.ELEMENTWISE_SUFFICIENT,
                                 resolution: int = 12) -> OrderVerdict:
    """Test ``P <= Q`` in the copositive order of transition matrices."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape or P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch("transition matrices must be equal square")
    X = P.shape[0]
    gammas = ((j + 1, _gamma_transitions(P, Q, j)) for j in range(X - 1))
    return _copositive_verdicts(gammas, method, resolution)


def check_F4(P_u, B_u, P_u1, B_u1, tol: float = ORDER_TOL) -> OrderVerdict:
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
    bad = np.argwhere(heads > tol)
    if bad.size:
        i, ybar = bad[0]
        return fails({"state": int(i) + 1, "ybar": int(ybar) + 1,
                      "value": float(heads[i, ybar])})
    return HOLDS


def blackwell_factorize(B1, B2, tol: float = 1e-7) -> np.ndarray | None:
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
    nv = nR + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    A_ub = []
    b_ub = []
    for i in range(X):
        for j in range(Y1):
            row = np.zeros(nv)
            for k in range(Y2):
                row[k * Y1 + j] = B2[i, k]
            row[-1] = -1.0
            A_ub.append(row.copy())
            b_ub.append(B1[i, j])
            row2 = -row
            row2[-1] = -1.0
            A_ub.append(row2)
            b_ub.append(-B1[i, j])
    A_eq = np.zeros((Y2, nv))
    for k in range(Y2):
        A_eq[k, k * Y1:(k + 1) * Y1] = 1.0
    res = solve_lp(c, A_ub=np.asarray(A_ub), b_ub=np.asarray(b_ub),
                   A_eq=A_eq, b_eq=np.ones(Y2))
    if not res.optimal or res.value > tol:
        return None
    R = res.x[:nR].reshape(Y2, Y1)
    R = np.clip(R, 0.0, None)
    return R / R.sum(axis=1, keepdims=True)


def mdp_monotone_report(model, variant: str = "discounted") -> dict:
    """Verdicts for the four monotone-MDP conditions on a fully observed
    model: decreasing costs (A1), FOSD-increasing rows (A2), submodular
    costs (A3) and tail-sum supermodular transitions (A4)."""
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
    if variant == "finite" and model.terminal_cost is not None:
        tc = model.terminal_vector()
        if (np.diff(tc) > ORDER_TOL).any():
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
