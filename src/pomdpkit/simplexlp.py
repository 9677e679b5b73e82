"""Dense two-phase simplex solver for the package's small linear programs.

All LPs in this package have at most a few hundred rows and columns, so a
dense tableau is simple and fast.

Phase 1 starts on a crash basis.  After row equilibration, every ``<=``
row whose right-hand side is nonnegative starts on its own slack column.
Only ``==`` rows and rows negated to make their right-hand side
nonnegative get an artificial column.  That basis is the identity, so the
phase-1 tableau is the standard-form data itself.  Phase 2 continues on
the pivoted tableau and only re-prices the objective row, so the normal
path never factorizes a basis matrix.

Robustness measures for the highly degenerate instances produced by
envelope comparisons:

* row equilibration (near-duplicate gradient vectors otherwise force
  pivots on tiny entries),
* a ratio test that prefers pivots above ``PIVOT_TOL`` and breaks ties
  within ``TIE_TOL`` by the smallest basis index,
* Dantzig pricing with a permanent switch to Bland's rule after a stall,
  which restores the anti-cycling guarantee,
* recovery only when the ratio test finds no pivot row: the tableau is
  rebuilt from the original data by solving with the basis matrix
  (numerical corruption shows up as phase-1 "unbounded"),
* one retry with a perturbed right-hand side when a solve fails
  numerically.

Every solve reports plain counters on its ``LpResult``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpNumericFailure

TOL = 1e-9             # reduced cost that counts as negative; last-resort pivot
PIVOT_TOL = 1e-7       # pivot entries the ratio test prefers
FEAS_TOL = 1e-7        # phase-1 objective and negative rhs still feasible
TIE_TOL = 1e-12        # ratio-test tie window
STALL_TOL = 1e-13      # objective decrease that counts as progress
REPAIR_TOL = 1e-8      # residual norm a column needs to join a repaired basis
DRIVE_OUT_TOL = 1e-6   # pivot that drives an artificial out after phase 1
PERTURB = 1e-10        # right-hand-side perturbation of the retry


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0
    refactorizations: int = 0
    bland: bool = False    # switched to Bland's rule after a stall
    retried: bool = False  # needed the perturbed retry

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Standard-form problem min c'x, A x = b, x >= 0 with a dense tableau.

    ``basis`` must index identity columns of ``A``, so the tableau starts
    as ``[A | b]``.  The objective row is the tableau's last row.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, basis: np.ndarray,
                 counts: dict):
        self.A = A
        self.b = b
        self.m, self.n = A.shape
        self.start = basis
        self.basis = basis.copy()
        self.counts = counts
        self.T = np.zeros((self.m + 1, self.n + 1))
        self.T[:-1, :-1] = A
        self.T[:-1, -1] = b

    def price(self, cost: np.ndarray):
        """Set the objective row to ``cost`` reduced by the current basis."""
        self.cost = cost
        self.T[-1, :-1] = cost
        self.T[-1, -1] = 0.0
        self.T[-1] -= cost[self.basis] @ self.T[:-1]

    def _repair_basis(self, basis: np.ndarray) -> np.ndarray:
        """Greedily rebuild a nonsingular basis, preferring the given
        columns and padding with the identity columns of the start basis."""
        chosen = []
        Q = np.zeros((self.m, 0))
        for j in list(basis) + list(self.start):
            if len(chosen) == self.m:
                break
            v = self.A[:, j].astype(float)
            if Q.shape[1]:
                v = v - Q @ (Q.T @ v)
            norm = np.linalg.norm(v)
            if norm > REPAIR_TOL:
                Q = np.hstack([Q, (v / norm)[:, None]])
                chosen.append(j)
        if len(chosen) != self.m:
            raise LpNumericFailure("could not repair basis")
        return np.asarray(chosen, dtype=int)

    def refactorize(self):
        """Rebuild the tableau of the current basis from the original data."""
        self.counts["refactorizations"] += 1
        data = np.hstack([self.A, self.b[:, None]])
        try:
            body = np.linalg.solve(self.A[:, self.basis], data)
        except np.linalg.LinAlgError:
            self.basis = self._repair_basis(self.basis)
            body = np.linalg.solve(self.A[:, self.basis], data)
        if (body[:, -1] < -FEAS_TOL).any():
            raise LpNumericFailure("basis lost feasibility")
        np.clip(body[:, -1], 0.0, None, out=body[:, -1])
        self.T[:-1] = body
        self.price(self.cost)

    def objective(self) -> float:
        return -self.T[-1, -1]

    def pivot(self, row: int, col: int):
        T = self.T
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        self.basis[row] = col
        self.counts["pivots"] += 1

    def leaving_row(self, col: np.ndarray) -> int:
        """Ratio test on the entering column; -1 when no row bounds it."""
        rhs = np.maximum(self.T[:-1, -1], 0.0)
        for pivot_tol in (PIVOT_TOL, TOL):  # prefer well-scaled pivots
            rows = np.flatnonzero(col > pivot_tol)
            if rows.size:
                ratios = rhs[rows] / col[rows]
                tied = rows[ratios <= ratios.min() + TIE_TOL]
                return int(tied[np.argmin(self.basis[tied])])
        return -1

    def solve(self, allowed: np.ndarray, max_iter: int) -> str:
        """Run simplex over the allowed columns; returns final status."""
        stall = 0
        bland = False
        refactored = False
        for _ in range(max_iter):
            red = self.T[-1, :-1]
            if bland:
                improving = np.flatnonzero(allowed & (red < -TOL))
                if not improving.size:
                    return "optimal"
                entering = int(improving[0])
            else:
                cand = np.where(allowed, red, 0.0)
                entering = int(np.argmin(cand))
                if cand[entering] >= -TOL:
                    return "optimal"
            leave = self.leaving_row(self.T[:-1, entering])
            if leave < 0:
                if not refactored:
                    # possible numerical corruption: rebuild and retry
                    refactored = True
                    self.refactorize()
                    continue
                return "unbounded"
            before = self.objective()
            self.pivot(leave, entering)
            refactored = False
            if self.objective() >= before - STALL_TOL:
                stall += 1
                if stall > 3 * (self.m + self.n) and not bland:
                    bland = True
                    self.counts["bland"] = True
            else:
                stall = 0
        raise LpNumericFailure("simplex iteration limit exceeded")


def solve_lp(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    free_vars=(),
) -> LpResult:
    """Minimize ``c @ x`` subject to ``A_ub x <= b_ub`` and ``A_eq x = b_eq``.

    Variables are >= 0 except for indices in ``free_vars``, which are
    split internally.  On numeric trouble the solve retries once with an
    epsilon-perturbed right-hand side, which breaks the degeneracy that
    causes it.  The result's counters cover both attempts.
    """
    counts = {"pivots": 0, "refactorizations": 0, "bland": False}
    try:
        res = _solve_core(c, A_ub, b_ub, A_eq, b_eq, free_vars, 0.0, counts)
    except LpNumericFailure:
        res = _solve_core(c, A_ub, b_ub, A_eq, b_eq, free_vars, PERTURB,
                          counts)
        res.retried = True
    res.pivots = counts["pivots"]
    res.refactorizations = counts["refactorizations"]
    res.bland = counts["bland"]
    return res


def _solve_core(c, A_ub, b_ub, A_eq, b_eq, free_vars,
                perturb: float, counts: dict) -> LpResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    ub = []
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        rows.append(A_ub)
        rhs.append(b_ub)
        ub.append(np.ones(A_ub.shape[0], dtype=bool))
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        rows.append(A_eq)
        rhs.append(b_eq)
        ub.append(np.zeros(A_eq.shape[0], dtype=bool))
    if not rows:
        raise LpNumericFailure("no constraints supplied")
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    ub = np.concatenate(ub)

    scale = np.abs(A).max(axis=1)
    zero = scale == 0
    if zero.any():
        violated = np.where(ub[zero], b[zero] < -TOL, np.abs(b[zero]) > TOL)
        if violated.any():
            return LpResult("infeasible")
    keep = ~zero
    A = A[keep] / scale[keep, None]
    b = b[keep] / scale[keep]
    ub = ub[keep]
    if perturb:
        b = b + perturb * (1.0 + np.arange(b.size))

    free = sorted(set(int(i) for i in free_vars))
    if free:
        A = np.hstack([A, -A[:, free]])
        c = np.concatenate([c, -c[free]])
    nvar = c.size

    # columns: variables, one slack per <= row, one artificial per row
    # that cannot start on its slack (== rows and negated rows)
    m = A.shape[0]
    flip = b < 0
    art = ~ub | flip
    slack_col = nvar + np.cumsum(ub) - 1
    ncols = nvar + int(ub.sum())
    art_col = ncols + np.cumsum(art) - 1
    Astd = np.zeros((m, ncols + int(art.sum())))
    Astd[:, :nvar] = A
    Astd[ub, slack_col[ub]] = 1.0
    Astd[flip] *= -1
    bstd = np.where(flip, -b, b)
    Astd[art, art_col[art]] = 1.0
    basis = np.where(art, art_col, slack_col)

    tab = _Tableau(Astd, bstd, basis, counts)
    phase1_cost = np.zeros(Astd.shape[1])
    phase1_cost[ncols:] = 1.0
    tab.price(phase1_cost)
    allowed = np.ones(Astd.shape[1], dtype=bool)
    max_iter = 500 * (m + ncols + 10)
    status = tab.solve(allowed, max_iter)
    phase1 = tab.objective()
    if status == "unbounded" and phase1 > FEAS_TOL:
        raise LpNumericFailure("phase-1 failed to reach feasibility")
    if phase1 > FEAS_TOL:
        return LpResult("infeasible")
    # drive artificial variables out of the basis where possible,
    # pivoting on the largest available entry for stability
    for i in np.flatnonzero(tab.basis >= ncols):
        j = int(np.argmax(np.abs(tab.T[i, :ncols])))
        if abs(tab.T[i, j]) > DRIVE_OUT_TOL:
            tab.pivot(i, j)
    phase2_cost = np.zeros(Astd.shape[1])
    phase2_cost[:nvar] = c
    tab.price(phase2_cost)
    allowed[ncols:] = False  # artificials stay out
    status = tab.solve(allowed, max_iter)
    if status == "unbounded":
        return LpResult("unbounded")
    x_full = np.zeros(Astd.shape[1])
    x_full[tab.basis] = tab.T[:-1, -1]
    x = x_full[:n].copy()
    for k, i in enumerate(free):
        x[i] -= x_full[n + k]
    return LpResult("optimal", x=x, value=float(c[:n] @ x))
