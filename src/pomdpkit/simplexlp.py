"""Dense two-phase simplex solver for the package's small linear programs.

All LPs in this package have at most a few hundred rows and columns, so a
dense tableau is simple and fast.  Robustness measures for the highly
degenerate instances produced by envelope comparisons:

* row equilibration (near-duplicate gradient vectors otherwise force
  pivots on tiny entries),
* Dantzig pricing with a permanent switch to Bland's rule after a stall,
  which restores the anti-cycling guarantee,
* refactorization of the tableau from the original data when numerical
  corruption is detected (phase-1 "unbounded" at a positive objective).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpNumericFailure

TOL = 1e-9


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Standard-form problem min c'x, A x = b, x >= 0 with a dense tableau."""

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = A
        self.b = b
        self.m, self.n = A.shape
        self.T = None
        self.basis = None
        self.cost = None

    def load(self, cost: np.ndarray, basis: np.ndarray):
        self.cost = cost
        self.basis = basis.copy()
        self.refactorize()

    def _repair_basis(self, basis: np.ndarray) -> np.ndarray:
        """Greedily rebuild a nonsingular basis, preferring the given
        columns and padding with artificial (identity) columns."""
        chosen = []
        Q = np.zeros((self.m, 0))
        candidates = list(basis) + list(range(self.n - self.m, self.n))
        for j in candidates:
            if len(chosen) == self.m:
                break
            v = self.A[:, j].astype(float)
            if Q.shape[1]:
                v = v - Q @ (Q.T @ v)
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                Q = np.hstack([Q, (v / norm)[:, None]])
                chosen.append(j)
        if len(chosen) != self.m:
            raise LpNumericFailure("could not repair basis")
        return np.asarray(chosen, dtype=int)

    def refactorize(self):
        Bmat = self.A[:, self.basis]
        try:
            Binv = np.linalg.inv(Bmat)
        except np.linalg.LinAlgError:
            self.basis = self._repair_basis(self.basis)
            Binv = np.linalg.inv(self.A[:, self.basis])
        body = Binv @ self.A
        rhs = Binv @ self.b
        if (rhs < -1e-7).any():
            raise LpNumericFailure("basis lost feasibility")
        z = self.cost - self.cost[self.basis] @ body
        obj = -float(self.cost[self.basis] @ rhs)
        self.T = np.hstack([body, np.clip(rhs, 0.0, None)[:, None]])
        self.z = np.concatenate([z, [obj]])

    def objective(self) -> float:
        return -self.z[-1]

    def pivot(self, row: int, col: int):
        T, z = self.T, self.z
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        z -= z[col] * T[row]
        self.basis[row] = col

    def solve(self, allowed: np.ndarray, max_iter: int) -> str:
        """Run simplex over the allowed columns; returns final status."""
        m = self.m
        stall = 0
        bland = False
        refactored = False
        for _ in range(max_iter):
            red = self.z[:-1]
            entering = -1
            if bland:
                for j in range(self.n):
                    if allowed[j] and red[j] < -TOL:
                        entering = j
                        break
            else:
                cand = np.where(allowed, red, 0.0)
                j = int(np.argmin(cand))
                if cand[j] < -TOL:
                    entering = j
            if entering < 0:
                return "optimal"
            col = self.T[:m, entering]
            rhs = self.T[:m, -1]
            leave = -1
            for pivot_tol in (1e-7, TOL):  # prefer well-scaled pivots
                best = np.inf
                for i in range(m):
                    if col[i] > pivot_tol:
                        ratio = max(rhs[i], 0.0) / col[i]
                        if ratio < best - 1e-12:
                            best = ratio
                            leave = i
                        elif ratio <= best + 1e-12 and leave >= 0 \
                                and self.basis[i] < self.basis[leave]:
                            best = min(best, ratio)
                            leave = i
                if leave >= 0:
                    break
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
            if self.objective() >= before - 1e-13:
                stall += 1
                if stall > 3 * (m + self.n) and not bland:
                    bland = True
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
    causes it.
    """
    try:
        return _solve_core(c, A_ub, b_ub, A_eq, b_eq, free_vars, 0.0)
    except LpNumericFailure:
        return _solve_core(c, A_ub, b_ub, A_eq, b_eq, free_vars, 1e-10)


def _solve_core(c, A_ub, b_ub, A_eq, b_eq, free_vars,
                perturb: float) -> LpResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    senses = []
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        rows.append(A_ub)
        rhs.append(b_ub)
        senses += ["<="] * A_ub.shape[0]
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        rows.append(A_eq)
        rhs.append(b_eq)
        senses += ["=="] * A_eq.shape[0]
    if not rows:
        raise LpNumericFailure("no constraints supplied")
    A = np.vstack(rows).astype(float)
    b = np.concatenate(rhs).astype(float)

    scale = np.abs(A).max(axis=1)
    zero = scale == 0
    if zero.any():
        for s, bv in zip([x for x, z in zip(senses, zero) if z], b[zero]):
            if (s == "<=" and bv < -TOL) or (s == "==" and abs(bv) > TOL):
                return LpResult("infeasible")
    keep = ~zero
    A = A[keep] / scale[keep, None]
    b = b[keep] / scale[keep]
    senses = [s for s, k in zip(senses, keep) if k]
    if perturb:
        b = b + perturb * (1.0 + np.arange(b.size))

    free = sorted(set(int(i) for i in free_vars))
    if free:
        A = np.hstack([A, -A[:, free]])
        c = np.concatenate([c, -c[free]])
    nvar = c.size

    m = A.shape[0]
    nslack = sum(1 for s in senses if s == "<=")
    ncols = nvar + nslack
    Astd = np.zeros((m, ncols + m))
    Astd[:, :nvar] = A
    si = 0
    slack_sign = np.ones(m)
    for i, s in enumerate(senses):
        if s == "<=":
            Astd[i, nvar + si] = 1.0
            si += 1
    bstd = b.copy()
    for i in range(m):
        if bstd[i] < 0:
            Astd[i, :] *= -1
            bstd[i] *= -1
    for i in range(m):
        Astd[i, ncols + i] = 1.0

    tab = _Tableau(Astd, bstd)
    phase1_cost = np.zeros(ncols + m)
    phase1_cost[ncols:] = 1.0
    tab.load(phase1_cost, np.arange(ncols, ncols + m))
    allowed = np.ones(ncols + m, dtype=bool)
    max_iter = 500 * (m + ncols + 10)
    status = tab.solve(allowed, max_iter)
    phase1 = tab.objective()
    if status == "unbounded" and phase1 > 1e-7:
        raise LpNumericFailure("phase-1 failed to reach feasibility")
    if phase1 > 1e-7:
        return LpResult("infeasible")
    # drive artificial variables out of the basis where possible,
    # pivoting on the largest available entry for stability
    for i in range(m):
        if tab.basis[i] >= ncols:
            j = int(np.argmax(np.abs(tab.T[i, :ncols])))
            if abs(tab.T[i, j]) > 1e-6:
                tab.pivot(i, j)
    phase2_cost = np.zeros(ncols + m)
    phase2_cost[:nvar] = c
    basis = tab.basis.copy()
    tab.load(phase2_cost, basis)
    allowed = np.ones(ncols + m, dtype=bool)
    allowed[ncols:] = False  # artificials stay out
    status = tab.solve(allowed, max_iter)
    if status == "unbounded":
        return LpResult("unbounded")
    x_full = np.zeros(ncols + m)
    for r, j in enumerate(tab.basis):
        x_full[j] = tab.T[r, -1]
    x = x_full[:n].copy()
    for k, i in enumerate(free):
        x[i] -= x_full[n + k]
    return LpResult("optimal", x=x, value=float(c[:n] @ x))

