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

``dual_feasible`` decides a whole batch of feasibility problems
``M f <= b, f >= 0`` at once, through their duals
``min b'z s.t. -M'z + s = 1, z, s >= 0``.  A dual starts feasible on its
slack basis, so there is no phase 1, and its tableau has one row per
variable of ``f`` plus the objective row.  The dual is optimal exactly
when the primal is feasible and unbounded exactly when it is infeasible.
All tableaus of a batch pivot in lockstep as one 3-D array, with Dantzig
pricing, a Harris two-pass ratio test and a per-problem switch to Bland's
rule after a stall.  Every verdict carries a certificate that is checked
in numpy before it is returned: the point ``f`` read off the final
objective row for a feasible problem, the Farkas ray ``z`` of the
unbounded column (``z >= 0``, ``M'z >= 0``, ``b'z < 0``) for an
infeasible one.  A certificate that fails its check raises
``LpNumericFailure``.
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
CERT_TOL = 1e-9        # certificate residual per unit of row size (1 + |M| f),
                       # on equilibrated rows and a unit-sum ray
DUAL_MAX_ITER = 10000  # lockstep pivots before dual_feasible gives up


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


@dataclass
class FeasibilityBatch:
    """Verdicts and certificates of ``dual_feasible`` for B problems."""

    feasible: np.ndarray  # (B,) bool
    f: np.ndarray         # (B, X): M f <= b, f >= 0; zero where infeasible
    ray: np.ndarray       # (B, m): Farkas rays; zero where feasible
    pivots: int = 0
    bland: int = 0        # problems that switched to Bland's rule


def dual_feasible(M, b) -> FeasibilityBatch:
    """Decide ``M[k] f <= b[k], f >= 0`` for every k of a batch.

    ``M`` has shape (B, m, X) and ``b`` shape (B, m).  Each problem is
    decided through its dual ``min b'z s.t. -M'z + s = 1, z, s >= 0``,
    and all duals pivot in lockstep.  Rows are equilibrated first, as in
    ``solve_lp``; a zero row keeps scale 1, so its right-hand side alone
    decides it.  Raises ``LpNumericFailure`` when a certificate fails its
    check or ``DUAL_MAX_ITER`` lockstep pivots leave a problem undecided.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    B, m, X = M.shape
    scale = np.abs(M).max(axis=2, initial=0.0)
    scale[scale == 0] = 1.0
    Ms = M / scale[..., None]
    bs = b / scale
    n = m + X  # columns z, then s; the last tableau column is the rhs
    T = np.zeros((B, X + 1, n + 1))
    T[:, :X, :m] = -Ms.transpose(0, 2, 1)
    T[:, :X, m:n] = np.eye(X)
    T[:, :X, n] = 1.0
    T[:, X, :m] = bs
    basis = np.tile(np.arange(m, n), (B, 1))
    live = np.arange(B)  # original index of each tableau still pivoting
    stall = np.zeros(B, dtype=int)
    bland = np.zeros(B, dtype=bool)
    stall_limit = 3 * (X + n)
    out = FeasibilityBatch(np.zeros(B, dtype=bool), np.zeros((B, X)),
                           np.zeros((B, m)))
    for it in range(DUAL_MAX_ITER + 1):
        red = T[:, X, :n]
        enter = np.where(bland, (red < -TOL).argmax(axis=1),
                         red.argmin(axis=1))
        k = np.arange(live.size)
        col = T[k, :X, enter]
        optimal = red[k, enter] >= -TOL
        # pivot entries must exceed TOL relative to the column's largest
        big = col > TOL * np.maximum(np.abs(col).max(axis=1), 1.0)[:, None]
        unbounded = ~optimal & ~big.any(axis=1)
        done = optimal | unbounded
        if done.any():
            _certify(out, live[done], optimal[done], T[done], basis[done],
                     enter[done], Ms[live[done]], bs[live[done]],
                     scale[live[done]])
            keep = ~done
            T, basis, stall, bland = T[keep], basis[keep], stall[keep], \
                bland[keep]
            live, enter, col, big = live[keep], enter[keep], col[keep], \
                big[keep]
            k = np.arange(live.size)
        if not live.size:
            return out
        if it == DUAL_MAX_ITER:
            break
        row = _leaving_rows(T[:, :X, n], col, big, basis, bland)
        before = T[:, X, n].copy()
        prow = T[k, row] / T[k, row, enter][:, None]
        factors = T[k, :, enter]
        factors[k, row] = 0.0
        T -= factors[:, :, None] * prow[:, None, :]
        T[k, row] = prow
        basis[k, row] = enter
        out.pivots += live.size
        # -T[:, X, n] is the dual objective, which must fall
        progress = T[:, X, n] > before + STALL_TOL
        stall = np.where(progress, 0, stall + 1)
        switch = ~bland & (stall > stall_limit)
        out.bland += int(switch.sum())
        bland |= switch
    raise LpNumericFailure("lockstep iteration limit exceeded")


def _leaving_rows(rhs, col, big, basis, bland) -> np.ndarray:
    """Batched Harris two-pass ratio test on the entering columns.

    The first pass bounds the step by every positive entry, however
    small, relaxed by ``TIE_TOL``, so no row is skipped and none ends more
    than ``TIE_TOL`` below zero.  The second pivots on the largest
    pivotable (``big``) entry whose ratio fits, or under Bland's rule on
    the one with the smallest basis index.  Only where no such entry
    fits, because a sub-pivot entry (rounding noise on a zero) binds, is
    the bound taken over the pivotable entries alone.
    """
    rhs = np.maximum(rhs, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (rhs + TIE_TOL) / col
        bound = np.where(col > 0, ratio, np.inf).min(axis=1)
        fits = big & (rhs <= bound[:, None] * col)
        noise = ~fits.any(axis=1)
        if noise.any():
            bound = np.where(noise, np.where(big, ratio, np.inf).min(axis=1),
                             bound)
            fits = big & (rhs <= bound[:, None] * col)
    largest = np.where(fits, col, -np.inf).argmax(axis=1)
    first = np.where(fits, basis, basis.max(initial=0) + 1).argmin(axis=1)
    return np.where(bland, first, largest)


def _certify(out: FeasibilityBatch, idx, optimal, T, basis, enter, Ms, bs,
             scale):
    """Read off, check and store the certificates of finished tableaus.

    ``Ms`` and ``bs`` are the equilibrated problems, which the checks use;
    rays are stored rescaled to the original rows, with unit sum.
    """
    X = T.shape[1] - 1
    m = Ms.shape[1]
    f = np.maximum(T[optimal, X, m:m + X], 0.0)
    excess = np.einsum("kmx,kx->km", Ms[optimal], f) - bs[optimal]
    size = 1.0 + np.einsum("kmx,kx->km", np.abs(Ms[optimal]), f)
    if (excess > CERT_TOL * size).any():
        raise LpNumericFailure("feasibility certificate failed its check")
    # the unbounded column's ray: the entering variable at 1, and each
    # basic variable grows by minus its column entry, where no entry is
    # pivotable; the noise-level positive ones are clipped to zero
    no = ~optimal
    k = np.arange(int(no.sum()))
    d = np.zeros((k.size, m + X))
    d[k, enter[no]] = 1.0
    np.put_along_axis(d, basis[no],
                      np.maximum(-T[no][k, :X, enter[no]], 0.0), axis=1)
    z = d[:, :m]
    total = z.sum(axis=1, keepdims=True)
    if (total <= 0).any():
        raise LpNumericFailure("Farkas ray has no constraint weight")
    z = z / total
    if ((np.einsum("kmx,km->kx", Ms[no], z) < -CERT_TOL).any()
            or ((bs[no] * z).sum(axis=1) >= 0).any()):
        raise LpNumericFailure("infeasibility certificate failed its check")
    out.feasible[idx] = optimal
    out.f[idx[optimal]] = f
    ray = z / scale[no]
    out.ray[idx[no]] = ray / ray.sum(axis=1, keepdims=True)
