"""Dominating transition matrices and the MLR sandwich filter.

The rank-1 construction of transition matrices that bracket a given
chain in the copositive order, plus the sandwich run that brackets the
exact posterior between cheap lower/upper filters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotTP2, OrderingViolation
from .filters import bayes_batch
from .orders import is_tp2, mlr_rows


def rank1_bounds(P) -> tuple[np.ndarray, np.ndarray]:
    """Tightest rank-1 bracket of a TP2 transition matrix.

    Every row of the lower bound equals row 1 of ``P`` and every row of
    the upper bound equals row X; these are the extreme rows in the MLR
    order when ``P`` is TP2.
    """
    P = np.asarray(P, dtype=float)
    if not is_tp2(P):
        raise NotTP2("rank-1 bracket requires a TP2 matrix")
    lower = np.tile(P[0], (P.shape[0], 1))
    upper = np.tile(P[-1], (P.shape[0], 1))
    return lower, upper


class CountingPredictor:
    """Belief prediction with an explicit multiply count.

    Rows of the transition matrix are grouped by value, so a rank-r
    bracket (r distinct rows) costs ``multiplies = r * X`` multiplies per
    prediction instead of X * X for a dense matrix.
    """

    def __init__(self, P):
        P = np.asarray(P, dtype=float)
        self.X = P.shape[0]
        rows = {}
        self.group_of = np.empty(self.X, dtype=int)
        reps = []
        for i, row in enumerate(P):
            key = row.tobytes()
            if key not in rows:
                rows[key] = len(reps)
                reps.append(row)
            self.group_of[i] = rows[key]
        self.rows = np.asarray(reps)
        self.rank = len(reps)
        self.multiplies = self.rank * self.X

    def predict(self, pi: np.ndarray, out=None) -> np.ndarray:
        """``P' pi``, written into ``out`` when given."""
        # bincount adds pi into its row groups in state order
        mass = np.bincount(self.group_of, weights=pi, minlength=self.rank)
        return np.matmul(mass, self.rows, out=out)


@dataclass
class SandwichStep:
    lower: np.ndarray
    exact: np.ndarray
    upper: np.ndarray


def _means(posteriors: np.ndarray) -> np.ndarray:
    """Conditional means over state levels 1..X of every posterior.

    Each row is one dot product, the same sum as ``levels @ row``.
    """
    levels = np.arange(1, posteriors.shape[-1] + 1, dtype=float)
    return (levels @ posteriors[..., None])[..., 0]


@dataclass
class SandwichRun:
    posteriors: np.ndarray    # (steps, 3, X): lower, exact, upper filters
    lower_multiplies: int
    exact_multiplies: int

    @property
    def steps(self) -> list:
        return [SandwichStep(*p) for p in self.posteriors]

    @property
    def means(self) -> np.ndarray:
        """(steps, 3) conditional means of the lower, exact and upper
        posteriors."""
        return _means(self.posteriors)


MEAN_TOL = 1e-9   # slack of the conditional-mean bracket

_CHECKS = ("lower filter not MLR below", "upper filter not MLR above",
           "conditional means out of order", "MAP estimates out of order")


def _check_sandwich(posteriors: np.ndarray) -> None:
    """Raise at the first step whose posteriors break the sandwich, with
    the first failing check of that step in :data:`_CHECKS` order."""
    lo, ex, hi = posteriors[:, 0], posteriors[:, 1], posteriors[:, 2]
    means = _means(posteriors)
    maps = posteriors.argmax(axis=-1)
    failed = np.stack([
        ~mlr_rows(lo, ex)[1],
        ~mlr_rows(ex, hi)[1],
        ~((means[:, 0] <= means[:, 1] + MEAN_TOL)
          & (means[:, 1] <= means[:, 2] + MEAN_TOL)),
        ~((maps[:, 0] <= maps[:, 1]) & (maps[:, 1] <= maps[:, 2])),
    ])
    bad = np.flatnonzero(failed.any(axis=0))
    if bad.size:
        k = int(bad[0])
        raise OrderingViolation(k + 1, _CHECKS[int(np.argmax(failed[:, k]))])


def sandwich_filter(P_lower, P, P_upper, B, observations, pi0,
                    check: bool = True) -> SandwichRun:
    """Run the three filters in lockstep and verify the MLR sandwich.

    At every step the lower/upper posteriors must MLR-bracket the exact
    one, their conditional means (state levels 1..X) must bracket the
    exact mean and the MAP estimates must be ordered; a violation means
    the copositive-order preconditions did not actually hold and raises
    :class:`OrderingViolation` at the first failing step.  The checks run
    over all steps after the recursion.  Each step is one three-row
    :func:`filters.bayes_batch` call; an observation of zero likelihood
    under any of the three filters ends the recursion, and is reported
    only when the steps before it pass.
    """
    pi0 = np.asarray(pi0, dtype=float)
    ys = np.asarray(observations, dtype=int)
    liks = np.asarray(B, dtype=float).T[ys - 1]   # one row per step
    preds = [CountingPredictor(M) for M in (P_lower, P, P_upper)]
    steps = len(liks)
    posteriors = np.empty((steps, 3, pi0.size))
    predicted = np.empty((3, pi0.size))
    prev = np.stack([pi0, pi0, pi0])
    zero_step = None
    for k in range(steps):
        for f, pred in enumerate(preds):
            pred.predict(prev[f], out=predicted[f])
        post, sigma = bayes_batch(predicted, liks[k], prev)
        if not sigma.all():
            zero_step = k
            break
        posteriors[k] = prev = post
    if check:
        _check_sandwich(posteriors[:zero_step])
    if zero_step is not None:
        raise OrderingViolation(zero_step + 1, "zero-likelihood observation")
    return SandwichRun(posteriors, steps * preds[0].multiplies,
                       steps * preds[1].multiplies)
