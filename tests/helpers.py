"""Shared fixtures for the test suite: reference matrices and random
model generators used across modules."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from pomdpkit.errors import LpInfeasible
from pomdpkit.model import PomdpModel, quantized_gaussian_observation
from pomdpkit.myopic import lp_feasibility_C1_C2, optimize_overlap_2action
from pomdpkit.orders import Verdict
from pomdpkit.structural import pomdp_assumption_report


def norm_rows(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return M / M.sum(axis=1, keepdims=True)


# 3-state transition matrix used throughout the filter tests
P_TP2_3 = np.array([
    [0.6, 0.3, 0.1],
    [0.2, 0.5, 0.3],
    [0.1, 0.3, 0.6],
])

P_PERMUTED_3 = np.array([
    [0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
])

# ordered transition/observation quadruple satisfying the elementwise
# copositivity condition
QUAD_P1 = norm_rows([[0.8, 0.1, 0.1],
                     [0.2823, 0.1804, 0.5373],
                     [0.1256, 0.1968, 0.6776]])
QUAD_B1 = norm_rows([[0.8, 0.1, 0.1],
                     [0.0341, 0.3665, 0.5994],
                     [0.0101, 0.2841, 0.7058]])
QUAD_P2 = norm_rows([[0.0188, 0.1981, 0.7831],
                     [0.0051, 0.1102, 0.8847],
                     [0.0016, 0.0626, 0.9358]])
QUAD_B2 = norm_rows([[0.0041, 0.1777, 0.8182],
                     [0.0025, 0.1750, 0.8225],
                     [0.0008, 0.1290, 0.8701]])


def random_tp2_stochastic(rng, rows: int, cols: int | None = None,
                          spread=(0.3, 1.0), var=(0.5, 3.0)) -> np.ndarray:
    """TP2 row-stochastic matrix from a quantized Gaussian kernel."""
    cols = cols or rows
    levels = np.cumsum(spread[0] + rng.uniform(0, spread[1], size=rows))
    return np.asarray(quantized_gaussian_observation(
        levels, rng.uniform(*var), cols))


def random_belief_pair(rng, dim: int):
    """An MLR-comparable pair (larger, smaller) via a vertex line."""
    from pomdpkit.structural import sample_mlr_pair

    return sample_mlr_pair(rng, dim)


def sandwich_model(rng) -> tuple[PomdpModel, object]:
    """Random two-action model passing (F1)(F2)(F3')(F4) with C1/C2
    feasible, built by perturbing the reference ordered quadruple."""
    while True:
        s = rng.uniform(0.0, 0.25)
        P1 = norm_rows(QUAD_P1 + s * rng.dirichlet(np.ones(3), size=3))
        P2 = norm_rows(QUAD_P2 + s * rng.dirichlet(np.ones(3), size=3))
        B1 = norm_rows(QUAD_B1 + s * rng.dirichlet(np.ones(3), size=3))
        B2 = norm_rows(QUAD_B2 + s * rng.dirichlet(np.ones(3), size=3))
        c1 = np.sort(rng.uniform(0.5, 2.0, 3))
        c2 = c1 + rng.uniform(-0.3, 0.3, 3)
        m = PomdpModel(np.stack([P1, P2]), np.stack([B1, B2]),
                       np.column_stack([c1, c2]), rng.uniform(0.3, 0.7))
        rep = pomdp_assumption_report(m)
        if not all(rep[k].status is Verdict.HOLDS
                   for k in ("F1", "F2", "F3", "F4")):
            continue
        try:
            return m, optimize_overlap_2action(m)
        except LpInfeasible:
            try:
                return m, lp_feasibility_C1_C2(m)
            except LpInfeasible:
                continue


def lp_fixture(name: str) -> dict:
    """A recorded LP from ``data/lp_fixtures.json`` as ``solve_lp``
    keyword arguments."""
    path = Path(__file__).parent / "data" / "lp_fixtures.json"
    lp = json.loads(path.read_text())[name]
    del lp["note"]
    return lp


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` for the test; each call appends its positional
    arguments to the returned list, so ``len`` counts the calls."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls
