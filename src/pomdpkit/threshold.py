"""Linear threshold policies on the simplex and their SPSA fitting.

The stop/continue decision ``stop iff [0 1 theta'] [pi; -1] < 0`` is MLR
increasing on the vertex line families exactly when the coefficients
satisfy the constraint set below; the unconstrained spherical
parametrization enforces those constraints by construction, so every
gradient iterate is admissible.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, check_at_least
from .model import StoppingModel
from .rng import make_rng, uniform_simplex
from .stopgrid import batched_stopping_costs

TRUNCATION_TOL = 1e-6   # discounted cost left beyond the truncation horizon


def threshold_constraints_ok(theta: np.ndarray) -> bool:
    """Necessary and sufficient conditions for MLR monotonicity on lines:
    ``0 <= theta(i) <= theta(X-2)`` for i < X-2, ``theta(X-2) >= 1`` and
    ``theta(X-1) > 0``."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size          # X - 1 coefficients
    if n < 1:
        return False
    if theta[-1] <= 0:
        return False
    if n >= 2 and theta[-2] < 1:
        return False
    for i in range(n - 2):
        if theta[i] < 0 or theta[i] > theta[-2]:
            return False
    return True


def linear_threshold_actions(theta, pis: np.ndarray) -> np.ndarray:
    """1 (stop) iff ``pi(2) + sum_i theta(i) pi(i+2) - theta(X-1) < 0``,
    else 2, for each row of ``pis``; ``theta`` is one coefficient vector
    or one per row."""
    theta = np.asarray(theta, dtype=float)
    pis = np.atleast_2d(pis)
    X = pis.shape[1]
    slopes = np.broadcast_to(theta[..., :X - 2], (pis.shape[0], X - 2))
    decision = pis[:, 1] + np.einsum("ij,ij->i", pis[:, 2:], slopes) \
        - theta[..., X - 2]
    return np.where(decision < 0, 1, 2)


def linear_threshold_action(theta, pi) -> int:
    """One-belief case of :func:`linear_threshold_actions`."""
    pi = np.asarray(pi, dtype=float)
    if np.asarray(theta).size != pi.size - 1:
        raise DimensionMismatch("theta must have X - 1 coefficients")
    return int(linear_threshold_actions(theta, pi[None])[0])


def spherical_to_theta(phi) -> np.ndarray:
    """Map unconstrained ``phi`` to admissible threshold coefficients."""
    phi = np.asarray(phi, dtype=float)
    n = phi.size
    theta = np.empty(n)
    theta[n - 1] = phi[n - 1] ** 2
    if n >= 2:
        theta[n - 2] = 1.0 + phi[n - 2] ** 2
        for i in range(n - 2):
            theta[i] = (1.0 + phi[n - 2] ** 2) * np.sin(phi[i]) ** 2
    return theta


def truncation_horizon(sm: StoppingModel) -> int:
    """Smallest K with ``rho^K max|c| / (1 - rho) < TRUNCATION_TOL``."""
    cmax = max(max(np.max(np.abs(c.lin)) + abs(c.alpha)
                   * np.max(np.abs(c.h)) ** 2
                   for c in (sm.stop_cost, sm.continue_cost)), 1e-12)
    rho = sm.discount
    if rho >= 1.0:
        return 10_000
    K = int(np.ceil(np.log(TRUNCATION_TOL * (1 - rho) / cmax) / np.log(rho)))
    return max(K, 1)


@dataclass
class SpsaHyper:
    step: float = 0.1        # Delta: perturbation scale
    step_decay: float = 0.602
    gain: float = 0.01       # epsilon: gradient gain
    gain_decay: float = 0.602
    stability: float = 10.0  # s in the gain schedule

    def perturbation(self, n: int) -> float:
        return self.step / (n + 1) ** self.step_decay

    def gain_at(self, n: int) -> float:
        return self.gain / (n + 1 + self.stability) ** self.gain_decay


@dataclass
class SpsaRun:
    phi_trace: np.ndarray    # (iterations + 1, dim)
    cost_trace: np.ndarray   # (iterations,) averaged two-sided samples
    theta: np.ndarray
    hyper: SpsaHyper
    seed: int

    def trace_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        dim = self.phi_trace.shape[1]
        w.writerow(["n"] + [f"phi{i+1}" for i in range(dim)] + ["cost"])
        for n in range(len(self.cost_trace)):
            w.writerow([n] + [f"{v:.12g}" for v in self.phi_trace[n]]
                       + [f"{self.cost_trace[n]:.12g}"])
        return out.getvalue()


def spsa_fit(sm: StoppingModel, iterations: int, seed: int,
             hyper: SpsaHyper | None = None, restarts: int = 5,
             objective=None) -> list[SpsaRun]:
    """Fit linear threshold coefficients by two-sided SPSA.

    Runs ``restarts`` independent chains in lockstep (each owns a
    deterministic stream derived from the seed) and returns one
    :class:`SpsaRun` per restart; pick a winner by evaluating the final
    policies on common paths.  ``objective(phi_matrix, rng)`` may
    replace the default sampled-trajectory cost for testing.
    """
    check_at_least("restarts", restarts, 1)
    hyper = hyper or SpsaHyper()
    dim = (sm.num_states - 1) if objective is None else objective.dim
    K = truncation_horizon(sm) if objective is None else 0
    rngs = [make_rng(seed, shard=r + 1) for r in range(restarts)]
    init_rng = make_rng(seed)
    phis = init_rng.normal(scale=1.0, size=(restarts, dim))
    traces = [[phis[r].copy()] for r in range(restarts)]
    costs = [[] for _ in range(restarts)]

    def eval_costs(phi_mat: np.ndarray, rng) -> np.ndarray:
        if objective is not None:
            return objective(phi_mat, rng)
        thetas = np.stack([spherical_to_theta(p) for p in phi_mat])
        pi0 = uniform_simplex(rng, phi_mat.shape[0], sm.num_states)
        return batched_stopping_costs(
            sm, lambda pis, idx: linear_threshold_actions(thetas[idx], pis),
            pi0, K, rng)

    for n in range(iterations):
        delta = hyper.perturbation(n)
        gain = hyper.gain_at(n)
        for r in range(restarts):
            rng = rngs[r]
            omega = rng.integers(0, 2, size=dim) * 2.0 - 1.0
            pair = np.stack([phis[r] + delta * omega,
                             phis[r] - delta * omega])
            j = eval_costs(pair, rng)
            grad = (j[0] - j[1]) / (2.0 * delta) * omega
            phis[r] = phis[r] - gain * grad
            traces[r].append(phis[r].copy())
            costs[r].append(0.5 * (j[0] + j[1]))
    runs = []
    for r in range(restarts):
        runs.append(SpsaRun(
            phi_trace=np.asarray(traces[r]),
            cost_trace=np.asarray(costs[r]),
            theta=spherical_to_theta(phis[r]),
            hyper=hyper,
            seed=seed,
        ))
    return runs


def evaluate_threshold_policy(sm: StoppingModel, theta, n_paths: int,
                              seed: int) -> np.ndarray:
    """Per-path sampled discounted costs of a linear threshold policy."""
    theta = np.asarray(theta, dtype=float)
    return evaluate_stop_policy(
        sm, lambda pis: linear_threshold_actions(theta, pis), n_paths,
        seed)


def evaluate_stop_policy(sm: StoppingModel, actions_fn, n_paths: int,
                         seed: int) -> np.ndarray:
    """Per-path costs of an arbitrary batched stop/continue policy."""
    check_at_least("n_paths", n_paths, 1)
    rng = make_rng(seed)
    pi0 = uniform_simplex(rng, n_paths, sm.num_states)

    def batch_policy(pis, idx):
        return actions_fn(pis)

    return batched_stopping_costs(sm, batch_policy, pi0,
                                  truncation_horizon(sm), rng)
