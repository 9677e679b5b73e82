"""Grid dynamic programming for two-action stopping models.

Value iteration runs on the lattice backup engine of :mod:`grid` and
starts from the stop cost (stopping immediately is always available), so
the sweeps decrease monotonically and converge even in the undiscounted
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import PathSampler, cumulative, sample_index
from .grid import (barycentric_weights, continuation, converge,
                   posterior_maps, simplex_lattice)
from .model import StoppingModel

TIE_TOL = 1e-12   # stopping wins a stop/continue tie within this slack


@dataclass
class StoppingGridSolution:
    model: StoppingModel
    points: np.ndarray
    values: np.ndarray
    stop_value: np.ndarray
    continue_value: np.ndarray
    resolution: int

    @property
    def stop_mask(self) -> np.ndarray:
        return self.stop_value <= self.continue_value + TIE_TOL

    def _weights(self, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return barycentric_weights(pis, self.resolution)

    def value(self, pi) -> float:
        idx, w = self._weights(np.asarray(pi, float)[None, :])
        return float((self.values[idx] * w).sum())

    def actions(self, pis: np.ndarray) -> np.ndarray:
        """Lookahead stop/continue decisions (1 stop, 2 continue)."""
        pis = np.atleast_2d(np.asarray(pis, dtype=float))
        sm = self.model
        stop = sm.stop_cost.batch(pis)
        maps = posterior_maps(pis, sm.P, sm.B, self._weights)
        cont = sm.continue_cost.batch(pis) \
            + sm.discount * continuation(self.values, maps)
        return np.where(stop <= cont + TIE_TOL, 1, 2)

    def action(self, pi) -> int:
        return int(self.actions(np.asarray(pi)[None, :])[0])


def solve_stopping_grid(sm: StoppingModel, resolution: int,
                        epsilon: float = 1e-9) -> StoppingGridSolution:
    pts = simplex_lattice(sm.num_states, resolution)
    stop_vals = sm.stop_cost.batch(pts)
    cont_base = sm.continue_cost.batch(pts)
    maps = list(posterior_maps(
        pts, sm.P, sm.B, lambda pis: barycentric_weights(pis, resolution)))

    def step(V):
        cont = cont_base + sm.discount * continuation(V, maps)
        return np.minimum(stop_vals, cont), cont

    V, cont_vals = converge(step, stop_vals, epsilon)
    return StoppingGridSolution(sm, pts, V, stop_vals, cont_vals,
                                resolution)


def batched_stopping_costs(sm: StoppingModel, policy_values, pi0s,
                           horizon: int, rng) -> np.ndarray:
    """Discounted sample costs of stopping policies on many paths.

    ``policy_values(pis, path_idx)`` returns stop/continue decisions
    (1/2) per alive path; paths absorb at the stop decision with the
    stop cost paid once.
    """
    beliefs = np.atleast_2d(np.asarray(pi0s, dtype=float)).copy()
    n = len(beliefs)
    sampler = PathSampler(sm.P[None], sm.B[None])
    states = sample_index(cumulative(beliefs), rng)
    total = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    disc = 1.0
    for k in range(horizon):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        acts = policy_values(beliefs[idx], idx)
        stopping = idx[acts == 1]
        if stopping.size:
            total[stopping] += disc * sm.stop_cost.batch(beliefs[stopping])
            alive[stopping] = False
        going = idx[acts == 2]
        if going.size:
            total[going] += disc * sm.continue_cost.batch(beliefs[going])
            states[going], ys = sampler.draw(0, states[going], rng)
            beliefs[going] = sampler.filter(0, beliefs[going], ys)
        disc *= sm.discount
    # paths still alive at the horizon stop and pay the stop cost
    if alive.any():
        total[alive] += disc * sm.stop_cost.batch(beliefs[alive])
    return total
