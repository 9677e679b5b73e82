"""Simplex-grid value machinery shared by the grid oracle, policy
evaluation, the stopping grid, the reduced-grid bounds and the 2-state
social-learning and retirement-index grids.

Grid nodes are the lattice points ``k / resolution`` (all compositions of
``resolution`` into X parts, in lexicographic order).  Off-grid beliefs
are evaluated by linear interpolation for X = 2 (:func:`segment_weights`,
which also serves the 2-state grids over pi(2)), by nearest neighbor for
X >= 3 (the oracle default), or by barycentric interpolation on the
standard simplicial subdivision of the lattice, which is exact for
piecewise linear functions and never overshoots a concave one.

Every grid backup runs on one engine in two parts.
:func:`posterior_maps` builds once, through :func:`filters.bayes_batch`,
the interpolation data of the posteriors ``T(pi, y, u)`` of a belief
batch; :func:`continuation` then gives
``sum_y sigma(pi, y, u) V(T(pi, y, u))`` for any value table.
:func:`converge` iterates a sweep to a sup-norm tolerance.  Posteriors
of zero-likelihood observations carry ``sigma = 0`` and drop out.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import PreconditionFailed
from .filters import bayes_batch
from .model import PomdpModel


def simplex_lattice(dim: int, resolution: int) -> np.ndarray:
    """All beliefs with coordinates k/resolution, in lexicographic order."""
    pts = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            pts.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], resolution, dim)
    return np.asarray(pts, dtype=float) / resolution


def _comb_table(n: int, k: int) -> np.ndarray:
    T = np.zeros((n + 1, k + 1), dtype=np.int64)
    for i in range(n + 1):
        for j in range(k + 1):
            T[i, j] = comb(i, j)
    return T


def lattice_rank(comps: np.ndarray, resolution: int) -> np.ndarray:
    """Lexicographic row index of integer compositions, vectorized.

    Uses the hockey-stick identity to count compositions with a smaller
    prefix; ``comps`` has shape (..., X) with rows summing to
    ``resolution``.
    """
    comps = np.asarray(comps, dtype=np.int64)
    X = comps.shape[-1]
    M = resolution
    T = _comb_table(M + X, X)
    idx = np.zeros(comps.shape[:-1], dtype=np.int64)
    remaining = np.full(comps.shape[:-1], M, dtype=np.int64)
    for i in range(X - 1):
        k = X - i - 1  # parts after this coordinate
        c = comps[..., i]
        idx += T[remaining + k, k] - T[remaining - c + k, k]
        remaining = remaining - c
    return idx


def _cumulative_coords(pis: np.ndarray, M: int) -> np.ndarray:
    cum = np.cumsum(pis[:, ::-1], axis=1)[:, ::-1]
    return np.clip(M * cum[:, 1:], 0.0, M)


def _cumulative_to_comps(v: np.ndarray, M: int) -> np.ndarray:
    """Integer cumulative coords (n, X-1) -> compositions (n, X)."""
    n = v.shape[0]
    full = np.concatenate([np.full((n, 1), M, dtype=np.int64), v,
                           np.zeros((n, 1), dtype=np.int64)], axis=1)
    return full[:, :-1] - full[:, 1:]


def segment_weights(t: np.ndarray,
                    resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation on the nodes ``k / resolution`` of [0, 1].

    Returns ``(idx, w)`` of shapes (n, 2): the nodes on either side of
    each ``t`` (clipped to [0, 1]) and their weights, with unit row sums.
    This is the X = 2 case of :func:`barycentric_weights`, with ``t`` the
    coordinate that the node index counts.
    """
    M = resolution
    t = np.clip(t * M, 0, M)
    lo = np.minimum(np.floor(t).astype(np.int64), M - 1)
    frac = t - lo
    return (np.stack([lo, lo + 1], axis=1),
            np.stack([1 - frac, frac], axis=1))


def barycentric_weights(pis: np.ndarray,
                        resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex indices and weights on the lattice's simplicial subdivision.

    Works in cumulative coordinates, where each lattice cell is a cube
    sliced by the ordering constraints; the vertex chain follows the
    descending fractional parts.  Returns ``(idx, w)`` of shapes (n, X)
    with ``w >= 0`` and unit row sums.
    """
    pis = np.atleast_2d(np.asarray(pis, dtype=float))
    n, X = pis.shape
    M = resolution
    if X == 2:
        return segment_weights(pis[:, 0], M)
    x = _cumulative_coords(pis, M)                       # (n, X-1)
    # x is coordinatewise decreasing, so floor(x) is too
    base = np.minimum(np.floor(x + 1e-12), M - 1).astype(np.int64)
    base = np.maximum(base, 0)
    d = np.clip(x - base, 0.0, 1.0)
    order = np.argsort(-d, axis=1, kind="stable")        # (n, X-1)
    rank = np.argsort(order, axis=1)
    # vertex k adds +1 to the first k coordinates in sorted order
    steps = rank[:, None, :] < np.arange(X)[None, :, None]
    verts = base[:, None, :] + steps                     # (n, X, X-1)
    ds = np.take_along_axis(d, order, axis=1)
    w = np.empty((n, X))
    w[:, 0] = 1.0 - ds[:, 0]
    if X > 2:
        w[:, 1:X - 1] = ds[:, :X - 2] - ds[:, 1:X - 1]
    w[:, X - 1] = ds[:, X - 2]
    w = np.clip(w, 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    comps = _cumulative_to_comps(verts.reshape(-1, X - 1), M)
    idx = lattice_rank(comps, M).reshape(n, X)
    return idx, w


def nearest_lattice_index(pis: np.ndarray, resolution: int) -> np.ndarray:
    """L1-nearest lattice node via largest-remainder apportionment."""
    pis = np.atleast_2d(np.asarray(pis, dtype=float))
    M = resolution
    v = pis * M
    base = np.floor(v).astype(np.int64)
    rem = v - base
    need = M - base.sum(axis=1)
    order = np.argsort(-rem, axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    comps = base + (rank < need[:, None])
    return lattice_rank(comps, M)


def posterior_maps(pis: np.ndarray, P: np.ndarray, B: np.ndarray, interp):
    """Interpolation data ``(idx, w, sigma)`` of the posteriors
    ``T(pi, y, u)`` of the beliefs ``pis``, one triple per observation.

    ``P`` and ``B`` are the kernels of action u and ``interp`` maps an
    (n, X) belief array to lattice ``(idx, w)``.  The triples come one at
    a time; a caller that sweeps many times keeps them in a list.
    """
    pred = pis @ P
    for y in range(B.shape[1]):
        post, sigma = bayes_batch(pred, B[:, y], pis)
        yield (*interp(post), sigma)


def continuation(values: np.ndarray, maps) -> np.ndarray:
    """``sum_y sigma(pi, y, u) V(T(pi, y, u))`` over one action's maps."""
    total = 0.0
    for idx, w, sigma in maps:
        total = total + (values[idx] * w).sum(axis=1) * sigma
        # release this map before a lazy ``maps`` builds the next one
        del idx, w, sigma
    return total


def converge(step, values: np.ndarray, epsilon: float,
             max_iterations: int):
    """Iterate ``values, aux = step(values)`` until successive tables
    differ by at most ``epsilon`` in sup norm; returns the last pair.

    Raises :class:`PreconditionFailed` when ``max_iterations`` sweeps do
    not get there.
    """
    for _ in range(max_iterations):
        new, aux = step(values)
        gap = np.max(np.abs(new - values))
        values = new
        if gap <= epsilon:
            return values, aux
    raise PreconditionFailed(f"grid value iteration did not reach "
                             f"epsilon={epsilon} in {max_iterations} sweeps")


class GridValue:
    """Value table over the simplex lattice with a Bellman sweep engine."""

    def __init__(self, model: PomdpModel, resolution: int,
                 interpolation: str | None = None):
        X = model.num_states
        if interpolation is None:
            interpolation = "linear" if X == 2 else "nearest"
        if X == 2 and interpolation == "nearest":
            interpolation = "linear"
        self.model = model
        self.resolution = resolution
        self.interpolation = interpolation
        self.points = simplex_lattice(X, resolution)
        self.values = np.zeros(len(self.points))
        self._maps = None
        self.policy_table = None

    # -- interpolation ---------------------------------------------------
    def _interp(self, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pis = np.atleast_2d(pis)
        if self.interpolation == "nearest":
            idx = nearest_lattice_index(pis, self.resolution)
            return idx[:, None], np.ones((len(pis), 1))
        # "linear" (X == 2) and "freudenthal" share the barycentric path
        return barycentric_weights(pis, self.resolution)

    def value(self, pi) -> float:
        idx, w = self._interp(np.asarray(pi, dtype=float)[None, :])
        return float((self.values[idx] * w).sum())

    # -- Bellman machinery -------------------------------------------------
    def _posterior_maps(self, pis: np.ndarray) -> list:
        m = self.model
        return [posterior_maps(pis, m.P(u), m.B(u), self._interp)
                for u in range(1, m.num_actions + 1)]

    def _q_values(self, costs: np.ndarray, maps: list,
                  values: np.ndarray) -> np.ndarray:
        rho = self.model.discount
        return np.column_stack([costs[:, u] + rho * continuation(values, mu)
                                for u, mu in enumerate(maps)])

    def _build_maps(self):
        """Posterior maps and stage costs of every grid backup."""
        self._maps = [list(mu) for mu in self._posterior_maps(self.points)]
        self._costs = self.points @ self.model.costs    # (n, U)

    def sweep(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One min-over-actions Bellman backup on the grid."""
        if self._maps is None:
            self._build_maps()
        Q = self._q_values(self._costs, self._maps, values)
        return Q.min(axis=1), Q.argmin(axis=1) + 1

    def iterate(self, epsilon: float | None = None,
                horizon: int | None = None,
                max_iterations: int = 100_000) -> "GridValue":
        """Value iteration to tolerance or fixed horizon."""
        if horizon is not None:
            V = self.points @ self.model.terminal_vector()
            pol = None
            for _ in range(horizon):
                V, pol = self.sweep(V)
        else:
            V, pol = converge(self.sweep, self.values, epsilon,
                              max_iterations)
        self.values = V
        self.policy_table = pol
        return self

    def iterate_policy(self, actions: np.ndarray, epsilon: float,
                       max_iterations: int = 100_000) -> "GridValue":
        """Fixed-policy evaluation sweeps (actions are 1-indexed)."""
        if self._maps is None:
            self._build_maps()
        rho = self.model.discount
        n = len(self.points)
        a0 = actions - 1
        cost = self._costs[np.arange(n), a0]
        sels = [a0 == u for u in range(len(self._maps))]
        parts = [(sel, [(idx[sel], w[sel], sigma[sel])
                        for idx, w, sigma in mu])
                 for sel, mu in zip(sels, self._maps)]

        def step(V):
            cont = np.zeros(n)
            for sel, mu in parts:
                cont[sel] = continuation(V, mu)
            return cost + rho * cont, None

        self.values, _ = converge(step, np.zeros(n), epsilon,
                                  max_iterations)
        self.policy_table = actions
        return self

    # -- policies ----------------------------------------------------------
    def lookahead_actions(self, pis: np.ndarray) -> np.ndarray:
        """Vectorized one-step Bellman actions for many beliefs."""
        pis = np.atleast_2d(pis)
        Q = self._q_values(pis @ self.model.costs,
                           self._posterior_maps(pis), self.values)
        return Q.argmin(axis=1) + 1
