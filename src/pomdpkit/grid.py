"""Simplex-grid value machinery shared by grid value iteration, the
stopping grid, the reduced-grid bounds and the 2-state social-learning
and retirement-index grids.

Grid nodes are the lattice points ``k / resolution`` (all compositions of
``resolution`` into X parts, in lexicographic order).  Off-grid beliefs
are evaluated by linear interpolation for X = 2 (:func:`segment_weights`,
which also serves the 2-state grids over pi(2)), by nearest neighbor for
X >= 3 (the :class:`GridValue` default), or by barycentric interpolation
on the standard simplicial subdivision of the lattice, which is exact for
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

from functools import lru_cache
from math import comb

import numpy as np

from .errors import DimensionMismatch, PreconditionFailed, check_at_least
from .filters import bayes_batch
from .model import PomdpModel

MAX_SWEEPS = 100_000   # sweeps before every grid loop gives up


def simplex_lattice(dim: int, resolution: int) -> np.ndarray:
    """All beliefs with coordinates k/resolution, in lexicographic order.

    Raises :class:`DimensionMismatch` unless ``resolution >= 1``.
    """
    check_at_least("grid resolution", resolution, 1)
    pts = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            pts.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], resolution, dim)
    return np.asarray(pts, dtype=float) / resolution


@lru_cache(maxsize=32)     # a few (resolution, X) pairs per process
def _comb_table(n: int, k: int) -> np.ndarray:
    """``T[i, j] = comb(i, j)`` for ``i <= n``, ``j <= k``, by Pascal's rule
    ``comb(i, j) = sum_{m < i} comb(m, j - 1)``.

    Built once per ``(n, k)`` and shared, so the array is read-only.
    """
    # the largest entry; a cumsum past int64 would wrap without an error
    if comb(n, min(k, n // 2)) > np.iinfo(np.int64).max:
        raise OverflowError(f"comb({n}, j) for j <= {k} exceeds int64")
    T = np.zeros((n + 1, k + 1), dtype=np.int64)
    T[:, 0] = 1
    for j in range(1, k + 1):
        np.cumsum(T[:-1, j - 1], out=T[1:, j])
    T.flags.writeable = False
    return T


def lattice_rank(comps: np.ndarray, resolution: int) -> np.ndarray:
    """Lexicographic row index of integer compositions, vectorized.

    ``comps`` has shape (..., X) with rows summing to ``resolution``; the
    index is :func:`_cumulative_rank` of their cumulative coordinates.
    """
    comps = np.asarray(comps, dtype=np.int64)
    return _cumulative_rank(
        resolution - np.cumsum(comps[..., :-1], axis=-1), resolution)


def _cumulative_rank(v: np.ndarray, M: int) -> np.ndarray:
    """Lexicographic lattice index from integer cumulative coordinates.

    ``v`` has shape (..., X-1) and holds ``v_i = k_{i+1} + ... + k_X``,
    ``i = 1..X-1``, of a composition ``k`` of ``M``.  The index is the
    last one, ``comb(M + X - 1, X - 1) - 1``, minus the number of
    compositions that exceed ``k``; by the hockey-stick identity those
    whose first larger coordinate is i number
    ``comb(v_i + X - i - 1, X - i)``.
    """
    X = v.shape[-1] + 1
    flat = _comb_table(M + X, X).ravel()
    return _rank_from_terms(flat[_rank_positions(v)], M)


def _rank_positions(v: np.ndarray) -> np.ndarray:
    """Flat positions of the rank terms ``T[v_i + r_i - 1, r_i]``,
    ``r_i = X - i`` for ``i = 1..X-1`` as in :func:`_cumulative_rank`, in
    the comb table ``T = _comb_table(M + X, X)``, whose entry ``T[a, b]``
    is ``flat[a * (X + 1) + b]``.

    The entry just before each, ``T[v_i + r_i - 1, r_i - 1]``, is by
    Pascal's rule the drop in the rank term when ``v_i`` grows by one.
    """
    X = v.shape[-1] + 1
    pos = v * (X + 1)
    for i in range(X - 1):
        r = X - 1 - i
        pos[..., i] += (r - 1) * (X + 1) + r
    return pos


def _rank_from_terms(terms: np.ndarray, M: int) -> np.ndarray:
    """The rank ``comb(M + X - 1, X - 1) - 1 - sum_i terms_i`` from the
    (..., X-1) rank terms read at :func:`_rank_positions`."""
    X = terms.shape[-1] + 1
    idx = comb(M + X - 1, X - 1) - 1
    # one coordinate at a time is faster than a reduction over the short
    # last axis
    for i in range(X - 1):
        idx = idx - terms[..., i]
    return idx


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

    Works in cumulative coordinates ``x``, where each lattice cell is a
    unit cube at ``base = floor(x)`` sliced by the ordering constraints.
    The vertex chain starts at ``base`` and takes a unit step in each
    coordinate in turn, in stable descending order of the fractional
    parts ``d = x - base``; vertex ``k`` weighs ``d_(k) - d_(k+1)``,
    with ``d_(0) = 1`` and ``d_(X) = 0``.
    One gather from the flat comb table reads, per coordinate, both the
    base's rank term and the rank drop of that coordinate's step (see
    :func:`_rank_positions`); one flat permutation puts the steps and
    the fractional parts in chain order.  Returns ``(idx, w)`` of shapes
    (n, X) with ``w >= 0`` and unit row sums.
    """
    pis = np.atleast_2d(np.asarray(pis, dtype=float))
    n, X = pis.shape
    M = resolution
    if X == 2:
        return segment_weights(pis[:, 0], M)
    # cumulative coordinates x_i = M (pi_{i+1} + ... + pi_X), summed from
    # the end; the short rows are worked one column at a time throughout,
    # which is faster than a reduction or broadcast along them
    x = np.empty((n, X - 1))
    x[:, X - 2] = pis[:, X - 1]
    for i in range(X - 3, -1, -1):
        np.add(x[:, i + 1], pis[:, i + 1], out=x[:, i])
    x *= M
    np.clip(x, 0.0, M, out=x)
    # x is coordinatewise decreasing, so floor(x) is too
    base = np.minimum(np.floor(x + 1e-12), M - 1).astype(np.int64)
    np.maximum(base, 0, out=base)
    d = np.clip(x - base, 0.0, 1.0)
    del x
    flat = _comb_table(M + X, X).ravel()
    pos = _rank_positions(base)
    del base
    idx = np.empty((n, X), dtype=np.int64)
    idx[:, 0] = _rank_from_terms(flat[pos], M)
    steps = flat[pos - 1]                 # rank drop of each unit step
    del pos
    # the chain order as flat positions in the row-major (n, X-1) arrays
    perm = np.argsort(-d, axis=1, kind="stable")
    rows = np.arange(0, n * (X - 1), X - 1)
    for k in range(X - 1):
        perm[:, k] += rows
    steps = steps.ravel()[perm]
    for k in range(X - 1):
        np.subtract(idx[:, k], steps[:, k], out=idx[:, k + 1])
    del steps
    ds = d.ravel()[perm]
    del d, perm
    w = np.empty((n, X))
    w[:, 0] = 1.0 - ds[:, 0]
    w[:, 1:X - 1] = ds[:, :X - 2] - ds[:, 1:]
    w[:, X - 1] = ds[:, X - 2]
    np.clip(w, 0.0, None, out=w)
    w /= w.sum(axis=1, keepdims=True)
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


def converge(step, values: np.ndarray, epsilon: float):
    """Iterate ``values, aux = step(values)`` until successive tables
    differ by at most ``epsilon`` in sup norm; returns the last pair.

    Raises :class:`DimensionMismatch` unless ``epsilon > 0``, and
    :class:`PreconditionFailed` when ``MAX_SWEEPS`` sweeps do not get
    there.
    """
    if not epsilon > 0:
        raise DimensionMismatch(f"epsilon must be positive, got {epsilon}")
    for _ in range(MAX_SWEEPS):
        new, aux = step(values)
        gap = np.max(np.abs(new - values))
        values = new
        if gap <= epsilon:
            return values, aux
    raise PreconditionFailed(f"grid value iteration did not reach "
                             f"epsilon={epsilon} in {MAX_SWEEPS} sweeps")


class GridValue:
    """Value table over the simplex lattice with a Bellman sweep engine;
    ``interpolation`` defaults to linear at X = 2, nearest node at X >= 3."""

    def __init__(self, model: PomdpModel, resolution: int,
                 interpolation: str | None = None):
        X = model.num_states
        if interpolation is None:
            interpolation = "freudenthal" if X == 2 else "nearest"
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
                horizon: int | None = None) -> "GridValue":
        """Value iteration to tolerance or fixed horizon, with the greedy
        lattice policy attached (``None`` at horizon 0).  Exactly one of
        ``epsilon`` and ``horizon >= 0`` must be given."""
        if (horizon is None) == (epsilon is None):
            raise DimensionMismatch("give exactly one of horizon / epsilon")
        if horizon is not None:
            check_at_least("horizon", horizon, 0)
            V = self.points @ self.model.terminal_vector()
            pol = None
            for _ in range(horizon):
                V, pol = self.sweep(V)
        else:
            V, pol = converge(self.sweep, self.values, epsilon)
        self.values = V
        self.policy_table = pol
        return self

    # -- policies ----------------------------------------------------------
    def lookahead_actions(self, pis: np.ndarray) -> np.ndarray:
        """Vectorized one-step Bellman actions for many beliefs."""
        pis = np.atleast_2d(pis)
        Q = self._q_values(pis @ self.model.costs,
                           self._posterior_maps(pis), self.values)
        return Q.argmin(axis=1) + 1
