"""Simplex-grid value machinery shared by grid value iteration, the
stopping grid, the reduced-grid bounds and the 2-state social-learning
and retirement-index grids.

Grid nodes are the lattice points ``k / resolution`` (all compositions of
``resolution`` into X parts, in lexicographic order).  Off-grid beliefs
are evaluated by barycentric interpolation on the standard simplicial
subdivision of the lattice (:func:`barycentric_weights`, whose X = 2
case is the linear interpolation of :func:`segment_weights`, which also
serves the 2-state grids over pi(2)).  It is exact for piecewise linear
functions and never overshoots a concave one, so the values of
:class:`GridValue` are lower bounds on the exact value (Lovejoy 1991).

Every grid backup runs on one engine in two parts.
:func:`posterior_maps` builds once, through :func:`filters.bayes_batch`,
the interpolation data of the posteriors ``T(pi, y, u)`` of a belief
batch; :func:`continuation` then gives
``sum_y sigma(pi, y, u) V(T(pi, y, u))`` for any value table, and
:func:`action_min` the minimum over actions.  :func:`converge` iterates
a sweep to a sup-norm tolerance.  Posteriors of zero-likelihood
observations carry ``sigma = 0`` and drop out.

The maps are vertex-major (:func:`vertex_major`): ``idx`` and ``w`` are
(X, n) arrays, one row per vertex of the interpolating simplex.  Below
X = 8 they are contiguous, so a sweep works on whole rows of length n
instead of reducing along a last axis of length X, and it keeps the bits
of the row-major sum ``(V[idx] * w).sum(axis=1)``: numpy (2.4.6) adds a
row of up to 7 entries in order, which is the order in which
:func:`continuation` adds its vertex rows.  A zero sum may differ in sign
only, and the sigma-weighted total, which starts at +0, absorbs that.
numpy adds longer rows pairwise, so from X = 8 on the maps are
transposed views of the row-major arrays and :func:`continuation` takes
numpy's row sum on those as they are.  The cut-off is an internal of
numpy; ``TestVertexMajorSweep::test_continuation_keeps_the_row_major_bits``
guards it and is the test to re-run when numpy changes.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import DimensionMismatch, PreconditionFailed, check_at_least
from .filters import bayes_batch
from .model import PomdpModel

MAX_SWEEPS = 100_000   # sweeps before every grid loop gives up
PAIRWISE_ROW = 8       # numpy 2.4.6 sums a row this long or longer pairwise


def simplex_lattice(dim: int, resolution: int) -> np.ndarray:
    """All beliefs with coordinates k/resolution, in lexicographic order.

    Raises :class:`DimensionMismatch` unless ``resolution >= 1``.
    """
    check_at_least("grid resolution", resolution, 1)
    # one coordinate at a time: each prefix with r units left is followed
    # by its r + 1 choices 0..r of the next coordinate, in order
    cols = []
    left = np.array([resolution])
    for _ in range(dim - 1):
        counts = left + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        k = np.arange(len(starts)) - starts
        cols = [np.repeat(c, counts) for c in cols] + [k]
        left = np.repeat(left, counts) - k
    return np.column_stack(cols + [left]) / resolution


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


def _rank_positions(v: np.ndarray) -> np.ndarray:
    """Flat positions of the rank terms ``T[v_i + r_i - 1, r_i]``,
    ``r_i = X - i`` for ``i = 1..X-1``, in the comb table
    ``T = _comb_table(M + X, X)``, whose entry ``T[a, b]`` is
    ``flat[a * (X + 1) + b]``.

    ``v`` has shape (..., X-1) and holds the integer cumulative
    coordinates ``v_i = k_{i+1} + ... + k_X`` of a composition ``k`` of
    ``M``.  Its lexicographic lattice index is the last one,
    ``comb(M + X - 1, X - 1) - 1``, minus the number of compositions
    that exceed ``k``; by the hockey-stick identity those whose first
    larger coordinate is i number ``comb(v_i + X - i - 1, X - i)``, the
    rank term (see :func:`_rank_from_terms`).

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


def vertex_major(idx: np.ndarray, w: np.ndarray, sigma: np.ndarray):
    """One posterior map ``(idx, w, sigma)`` in the layout that
    :func:`continuation` reads: the (n, X) ``idx`` and ``w`` of an
    interpolation as (X, n) arrays, contiguous copies below X = 8 and
    transposed views from X = 8 on (see the module docstring)."""
    if idx.shape[1] < PAIRWISE_ROW:
        return np.ascontiguousarray(idx.T), np.ascontiguousarray(w.T), sigma
    return idx.T, w.T, sigma


def posterior_maps(pis: np.ndarray, P: np.ndarray, B: np.ndarray, interp):
    """Vertex-major interpolation data ``(idx, w, sigma)`` of the
    posteriors ``T(pi, y, u)`` of the beliefs ``pis``, one triple per
    observation (see :func:`vertex_major`).

    ``P`` and ``B`` are the kernels of action u and ``interp`` maps an
    (n, X) belief array to lattice ``(idx, w)``.  The triples come one at
    a time; a caller that sweeps many times keeps them in a list.
    """
    pred = pis @ P
    for y in range(B.shape[1]):
        post, sigma = bayes_batch(pred, B[:, y], pis)
        yield vertex_major(*interp(post), sigma)


def _interpolate(values: np.ndarray, idx: np.ndarray,
                 w: np.ndarray) -> np.ndarray:
    """``V`` at the posteriors of one vertex-major map, with the bits of
    the row-major sum (see the module docstring)."""
    if len(idx) >= PAIRWISE_ROW:
        return (values[idx.T] * w.T).sum(axis=1)
    p = values.take(idx)
    p *= w
    v = p[0]
    for row in p[1:]:
        v += row
    return v


def continuation(values: np.ndarray, maps) -> np.ndarray:
    """``sum_y sigma(pi, y, u) V(T(pi, y, u))`` over one action's
    vertex-major maps."""
    total = 0.0
    for idx, w, sigma in maps:
        total = total + _interpolate(values, idx, w) * sigma
        # release this map before a lazy ``maps`` builds the next one
        del idx, w, sigma
    return total


def action_min(columns: list) -> tuple[np.ndarray, np.ndarray]:
    """The minimum over per-action value columns and the action (1-based)
    that attains it, the lowest one on a tie, as ``argmin`` picks."""
    best = columns[0]
    act = np.ones(len(best), dtype=np.int64)
    for u, q in enumerate(columns[1:], start=2):
        act[q < best] = u
        best = np.minimum(best, q)
    return best, act


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
    """Value table over the simplex lattice with a Bellman sweep engine.

    The table is read off the lattice by barycentric interpolation, which
    never overshoots a concave value, and the grid Bellman operator is
    monotone; so a fixed-horizon table is a lower bound on the exact value
    at every belief, and one iterated to ``epsilon`` is one up to
    ``epsilon * rho / (1 - rho)``.  ``interpolation`` accepts only
    ``"freudenthal"``, the default, for callers that still name it.
    """

    def __init__(self, model: PomdpModel, resolution: int,
                 interpolation: str = "freudenthal"):
        if interpolation != "freudenthal":
            raise DimensionMismatch(f"interpolation must be 'freudenthal', "
                                    f"got {interpolation!r}")
        self.model = model
        self.resolution = resolution
        self.points = simplex_lattice(model.num_states, resolution)
        self.values = np.zeros(len(self.points))
        self._maps = None
        self.policy_table = None

    def _weights(self, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return barycentric_weights(pis, self.resolution)

    def value(self, pi) -> float:
        idx, w = self._weights(np.asarray(pi, dtype=float)[None, :])
        return float((self.values[idx] * w).sum())

    # -- Bellman machinery -------------------------------------------------
    def _posterior_maps(self, pis: np.ndarray) -> list:
        m = self.model
        return [posterior_maps(pis, m.P(u), m.B(u), self._weights)
                for u in range(1, m.num_actions + 1)]

    def _q_values(self, costs: np.ndarray, maps: list,
                  values: np.ndarray) -> list:
        """The per-action columns of the Bellman backup."""
        rho = self.model.discount
        return [costs[:, u] + rho * continuation(values, mu)
                for u, mu in enumerate(maps)]

    def _build_maps(self):
        """Posterior maps and stage costs of every grid backup."""
        self._maps = [list(mu) for mu in self._posterior_maps(self.points)]
        self._costs = self.points @ self.model.costs    # (n, U)

    def sweep(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One min-over-actions Bellman backup on the grid."""
        if self._maps is None:
            self._build_maps()
        return action_min(self._q_values(self._costs, self._maps, values))

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
        return action_min(self._q_values(pis @ self.model.costs,
                                         self._posterior_maps(pis),
                                         self.values))[1]
