"""Core data model: belief vectors, stochastic matrices, POMDP/MDP models.

Conventions used across the package:

* states, actions and observations are 1-indexed in every public
  interface; internal numpy arrays are 0-indexed,
* all arrays are validated and frozen (read-only) at construction, so
  model objects are safe to share across threads,
* row sums that deviate from one by at most ``ROW_TOL`` are silently
  renormalized; larger deviations raise :class:`NonStochasticRow`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEntry,
    NonIncreasingLevels,
    NonStochasticRow,
)

ROW_TOL = 1e-9
BELIEF_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


def belief(probs) -> np.ndarray:
    """Validate and return a belief vector (point on the unit simplex)."""
    pi = np.asarray(probs, dtype=float)
    if pi.ndim != 1 or pi.size < 2:
        raise DimensionMismatch(f"belief must be a vector of length >= 2, "
                                f"got shape {pi.shape}")
    if (pi < -1e-15).any() or (pi > 1 + 1e-12).any():
        raise NegativeEntry(f"belief entries outside [0,1]: {pi}")
    total = pi.sum()
    if not abs(total - 1.0) <= BELIEF_TOL:   # NaN fails too
        raise NonStochasticRow(0, 0, float(total))
    return _frozen(np.clip(pi, 0.0, None) / total)


def stochastic_matrix(rows, action: int = 1) -> np.ndarray:
    """Validate a row-stochastic matrix, renormalizing within ``ROW_TOL``."""
    M = np.asarray(rows, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {M.shape}")
    if (M < -1e-12).any() or (M > 1 + ROW_TOL).any():
        raise NegativeEntry("matrix entries outside [0,1]")
    sums = M.sum(axis=1)
    for i, s in enumerate(sums):
        if abs(s - 1.0) > ROW_TOL:
            raise NonStochasticRow(action, i + 1, float(s))
    return _frozen(np.clip(M, 0.0, None) / sums[:, None])


@dataclass(frozen=True)
class PomdpModel:
    """A finite POMDP ``(X, U, Y, P(u), B(u), c(x,u), rho[, N, c_N])``.

    ``transitions`` has shape (U, X, X), ``observations`` (U, X, Y) and
    ``costs`` (X, U).  ``discount`` may equal 1 only for stopping-time
    style models that declare an absorbing cost-free state or carry a
    finite horizon.
    """

    transitions: np.ndarray
    observations: np.ndarray
    costs: np.ndarray
    discount: float
    horizon: int | None = None
    terminal_cost: np.ndarray | None = None
    allow_undiscounted: bool = False

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        B = np.asarray(self.observations, dtype=float)
        c = np.asarray(self.costs, dtype=float)
        if P.ndim != 3 or P.shape[1] != P.shape[2]:
            raise DimensionMismatch(f"transitions must be (U, X, X), got "
                                    f"{P.shape}")
        U, X, _ = P.shape
        if B.ndim != 3 or B.shape[0] != U or B.shape[1] != X:
            raise DimensionMismatch(f"observations must be (U, X, Y), got "
                                    f"{B.shape}")
        if c.shape != (X, U):
            raise DimensionMismatch(f"costs must be (X, U) = ({X}, {U}), "
                                    f"got {c.shape}")
        if not np.isfinite(c).all():
            raise NegativeEntry("costs must be finite")
        if X < 2:
            raise DimensionMismatch("at least two states required")
        P = P.copy()
        B = B.copy()
        for u in range(U):
            P[u] = stochastic_matrix(P[u], action=u + 1)
            B[u] = stochastic_matrix(B[u], action=u + 1)
        if not 0.0 <= self.discount <= 1.0:
            raise InvalidDiscount(self.discount)
        if (self.discount >= 1.0 and self.horizon is None
                and not self.allow_undiscounted):
            raise InvalidDiscount(self.discount)
        tc = self.terminal_cost
        if tc is not None:
            tc = np.asarray(tc, dtype=float)
            if tc.shape != (X,):
                raise DimensionMismatch("terminal cost must have length X")
            if not np.isfinite(tc).all():
                raise NegativeEntry("terminal cost must be finite")
        h = self.horizon
        if h is not None and (isinstance(h, bool) or not isinstance(h, int)
                              or h < 1):
            raise DimensionMismatch(f"horizon must be a positive integer, "
                                    f"got {h!r}")
        object.__setattr__(self, "transitions", _frozen(P))
        object.__setattr__(self, "observations", _frozen(B))
        object.__setattr__(self, "costs", _frozen(c))
        if tc is not None:
            object.__setattr__(self, "terminal_cost", _frozen(tc))

    @property
    def num_states(self) -> int:
        return self.transitions.shape[1]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_obs(self) -> int:
        return self.observations.shape[2]

    def P(self, u: int) -> np.ndarray:
        """Transition matrix for 1-indexed action ``u``."""
        return self.transitions[u - 1]

    def B(self, u: int) -> np.ndarray:
        """Observation matrix for 1-indexed action ``u``."""
        return self.observations[u - 1]

    def cost_vector(self, u: int) -> np.ndarray:
        """Cost vector c(., u) for 1-indexed action ``u``."""
        return self.costs[:, u - 1]

    def terminal_vector(self) -> np.ndarray:
        if self.terminal_cost is not None:
            return self.terminal_cost
        return np.zeros(self.num_states)


class InvalidDiscount(DimensionMismatch):
    def __init__(self, rho: float):
        super().__init__(
            f"discount {rho} requires rho < 1, a finite horizon, or an "
            f"explicitly declared stopping-time model"
        )


def validate_model(raw) -> PomdpModel:
    """Build a :class:`PomdpModel` from the JSON wire schema
    ``{"X":..,"U":..,"Y":..,"P":..,"B":..,"c":..,"rho":..,"horizon":?,
    "terminal":?}``.

    Input that is not such a mapping (a missing key, or a value of the
    wrong type or shape) raises :class:`DimensionMismatch`.
    """
    if isinstance(raw, PomdpModel):
        return raw
    if not isinstance(raw, dict):
        raise DimensionMismatch(f"a model is a JSON object, not "
                                f"{type(raw).__name__}")
    try:
        P = np.asarray(raw["P"], dtype=float)
        B = np.asarray(raw["B"], dtype=float)
        c = np.asarray(raw["c"], dtype=float)
        declared = (raw.get("X"), raw.get("U"), raw.get("Y"))
        if declared[0] is not None:
            X, U, Y = (int(v) for v in declared)
            if P.shape != (U, X, X) or B.shape != (U, X, Y) \
                    or c.shape != (X, U):
                raise DimensionMismatch(
                    f"arrays {P.shape}/{B.shape}/{c.shape} do not match "
                    f"declared X={X}, U={U}, Y={Y}"
                )
        return PomdpModel(
            transitions=P,
            observations=B,
            costs=c,
            discount=float(raw["rho"]),
            horizon=raw.get("horizon"),
            terminal_cost=raw.get("terminal"),
        )
    except KeyError as exc:
        raise DimensionMismatch(f"model lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed model: {exc}") from None


def model_to_json(model: PomdpModel) -> str:
    """Serialize to the wire schema; floats round-trip bit exactly."""
    doc = {
        "X": model.num_states,
        "U": model.num_actions,
        "Y": model.num_obs,
        "P": model.transitions.tolist(),
        "B": model.observations.tolist(),
        "c": model.costs.tolist(),
        "rho": model.discount,
    }
    if model.horizon is not None:
        doc["horizon"] = model.horizon
    if model.terminal_cost is not None:
        doc["terminal"] = model.terminal_cost.tolist()
    return json.dumps(doc)


def model_from_json(text: str) -> PomdpModel:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise DimensionMismatch(f"model is not JSON: {exc}") from None
    return validate_model(raw)


def reduce_general_cost(cost_tensor, model: PomdpModel) -> np.ndarray:
    """Reduce a cost on (state, next state, obs, next obs, action) tuples.

    Returns the (X, U) matrix
    ``c(i,u) = sum_{y,ybar,j} cbar(i,j,y,ybar,u) P_ij(u) B_jybar(u) B_iy(u)``.
    """
    cbar = np.asarray(cost_tensor, dtype=float)
    X, U, Y = model.num_states, model.num_actions, model.num_obs
    if cbar.shape != (X, X, Y, Y, U):
        raise DimensionMismatch(
            f"cost tensor must have shape (X, X, Y, Y, U) = "
            f"({X}, {X}, {Y}, {Y}, {U}), got {cbar.shape}"
        )
    out = np.zeros((X, U))
    for u in range(U):
        P = model.transitions[u]
        B = model.observations[u]
        out[:, u] = np.einsum("ijyz,ij,iy,jz->i", cbar[:, :, :, :, u],
                              P, B, B)
    return out


def quantized_gaussian_observation(levels, variance: float,
                                   num_obs: int) -> np.ndarray:
    """Observation matrix from Gaussian noise quantized to 1..Y.

    ``B[i, y] ∝ exp(-(y+1 - levels[i])^2 / (2 variance))`` with rows
    normalized; the result is always TP2 for strictly increasing levels.
    """
    g = np.asarray(levels, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise DimensionMismatch("levels must be a vector of length >= 2")
    if (np.diff(g) <= 0).any():
        raise NonIncreasingLevels(f"levels must be strictly increasing: {g}")
    if variance <= 0:
        raise NonIncreasingLevels(f"variance must be positive: {variance}")
    if num_obs < 2:
        raise DimensionMismatch("need at least two observation symbols")
    y = np.arange(1, num_obs + 1, dtype=float)
    z = -0.5 * (y[None, :] - g[:, None]) ** 2 / variance
    z -= z.max(axis=1, keepdims=True)
    raw = np.exp(z)
    return _frozen(raw / raw.sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class QuadraticCost:
    """Belief cost ``C(pi) = lin @ pi - alpha * (h @ pi)**2``."""

    lin: np.ndarray
    h: np.ndarray
    alpha: float

    def __post_init__(self):
        lin = np.asarray(self.lin, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if lin.shape != h.shape or lin.ndim != 1:
            raise DimensionMismatch("lin and h must be equal-length vectors")
        if not np.isfinite(lin).all() or not np.isfinite(h).all() \
                or not np.isfinite(self.alpha):
            raise NegativeEntry("quadratic cost coefficients must be finite")
        object.__setattr__(self, "lin", _frozen(lin))
        object.__setattr__(self, "h", _frozen(h))

    def __call__(self, pi: np.ndarray) -> float:
        return float(self.batch(np.asarray(pi, dtype=float)[None])[0])

    def batch(self, pis: np.ndarray) -> np.ndarray:
        """``C`` at each row of ``pis``; a linear cost (``alpha == 0``)
        skips the quadratic term."""
        if self.alpha == 0:
            return pis @ self.lin
        return pis @ self.lin - self.alpha * (pis @ self.h) ** 2


@dataclass(frozen=True)
class StoppingModel:
    """Two-action model with ``u=1`` stop (terminal) and ``u=2`` continue.

    ``stop_cost`` and ``continue_cost`` are belief costs, given as an
    X-vector or a :class:`QuadraticCost` and stored as the latter (a
    vector ``c`` as ``QuadraticCost(c, 0, 0)``); ``P``/``B`` drive the
    continue dynamics.  The undiscounted case ``rho = 1`` is admitted
    because stopping embeds an absorbing cost-free state.
    """

    P: np.ndarray
    B: np.ndarray
    stop_cost: QuadraticCost
    continue_cost: QuadraticCost
    discount: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "P", stochastic_matrix(self.P, action=2))
        object.__setattr__(self, "B", stochastic_matrix(self.B, action=2))
        for name in ("stop_cost", "continue_cost"):
            cost = getattr(self, name)
            if not isinstance(cost, QuadraticCost):
                cost = QuadraticCost(cost, np.zeros(np.shape(cost)), 0.0)
            if cost.lin.shape != (self.num_states,):
                raise DimensionMismatch(f"{name} has wrong length")
            object.__setattr__(self, name, cost)
        if not 0.0 <= self.discount <= 1.0:
            raise InvalidDiscount(self.discount)

    @property
    def num_states(self) -> int:
        return np.asarray(self.P).shape[0]

    @property
    def num_obs(self) -> int:
        return np.asarray(self.B).shape[1]
