"""Model construction, validation, serialization and cost reductions."""

import numpy as np
import pytest

from helpers import P_TP2_3
from pomdpkit.errors import (
    DimensionMismatch,
    NegativeEntry,
    NonIncreasingLevels,
    NonStochasticRow,
)
from pomdpkit.model import (
    PomdpModel,
    QuadraticCost,
    StoppingModel,
    belief,
    model_from_json,
    model_to_json,
    quantized_gaussian_observation,
    reduce_general_cost,
    validate_model,
)
from pomdpkit.orders import is_tp2
from pomdpkit.rng import make_rng


def machine_replacement_raw():
    """The two-state replacement model with its printed matrices."""
    P1 = [[0.0, 1.0], [0.0, 1.0]]
    P2 = [[1.0, 0.0], [0.3, 0.7]]
    B = [[0.9, 0.1], [0.2, 0.8]]
    return {
        "X": 2, "U": 2, "Y": 2,
        "P": [P1, P2],
        "B": [B, B],
        "c": [[0.5, 1.0], [0.5, 0.0]],
        "rho": 0.9,
    }


class TestValidateModel:
    def test_replacement_model_accepted(self):
        m = validate_model(machine_replacement_raw())
        assert m.num_states == 2 and m.num_actions == 2 and m.num_obs == 2
        assert np.allclose(m.P(2), [[1.0, 0.0], [0.3, 0.7]])

    def test_non_stochastic_row_rejected(self):
        raw = machine_replacement_raw()
        raw["P"][0][0] = [0.5, 0.3]  # sums to 0.8
        with pytest.raises(NonStochasticRow) as err:
            validate_model(raw)
        assert err.value.total == pytest.approx(0.8)

    def test_tiny_row_error_renormalized(self):
        raw = machine_replacement_raw()
        raw["P"][0][0] = [0.0, 1.0 + 5e-10]
        m = validate_model(raw)
        assert m.P(1)[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_valid_model(self):
        m = validate_model({
            "X": 2, "U": 1, "Y": 2,
            "P": [np.eye(2).tolist()],
            "B": [[[0.5, 0.5], [0.5, 0.5]]],
            "c": [[0.0], [0.0]],
            "rho": 0.5,
        })
        assert np.allclose(m.costs, 0.0)

    def test_dimension_mismatch(self):
        raw = machine_replacement_raw()
        raw["X"] = 3
        with pytest.raises(DimensionMismatch):
            validate_model(raw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_costs_rejected(self, bad):
        m = validate_model(machine_replacement_raw())
        costs = np.array(m.costs)
        costs[1, 0] = bad
        with pytest.raises(NegativeEntry):
            PomdpModel(m.transitions, m.observations, costs, 0.9)
        with pytest.raises(NegativeEntry):
            PomdpModel(m.transitions, m.observations, m.costs, 1.0,
                       horizon=3, terminal_cost=[0.0, bad])

    def test_undiscounted_requires_declaration(self):
        raw = machine_replacement_raw()
        raw["rho"] = 1.0
        with pytest.raises(DimensionMismatch):
            validate_model(raw)
        PomdpModel(raw["P"], raw["B"], raw["c"], 1.0,
                   allow_undiscounted=True)
        raw["horizon"] = 4
        validate_model(raw)

    def test_model_arrays_frozen(self):
        m = validate_model(machine_replacement_raw())
        with pytest.raises(ValueError):
            m.costs[0, 0] = 5.0


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = make_rng(3)
        raw = machine_replacement_raw()
        raw["P"][1][1] = [rng.random(), 0.0]
        raw["P"][1][1][1] = 1.0 - raw["P"][1][1][0]
        m = validate_model(raw)
        m2 = model_from_json(model_to_json(m))
        assert (np.asarray(m.transitions) == np.asarray(m2.transitions)).all()
        assert (np.asarray(m.observations)
                == np.asarray(m2.observations)).all()
        assert (np.asarray(m.costs) == np.asarray(m2.costs)).all()
        assert m.discount == m2.discount
        assert model_to_json(m) == model_to_json(m2)


class TestBelief:
    def test_valid(self):
        pi = belief([0.25, 0.75])
        assert pi.sum() == pytest.approx(1.0)

    def test_bad_sum(self):
        with pytest.raises(NonStochasticRow):
            belief([0.3, 0.3])


class TestReduceGeneralCost:
    def test_constant_tensor_reduces_to_constant(self):
        m = validate_model(machine_replacement_raw())
        cbar = np.full((2, 2, 2, 2, 2), 3.25)
        out = reduce_general_cost(cbar, m)
        assert np.allclose(out, 3.25)

    def test_state_action_only_tensor(self):
        m = validate_model(machine_replacement_raw())
        g = np.array([[1.0, 2.0], [3.0, 4.0]])  # g(i, u)
        cbar = np.broadcast_to(g[:, None, None, None, :],
                               (2, 2, 2, 2, 2)).copy()
        assert np.allclose(reduce_general_cost(cbar, m), g)

    def test_matches_brute_force(self):
        rng = make_rng(11)
        m = validate_model(machine_replacement_raw())
        cbar = rng.uniform(size=(2, 2, 2, 2, 2))
        out = reduce_general_cost(cbar, m)
        expect = np.zeros((2, 2))
        for u in range(2):
            P = m.P(u + 1)
            B = m.B(u + 1)
            for i in range(2):
                acc = 0.0
                for j in range(2):
                    for y in range(2):
                        for yb in range(2):
                            acc += (cbar[i, j, y, yb, u] * P[i, j]
                                    * B[j, yb] * B[i, y])
                expect[i, u] = acc
        assert np.allclose(out, expect, atol=1e-12)

    def test_dimension_check(self):
        m = validate_model(machine_replacement_raw())
        with pytest.raises(DimensionMismatch):
            reduce_general_cost(np.zeros((2, 2, 2, 2, 3)), m)


class TestQuantizedGaussian:
    def test_two_state_kernel_by_hand(self):
        B = quantized_gaussian_observation([1.0, 2.0], 1.0, 2)
        raw = np.exp(-0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        expect = raw / raw.sum(axis=1, keepdims=True)
        assert np.allclose(B, expect, atol=1e-12)
        assert B[0, 0] > B[0, 1]  # diagonal dominant

    def test_large_variance_approaches_uniform(self):
        B = quantized_gaussian_observation([1.0, 2.0], 1e8, 4)
        assert np.allclose(B, 0.25, atol=1e-6)

    def test_always_tp2(self):
        rng = make_rng(5)
        for _ in range(50):
            X = int(rng.integers(2, 6))
            Y = int(rng.integers(2, 7))
            levels = np.cumsum(0.2 + rng.uniform(0, 1.5, X))
            B = quantized_gaussian_observation(
                levels, rng.uniform(0.2, 4.0), Y)
            assert is_tp2(B)

    def test_levels_must_increase(self):
        with pytest.raises(NonIncreasingLevels):
            quantized_gaussian_observation([2.0, 1.0], 1.0, 2)


class TestStoppingModel:
    def test_quadratic_cost_evaluation(self):
        q = QuadraticCost(lin=np.array([1.0, 0.0]),
                          h=np.array([1.0, 0.0]), alpha=2.0)
        pi = np.array([0.5, 0.5])
        assert q(pi) == pytest.approx(0.5 - 2.0 * 0.25)

    def test_stopping_model_costs(self):
        sm = StoppingModel(
            P=P_TP2_3, B=P_TP2_3,
            stop_cost=np.array([0.0, 1.0, 1.0]),
            continue_cost=np.array([1.0, 0.0, 0.0]),
            discount=1.0,
        )
        pi = np.array([0.2, 0.2, 0.6])
        assert sm.stop_cost(pi) == pytest.approx(0.8)
        assert sm.continue_cost(pi) == pytest.approx(0.2)

    def test_vector_costs_are_stored_as_linear_quadratic_costs(self):
        sm = StoppingModel(P=P_TP2_3, B=P_TP2_3,
                           stop_cost=[0.0, 1.0, 1.0],
                           continue_cost=np.array([1.0, 0.0, 0.0]))
        assert isinstance(sm.continue_cost, QuadraticCost)
        assert sm.stop_cost.alpha == 0.0
        assert np.array_equal(sm.stop_cost.lin, [0.0, 1.0, 1.0])
        assert np.array_equal(sm.stop_cost.h, np.zeros(3))

    @pytest.mark.parametrize("cost", [
        QuadraticCost(lin=np.ones(2), h=np.ones(2), alpha=1.0),
        np.ones(4),
    ], ids=["quadratic", "vector"])
    def test_belief_cost_of_wrong_length_rejected(self, cost):
        with pytest.raises(DimensionMismatch, match="wrong length"):
            StoppingModel(P=P_TP2_3, B=P_TP2_3, stop_cost=np.zeros(3),
                          continue_cost=cost)

    def test_non_finite_belief_cost_rejected(self):
        with pytest.raises(NegativeEntry):
            StoppingModel(P=P_TP2_3, B=P_TP2_3,
                          stop_cost=np.array([0.0, np.inf, 1.0]),
                          continue_cost=np.zeros(3))

    def test_linear_batch_skips_the_quadratic_term(self):
        # a large level vector overflows (h' pi)^2 to inf, and 0 * inf is
        # nan: the quadratic term must be skipped, not multiplied by zero
        lin = np.array([0.3, -1.7, 2.5])
        q = QuadraticCost(lin=lin, h=np.full(3, 1e200), alpha=0.0)
        pis = make_rng(3).dirichlet(np.ones(3), size=50)
        assert np.array_equal(q.batch(pis), pis @ lin)
