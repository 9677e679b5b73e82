"""The three workloads: their inputs, operations and output checks.

Every operation calls pomdpkit through a module attribute at call time
(``solver.solve_finite_horizon``, not a name imported once), so the
traced run's rebinding reaches it.  An operation returns the raw result;
its ``output`` turns that into plain arrays, outside the timed interval,
for the determinism digest and the checks.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from pomdpkit import (apps, bounds, cli, filters, grid, model, myopic,
                      presets, solver, stopgrid, threshold)

import checks

RHOS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    output: Callable[[Any], Any] = lambda result: result


@dataclass
class Workload:
    ops: list
    # op name -> problems, from the first round's outputs
    check: Callable[[dict], dict]


def _stages(result):
    return [(vs.vectors, vs.actions, vs.stage) for vs in result.stage_sets]


def _beliefs(rng, n, dim):
    return np.vstack([rng.dirichlet(np.ones(dim), n), np.eye(dim)])


# -- exact-solve -----------------------------------------------------------

CHECK_BELIEFS = 64
SEARCH_HORIZON = 8       # horizon 10 breaks the LP kernel, see CHANGES.md
SAMPLING_HORIZON = 7
REPLACEMENT_HORIZON = 10
REPLACEMENT_EPSILON = 1e-6
SAMPLING_EPSILON = 0.05


def exact_solve(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    search = cli.load_model("search")
    sampling = cli.load_model("sampling")
    replacement = cli.load_model("machine-replacement")
    replacement_h = apps.build_machine_replacement(
        0.3, 0.9, 0.8, 0.5, [1.0, 0.0], rho=1.0,
        horizon=REPLACEMENT_HORIZON)
    pis = {name: _beliefs(rng, CHECK_BELIEFS, m.num_states)
           for name, m in (("search", search), ("sampling", sampling),
                           ("replacement", replacement))}

    def vi_output(result):
        return _stages(result) + [result.error_bound]

    ops = [
        Op("search-h8", lambda: solver.solve_finite_horizon(
            search, SEARCH_HORIZON), _stages),
        Op("sampling-h7", lambda: solver.solve_finite_horizon(
            sampling, SAMPLING_HORIZON), _stages),
        Op("replacement-ip-h10", lambda: solver.solve_finite_horizon(
            replacement_h, REPLACEMENT_HORIZON, method="ip"), _stages),
        Op("replacement-monahan-h10", lambda: solver.solve_finite_horizon(
            replacement_h, REPLACEMENT_HORIZON, method="monahan"), _stages),
        Op("replacement-vi", lambda: solver.value_iteration_discounted(
            replacement, REPLACEMENT_EPSILON), vi_output),
        Op("sampling-vi", lambda: solver.value_iteration_discounted(
            sampling, SAMPLING_EPSILON), vi_output),
    ]

    def check(out):
        problems = {}
        for op, m, key in (("search-h8", search, "search"),
                           ("sampling-h7", sampling, "sampling"),
                           ("replacement-ip-h10", replacement_h,
                            "replacement"),
                           ("replacement-monahan-h10", replacement_h,
                            "replacement")):
            problems[op] = (checks.bellman_identity(m, out[op], pis[key])
                            + checks.witnesses(out[op]))
        problems["replacement-monahan-h10"] += checks.same_values(
            out["replacement-ip-h10"], out["replacement-monahan-h10"],
            pis["replacement"])
        for op, m, key, eps in (
                ("replacement-vi", replacement, "replacement",
                 REPLACEMENT_EPSILON),
                ("sampling-vi", sampling, "sampling", SAMPLING_EPSILON)):
            final = out[op][-2]
            problems[op] = (checks.bellman_residual(
                m, final[0], pis[key], m.discount * eps)
                + checks.witnesses([final]))
        return problems

    return Workload(ops, check)


# -- myopic-tables ---------------------------------------------------------

TABLE_D_BELIEFS = 30     # per discount
ORACLE_BELIEFS = 12      # per discount, drawn from the table-(d) beliefs


def myopic_tables(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    models = {rho: presets.example3(rho) for rho in RHOS}
    pis = {rho: rng.dirichlet(np.ones(8), TABLE_D_BELIEFS) for rho in RHOS}
    oracle = {rho: np.sort(rng.choice(TABLE_D_BELIEFS, ORACLE_BELIEFS,
                                      replace=False)) for rho in RHOS}
    argv = ["myopic", "--table1a", "--loss", "--samples", "1000000",
            "--paths", "1000", "--horizon", "100", "--seed", str(seed)]

    def table1a():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(argv)
        return code, text.getvalue()

    def table_d(rho):
        return lambda: myopic.PerBeliefBounds(models[rho]).overlap_indicator(
            pis[rho])

    ops = [Op("cli-table1a", table1a)]
    ops += [Op(f"table-d-rho{rho}", table_d(rho)) for rho in RHOS]

    def check(out):
        code, text = out["cli-table1a"]
        problems = {"cli-table1a": ([f"exit code {code}"] if code
                                    else checks.table_a(text))}
        for rho in RHOS:
            mask = out[f"table-d-rho{rho}"]
            pair = myopic.lp_feasibility_C1_C2(models[rho])
            sub = oracle[rho]
            problems[f"table-d-rho{rho}"] = (
                checks.pair_inside(pair.C_upper, pair.C_lower, pis[rho], mask)
                + checks.per_belief_oracle(models[rho], pis[rho][sub],
                                           mask[sub]))
        return problems

    return Workload(ops, check)


# -- grid-filter -----------------------------------------------------------

EXAMPLE1_RESOLUTION = 250
EXAMPLE1_EPSILON = 1e-8
SAMPLING_RESOLUTION = 150
EDGE_POINTS = 801
CLASSICAL_RESOLUTION = 1000
PH_RESOLUTION = 140
SPSA_ITERATIONS = 400
SPSA_RESTARTS = 5
EVAL_PATHS = 50_000
SANDWICH_STEPS = 10_000
TRAJECTORY_STEPS = 10_000


def _sandwich_inputs(rng, dim=8):
    """A TP2 chain and kernel as in the filter-sandwich criterion, and an
    observation path sampled from them."""
    def kernel():
        levels = np.cumsum(0.3 + rng.uniform(0, 1.0, dim))
        return np.asarray(model.quantized_gaussian_observation(
            levels, rng.uniform(0.5, 3.0), dim))
    P, B = kernel(), kernel()
    lower, upper = bounds.rank1_bounds(P)
    Pc, Bc = np.cumsum(P, axis=1), np.cumsum(B, axis=1)
    u = rng.random((SANDWICH_STEPS, 2))
    x = int(rng.integers(dim))
    ys = np.empty(SANDWICH_STEPS, dtype=int)
    for k in range(SANDWICH_STEPS):
        x = min(int(np.searchsorted(Pc[x], u[k, 0], side="right")), dim - 1)
        ys[k] = min(int(np.searchsorted(Bc[x], u[k, 1], side="right")),
                    dim - 1) + 1
    return P, B, lower, upper, ys


def grid_filter(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    example1 = presets.example1(0.4)
    sampling = cli.load_model("sampling")
    classical = cli.load_model("qd-classical")
    ph = cli.load_model("qd-ph")
    ts = np.linspace(0.0, 1.0, EDGE_POINTS)
    edge = np.column_stack([1 - ts, ts, np.zeros_like(ts)])
    P, B, P_lower, P_upper, ys = _sandwich_inputs(rng)
    pi0 = np.full(P.shape[0], 1.0 / P.shape[0])
    costs = np.asarray(example1.costs)
    eval_seed = seed + 1000

    def greedy(pi):
        return int(np.argmin(pi @ costs)) + 1

    state = {}

    def example1_grid():
        g = grid.GridValue(example1, EXAMPLE1_RESOLUTION,
                           interpolation="freudenthal")
        return g.iterate(epsilon=EXAMPLE1_EPSILON)

    def sampling_edge():
        g = grid.GridValue(sampling, SAMPLING_RESOLUTION,
                           interpolation="freudenthal")
        g.iterate(epsilon=1e-10)
        return g.lookahead_actions(edge)

    def stop_ph():
        state["ph"] = stopgrid.solve_stopping_grid(ph, PH_RESOLUTION,
                                                   epsilon=1e-10)
        return state["ph"]

    def spsa():
        state["runs"] = threshold.spsa_fit(ph, SPSA_ITERATIONS, seed=seed,
                                           restarts=SPSA_RESTARTS)
        return state["runs"]

    def evaluate():
        fitted = [threshold.evaluate_threshold_policy(
            ph, r.theta, EVAL_PATHS, seed=eval_seed).mean()
            for r in state["runs"]]
        optimal = threshold.evaluate_stop_policy(
            ph, state["ph"].actions, EVAL_PATHS, seed=eval_seed).mean()
        return fitted, optimal

    def sandwich_output(run):
        return {"lower": np.array([s.lower for s in run.steps]),
                "exact": np.array([s.exact for s in run.steps]),
                "upper": np.array([s.upper for s in run.steps]),
                "lower_multiplies": run.lower_multiplies,
                "exact_multiplies": run.exact_multiplies}

    def trajectory_output(t):
        return {"states": t.states, "observations": t.observations,
                "actions": t.actions, "beliefs": t.beliefs,
                "cost": t.discounted_cost}

    ops = [
        Op("grid-example1", example1_grid, lambda g: g.values),
        Op("grid-sampling-edge", sampling_edge),
        Op("stop-qd-classical", lambda: stopgrid.solve_stopping_grid(
            classical, CLASSICAL_RESOLUTION, epsilon=1e-10),
            lambda sol: (sol.values, sol.stop_mask)),
        Op("stop-qd-ph", stop_ph, lambda sol: (sol.values, sol.stop_value)),
        Op("spsa-qd-ph", spsa, lambda runs: [
            [threshold.spherical_to_theta(phi) for phi in r.phi_trace]
            for r in runs]),
        Op("evaluate-policies", evaluate),
        Op("sandwich-filter", lambda: bounds.sandwich_filter(
            P_lower, P, P_upper, B, ys, pi0, check=True), sandwich_output),
        Op("simulate-trajectory", lambda: filters.simulate_trajectory(
            example1, greedy, TRAJECTORY_STEPS, seed=seed),
            trajectory_output),
    ]

    def check(out):
        # value iteration from zero stays within eps / (1 - rho) of a
        # fixed point bracketed by the extreme costs over 1 - rho
        values = out["grid-example1"]
        rho = example1.discount
        slack = EXAMPLE1_EPSILON / (1 - rho)
        lo = costs.min() / (1 - rho) - slack
        hi = costs.max() / (1 - rho) + slack
        ph_values, ph_stop = out["stop-qd-ph"]
        return {
            "grid-example1": ([] if lo <= values.min() <= values.max() <= hi
                              else ["grid values leave the cost bounds"]),
            "grid-sampling-edge": checks.edge_policy(
                out["grid-sampling-edge"]),
            "stop-qd-classical": checks.single_threshold(
                out["stop-qd-classical"][1]),
            "stop-qd-ph": ([] if (ph_values <= ph_stop + 1e-12).all()
                           else ["value above the stop cost"]),
            "spsa-qd-ph": checks.spsa_admissible(out["spsa-qd-ph"]),
            "evaluate-policies": checks.cost_ratio(
                *out["evaluate-policies"]),
            "sandwich-filter": checks.sandwich(out["sandwich-filter"], P,
                                               P_lower, B, ys, pi0),
            "simulate-trajectory": checks.trajectory(
                example1, out["simulate-trajectory"], greedy),
        }

    return Workload(ops, check)


WORKLOADS = {"exact-solve": exact_solve, "myopic-tables": myopic_tables,
             "grid-filter": grid_filter}
