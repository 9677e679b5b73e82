"""Batch command-line front end.

Subcommands load a model (named preset or JSON file), run solvers,
checkers or estimators, and emit CSV/JSON artifacts; this module writes
every one of them.  All numeric CSV output carries 12 significant digits
and every stochastic run takes an explicit ``--seed``, so identical
invocations produce byte-identical artifacts.  Exit codes: 0 ok, 2
validation error, 3 infeasible, 4 vector budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import apps, myopic, presets, structural, threshold
from .bounds import rank1_bounds, sandwich_filter
from .errors import (
    Blowup,
    DimensionMismatch,
    LpInfeasible,
    PomdpKitError,
    PreconditionFailed,
    check_at_least,
)
from .filters import PathSampler, simulate_trajectory
from .grid import GridValue
from .model import PomdpModel, StoppingModel, belief, model_from_json, \
    quantized_gaussian_observation
from .rng import make_rng, uniform_simplex
from .solver import evaluate_value, lovejoy_bounds, solve_finite_horizon, \
    value_iteration_discounted
from .stopgrid import solve_stopping_grid

# the two-project benchmark of the `bandit` subcommand
BANDIT = {"P": [[0.8, 0.2], [0.3, 0.7]], "B": [[0.85, 0.15], [0.25, 0.75]],
          "r": [0.2, 1.0], "rho": 0.8}


def _preset(name: str, rho: float | None):
    """Named benchmark models; `social` is a parameter dict."""
    if name == "machine-replacement":
        return apps.build_machine_replacement(
            0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
            rho=0.95 if rho is None else rho)
    if name == "qd-classical":
        if rho is not None:
            raise DimensionMismatch("qd-classical is undiscounted; "
                                    "--rho does not apply")
        return apps.build_quickest_detection(
            [0.0, 1.0], [[0.9]], [0.1], [[0.7, 0.3], [0.2, 0.8]],
            d=0.05, beta=1.0, alpha=0.0, delay_kind="classical", rho=1.0)
    if name == "qd-ph":
        return apps.build_quickest_detection(
            [0.0, 0.5, 0.5], [[0.5, 0.2], [0.3, 0.6]], [0.3, 0.1],
            [[0.7, 0.2, 0.1], [0.15, 0.5, 0.35], [0.15, 0.5, 0.35]],
            d=2.5, beta=2.0, alpha=0.0, delay_kind="predicted",
            rho=0.9 if rho is None else rho)
    if name == "sampling":
        return apps.build_sampling_control(
            [[1.0, 0.0], [0.1, 0.9]], [[0.7, 0.3], [0.2, 0.8]],
            intervals=[1, 2, 4, 8], m=0.05, d=0.08,
            rho=0.97 if rho is None else rho)
    if name == "search":
        return apps.build_search_pomdp(
            [[0.8, 0.2], [0.3, 0.7]], overlook=[0.2, 0.3],
            blocking=[0.1, 0.1], rho=0.9 if rho is None else rho)
    if name == "social":
        return {"local_costs": [[4.57, 5.57], [2.57, 0.0]],
                "B": [[0.9, 0.1], [0.1, 0.9]],
                "d": 1.8, "beta": 2.0, "rho": 0.9}
    if name == "example1":
        return presets.example1(0.4 if rho is None else rho)
    if name == "example2":
        return presets.example2(0.4 if rho is None else rho)
    if name == "example3":
        return presets.example3(0.4 if rho is None else rho)
    if name.startswith("example4"):
        args = name[len("example4"):].strip("()")
        t1, t2 = (0.2, 0.4) if not args else map(float, args.split(","))
        return presets.example4(t1, t2, 0.4 if rho is None else rho)
    raise DimensionMismatch(f"unknown preset {name!r}")


def load_model(spec: str, rho: float | None = None):
    if spec.endswith(".json"):
        if rho is not None:
            raise DimensionMismatch(f"{spec} carries its own rho; "
                                    f"--rho does not apply")
        try:
            with open(spec) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DimensionMismatch(f"cannot read {spec}: {exc}") from None
        return model_from_json(text)
    return _preset(spec, rho)


def _load(args, *kinds: str):
    """``--model`` and its kind, which must be one of ``kinds``."""
    if args.model is None:
        raise DimensionMismatch(f"{args.command} needs --model")
    model = load_model(args.model, args.rho)
    kind = "social" if isinstance(model, dict) else {
        PomdpModel: "pomdp", StoppingModel: "stopping"}[type(model)]
    if kind not in kinds:
        raise DimensionMismatch(
            f"{args.command} takes a {'/'.join(kinds)} model; "
            f"{args.model!r} is a {kind} model")
    return model, kind


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header, rows) -> str:
    """``csv`` module rows (CRLF line ends) under ``header``; a float is
    written at 12 significant digits and ``None`` as an empty field."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(header)
    w.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row]
                for row in rows)
    return out.getvalue()


def _trajectory_csv(traj) -> str:
    """Rows (k, x_k, y_k, u_k, pi_k(1..X), cost to date); no y_0."""
    X = traj.beliefs.shape[1]
    ys = [None, *traj.observations]
    running = np.cumsum(traj.cost_terms)
    return _csv(["k", "x", "y", "u", *(f"pi{i + 1}" for i in range(X)),
                 "cost_to_date"],
                ([k, traj.states[k], ys[k], u, *traj.beliefs[k], running[k]]
                 for k, u in enumerate(traj.actions)))


def _sandwich_csv(run) -> str:
    """Rows (k, MAP state and posterior mean under lower, exact, upper)."""
    maps = run.posteriors.argmax(axis=-1) + 1
    return _csv(["k", "map_lower", "map_exact", "map_upper",
                 "mean_lower", "mean_exact", "mean_upper"],
                ([k, *m, *mean] for k, (m, mean) in
                 enumerate(zip(maps.tolist(), run.means), 1)))


def _report_json(report) -> str:
    """The assumption report as one JSON object: status, and the witness
    when there is one."""
    doc = {}
    for key, verdict in report.items():
        doc[key] = {"status": verdict.status.value}
        if verdict.witness is not None:
            doc[key]["witness"] = verdict.witness
    # a witness may hold numpy scalars and arrays
    return json.dumps(doc, default=lambda x: x.tolist())


def _query_belief(text: str, num_states: int) -> np.ndarray:
    """The ``--query`` belief: comma-separated numbers, one per state,
    that :func:`belief` accepts."""
    try:
        entries = [float(t) for t in text.split(",")]
    except ValueError:
        raise DimensionMismatch(f"--query must be comma-separated numbers, "
                                f"got {text!r}") from None
    pi = belief(entries)
    if pi.size != num_states:
        raise DimensionMismatch(f"--query has {pi.size} entries, the model "
                                f"has {num_states} states")
    return pi


# the options each kind of solve reads, besides --model, --rho and --out
SOLVE_OPTIONS = {
    "social": {"resolution"},
    "stopping": {"resolution", "epsilon"},
    "grid": {"method", "resolution", "epsilon", "horizon"},
    "lovejoy": {"method", "grid_points", "horizon"},
    "finite-horizon": {"method", "horizon", "query"},
    "discounted": {"method", "epsilon", "query"},
}


def cmd_solve(args) -> int:
    if args.epsilon is not None and not args.epsilon > 0:
        raise DimensionMismatch(f"--epsilon must be positive, got "
                                f"{args.epsilon}")
    if args.horizon is not None:
        check_at_least("--horizon", args.horizon, 1)
    model, kind = _load(args, "pomdp", "stopping", "social")
    method = "ip" if args.method is None else args.method
    solve = kind if kind != "pomdp" else (
        method if method in ("grid", "lovejoy") else
        "discounted" if args.horizon is None else "finite-horizon")
    for name in sorted(set().union(*SOLVE_OPTIONS.values())
                       - SOLVE_OPTIONS[solve]):
        if getattr(args, name) is not None:
            raise DimensionMismatch(f"--{name.replace('_', '-')} does not "
                                    f"apply to a {solve} solve")
    if args.query is not None:
        pi = _query_belief(args.query, model.num_states)
    if kind == "social":
        res = apps.solve_social_learning_stop(
            model["local_costs"], model["B"], model["d"], model["beta"],
            model["rho"] if args.rho is None else args.rho,
            resolution=499 if args.resolution is None else args.resolution)
        rows = ["pi2,value,stop"]
        for t, v, s in zip(res.grid, res.values, res.stop_mask):
            rows.append(f"{t:.12g},{v:.12g},{int(s)}")
        _emit("\n".join(rows) + "\n", args.out)
        return 0
    resolution = 1000 if args.resolution is None else args.resolution
    if kind == "stopping":
        sol = solve_stopping_grid(
            model, resolution,
            epsilon=1e-9 if args.epsilon is None else args.epsilon)
        mask = sol.stop_mask
        rows = ["index,value,stop"] + [
            f"{i},{v:.12g},{int(s)}"
            for i, (v, s) in enumerate(zip(sol.values, mask))]
        _emit("\n".join(rows) + "\n", args.out)
        return 0
    if method == "grid":
        grid = GridValue(model, resolution).iterate(args.epsilon,
                                                    args.horizon)
        rows = ["index,value,action"]
        for i, v in enumerate(grid.values):
            rows.append(f"{i},{v:.12g},{int(grid.policy_table[i])}")
        _emit("\n".join(rows) + "\n", args.out)
        return 0
    if method == "lovejoy":
        points = 20 if args.grid_points is None else args.grid_points
        lb = lovejoy_bounds(model, points, horizon=args.horizon)
        pts = lb.lower.points
        doc = {
            "upper_sizes": [len(s) for s in lb.upper_sets],
            "resolution": lb.lower.resolution,
            "grid": [[float(v) for v in p] for p in pts],
            "upper_values": [float(lb.upper_value(p)) for p in pts],
            "lower_values": [float(lb.lower.value(p)) for p in pts],
        }
        _emit(json.dumps(doc) + "\n", args.out)
        return 0
    if args.horizon is not None:
        res = solve_finite_horizon(model, args.horizon, method=method)
    else:
        res = value_iteration_discounted(
            model, 1e-6 if args.epsilon is None else args.epsilon,
            method=method)
    if args.query is not None:
        value, _, action = evaluate_value(res.final, pi)
        _emit(json.dumps({"value": value, "action": action}) + "\n",
              args.out)
        return 0
    doc = {
        "error_bound": res.error_bound,
        "discounted": res.discounted,
        "stages": [
            {"stage": vs.stage,
             "vectors": [{"gamma": g, "action": a} for g, a in
                         zip(vs.vectors.tolist(), vs.actions.tolist())]}
            for vs in res.stage_sets],
    }
    _emit(json.dumps(doc) + "\n", args.out)
    return 0


def cmd_filter(args) -> int:
    if args.sandwich and args.rho is not None:
        raise DimensionMismatch("--rho does not apply to --sandwich, which "
                                "reads no discount")
    kinds = ("pomdp", "stopping") if args.sandwich else ("pomdp",)
    model, kind = _load(args, *kinds)
    rng = make_rng(args.seed)
    if args.sandwich:
        check_at_least("--steps", args.steps, 1)
        if kind == "stopping":
            P, B = np.asarray(model.P), np.asarray(model.B)
        else:
            P, B = model.P(1), model.B(1)
        lo, hi = rank1_bounds(P)
        X = P.shape[0]
        sampler = PathSampler(P[None], B[None])
        x = np.zeros(1, dtype=int)
        ys = []
        for _ in range(args.steps):
            x, y = sampler.draw(0, x, rng)
            ys.append(int(y[0]) + 1)
        run = sandwich_filter(lo, P, hi, B, ys, np.full(X, 1.0 / X))
        _emit(_sandwich_csv(run), args.out)
        return 0
    traj = simulate_trajectory(model, lambda pi: 1, args.steps, args.seed)
    _emit(_trajectory_csv(traj), args.out)
    return 0


def cmd_check(args) -> int:
    model, _ = _load(args, "pomdp", "stopping")
    report = structural.pomdp_assumption_report(model)
    _emit(_report_json(report) + "\n", args.out)
    return 0


def _table_rows(example, rhos, samples, seed, per_belief=False,
                loss_rho=None, paths=1000, horizon=100,
                delta=myopic.STRICTNESS):
    rows = []
    for rho in rhos:
        model = example(rho)
        if per_belief:
            vol, _ = myopic.overlap_volume(model, n_samples=samples,
                                           seed=seed)
            rows.append({"rho": rho, "vol": 100 * vol})
            continue
        try:
            pair = myopic.optimize_overlap_2action(model, delta=delta)
        except LpInfeasible:
            pair = myopic.lp_feasibility_C1_C2(model, delta=delta)
        vol, _ = myopic.overlap_volume(model, pair, n_samples=samples,
                                       seed=seed)
        row = {"rho": rho, "vol": 100 * vol}
        if loss_rho is not None and abs(rho - loss_rho) < 1e-12:
            g = GridValue(model, 100)
            g.iterate(epsilon=1e-8)
            X = model.num_states
            e_last = np.zeros(X)
            e_last[-1] = 1.0
            row["L1"] = 100 * myopic.percent_loss(
                model, pair, e_last, g.lookahead_actions, paths, horizon,
                seed)
            rng = make_rng(seed + 1)
            outside = []
            while len(outside) < 1:
                cand = uniform_simplex(rng, 256, X)
                mask = ~myopic.overlap_indicator_pair(pair, cand)
                outside.extend(cand[mask][:1])
            row["L2"] = 100 * myopic.percent_loss(
                model, pair, outside[0], g.lookahead_actions, paths,
                horizon, seed)
        rows.append(row)
    return rows


def cmd_myopic(args) -> int:
    rhos = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    tables = args.table1a + args.table1c + args.table1d
    for ignored, message in (
            (tables > 1, "give at most one table flag"),
            (tables and args.model is not None,
             "--model does not apply to the tables"),
            (tables and args.rho is not None,
             "--rho does not apply to the tables, which run at "
             "rho = 0.4, ..., 0.9"),
            (args.delta is not None and not args.table1a,
             "--delta applies to --table1a only"),
            (args.loss and not args.table1a,
             "--loss applies to --table1a only"),
            (not args.loss and (args.paths, args.horizon) != (None, None),
             "--paths and --horizon apply to --loss only")):
        if ignored:
            raise DimensionMismatch(message)
    samples = args.samples
    if samples is None:
        samples = 20_000 if args.table1d else 1_000_000
    if args.table1a:
        # the bundled benchmark table corresponds to a 0.05 strictness
        # margin in the monotone-cost LPs; the library default stays 1e-6
        delta = 0.05 if args.delta is None else args.delta
        rows = _table_rows(presets.example1, rhos, samples, args.seed,
                           loss_rho=0.4 if args.loss else None,
                           paths=1000 if args.paths is None else args.paths,
                           horizon=100 if args.horizon is None
                           else args.horizon,
                           delta=delta)
    elif args.table1c:
        rows = _table_rows(presets.example2, rhos, samples, args.seed)
    elif args.table1d:
        rows = _table_rows(presets.example3, rhos, samples, args.seed,
                           per_belief=True)
    else:
        model, _ = _load(args, "pomdp")
        rows = _table_rows(lambda r: model, [model.discount],
                           samples, args.seed,
                           per_belief=model.num_actions > 2)
    _emit(_csv(["rho", "vol", "L1", "L2"],
               ([r["rho"], r["vol"], r.get("L1"), r.get("L2")] for r in rows)),
          args.out)
    return 0


def cmd_spsa(args) -> int:
    model, _ = _load(args, "stopping")
    runs = threshold.spsa_fit(model, args.iterations, args.seed,
                              restarts=args.restarts)
    best = None
    best_cost = np.inf
    for r in runs:
        cost = threshold.evaluate_threshold_policy(
            model, r.theta, args.paths, args.seed + 999).mean()
        if cost < best_cost:
            best, best_cost = r, cost
    if args.trace:
        dim = best.phi_trace.shape[1]
        _emit(_csv(["n", *(f"phi{i + 1}" for i in range(dim)), "cost"],
                   ([n, *phi, cost] for n, (phi, cost) in
                    enumerate(zip(best.phi_trace, best.cost_trace)))),
              args.out)
        return 0
    doc = {"theta": [float(t) for t in best.theta],
           "sampled_cost": float(best_cost),
           "hyper": vars(best.hyper)}
    _emit(json.dumps(doc) + "\n", args.out)
    return 0


def cmd_bandit(args) -> int:
    result = apps.run_bandit_benchmark(
        BANDIT["P"], BANDIT["B"], BANDIT["r"], BANDIT["rho"],
        episodes=args.episodes, horizon=args.steps, seed=args.seed)
    _emit(json.dumps(result) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    model, _ = _load(args, "pomdp")
    res = value_iteration_discounted(model, 1e-6) \
        if model.discount < 1 else solve_finite_horizon(
            model, args.steps, method="ip")
    traj = simulate_trajectory(model, res.policy(), args.steps, args.seed)
    _emit(_trajectory_csv(traj), args.out)
    return 0


def cmd_compare(args) -> int:
    rng = make_rng(args.seed)
    if args.kind == "mdp":
        X, U = 4, 2
        Ps, Pbars = [], []
        for u in range(U):
            lv = np.cumsum(0.3 + rng.uniform(0, 0.8, X))
            Pb = quantized_gaussian_observation(
                lv, rng.uniform(0.8, 2.0), X)
            shift = rng.uniform(0.05, 0.3)
            P = Pb * (1 - shift)
            P[:, -1] += shift
            Ps.append(P)
            Pbars.append(Pb)
        c = np.sort(rng.uniform(0, 2, (X, U)), axis=0)[::-1]
        tc = np.sort(rng.uniform(0, 1, X))[::-1]
        obs = np.stack([np.full((X, 2), 0.5)] * U)
        m1 = PomdpModel(np.stack(Ps), obs, c, 1.0, horizon=12,
                        terminal_cost=tc)
        m2 = PomdpModel(np.stack(Pbars), obs, c, 1.0, horizon=12,
                        terminal_cost=tc)
        verdict = structural.compare_mdp_costs(m1, m2)
    else:
        X = 2
        lv = np.cumsum(0.4 + rng.uniform(0, 1, X))
        P = quantized_gaussian_observation(lv, rng.uniform(0.8, 2.0), X)
        kernels = []
        for u in range(2):
            B2 = quantized_gaussian_observation(
                np.array([1.0, 2.0]), rng.uniform(0.4, 1.0), 3)
            kernels.append(B2)
        R = rng.dirichlet(np.ones(2), size=3)
        garbled = [K @ R for K in kernels]
        c = np.sort(rng.uniform(0, 2, (X, 2)), axis=0)[::-1]
        good = PomdpModel(np.stack([P, P]), np.stack(kernels), c, 1.0,
                          horizon=6)
        bad = PomdpModel(np.stack([P, P]), np.stack(garbled), c, 1.0,
                         horizon=6)
        verdict = structural.compare_pomdp_costs(good, bad, kind="observation")
    _emit(json.dumps({"status": verdict.status.value}) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pomdpkit",
        description="POMDP solvers, structural checkers and estimators")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--horizon", type=int)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--method", choices=["ip", "monahan", "lovejoy", "grid"],
                    help="default ip")
    sp.add_argument("--resolution", type=int,
                    help="grid resolution M, nodes spaced 1/M (default 1000; "
                         "499 for social)")
    sp.add_argument("--grid-points", type=int,
                    help="Lovejoy upper-bound grid points (default 20)")
    sp.add_argument("--query", help="belief to evaluate, comma separated")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_solve)

    fp = sub.add_parser("filter", help="run filters along a sample path")
    fp.add_argument("--model", required=True)
    fp.add_argument("--rho", type=float)
    fp.add_argument("--sandwich", action="store_true")
    fp.add_argument("--steps", type=int, default=100)
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--out")
    fp.set_defaults(func=cmd_filter)

    cp = sub.add_parser("check", help="assumption reports")
    cp.add_argument("--model", required=True)
    cp.add_argument("--rho", type=float)
    cp.add_argument("--out")
    cp.set_defaults(func=cmd_check)

    mp = sub.add_parser("myopic", help="myopic-bound tables")
    mp.add_argument("--table1a", action="store_true")
    mp.add_argument("--table1c", action="store_true")
    mp.add_argument("--table1d", action="store_true")
    mp.add_argument("--model")
    mp.add_argument("--rho", type=float)
    mp.add_argument("--loss", action="store_true",
                    help="include percent-loss columns (table1a)")
    mp.add_argument("--samples", type=int,
                    help="beliefs sampled per volume (default 20000 for "
                         "--table1d, 1000000 otherwise); fixed-pair "
                         "volumes on at most 3 states are exact and "
                         "ignore it")
    mp.add_argument("--delta", type=float,
                    help="strictness margin for the cost LPs")
    mp.add_argument("--paths", type=int, help="--loss paths (default 1000)")
    mp.add_argument("--horizon", type=int,
                    help="--loss path length (default 100)")
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--out")
    mp.set_defaults(func=cmd_myopic)

    ap = sub.add_parser("spsa", help="fit a linear threshold policy")
    ap.add_argument("--model", default="qd-ph")
    ap.add_argument("--rho", type=float)
    ap.add_argument("--iterations", type=int, default=2000)
    ap.add_argument("--restarts", type=int, default=5)
    ap.add_argument("--paths", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.set_defaults(func=cmd_spsa)

    bp = sub.add_parser("bandit", help="two-project bandit benchmark")
    bp.add_argument("--episodes", type=int, default=1000)
    bp.add_argument("--steps", type=int, default=40)
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--out")
    bp.set_defaults(func=cmd_bandit)

    tp = sub.add_parser("simulate", help="simulate a greedy trajectory")
    tp.add_argument("--model", required=True)
    tp.add_argument("--rho", type=float)
    tp.add_argument("--steps", type=int, default=100)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--out")
    tp.set_defaults(func=cmd_simulate)

    gp = sub.add_parser("compare", help="cost-dominance demonstrations")
    gp.add_argument("--kind", choices=["mdp", "blackwell"], required=True)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out")
    gp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Blowup as exc:
        sys.stderr.write(json.dumps({"error": "blowup",
                                     "detail": str(exc)}) + "\n")
        return 4
    except (LpInfeasible, PreconditionFailed) as exc:
        sys.stderr.write(json.dumps({"error": "infeasible",
                                     "detail": str(exc)}) + "\n")
        return 3
    except PomdpKitError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "detail": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
