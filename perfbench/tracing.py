"""Spans around the public functions of each pomdpkit module.

Tracing rebinds module attributes from the outside: every pomdpkit
module that holds the original function under the traced name gets the
wrapper, so ``from .simplexlp import solve_lp`` copies are covered too.
Nothing under ``src/`` is edited.  A span is the tuple
``(name, start, end, parent, op, attrs)``; spans live in memory until
the run ends and then go to a JSON-lines file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(A) -> int:
    return 0 if A is None else np.atleast_2d(np.asarray(A)).shape[0]


def _lp_attrs(args, kwargs, result):
    rows = sum(_rows(kwargs.get(key, args[pos] if len(args) > pos else None))
               for key, pos in (("A_ub", 1), ("A_eq", 3)))
    return {"rows": rows, "optimal": bool(result.optimal)}


def _prune_attrs(args, kwargs, result):
    return {"vectors_in": len(args[0]), "vectors_out": len(result)}


def _beliefs_attrs(args, kwargs, result):
    return {"beliefs": _rows(args[1])}


def _samples_attrs(args, kwargs, result):
    # the X = 2 fixed-pair path is exact interval arithmetic, no samples
    model = args[0]
    pair = kwargs.get("pair", args[1] if len(args) > 1 else None)
    per_belief = kwargs.get("per_belief", args[4] if len(args) > 4
                            else False)
    n = kwargs.get("n_samples", args[2] if len(args) > 2 else 1_000_000)
    exact = not per_belief and pair is not None and model.num_states == 2
    return {"samples": 0 if exact else int(n)}


def _points_attrs(args, kwargs, result):
    return {"points": len(result[0])}


def _paths_attrs(args, kwargs, result):
    return {"paths": len(result)}


def _sandwich_attrs(args, kwargs, result):
    return {"steps": len(result.steps),
            "multiplies": result.lower_multiplies + result.exact_multiplies}


# (module, attribute path, span name, attrs from (args, kwargs, result))
TRACED = (
    ("simplexlp", "solve_lp", "simplexlp.solve_lp", _lp_attrs),
    ("solver", "lp_prune", "solver.lp_prune", _prune_attrs),
    ("solver", "bellman_backup_step", "solver.bellman_backup_step", None),
    ("solver", "cross_sum", "solver.cross_sum", None),
    ("solver", "sup_difference", "solver.sup_difference", None),
    ("solver", "value_iteration_discounted",
     "solver.value_iteration_discounted", None),
    ("myopic", "PerBeliefBounds.overlap_indicator",
     "myopic.overlap_indicator", _beliefs_attrs),
    ("myopic", "optimize_overlap_2action",
     "myopic.optimize_overlap_2action", None),
    ("myopic", "overlap_volume", "myopic.overlap_volume", _samples_attrs),
    ("myopic", "percent_loss", "myopic.percent_loss", None),
    ("grid", "GridValue.sweep", "grid.GridValue.sweep", None),
    ("grid", "barycentric_weights", "grid.barycentric_weights",
     _points_attrs),
    ("stopgrid", "solve_stopping_grid", "stopgrid.solve_stopping_grid",
     None),
    ("stopgrid", "batched_stopping_costs", "stopgrid.batched_stopping_costs",
     _paths_attrs),
    ("threshold", "spsa_fit", "threshold.spsa_fit", None),
    ("threshold", "evaluate_threshold_policy",
     "threshold.evaluate_threshold_policy", None),
    ("bounds", "sandwich_filter", "bounds.sandwich_filter", _sandwich_attrs),
    ("orders", "mlr_compare", "orders.mlr_compare", None),
    ("filters", "simulate_trajectory", "filters.simulate_trajectory", None),
    ("filters", "hmm_filter_step", "filters.hmm_filter_step", None),
    ("cli", "main", "cli.main", None),
)

# (metric, unit, span name, kind, argument); the kinds are explained in
# ``layer_metrics``
PER_LAYER = (
    ("simplexlp.solve_lp.calls", "count", "simplexlp.solve_lp", "calls", None),
    ("simplexlp.solve_lp.s", "s", "simplexlp.solve_lp", "total", None),
    ("simplexlp.solve_lp.not_optimal", "count", "simplexlp.solve_lp",
     "count_if", ("optimal", False)),
    ("simplexlp.solve_lp.rows", "count", "simplexlp.solve_lp", "sum", "rows"),
    ("solver.lp_prune.calls", "count", "solver.lp_prune", "calls", None),
    ("solver.lp_prune.self_s", "s", "solver.lp_prune", "self", None),
    ("solver.lp_prune.lps", "count", "solver.lp_prune", "under",
     "simplexlp.solve_lp"),
    ("solver.lp_prune.vectors_in", "count", "solver.lp_prune", "sum",
     "vectors_in"),
    ("solver.lp_prune.vectors_out", "count", "solver.lp_prune", "sum",
     "vectors_out"),
    ("solver.bellman_backup_step.calls", "count",
     "solver.bellman_backup_step", "calls", None),
    ("solver.bellman_backup_step.self_s", "s",
     "solver.bellman_backup_step", "self", None),
    ("solver.cross_sum.self_s", "s", "solver.cross_sum", "self", None),
    ("solver.sup_difference.self_s", "s", "solver.sup_difference", "self",
     None),
    ("solver.sup_difference.lps", "count", "solver.sup_difference", "under",
     "simplexlp.solve_lp"),
    ("solver.value_iteration_discounted.iterations", "count",
     "solver.value_iteration_discounted", "under",
     "solver.bellman_backup_step"),
    ("myopic.overlap_indicator.self_s", "s", "myopic.overlap_indicator",
     "self", None),
    ("myopic.overlap_indicator.beliefs", "count", "myopic.overlap_indicator",
     "sum", "beliefs"),
    ("myopic.overlap_indicator.lps", "count", "myopic.overlap_indicator",
     "under", "simplexlp.solve_lp"),
    ("myopic.overlap_indicator.lp_feasible", "count",
     "myopic.overlap_indicator", "under_if", "simplexlp.solve_lp"),
    ("myopic.optimize_overlap_2action.self_s", "s",
     "myopic.optimize_overlap_2action", "self", None),
    ("myopic.overlap_volume.self_s", "s", "myopic.overlap_volume", "self",
     None),
    ("myopic.overlap_volume.samples", "count", "myopic.overlap_volume",
     "sum", "samples"),
    ("myopic.percent_loss.self_s", "s", "myopic.percent_loss", "self", None),
    ("grid.GridValue.sweep.calls", "count", "grid.GridValue.sweep", "calls",
     None),
    ("grid.GridValue.sweep.self_s", "s", "grid.GridValue.sweep", "self",
     None),
    ("grid.barycentric_weights.points", "count", "grid.barycentric_weights",
     "sum", "points"),
    ("grid.barycentric_weights.s", "s", "grid.barycentric_weights", "total",
     None),
    ("stopgrid.solve_stopping_grid.self_s", "s",
     "stopgrid.solve_stopping_grid", "self", None),
    ("stopgrid.batched_stopping_costs.paths", "count",
     "stopgrid.batched_stopping_costs", "sum", "paths"),
    ("stopgrid.batched_stopping_costs.s", "s",
     "stopgrid.batched_stopping_costs", "total", None),
    ("threshold.spsa_fit.self_s", "s", "threshold.spsa_fit", "self", None),
    ("threshold.evaluate_threshold_policy.self_s", "s",
     "threshold.evaluate_threshold_policy", "self", None),
    ("bounds.sandwich_filter.steps", "count", "bounds.sandwich_filter", "sum",
     "steps"),
    ("bounds.sandwich_filter.self_s", "s", "bounds.sandwich_filter", "self",
     None),
    ("bounds.sandwich_filter.multiplies", "count", "bounds.sandwich_filter",
     "sum", "multiplies"),
    ("orders.mlr_compare.calls", "count", "orders.mlr_compare", "calls", None),
    ("orders.mlr_compare.s", "s", "orders.mlr_compare", "total", None),
    ("filters.simulate_trajectory.self_s", "s", "filters.simulate_trajectory",
     "self", None),
    ("filters.hmm_filter_step.calls", "count", "filters.hmm_filter_step",
     "calls", None),
    ("cli.main.self_s", "s", "cli.main", "self", None),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._undo = []

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, name, attrs_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._op,
                              {"raised": True})
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            spans[sid] = (name, start, end, parent, self._op, attrs)
            return result

        return traced

    def install(self):
        """Rebind every traced name in the loaded pomdpkit modules."""
        # import every traced module first, so that each copy of a name
        # that one module imports from another exists before rebinding
        for mod_name, *_ in TRACED:
            importlib.import_module(f"pomdpkit.{mod_name}")
        for mod_name, path, span_name, attrs_fn in TRACED:
            owner = sys.modules[f"pomdpkit.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name, attrs_fn)
            if outer:
                targets = [owner]       # a method: rebind on its class
            else:
                targets = [m for key, m in list(sys.modules.items())
                           if key.startswith("pomdpkit")
                           and getattr(m, attr, None) is original]
            for target in targets:
                setattr(target, attr, wrapper)
                self._undo.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- operation roots -----------------------------------------------------
    def begin_op(self, op_id: str) -> int:
        """Open the root span of one operation; returns its span id."""
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def end_op(self, sid: int, name: str, start: float, end: float):
        """Close a root span with the operation's own timestamps, so the
        roots of a round account for exactly its measured wall time."""
        self._stack.pop()
        self.spans[sid] = (name, start, end, -1, self._op, None)
        self._op = None

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op, attrs) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced round, from ``(id, span)`` pairs.

    Kinds: ``calls`` counts spans; ``total`` sums their durations;
    ``self`` sums duration minus the durations of direct children
    (children of one span never overlap in this single-threaded
    program); ``sum`` adds an attribute; ``count_if`` counts spans whose
    attribute has a value; ``under`` counts spans of another name that
    have this span among their ancestors, and ``under_if`` those of them
    that were feasible LPs.
    """
    index = dict(spans)
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for _, span in spans:
        by_name[span[0]].append(span)
        if span[3] in index:
            child_time[index[span[3]][0]] += span[2] - span[1]

    def attr(span, key):
        return (span[5] or {}).get(key)

    out = {}
    for metric, _, name, kind, arg in PER_LAYER:
        mine = by_name.get(name, [])
        if kind == "calls":
            value = len(mine)
        elif kind in ("total", "self"):
            value = sum(s[2] - s[1] for s in mine)
            if kind == "self" and mine:
                value -= child_time[name]
        elif kind == "sum":
            value = sum(attr(s, arg) for s in mine)
        elif kind == "count_if":
            value = sum(attr(s, arg[0]) == arg[1] for s in mine)
        else:
            value = sum(_has_ancestor(index, s, name)
                        for s in by_name.get(arg, [])
                        if kind == "under" or attr(s, "optimal"))
        out[metric] = value
    return out


def _has_ancestor(index, span, name) -> bool:
    parent = span[3]
    while parent in index:
        if index[parent][0] == name:
            return True
        parent = index[parent][3]
    return False
