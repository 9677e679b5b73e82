"""Every public top-level function and class of ``src/pomdpkit`` has a
caller outside the tests: code elsewhere in the package, or the
benchmark under ``perfbench/``.  ``KEPT`` names the few that stand on
their own, each with its reason; the package-root re-exports of
``__init__.py`` do not count as callers.  Likewise every optional
parameter of a called function is passed by some call there;
``KEPT_PARAMS`` names the exceptions."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = "structural verifier, to be rebuilt on exact vector sets"
KEPT = {
    "verify_value_monotone": _PROBE,
    "probe_switching_curve": _PROBE,
    "check_stop_set_convex": _PROBE,
    "extract_thresholds_2state": _PROBE + "; acceptance criterion 8",
    "normalizer_vector": "acceptance criterion 7",
    "blackwell_myopic_region": "acceptance criterion 10",
    "threshold_constraints_ok": "acceptance criterion 11",
    "gittins_index": "acceptance criterion 12",
    "linear_threshold_action": "one-belief case of linear_threshold_actions",
    "social_learning_step": "one-belief case of the social-learning update",
    "model_to_json": "package-root export",
    "reduce_general_cost": "package-root export",
}

_QUAD = "test seam: SPSA fits a known quadratic"
_RESTART = ("the table-versus-restart comparison at 401 points and 400 "
            "rewards")
KEPT_PARAMS = {
    "spsa_fit.hyper": _QUAD,
    "spsa_fit.objective": _QUAD,
    "gittins_index_table_2state.resolution": _RESTART,
    "gittins_index_table_2state.m_steps": _RESTART,
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text()).body
            for p in sorted((ROOT / "src" / "pomdpkit").glob("*.py"))
            if p.name != "__init__.py"}


def _identifiers(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _uncalled() -> list:
    """Public top-level definitions that no other top-level statement of
    the package names in its code and no ``perfbench/*.py`` file names
    as a whole word (the tracer names its targets in strings)."""
    modules = _modules()
    bench = "\n".join(p.read_text()
                      for p in sorted((ROOT / "perfbench").glob("*.py")))
    names = [(stmt, _identifiers(stmt))
             for body in modules.values() for stmt in body]
    out = []
    for mod, body in modules.items():
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if not any(node.name in ids for stmt, ids in names
                       if stmt is not node) \
                    and not re.search(rf"\b{node.name}\b", bench):
                out.append(f"{mod}.{node.name}")
    return out


def _unpassed() -> list:
    """Optional parameters of the public top-level functions with a
    caller that no call in the package or in ``perfbench/*.py`` passes,
    by keyword or by position (a ``*args`` or ``**kwargs`` passes all)."""
    modules = _modules()
    trees = [stmt for body in modules.values() for stmt in body] + [
        ast.parse(p.read_text())
        for p in sorted((ROOT / "perfbench").glob("*.py"))]
    calls = {}
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(
                    n.func, (ast.Name, ast.Attribute)):
                name = (n.func.id if isinstance(n.func, ast.Name)
                        else n.func.attr)
                calls.setdefault(name, []).append(n)
    uncalled = set(_uncalled())
    out = []
    for mod, body in modules.items():
        for node in body:
            if not isinstance(node, ast.FunctionDef) \
                    or node.name.startswith("_") \
                    or f"{mod}.{node.name}" in uncalled:
                continue
            args = node.args
            pos = args.posonlyargs + args.args
            first = len(pos) - len(args.defaults)
            optional = [(p.arg, i) for i, p in enumerate(pos) if i >= first]
            optional += [(p.arg, None) for p, d in zip(args.kwonlyargs,
                                                       args.kw_defaults)
                         if d is not None]
            for name, i in optional:
                if not any(
                        any(k.arg in (name, None) for k in c.keywords)
                        or (i is not None and (len(c.args) > i or any(
                            isinstance(a, ast.Starred) for a in c.args)))
                        for c in calls.get(node.name, [])):
                    out.append(f"{node.name}.{name}")
    return out


def test_every_public_definition_has_a_caller():
    missing = [q for q in _uncalled() if q.split(".")[1] not in KEPT]
    assert not missing, f"only tests reach {missing}"


def test_kept_names_are_still_uncalled():
    uncalled = {q.split(".")[1] for q in _uncalled()}
    assert sorted(set(KEPT) - uncalled) == []


def test_every_optional_parameter_is_passed():
    missing = [q for q in _unpassed() if q not in KEPT_PARAMS]
    assert not missing, f"only tests pass {missing}"


def test_kept_params_are_still_unpassed():
    assert sorted(set(KEPT_PARAMS) - set(_unpassed())) == []
