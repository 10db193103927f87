"""Every public module-level function, class and constant in src/rotalab has a reader.

A name counts as used when a Name or Attribute node outside its own
definition or assignment refers to it, in src/rotalab or in the benchmark
workloads under perfbench. An import line alone does not count. The names
kept on purpose with no reader are listed below, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rotalab").glob("*.py"))
REFERRERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

EQUIVALENCE = "kept for the Muhly-Renault-Williams equivalence checks (ROADMAP item 5)"
KEPT_ON_PURPOSE = {
    "base_right_act": "kept for the module axioms of the right action (ROADMAP item 5)",
    "transformed_right_act": "kept for the module axioms of the right action (ROADMAP item 5)",
    "descent_left": "kept for the module axioms of the descent bimodule (ROADMAP item 5)",
    "descent_right": "kept for the module axioms of the descent bimodule (ROADMAP item 5)",
    "lattice_act_on_transversal": EQUIVALENCE,
    "rotation_pair_act_on_transversal": EQUIVALENCE,
    "rotation_act_on_line_orbit": EQUIVALENCE,
    "reduction_iso": EQUIVALENCE,
    "equivariance_defect": "kept for the lattice-equivariance check (ROADMAP item 7)",
    "grid_dirac_plus": "kept for the lattice-equivariance check (ROADMAP item 7)",
    "lattice_times_to_labels_numeric": "kept for exact arithmetic at every g (ROADMAP item 11)",
    "hermite_eval": "an independent reference that tests compare the ladder algebra against",
    "hermite_quadrature": "an independent reference that tests compare the ladder algebra against",
    "spectral_derivative": "an independent reference that tests compare the grid oracles against",
    "fourier_slot_quadrature": "an independent reference that tests compare the closed route against",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree):
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _bound_names(node):
    """The names a module-level statement binds: a def, a class or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            t.id
            for target in targets
            for t in ast.walk(target)
            if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
        ]
    return []


def unreferenced_public_names():
    """Public module-level defs, classes and constants of src/rotalab that nothing else names."""
    trees = {path: _parse(path) for path in REFERRERS}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = set()
    for path in SOURCES:
        for node in trees[path].body:
            for name in _bound_names(node):
                # dunders and private names are skipped; a recursive call, a method
                # naming its own class or an assignment's own target is not a reader
                if not name.startswith("_") and everywhere[name] == _references(node)[name]:
                    unused.add(name)
    return unused


def test_every_public_name_has_a_caller_or_a_reason():
    unused = unreferenced_public_names()
    assert unused - KEPT_ON_PURPOSE.keys() == set()
    # a kept name that gains a caller leaves the list
    assert KEPT_ON_PURPOSE.keys() - unused == set()
