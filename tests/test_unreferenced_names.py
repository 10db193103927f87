"""Every public module-level function, class and constant in src/rotalab has a reader,
and so does every public method and property of its classes.

A name counts as used when a Name or Attribute node outside its own
definition or assignment refers to it, in src/rotalab or in the benchmark
workloads under perfbench. An import line alone does not count. A method
is listed as Class.method, and matched by name alone, except a classmethod:
it counts as read only where it is named through its own class, as
Class.m, module.Class.m, Alias.m for a module-level alias of the class, or
cls.m inside the class. The names kept on purpose with no reader are
listed below, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rotalab").glob("*.py"))
REFERRERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

EQUIVALENCE = "kept for the Muhly-Renault-Williams equivalence checks (ROADMAP item 7)"
KEPT_ON_PURPOSE = {
    "base_right_act": "kept for the module axioms of the right action (ROADMAP item 7)",
    "transformed_right_act": "kept for the module axioms of the right action (ROADMAP item 7)",
    "descent_left": "kept for the module axioms of the descent bimodule (ROADMAP item 7)",
    "descent_right": "kept for the module axioms of the descent bimodule (ROADMAP item 7)",
    "lattice_act_on_transversal": EQUIVALENCE,
    "rotation_pair_act_on_transversal": EQUIVALENCE,
    "rotation_act_on_line_orbit": EQUIVALENCE,
    "reduction_iso": EQUIVALENCE,
    "equivariance_defect": "kept for the lattice-equivariance check (ROADMAP item 9)",
    "lattice_times_to_labels_numeric": "deleted once exact arithmetic covers every g (ROADMAP item 13)",
    "hermite_eval": "an independent reference that tests compare the ladder algebra against",
    "hermite_quadrature": "an independent reference that tests compare the ladder algebra against",
    "spectral_derivative": "an independent reference that tests compare the grid oracles against",
    "fourier_slot_quadrature": "an independent reference that tests compare the closed route against",
    "GaussSum.l2_inner": "kept for the trace of the transversal module (ROADMAP item 10)",
    "ThetaScalar.evalf": "the float value of an exact scalar, which tests compare exact results through",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree):
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _class_reads(node, aliases, owner=None):
    """Class.method for each attribute read under node through a class, a module-level
    alias of it, or cls inside it; owner is the class that encloses node."""
    reads = Counter()
    stack = [(node, owner)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.Attribute):
            # Class.m reads a Name, module.Class.m an Attribute
            name = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            cls = owner if name == "cls" else aliases.get(name)
            if cls:
                reads[f"{cls}.{node.attr}"] += 1
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return reads


def _class_aliases(trees):
    """Each class of src/rotalab by its own name, and each module-level alias of it."""
    classes = {
        node.name for path in SOURCES for node in trees[path].body if isinstance(node, ast.ClassDef)
    }
    aliases = {name: name for name in classes}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.value, "id", None) in classes:
                aliases.update((name, node.value.id) for name in _bound_names(node))
    return aliases


def _is_classmethod(node):
    return isinstance(node, ast.FunctionDef) and any(
        getattr(d, "id", None) == "classmethod" for d in node.decorator_list
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


def _definitions(tree):
    """(label, name, node) for each module-level binding and each method of a module-level class."""
    for node in tree.body:
        for name in _bound_names(node):
            yield name, name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method.name, method


def unreferenced_public_names():
    """Public defs, classes, constants and methods of src/rotalab that nothing else names."""
    trees = {path: _parse(path) for path in REFERRERS}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    aliases = _class_aliases(trees)
    through_class = sum((_class_reads(tree, aliases) for tree in trees.values()), Counter())
    unused = set()
    for path in SOURCES:
        for label, name, node in _definitions(trees[path]):
            # dunders and private names are skipped; a recursive call, a method
            # naming its own class or an assignment's own target is not a reader
            if name.startswith("_"):
                continue
            if _is_classmethod(node):
                owner = label.split(".")[0]
                unread = through_class[label] == _class_reads(node, aliases, owner)[label]
            else:
                unread = everywhere[name] == _references(node)[name]
            if unread:
                unused.add(label)
    return unused


def test_every_public_name_has_a_caller_or_a_reason():
    unused = unreferenced_public_names()
    assert unused - KEPT_ON_PURPOSE.keys() == set()
    # a kept name that gains a caller leaves the list
    assert KEPT_ON_PURPOSE.keys() - unused == set()
