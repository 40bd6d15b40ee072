"""The library's public surface is what its callers use.

Every public top-level function and class of a ``src/conjugations`` module,
and every public method and property of those classes, must be used by the
library itself, by ``scripts/`` or by ``benchmark/``; tests alone do not
count, and neither do the package's re-exports in ``__init__.py``.  A few
names are kept on purpose, each with its reason, in ALLOWED.  Static only:
the files are parsed with ``ast`` and nothing is imported.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conjugations"

ALLOWED = {
    "spectral.multiplicity_model": "the paper's multiplicity model of a self-dual unitary",
    "shifts.synthesize": "the documented inverse of shifts.analyze",
}


# A method name that more than one class defines counts as used wherever the
# name appears, for each of those classes alike.  So each such class names one
# call site outside tests that reaches it: "path::function", whose body must
# name the method.
SHARED = {
    "apply": {
        "measures.FieldOperator": "src/conjugations/measures.py::invariance_probe",
        "shifts.ModelConjugation": "src/conjugations/shifts.py::ModelConjugation.matrix",
    },
    "matrix": {
        "shifts.ModelConjugation": "src/conjugations/shifts.py::ModelConjugation._report",
        "transforms.FourBlockModel": "src/conjugations/cli.py::_transform_demo",
        "transforms.TwoBlockModel": "src/conjugations/cli.py::_transform_demo",
    },
    "dim": {
        "antilinear.AntilinearOperator": "src/conjugations/family.py::verify_membership",
        "spectral.BlockLayout": "src/conjugations/spectral.py::layout_diagonal",
    },
    "fiber_dim": {
        "measures.WeightedSpaceElement": "src/conjugations/measures.py::weighted_inner",
        "measures.FieldOperator": "src/conjugations/measures.py::invariance_probe",
    },
    **{defect: {
        "shifts.UMultiplierConjugation": "src/conjugations/cli.py::_grid_demo_report",  # degree 1
        "shifts.ModelConjugation": "src/conjugations/cli.py::_grid_demo_report",  # degree 2
    } for defect in ("isometry_defect", "involution_defect", "commutation_defect")},
}


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def _public(name):
    return not name.startswith("_")


def surface(modules):
    """{module: ([top-level names], [(class, method)])} of the public definitions."""
    out = {}
    for mod, tree in modules.items():
        names, methods = [], []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                names.append(node.name)
            if isinstance(node, ast.ClassDef) and _public(node.name):
                methods += [(node.name, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and _public(f.name)]
        out[mod] = (names, methods)
    return out


def _package_exports():
    """name -> module of the package's `from .mod import name` re-exports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names}


EXPORTS = _package_exports()


def _source_module(node):
    """The conjugations module a `from ... import` reads, None for any other,
    "" for the package itself."""
    if node.level:
        return node.module or ""  # only src/conjugations uses relative imports
    if node.module == "conjugations":
        return ""
    if node.module and node.module.startswith("conjugations."):
        return node.module.partition(".")[2]
    return None


def uses(tree, own=None):
    """(module-level uses as {(module, name)}, attribute names) in one file."""
    bound, aliases = {}, {}  # local name -> (module, name); local name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = _source_module(node)
            if src is None:
                continue
            for a in node.names:
                local = a.asname or a.name
                if src == "" and (PACKAGE / f"{a.name}.py").exists():
                    aliases[local] = a.name
                elif src:
                    bound[local] = (src, a.name)
                elif a.name in EXPORTS:
                    bound[local] = (EXPORTS[a.name], a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("conjugations.") and a.asname:
                    aliases[a.asname] = a.name.partition(".")[2]
    used, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in bound:
                used.add(bound[node.id])
            if own is not None:
                used.add((own, node.id))
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                used.add((aliases[base.id], node.attr))
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                  and base.value.id == "conjugations"):
                used.add((base.attr, node.attr))
    return used, attrs


def caller_trees(modules):
    """(own module or None, tree) of every file that counts as a caller."""
    files = list(modules.items())
    for path in sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("benchmark/**/*.py")):
        files.append((None, ast.parse(path.read_text())))
    return files


def unused_names():
    modules = _modules()
    used, attrs = set(), set()
    for own, tree in caller_trees(modules):
        u, a = uses(tree, own)
        used |= u
        attrs |= a
    unused, defined = [], set()
    for mod, (names, methods) in surface(modules).items():
        for name in names:
            defined.add(f"{mod}.{name}")
            if (mod, name) not in used:
                unused.append(f"{mod}.{name}")
        for cls, meth in methods:
            defined.add(f"{mod}.{cls}.{meth}")
            if meth not in attrs:
                unused.append(f"{mod}.{cls}.{meth}")
    return unused, defined


def test_every_public_name_has_a_caller():
    unused, _ = unused_names()
    extra = sorted(set(unused) - set(ALLOWED))
    assert not extra, f"public names that nothing in src/, scripts/ or benchmark/ uses: {extra}"


def test_allow_list_names_exist_and_are_unused():
    unused, defined = unused_names()
    assert sorted(set(ALLOWED) - defined) == [], "allow-list names that no longer exist"
    assert sorted(set(ALLOWED) - set(unused)) == [], "allow-list names that are now used"


def shared_methods(modules):
    """{method name: {"module.Class"}} for the public method names that more
    than one public class defines."""
    owners = {}
    for mod, (_, methods) in surface(modules).items():
        for cls, meth in methods:
            owners.setdefault(meth, set()).add(f"{mod}.{cls}")
    return {meth: classes for meth, classes in owners.items() if len(classes) > 1}


def _function(tree, qualname):
    """The def of qualname ("f" or "Class.f") at the top of tree, or None."""
    *classes, name = qualname.split(".")
    body = tree.body
    for cls in classes:
        body = next((n.body for n in body if isinstance(n, ast.ClassDef) and n.name == cls), [])
    return next((n for n in body if isinstance(n, ast.FunctionDef) and n.name == name), None)


def test_shared_method_names_have_call_sites():
    shared = shared_methods(_modules())
    listed = {(meth, cls) for meth, sites in SHARED.items() for cls in sites}
    defined = {(meth, cls) for meth, classes in shared.items() for cls in classes}
    assert sorted(defined - listed) == [], "classes sharing a method name without a call site"
    assert sorted(listed - defined) == [], "SHARED entries whose class no longer shares the name"
    missing = []
    for meth, cls in sorted(listed):
        path, _, qualname = SHARED[meth][cls].partition("::")
        fn = _function(ast.parse((ROOT / path).read_text()), qualname) if (ROOT / path).exists() else None
        if path.startswith("tests/") or fn is None or not any(
                isinstance(n, ast.Attribute) and n.attr == meth for n in ast.walk(fn)):
            missing.append(f"{cls}.{meth}: {SHARED[meth][cls]}")
    assert not missing, f"listed call sites that do not exist or do not name the method: {missing}"


def test_scan_sees_each_kind_of_use():
    # the scanner itself: a use through each import form, and one that is not
    tree = ast.parse(
        "from conjugations.linalg import haar_unitary\n"
        "from conjugations import family, AtomicMeasure\n"
        "import conjugations.shifts as sh\n"
        "from conjugations.spectral import canonical_form\n"
        "haar_unitary(2, 0); family.sample; AtomicMeasure; sh.analyze; x.total_mass\n"
    )
    used, attrs = uses(tree)
    assert {("linalg", "haar_unitary"), ("family", "sample"), ("measures", "AtomicMeasure"),
            ("shifts", "analyze")} <= used
    assert ("spectral", "canonical_form") not in used  # imported, never used
    assert "total_mass" in attrs
