"""The tolerance policy is one table of module constants in linalg: no other
module writes a tolerance as a bare literal, no public callable takes a
per-call tolerance, and every entry keeps its value.  No public callable
takes a fiber conjugation either."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import conjugations

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "conjugations"

MODULES = [
    importlib.import_module(f"conjugations.{info.name}")
    for info in pkgutil.iter_modules(conjugations.__path__)
]


def _public_callables():
    """(qualified name, callable) for every public function, class and
    method defined in the package; exception classes have no signature."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj) and not issubclass(obj, Exception):
                yield f"{module.__name__}.{name}", obj
                for attr, member in inspect.getmembers(obj, callable):
                    if not attr.startswith("_") and getattr(member, "__module__", None) == module.__name__:
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_callable_takes_a_tolerance():
    walked = dict(_public_callables())
    assert "conjugations.family.decompose" in walked
    assert "conjugations.measures.AtomicMeasure.from_dict" in walked
    knobs = {
        f"{name}({param})"
        for name, obj in walked.items()
        for param in inspect.signature(obj).parameters
        if param in ("tol", "cluster_tol", "threshold", "radius", "eps", "atol", "rtol")
    }
    # verify --tol and the transform demos (DEMO_TOL * N) judge one member at
    # thresholds of their own; every other verdict uses membership_threshold
    assert knobs == {"conjugations.family.verify_membership(threshold)"}
    assert list(inspect.signature(conjugations.decompose).parameters) == ["U", "C"]


def test_no_callable_takes_a_fiber_conjugation():
    # entrywise conjugation is the one fiber conjugation; another one is a
    # constant unitary field composed with it
    knobs = {
        f"{name}({param})"
        for name, obj in _public_callables()
        for param in inspect.signature(obj).parameters
        if param in ("fiber_conjugation", "fiber_conjugations")
    }
    assert not knobs


def test_no_tolerance_object():
    assert "Tolerance" not in conjugations.__all__
    assert not [m.__name__ for m in MODULES if hasattr(m, "Tolerance")]


def _small_literals(path):
    """(line, value, whether it is a module-level assignment's value) of every
    float literal of magnitude below 1e-6 in the file, zero excluded."""
    tree = ast.parse(path.read_text())
    table = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)}
    return [(node.lineno, node.value, id(node) in table) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
            and 0 < abs(node.value) < 1e-6]


def test_no_tolerance_literal_outside_linalg():
    # static: the files are parsed, not imported
    bare = [f"{path.name}:{line} ({value!r})" for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "linalg.py" for line, value, _ in sorted(_small_literals(path))]
    assert not bare, f"tolerance literals outside linalg's table: {bare}"


def test_linalg_literals_sit_in_the_table():
    stray = [f"linalg.py:{line} ({value!r})" for line, value, in_table
             in _small_literals(PACKAGE / "linalg.py") if not in_table]
    assert not stray, f"tolerance literals in linalg outside its table: {stray}"


TABLE = {
    "ABS_TOL": 1e-10, "REL_TOL": 1e-8, "MEMBERSHIP_TOL": 1e-8, "CLUSTER_TOL": 1e-7,
    "CUT_TOL": 1e-6, "LABEL_TOL": 1e-9, "PAIR_TOL": 1e-9, "UNIT_CIRCLE_TOL": 1e-12, "SPLIT_TOL": 1e-9,
    "DEMO_TOL": 1e-12, "GRID_TOL": 1e-9, "DECAY_RATIO": 1e-2,
}


def test_threshold_values():
    from conjugations import linalg, measures, shifts, spectral
    from conjugations.linalg import membership_threshold, threshold

    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    entries = [t.id for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name) and t.id.isupper() and t.id[0] != "_"]
    assert entries == list(TABLE)  # every entry is asserted here, in linalg's order
    assert {name: getattr(linalg, name) for name in entries} == TABLE
    assert spectral.CLUSTER_TOL is linalg.CLUSTER_TOL and measures.PAIR_TOL is linalg.PAIR_TOL
    assert not hasattr(shifts, "SYMBOL_TOL")  # grid symbols are checked at ABS_TOL
    assert threshold() == 1e-10 + 1e-8
    assert threshold(4.0) == 1e-10 + 1e-8 * 4.0
    assert membership_threshold(0) == membership_threshold(1) == 1e-8
    assert membership_threshold(256) == pytest.approx(2.56e-6, rel=1e-15)


def test_messages_state_their_tolerance():
    from conjugations.errors import InputError
    from conjugations.linalg import PAIR_TOL, UNIT_CIRCLE_TOL
    from conjugations.measures import AtomicMeasure, conjugate_pairing

    # the pairing message is typed out, as the measure_rn_ambiguous golden has it
    with pytest.raises(InputError, match="atoms closer than ") as pairing:
        conjugate_pairing(AtomicMeasure([0.5, -0.5, -0.5000000005], [1.0, 1.0, 1.0]))
    with pytest.raises(InputError, match="unit circle within ") as circle:
        AtomicMeasure.from_points([2.0], [1.0])
    assert float(str(pairing.value).rsplit(" ", 1)[1]) == PAIR_TOL
    assert float(str(circle.value).rsplit(" ", 1)[1]) == UNIT_CIRCLE_TOL
