"""The tolerance policy is a handful of module constants: no public callable
takes a per-call tolerance, and the threshold rules keep their values.  No
public callable takes a fiber conjugation either."""

import importlib
import inspect
import pkgutil

import pytest

import conjugations

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
        if param in ("tol", "cluster_tol")
    }
    assert not knobs
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


def test_threshold_values():
    from conjugations import shifts
    from conjugations.linalg import ABS_TOL, REL_TOL, membership_threshold, threshold
    from conjugations.spectral import CLUSTER_TOL

    assert (ABS_TOL, REL_TOL, CLUSTER_TOL) == (1e-10, 1e-8, 1e-7)
    assert not hasattr(shifts, "SYMBOL_TOL")  # grid symbols are checked at ABS_TOL
    assert threshold() == 1e-10 + 1e-8
    assert threshold(4.0) == 1e-10 + 1e-8 * 4.0
    assert membership_threshold(0) == membership_threshold(1) == 1e-8
    assert membership_threshold(256) == pytest.approx(2.56e-6, rel=1e-15)
