"""Result records built with tuple.__new__ stay the namedtuples they were.

The package builds a record with no checks of its own as
tuple.__new__(Record, values), skipping the __new__ that namedtuple writes
in Python. These tests pin that no public call runs that __new__ or
namedtuple's _make, that the records built this way keep their class,
equality, pickling and _replace, and that no record with checks is built
this way anywhere but as cls inside its own __new__.
"""

import ast
import importlib
import math
import pickle
import sys
from pathlib import Path

import pytest

import qsagnac
from qsagnac import (
    BohrOrbit,
    DiskMetric,
    EntanglementReport,
    HydrogenPhases,
    InterferometerConfig,
    Perturbation,
    PhaseResult,
    RegimeCheck,
    SweepRow,
    SweepSpec,
    UnitSystem,
    bohr_orbit,
    constants_for,
    entanglement_report,
    hydrogen_pair_report,
    hydrogen_phase,
    perturbation,
    regime_check,
    report_from_parameters,
    rotating_disk_metric,
    sagnac_phase,
    solve_omega2,
    solve_r2,
    sweep,
)

NATURAL = constants_for(UnitSystem.NATURAL)
SI = constants_for(UnitSystem.SI)
WORKED = (1000.0, 1.0, math.sqrt(2.0), 0.01, 0.0105)

MODULE_FILES = sorted(Path(qsagnac.__file__).parent.glob("*.py"))
MODULES = [importlib.import_module(f"qsagnac.{path.stem}") for path in MODULE_FILES
           if path.stem != "__init__"]


def _is_record(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")


def _is_unchecked(record: type) -> bool:
    """True when the first __new__ up record's MRO is the one namedtuple
    writes, on the class that namedtuple made."""
    owner = next(k for k in record.__mro__ if "__new__" in vars(k))
    return owner.__bases__ == (tuple,) and hasattr(owner, "_fields")


RECORDS = {
    obj for mod in MODULES for obj in vars(mod).values()
    if _is_record(obj) and obj.__module__ == mod.__name__
}
UNCHECKED = {r for r in RECORDS if _is_unchecked(r)}


def test_the_package_has_four_checked_records_and_eight_unchecked():
    assert {r.__name__ for r in RECORDS - UNCHECKED} == {
        "InterferometerConfig", "PureState2x2", "SweepSpec", "ConstantSet"
    }
    assert UNCHECKED == {
        RegimeCheck, EntanglementReport, PhaseResult, DiskMetric, Perturbation,
        BohrOrbit, HydrogenPhases, SweepRow,
    }


def _sweep_5_rows():
    base = InterferometerConfig(*WORKED, units=UnitSystem.NATURAL)
    return sweep(SweepSpec("omega2", 0.009, 0.012, 5, base))


PUBLIC_CALLS = {
    "entanglement_report": lambda: entanglement_report(
        InterferometerConfig(*WORKED, units=UnitSystem.NATURAL)
    ),
    "solve_omega2": lambda: solve_omega2(*WORKED[:4], 0, NATURAL),
    "solve_r2": lambda: solve_r2(1000.0, 1.0, 0.01, 0.0105, 0, NATURAL),
    "hydrogen_pair_report": lambda: hydrogen_pair_report(1, 2, SI),
    "sagnac_phase": lambda: sagnac_phase(1.0, 0.001, 1.0, NATURAL),
    "rotating_disk_metric": lambda: rotating_disk_metric(0.1, 1.0, NATURAL),
    "sweep": _sweep_5_rows,
}


@pytest.mark.parametrize("call", PUBLIC_CALLS.values(), ids=PUBLIC_CALLS)
def test_no_public_call_runs_a_python_record_constructor(call):
    forbidden = [(r.__new__.__code__, f"{r.__name__}.__new__") for r in UNCHECKED]
    forbidden += [(r._make.__func__.__code__, "namedtuple's _make") for r in UNCHECKED]
    seen = []

    def hook(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code)

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    ran = {label for code in seen for f, label in forbidden if code is f}
    assert not ran


# (record the call returns, the call): every public function that returns
# an unchecked record, and the records held inside them
RETURNS = {
    "regime_check": (RegimeCheck, lambda: regime_check(0.5, 1.0, NATURAL)),
    "entanglement_report": (EntanglementReport, PUBLIC_CALLS["entanglement_report"]),
    "report_from_parameters": (
        EntanglementReport, lambda: report_from_parameters(*WORKED, NATURAL)
    ),
    "hydrogen_pair_report": (EntanglementReport, PUBLIC_CALLS["hydrogen_pair_report"]),
    "sagnac_phase": (PhaseResult, PUBLIC_CALLS["sagnac_phase"]),
    "sagnac_phase.regime": (RegimeCheck, lambda: PUBLIC_CALLS["sagnac_phase"]().regime),
    "rotating_disk_metric": (DiskMetric, PUBLIC_CALLS["rotating_disk_metric"]),
    "perturbation": (
        Perturbation, lambda: perturbation(rotating_disk_metric(0.1, 1.0, NATURAL))
    ),
    "bohr_orbit": (BohrOrbit, lambda: bohr_orbit(3, SI)),
    "hydrogen_phase": (HydrogenPhases, lambda: hydrogen_phase(3, SI)),
    "sweep": (SweepRow, lambda: _sweep_5_rows()[2]),
}


@pytest.mark.parametrize("record, call", RETURNS.values(), ids=RETURNS)
def test_a_returned_record_is_its_namedtuple(record, call):
    r = call()
    assert type(r) is record
    assert len(r) == len(record._fields)
    assert record(*r) == r
    assert r._asdict() == dict(zip(record._fields, r))
    again = pickle.loads(pickle.dumps(r))
    assert type(again) is record and again == r
    field = record._fields[0]
    replaced = r._replace(**{field: r[0]})
    assert type(replaced) is record and replaced == r


def _is_tuple_new(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "tuple")


def _tuple_new_builds(tree):
    """(class name, node) for each record a tuple.__new__ builds in tree:
    tuple.__new__(X, ...) and map(tuple.__new__, repeat(X), ...). A
    tuple.__new__ in any other form is returned with a None name."""
    calls = {id(n.func): n.args[0] for n in ast.walk(tree)
             if isinstance(n, ast.Call) and _is_tuple_new(n.func) and n.args}
    for n in ast.walk(tree):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "map" and len(n.args) >= 2
                and _is_tuple_new(n.args[0]) and isinstance(n.args[1], ast.Call)
                and isinstance(n.args[1].func, ast.Name)
                and n.args[1].func.id == "repeat" and len(n.args[1].args) == 1):
            calls[id(n.args[0])] = n.args[1].args[0]
    for n in ast.walk(tree):
        if _is_tuple_new(n):
            arg = calls.get(id(n))
            yield (arg.id if isinstance(arg, ast.Name) else None), n


def _own_new_builds(tree, module):
    """The ids of the tuple.__new__(cls, ...) calls inside the __new__ of a
    checked record that tree defines."""
    allowed = set()
    for cls_node in tree.body:
        record = getattr(module, getattr(cls_node, "name", ""), None)
        if not (isinstance(cls_node, ast.ClassDef) and _is_record(record)
                and not _is_unchecked(record)):
            continue
        for fn in cls_node.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__new__":
                allowed |= {id(n) for name, n in _tuple_new_builds(fn) if name == "cls"}
    return allowed


@pytest.mark.parametrize("path", MODULE_FILES, ids=[p.name for p in MODULE_FILES])
def test_tuple_new_builds_only_unchecked_records(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    module = importlib.import_module(
        "qsagnac" if path.stem == "__init__" else f"qsagnac.{path.stem}"
    )
    allowed = _own_new_builds(tree, module)
    bad = []
    for name, node in _tuple_new_builds(tree):
        if id(node) in allowed:
            continue
        if name is None or getattr(module, name, None) not in UNCHECKED:
            bad.append(f"{path.name}:{node.lineno} builds {name}")
    assert not bad


def test_the_ast_check_refuses_a_checked_record():
    source = (
        "tuple.__new__(InterferometerConfig, (1.0,))\n"
        "map(tuple.__new__, repeat(ConstantSet), rows)\n"
        "build = tuple.__new__\n"
        "tuple.__new__(RegimeCheck, (0.1, None))\n"
    )
    names = [str(name) for name, _ in _tuple_new_builds(ast.parse(source))]
    assert sorted(names) == ["ConstantSet", "InterferometerConfig", "None", "RegimeCheck"]
