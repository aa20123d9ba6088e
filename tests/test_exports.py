"""The public API: `sl2btree.__all__` lists exactly what the package imports."""

import ast
import inspect
import pathlib

import pytest

import sl2btree
from sl2btree import autom, cli, errors, field, lattice, literals, polys, quotient
from sl2btree import series, tree, verify

MODULES = [autom, cli, errors, field, lattice, literals, polys, quotient, series, tree, verify]

# removed because nothing outside the tests produced or read them
DELETED = [
    "FreeProductReport",
    "StabilizerGroup",
    "UnknownCusp",
    "free_product_report",
]
DELETED_METHODS = [
    (lattice.NagaoLattice, "stabilizer"),
    (lattice.NagaoLattice, "stabilizer_order"),
    (lattice.CosetTable, "identity"),
    (quotient.QuotientVertex, "cusp"),
]


def _imported_names():
    source = pathlib.Path(sl2btree.__file__).read_text()
    return [
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_exported_name_resolves_once():
    assert len(set(sl2btree.__all__)) == len(sl2btree.__all__)
    for name in sl2btree.__all__:
        assert getattr(sl2btree, name) is not None, name


def test_exports_are_the_imported_names():
    assert sorted(sl2btree.__all__) == sorted(_imported_names())


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    assert not hasattr(sl2btree, name)
    assert not any(hasattr(module, name) for module in MODULES)


@pytest.mark.parametrize(
    "cls,name", DELETED_METHODS, ids=[f"{c.__name__}.{n}" for c, n in DELETED_METHODS]
)
def test_deleted_members_are_gone(cls, name):
    assert not hasattr(cls, name)
    assert name not in getattr(cls, "__dataclass_fields__", {})


def test_cusp_questions_take_one_argument():
    assert list(inspect.signature(quotient.contract).parameters) == ["G"]
    assert list(inspect.signature(lattice.NagaoLattice.is_cuspidal).parameters) == [
        "self",
        "end",
    ]
