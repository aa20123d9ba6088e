"""The public API: each name in `sl2btree._EXPORTS` is the attribute of its module."""

import inspect
import os
import pathlib
import subprocess
import sys
from importlib import import_module

import pytest

import sl2btree
from sl2btree import autom, cli, errors, lattice, literals, polys, quotient
from sl2btree import series, tree, verify

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIELD = import_module("sl2btree.field")
MODULES = [autom, cli, errors, FIELD, lattice, literals, polys]
MODULES += [quotient, series, tree, verify]

# removed because nothing outside the tests produced or read them
DELETED = [
    "FreeProductReport",
    "StabilizerGroup",
    "UnknownCusp",
    "free_product_report",
    "stabilizer_bruteforce",  # a test oracle, now in tests/brute_force.py
    # the drift's oracle, now in tests/brute_force.py: no package path factors an end stabilizer
    "BorelDecomposition",
    "decompose_end_stabilizer",
    "zero_end_conjugator",
    # the unipotent certificates' record, the expansion count's refusal and
    # a Bezout helper, which only tests used
    "UnipotentInfo",
    "NotOnAxisError",
    "xgcd_t",  # tests/brute_force.py keeps its own
]
DELETED_METHODS = [
    (lattice.NagaoLattice, "stabilizer"),
    (lattice.NagaoLattice, "stabilizer_order"),
    (lattice.CosetTable, "identity"),
    (quotient.QuotientVertex, "cusp"),
    (lattice.NagaoLattice, "is_cuspidal"),
    (lattice.NagaoLattice, "end_conjugator"),
    # removed because they restated another value, which the comment names
    (lattice.ReducedVertex, "vertex"),  # Vertex(level, 0)
    (quotient.QuotientVertex, "is_cusp"),  # order is None
    (quotient.RayTail, "levels"),  # consecutive from base_level
    (quotient.RayTail, "step_index"),  # lattice.q
    (quotient.GrowthProbe, "step_index"),  # lattice.q
    (quotient.CuspsReport, "ray_count"),  # len(graph.rays)
    (quotient.CertifiedIndependent, "cusp"),  # the arguments
    (quotient.CertifiedIndependent, "radius_vertex"),
    (quotient.CertifiedIndependent, "truncation"),
    (quotient.CertifiedIndependent, "vertices_checked"),  # len(members)
    (quotient.GraphOfGroups, "field"),  # lattice.field
    (tree.TruncatedEnd, "horizon"),  # known_depth()
    (lattice.CuspData, "parameter_multiple"),  # lattice.level
    (lattice.CuspData, "stabilizer_index"),  # len(lattice.scalar_units)
    (quotient.RayTail, "cusp_index"),  # CuspsReport.matches
    (quotient.RayTail, "base_level"),  # vertices[0].level
    (quotient.HoroballMember, "residue_inverse"),  # CosetTable.inverse(residue)
    (lattice.CuspData, "conjugator"),  # carrier.adjugate()
    (quotient._TransporterAlgebra, "transporter"),  # moving_transporter with no end
    # removed because only tests called them; the acceptance criteria keep
    # their facts through horosphere counts, horoellipses and fixing_depth
    (autom.TreeAutomorphism, "quasi_unipotent_scalar"),
    (autom.TreeAutomorphism, "unipotent_fixed_end"),
    (autom.TreeAutomorphism, "unipotent_class"),
    (autom.TreeAutomorphism, "modular_expansion_count"),
    (autom.TreeAutomorphism, "contraction_depths"),
    # removed with them: the methods above were their only callers
    (autom.TreeAutomorphism, "axis_vertex"),
    (FIELD.FieldElement, "sqrt"),
    (tree.Tree, "horoellipse_contains"),
]


def _run(code: str, *paths: pathlib.Path) -> str:
    """Run code in a fresh interpreter with the given paths importable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(p) for p in paths)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_exported_name_resolves_once():
    assert len(set(sl2btree.__all__)) == len(sl2btree.__all__)
    for name in sl2btree.__all__:
        assert getattr(sl2btree, name) is not None, name


def test_each_export_is_the_attribute_of_its_module():
    assert sl2btree.__all__ == list(sl2btree._EXPORTS)
    for name, module in sl2btree._EXPORTS.items():
        assert getattr(sl2btree, name) is getattr(import_module(f"sl2btree.{module}"), name)


def test_importing_the_package_loads_no_module():
    code = "import sys, sl2btree; print(sorted(m for m in sys.modules if m.startswith('sl2btree.')))"
    assert _run(code, ROOT / "src") == "[]\n"


def test_bench_tracing_sees_every_layer_through_cli():
    # bench/tracing.py wraps the layer modules that `import sl2btree.cli` loads;
    # install() rewraps the package in place, so it runs in its own process
    code = """
import contextlib, io
import sl2btree.cli as cli
import tracing
tr = tracing.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["cusps", "--lattice", "congruence", "--level", "t", "--truncation", "3"])
metrics = tr.metrics()
names = ["quotient.graph_builds", "quotient.transporter.pairs", "lattice.reduce_vertex.calls"]
print(code, *(metrics[name][0] for name in names))
"""
    code, *counts = map(int, _run(code, ROOT / "src", ROOT / "bench").split())
    assert code == 0
    assert all(count > 0 for count in counts), counts


def test_graphs_keep_no_field():
    G = quotient.quotient_graph(lattice.NagaoLattice(sl2btree.field(2)), 1)
    assert not hasattr(G, "field")  # G.lattice.field


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    assert not hasattr(sl2btree, name)
    assert not any(hasattr(module, name) for module in MODULES)


@pytest.mark.parametrize(
    "cls,name", DELETED_METHODS, ids=[f"{c.__name__}.{n}" for c, n in DELETED_METHODS]
)
def test_deleted_members_are_gone(cls, name):
    assert not hasattr(cls, name)
    assert name not in getattr(cls, "__slots__", ())


RECORDS = [autom.Classification]
RECORDS += [lattice.ReducedVertex, lattice.CuspData, verify.SuiteResult]
RECORDS += [quotient.QuotientVertex, quotient.QuotientEdge, quotient.RayTail]
RECORDS += [quotient.CovolumeResult, quotient.GrowthProbe, quotient.HoroballMember]
RECORDS += [quotient.CertifiedIndependent, quotient.CounterexamplePair]
RECORDS += [quotient.FamilyCertificate, quotient.CuspsReport]


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_records_are_plain_classes_with_slots(cls):
    # so the `__slots__` check above sees every field a record has
    assert "__slots__" in vars(cls) and not hasattr(cls, "__dataclass_fields__")
    fields = inspect.signature(cls).parameters
    assert list(fields) == list(cls.__slots__)


def test_importing_the_cli_loads_no_dataclasses():
    # a cold start pays for `dataclasses` and the `inspect` it imports; site's modules do not count
    code = """
import sys
before = set(sys.modules)
import sl2btree.cli
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
"""
    assert _run(code, ROOT / "src") == "[]\n"


def test_cusp_questions_take_one_argument():
    assert list(inspect.signature(quotient.contract).parameters) == ["G"]
