"""Exact arithmetic on the Bruhat-Tits tree of SL2 over F_q((pi)).

Truncated Laurent-series arithmetic with explicit precision, the (q+1)-regular
tree of lattice classes with its boundary, classification of tree
automorphisms, the polynomial-entry lattices SL2(F_q[t]) and their principal
congruence subgroups, quotient graphs of groups with exact covolumes, and
cusp detection and contraction.

Every public name is listed once, in `_EXPORTS` with the module that defines
it, and is imported from there on first use (PEP 562), so importing the
package loads none of its modules.
"""

import importlib
import sys
import types

_EXPORTS = {
    "DoesNotFixEnd": "errors",
    "EndPrecisionExhausted": "errors",
    "EqualEndsError": "errors",
    "IndeterminateValuation": "errors",
    "InsufficientPrecision": "errors",
    "InvalidInputError": "errors",
    "NonterminationGuard": "errors",
    "NotFixingError": "errors",
    "NotTypePreserving": "errors",
    "SizeGuardExceeded": "errors",
    "Sl2BTreeError": "errors",
    "UncertifiedTail": "errors",
    "Field": "field",
    "FieldElement": "field",
    "field": "field",
    "INFINITY": "series",
    "LaurentSeries": "series",
    "End": "tree",
    "RationalEnd": "tree",
    "Tree": "tree",
    "TruncatedEnd": "tree",
    "UpEnd": "tree",
    "Vertex": "tree",
    "end_from_vector": "tree",
    "Classification": "autom",
    "TreeAutomorphism": "autom",
    "drift_along_end": "autom",
    "format_end": "literals",
    "format_matrix": "literals",
    "format_series": "literals",
    "format_vertex": "literals",
    "parse_end": "literals",
    "parse_matrix": "literals",
    "parse_series": "literals",
    "parse_vertex": "literals",
    "CongruenceLattice": "lattice",
    "CosetTable": "lattice",
    "CuspData": "lattice",
    "NagaoLattice": "lattice",
    "ReducedVertex": "lattice",
    "CertifiedIndependent": "quotient",
    "CounterexamplePair": "quotient",
    "CovolumeResult": "quotient",
    "CuspsReport": "quotient",
    "FamilyCertificate": "quotient",
    "GraphOfGroups": "quotient",
    "GrowthProbe": "quotient",
    "HoroballMember": "quotient",
    "QuotientEdge": "quotient",
    "QuotientVertex": "quotient",
    "RayTail": "quotient",
    "certify_independent_family": "quotient",
    "certify_independent_horoball": "quotient",
    "contract": "quotient",
    "covolume": "quotient",
    "cusps_report": "quotient",
    "growth_probe": "quotient",
    "quotient_graph": "quotient",
    "SUITES": "verify",
    "SuiteResult": "verify",
    "run_all": "verify",
    "run_suite": "verify",
}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule `field` binds it here; the function stays the export
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
