"""Command-line interface.

Seven subcommands over the lattice/quotient machinery:

    quotient   quotient graph of groups as JSON or DOT
    covolume   exact covolume of the quotient, as num/den
    classify   elliptic/hyperbolic classification of one matrix
    cusps      algebraic cusps matched against geometric rays
    contract   quotient graph with certified tails collapsed to cusp vertices
    probe      stabilizer orders along the walk toward an end
    verify     seeded self-verification suites

Exit codes: 0 success, 1 verification failure (uncertified tail, failed
suite, counterexample, exceeded bound), 2 precision exhausted,
3 invalid input, 4 size guard tripped, 5 internal self-check failed. All
output is deterministic for fixed arguments.
"""

import argparse
import functools
import json
import sys

from .errors import (
    DoesNotFixEnd,
    EndPrecisionExhausted,
    EqualEndsError,
    IndeterminateValuation,
    InsufficientPrecision,
    InvalidInputError,
    NonterminationGuard,
    NotFixingError,
    NotOnAxisError,
    NotTypePreserving,
    SizeGuardExceeded,
    UncertifiedTail,
)
from .field import field
from .lattice import CongruenceLattice, NagaoLattice
from .literals import format_end, format_vertex, parse_end, parse_matrix, parse_series
from .quotient import (
    CounterexamplePair,
    certify_independent_family,
    contract,
    covolume,
    cusps_report,
    growth_probe,
    quotient_graph,
)
from .tree import Vertex
from .series import LaurentSeries
from .verify import SUITES, run_all

_PRECISION_ERRORS = (
    InsufficientPrecision,
    IndeterminateValuation,
    EndPrecisionExhausted,
)
_INPUT_ERRORS = (
    InvalidInputError,
    EqualEndsError,
    DoesNotFixEnd,
    NotFixingError,
    NotOnAxisError,
    NotTypePreserving,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported on the invalid-input exit code."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _field_from_args(args):
    modulus = None
    if getattr(args, "modulus", None):
        try:
            modulus = tuple(int(p) for p in args.modulus.split(","))
        except ValueError:
            raise InvalidInputError(
                "--modulus takes comma-separated integer coefficients, "
                "constant term first"
            )
    return field(args.q, modulus)


def _lattice_from_args(args):
    F = _field_from_args(args)
    if args.lattice == "congruence":
        if not args.level:
            raise InvalidInputError("--level is required for the congruence lattice")
        return CongruenceLattice(F, parse_series(F, args.level))
    return NagaoLattice(F)


def _covolume_or_none(graph):
    """The covolume, or None when some ray is not certified at this depth."""
    try:
        return covolume(graph)
    except UncertifiedTail:
        return None


def _graph_text(graph, fmt: str, cov) -> str:
    if fmt == "dot":
        return graph.to_dot()
    out = graph.to_json_dict()
    out["covolume"] = None if cov is None else str(cov)
    return json.dumps(out, indent=2) + "\n"


# -- subcommands ------------------------------------------------------------------


def _cmd_quotient(args):
    lattice = _lattice_from_args(args)
    G = quotient_graph(lattice, args.depth)
    return 0, _graph_text(G, args.format, _covolume_or_none(G))


def _cmd_covolume(args):
    lattice = _lattice_from_args(args)
    G = quotient_graph(lattice, args.depth)
    result = covolume(G)
    return 0, f"{result}\n"


def _cmd_classify(args):
    F = _field_from_args(args)
    g = parse_matrix(F, args.matrix)
    cls = g.classify(ends_depth=args.ends)
    if cls.kind == "elliptic":
        out = {"kind": "elliptic", "fixed_vertex": format_vertex(cls.fixed_vertex)}
    else:
        out = {"kind": "hyperbolic", "length": cls.length}
        if args.ends is not None:
            out["attracting"] = format_end(cls.attracting)
            out["repelling"] = format_end(cls.repelling)
    return 0, json.dumps(out, separators=(",", ":")) + "\n"


def _cmd_cusps(args):
    lattice = _lattice_from_args(args)
    report = cusps_report(lattice, args.depth)
    out = {
        "count": len(report.algebraic),
        "cusps": [
            {
                "end": format_end(c.end),
                "parameter_multiple": str(c.parameter_multiple),
                "stabilizer_index": c.stabilizer_index,
            }
            for c in report.algebraic
        ],
        "ray_count": report.ray_count,
        "matches": [list(m) for m in report.matches],
        "bijective": report.bijective,
    }
    code = 0
    if args.truncation is not None:
        entry = {ci: ri for ci, ri in report.matches}
        radii = []
        for i, cusp in enumerate(report.algebraic):
            base = report.graph.rays[entry[i]].base_level if i in entry else 1
            carrier = cusp.conjugator.adjugate()
            radii.append(
                carrier.act_vertex(
                    Vertex(base, LaurentSeries.zero(lattice.field))
                )
            )
        verdict = certify_independent_family(
            lattice, report.algebraic, radii, args.truncation
        )
        if isinstance(verdict, CounterexamplePair):
            code = 1
            out["certified"] = False
            out["counterexample"] = {
                "y": format_vertex(verdict.y),
                "y_prime": format_vertex(verdict.y_prime),
                "gamma": str(verdict.gamma),
            }
        else:
            out["certified"] = True
            out["pairs_checked"] = sum(s.pairs_checked for s in verdict.singles)
            out["cross_pairs_checked"] = verdict.cross_pairs_checked
    return code, json.dumps(out, indent=2) + "\n"


def _cmd_contract(args):
    lattice = _lattice_from_args(args)
    G = quotient_graph(lattice, args.depth)
    cov = _covolume_or_none(G)
    return 0, _graph_text(contract(G), args.format, cov)


def _cmd_probe(args):
    lattice = _lattice_from_args(args)
    F = lattice.field
    end = parse_end(F, args.end)
    probe = growth_probe(lattice, end, args.depth)
    out = {
        "orders": probe.orders,
        "reduced_levels": probe.reduced_levels,
        "entry_radius": probe.entry_radius,
        "step_index": probe.step_index,
        "truncated_at": probe.truncated_at,
    }
    code = 0
    if args.max_order is not None:
        out["max_order"] = args.max_order
        out["bounded"] = all(o <= args.max_order for o in probe.orders)
        if not out["bounded"]:
            code = 1
    return code, json.dumps(out, indent=2) + "\n"


def _cmd_verify(args):
    F = _field_from_args(args)
    names = None
    if args.suites is not None:
        names = [s.strip() for s in args.suites.split(",") if s.strip()]
        if not names:
            raise InvalidInputError(
                f"--suites names no suite; known: {', '.join(SUITES)}"
            )
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise InvalidInputError(
                f"unknown suites {unknown}; known: {', '.join(SUITES)}"
            )
    results = run_all(F, seed=args.seed, names=names)
    lines = []
    failed = False
    for r in results:
        lines.append(str(r))
        if not r.passed:
            failed = True
            lines.extend(f"  {f}" for f in r.failures)
    return (1 if failed else 0), "\n".join(lines) + "\n"


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sl2btree",
        description="Lattices on the Bruhat-Tits tree of SL2 over F_q((pi)): "
        "quotient graphs, covolumes, cusps.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, default=2, help="residue field size")
    common.add_argument(
        "--modulus",
        help="irreducible modulus for a non-prime field, as comma-separated "
        "coefficients (constant first), e.g. 1,1,1 for q=4",
    )
    common.add_argument("--out", help="write the output to this file")
    lat = argparse.ArgumentParser(add_help=False)
    lat.add_argument(
        "--lattice",
        choices=("nagao", "congruence"),
        default="nagao",
        help="full polynomial lattice or a principal congruence subgroup",
    )
    lat.add_argument("--level", help="congruence level, a polynomial in t")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "quotient", parents=[common, lat], help="quotient graph of groups"
    )
    p.add_argument("--depth", type=int, default=8, help="levels to enumerate")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser(
        "covolume", parents=[common, lat], help="exact covolume as num/den"
    )
    p.add_argument("--depth", type=int, default=8)

    p = sub.add_parser(
        "classify", parents=[common], help="classify one matrix on the tree"
    )
    p.add_argument("matrix", help='matrix literal like "[[p^-1,0],[0,p]]"')
    p.add_argument(
        "--ends",
        type=int,
        default=None,
        metavar="DEPTH",
        help="for hyperbolic elements, include axis ends to this depth",
    )

    p = sub.add_parser(
        "cusps", parents=[common, lat], help="cusp representatives and ray matching"
    )
    p.add_argument("--depth", type=int, default=8)
    p.add_argument(
        "--truncation",
        type=int,
        default=None,
        metavar="T",
        help="also certify independent horoballs out to this radius",
    )

    p = sub.add_parser(
        "contract",
        parents=[common, lat],
        help="quotient graph with certified tails contracted",
    )
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser(
        "probe", parents=[common, lat], help="stabilizer growth along an end"
    )
    p.add_argument("end", help='end literal: "up", "rat(num, den)", "trunc(s, N)"')
    p.add_argument("--depth", type=int, default=12)
    p.add_argument(
        "--max-order",
        type=int,
        default=None,
        help="fail (exit 1) if any order along the walk exceeds this",
    )

    p = sub.add_parser(
        "verify", parents=[common], help="run the seeded identity suites"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--suites", help="comma-separated suite names (default: all of them)"
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call rather than at import, then shared by every
    # later call in the process: parsing leaves the parser unchanged.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a handler replaced after the parser was built
    # is the one that runs
    handler = globals()[f"_cmd_{args.command}"]
    try:
        code, text = handler(args)
    except UncertifiedTail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _PRECISION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonterminationGuard as exc:
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return 5
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
