"""Per-layer microbenchmark of congruence quotients: coset partitions,
graph assembly on coset numbers and as records, the covolume, the graph's
JSON text, cusp representatives, cusp matching, contraction and horoball
certification.

For each lattice below it prints the minimum over repeats of nine rows, in
milliseconds. The repeats are interleaved: each one times every row of
every lattice once, so a slow phase of a shared machine falls on all rows
alike. Run from the root of a checkout:

    PYTHONPATH=src python3 tools/microbench_quotient.py

- `partitions`: a table's construction and every partition that a
  quotient to depth 8 reads, the `CosetTable.vertex_partition(n)` and
  `coset_partition(n)` of the levels 0..8: the count of first rows, B_0's
  least members by the digit test, each coarser level's least members by
  their first-column keys, the origin's cosets, and the lists of coset
  numbers.
- `quotient_graph`: `quotient_graph(lattice, 8)` on a lattice whose
  table already holds those partitions, and a read of its `vertices` and
  `edges`: the ray tails found on the number lists, then the vertex and
  edge records, which the graph builds when first read.
- `covolume`: `covolume(quotient_graph(lattice, 8))` on the same table,
  the tails and the per-level edge counts with no records, as the
  `covolume` command runs it.
- `json.dumps`: `json.dumps(G.to_json_dict(), indent=2)` of that graph,
  the reference text.
- `_json_text`: `cli._json_text` of the same dict, which the command line
  prints; it must equal the reference, and the tool checks that it does.
- `cusp_representatives`: `lattice.cusp_representatives()` on the same
  table, one lift per cusp and the end of its first column.
- `cusps_report`: `cusps_report(lattice, 8)`, the graph's tails again
  plus the cusp representatives and their matching to the rays.
- `contract`: `contract(G)` of the graph above.
- `certify_independent_family`: the family certificate of the cusps of
  that report at truncation 4, through its `radius_vertices()`, as
  `cusps --truncation 4` runs it.

Gamma(t^3) over F_3 has 17 496 members, near the size guard's bound of
20 000. The Nagao lattices over F_8 and F_9 have the zero ring as residue
ring, so their rows measure the fixed cost of a table that has one member.
"""

import json
import time

from microbench_arith import interleaved_min
from sl2btree import cli
from sl2btree.field import field
from sl2btree.lattice import CongruenceLattice, CosetTable, NagaoLattice
from sl2btree.literals import parse_series
from sl2btree.quotient import (
    certify_independent_family, contract, covolume, cusps_report, quotient_graph,
)

LATTICES = [
    (2, "t^3"), (2, "t^4+t+1"), (3, "t^2"), (4, "t^2"), (3, "t^3"), (9, "t"), (8, None), (9, None),
]
DEPTH = 8
TRUNCATION = 4
REPEAT = 15  # timed runs per row; the fastest is kept


def _lattice(q, level):
    F = field(q)
    return NagaoLattice(F) if level is None else CongruenceLattice(F, parse_series(F, level))


def _partitions_s(lattice):
    t0 = time.perf_counter()
    table = CosetTable(lattice.field, lattice.level)
    for n in range(DEPTH + 1):
        table.vertex_partition(n)
        table.coset_partition(n)
    return time.perf_counter() - t0


def _timed(run):
    """A cell: run once, give the seconds taken."""
    def cell():
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    return cell


def _records(lattice):
    G = quotient_graph(lattice, DEPTH)
    return G.vertices, G.edges


def _cells(lattice):
    """The nine rows' cells of one lattice, in the order of the header."""
    quotient_graph(lattice, DEPTH)  # builds the table and its partitions
    G = quotient_graph(lattice, DEPTH)
    out = G.to_json_dict()
    if cli._json_text(out) != json.dumps(out, indent=2):
        raise SystemExit(f"_json_text differs from json.dumps at {lattice}")
    report = cusps_report(lattice, DEPTH)
    radii = report.radius_vertices()
    return [
        lambda: _partitions_s(lattice),
        _timed(lambda: _records(lattice)),
        _timed(lambda: covolume(quotient_graph(lattice, DEPTH))),
        _timed(lambda: json.dumps(out, indent=2)),
        _timed(lambda: cli._json_text(out)),
        _timed(lattice.cusp_representatives),
        _timed(lambda: cusps_report(lattice, DEPTH)),
        _timed(lambda: contract(G)),
        _timed(lambda: certify_independent_family(lattice, report.algebraic, radii, TRUNCATION)),
    ]


def main():
    rows = ("partitions", "quotient_graph", "covolume", "json.dumps", "_json_text",
            "cusp_representatives", "cusps_report", "contract", "certify_independent_family")
    cells = [cell for q, level in LATTICES for cell in _cells(_lattice(q, level))]
    best = interleaved_min(cells, REPEAT)
    print(f"{'ms':<22}" + "".join(f"{name:>28}" for name in rows))
    for k, (q, level) in enumerate(LATTICES):
        name = f"F_{q} " + ("nagao" if level is None else level)
        times = best[k * len(rows):(k + 1) * len(rows)]
        print(f"{name:<22}" + "".join(f"{t * 1e3:28.3f}" for t in times))


if __name__ == "__main__":
    main()
