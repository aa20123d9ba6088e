"""Per-layer microbenchmark of the exact arithmetic, the tree's vertices,
vertex reduction and horoball certification.

Times series `+`, `-`, `*`, the product of two matrices
(`TreeAutomorphism.__mul__`) and the matrix formulas on top of it, the
tree's vertex operations, vertex reduction and the certification of one
horoball over F_2, F_3, F_4 and F_9 on fixed operands, and prints the
minimum over repeats of the time per operation, in microseconds. The
repeats are interleaved: each one times every row at every field once, so
a slow phase of a shared machine falls on all rows alike instead of
shifting the rows that happen to run during it. Run from the root of a
checkout:

    PYTHONPATH=src python3 tools/microbench_arith.py

Series operands are exact, with nonzero digits at 1 to 4 of the degrees
-3..3; the matrices are products of one upper and one lower shear by such
series, so they are exact and of determinant 1. The matrix rows are: the
product; `det` of a matrix built afresh from the same entries for each
call, since the determinant is kept once computed; `act_vertex` on a
random vertex, whose residue is one `LaurentSeries.quotient`; `act_end` on
a random end; and `drift_along_end` toward the zero end of
diag(a, 1/a) * step^k * an upper shear, k in -2..2, the elements the drift
suite draws, which reads the eigenvalue on the end's vector.

The Euclidean rows: `inverse` to 8, 16 and 32 terms of an exact series
with nonzero digits at 2 to 4 of the degrees -3..3; `quotient 16`, the
quotient of two such series to 16 digits from its valuation, the same
count of digits as `inverse 16` followed by a product; `divmod_t` of a
polynomial of t-degree 6 by one of degree 3; `gcd_t` of two of degree 4;
`RationalEnd` construction from two of degree 0 to 2, which takes their gcd
and divides it out; and `series hash`, the hash of a series of the
`inverse` rows whose cached hash is cleared first.

Every row draws its digits as `Field` elements from all of the field (the
units where a digit must be nonzero), so over F_4 and F_9 they are not
confined to the prime field.

Vertices have a level in -3..5 and random digits at the four degrees below
it; ends are y/x for random polynomials of degree at most 2 in t. The
vertex rows are: construction from a level and a residue (`vertex new`);
`==` between a
vertex and an equal one built from a copy of its residue (`vertex ==`);
`hash` of a vertex hashed before, as in a set that is probed again
(`vertex hash`); `Tree.neighbors`; `Tree.step_to_end` toward an end;
`Tree.busemann` from one base vertex toward one end, to a vertex built
afresh for each call, so that the row includes that construction; and
`busemann trunc`, the same toward one truncated end of horizon 14 drawn as
`verify` draws one (each digit of degree 1..13 random with probability
1/2), where `busemann` checks the end's horizon against m(x) and d(x, y)
and walks toward the end only when that walk would be refused. The
`busemann bfs` row is a breadth-first search of radius 5 from a freshly
built vertex (0; 0), one `Tree.busemann` value toward one end per vertex
reached (94, 485, 1 706 and 73 811 vertices), per vertex. The `sphere 4`
row is `Tree.sphere` of radius 4 from a freshly built vertex (0; 0), per
vertex reached ((q + 1) q^3: 24, 108, 320 and 7 290 vertices); its search
steps back through parents that children remember, a path the `neighbors`
row on fresh vertices never takes.

The `end separation` row is `end_difference_valuation` of a rational or
a truncated end, one each with probability 1/2, and a truncated end, both
drawn as above, so half its pairs are rational-truncated and half
truncated-truncated.

The `attracting_end 64` row is `TreeAutomorphism.attracting_end` to depth
64 of eight matrices drawn as the matrix rows draw them, kept when they are
hyperbolic; neither off-diagonal entry is zero, so each end is certified
from the powers of the matrix. It is the time per matrix, each call on a
fresh copy, which has no determinant kept. The `attracting_end 2048` row
is one call to depth 2048 for [[t,1],[1,0]], on a fresh copy; its end is
read off the one power g^1025, whose entries have degree up to 1025 in t.
The `inexact end 1100` row is one call to depth 1100 for [[t,1 mod
p^3000],[1,0]], whose end is read off g^551, formed from an entry known to
3 000 digits.

The `reduce_vertex` row is `NagaoLattice.reduce_vertex` on vertices of
level -3..12 with random digits (zero included) at 0 to 12 of the degrees
just below the level, the range that horoball members reach.

The `horoball certify` row is `certify_independent_horoball` for the cusp
of SL_2(F_q[t]) at the radius vertex (1; 0), out to truncation 5, per
member of the horoball (14, 26, 42 and 182 members). Each timed run is one
call on a lattice that has certified the same horoball once before, so its
residue tables are built and the row measures the check itself.

A last table times the construction of large fields, `Field(p, e)`, in
milliseconds: F_{2^13}, F_{2^14}, F_{3^8} and F_16381, each on its first
irreducible modulus, the least when its coefficients are read as the base-p
digits of an integer (x for the prime field). The search for that modulus
is not timed.
"""

import random
import timeit

from sl2btree.autom import TreeAutomorphism, drift_along_end
from sl2btree.errors import InvalidInputError
from sl2btree.field import Field, field
from sl2btree.lattice import NagaoLattice
from sl2btree.literals import parse_matrix, parse_vertex
from sl2btree.polys import divmod_t, gcd_t
from sl2btree.quotient import certify_independent_horoball
from sl2btree.series import LaurentSeries
from sl2btree.tree import (
    RationalEnd,
    Tree,
    TruncatedEnd,
    Vertex,
    end_difference_valuation,
    end_from_vector,
)

QS = (2, 3, 4, 9)
PAIRS = 64
REPEAT = 7  # timed runs per row; the fastest is kept
LARGE_FIELDS = ((2, 13), (2, 14), (3, 8), (16381, 1))
FIELD_REPEAT = 3


def _series(rng, F):
    units = list(F.units())
    degrees = rng.sample(range(-3, 4), rng.randint(1, 4))
    return LaurentSeries.exact(F, {d: rng.choice(units) for d in degrees})


def _matrix(rng, F):
    return TreeAutomorphism.upper_shear(F, _series(rng, F)) * TreeAutomorphism.lower_shear(
        F, _series(rng, F)
    )


def _zero_end_fixer(rng, F):
    alpha = rng.choice(list(F.units()))
    diag = TreeAutomorphism.diagonal(
        F, LaurentSeries.exact(F, {0: alpha}), LaurentSeries.exact(F, {0: alpha.inverse()})
    )
    step = TreeAutomorphism.standard_step_power(F, rng.randrange(-2, 3))
    return diag * step * TreeAutomorphism.upper_shear(F, _series(rng, F))


def _unit_series(rng, F):
    units = list(F.units())
    degrees = rng.sample(range(-3, 4), rng.randint(2, 4))
    return LaurentSeries(F, {d: rng.choice(units) for d in degrees})


def _t_poly(rng, F, degree):
    """A polynomial in t of exactly the given degree, random lower digits."""
    elems = list(F.elements())
    digits = {-d: rng.choice(elems) for d in range(degree)}
    return LaurentSeries(F, {**digits, -degree: rng.choice(elems[1:])})


def _fresh_hash(s):
    s._hash = None
    return hash(s)


def _vertex(rng, F):
    elems = list(F.elements())
    n = rng.randrange(-3, 6)
    coeffs = {d: rng.choice(elems) for d in range(n - 4, n)}
    return Tree(F).vertex(n, LaurentSeries.exact(F, coeffs))


def _end(rng, F):
    elems = list(F.elements())

    def poly():
        return LaurentSeries.exact(F, {-d: rng.choice(elems) for d in range(3)})

    x = poly()
    return end_from_vector(F, x if x.has_terms() else LaurentSeries.one(F), poly())


def _truncated_end(rng, F, horizon=14):
    elems = list(F.elements())
    digits = {d: rng.choice(elems) for d in range(1, horizon) if rng.random() < 0.5}
    return TruncatedEnd(F, LaurentSeries(F, digits, horizon))


def _busemann_to_fresh(tree, x, n, residue, end):
    return tree.busemann(x, Vertex(n, residue), end)


def _deep_vertex(rng, F):
    elems = list(F.elements())
    n = rng.randrange(-3, 13)
    digits = range(n - rng.randint(0, 12), n)
    return Vertex(n, LaurentSeries.exact(F, {d: rng.choice(elems) for d in digits}))


def _level_residue(rng, F):
    v = _vertex(rng, F)
    return v.level, v.residue


def _twins(rng, F):
    v = _vertex(rng, F)
    return v, Vertex(v.level, LaurentSeries.exact(F, dict(v.residue.coeffs)))


def _hashed(rng, F):
    v = _vertex(rng, F)
    hash(v)
    return (v,)


def _pair(make):
    return lambda rng, F, shared: (make(rng, F), make(rng, F))


def _quotient_operands(rng, F, digits):
    """(num, den, n) for which num.quotient(den, n) computes `digits` digits."""
    num, den = _unit_series(rng, F), _unit_series(rng, F)
    return num, den, min(num.coeffs) - min(den.coeffs) + digits


def _per_op_cell(op, operands):
    """A timed run of 20 passes over the operands, and its count of operations."""
    def run():
        for args in operands:
            op(*args)

    timer = timeit.Timer(run)
    return (lambda: timer.timeit(20)), 20 * len(operands)


def _horoball_cell(q):
    """One certification of a horoball certified once before, and its member count."""
    lattice = NagaoLattice(field(q))
    args = (lattice, lattice.cusp_representatives()[0], parse_vertex(lattice.field, "(1; 0)"), 5)
    members = len(certify_independent_horoball(*args).members)
    timer = timeit.Timer(lambda: certify_independent_horoball(*args))
    return (lambda: timer.timeit(1)), members


def _busemann_bfs_cell(q):
    """One radius-5 search with a Busemann value per vertex, and its vertex count."""
    F = field(q)
    tree = Tree(F)
    end = _end(random.Random(f"microbench:tree:{q}"), F)

    def search():
        x = Vertex(0, LaurentSeries.zero(F))
        layer = [(x, None)]
        for _ in range(5):
            layer = [(u, v) for v, back in layer for u in tree.neighbors(v) if u != back]
            for u, _ in layer:
                tree.busemann(x, u, end)

    timer = timeit.Timer(search)
    return (lambda: timer.timeit(1)), 1 + (q + 1) * (q**5 - 1) // (q - 1)


def _attracting_end_cell(q):
    """Ends to depth 64 of eight hyperbolic full matrices, and their count."""
    F = field(q)
    rng = random.Random(f"microbench:attracting_end:{q}")
    matrices = []
    while len(matrices) < 8:
        g = _matrix(rng, F)
        if g.translation_length():
            matrices.append(g)

    def run():
        for g in matrices:
            TreeAutomorphism._product(F, *g.entries()).attracting_end(64)

    timer = timeit.Timer(run)
    return (lambda: timer.timeit(1)), len(matrices)


def _deep_end_cell(q, matrix="[[t,1],[1,0]]", depth=2048):
    """One end of the matrix to the depth, on a fresh copy of the matrix."""
    F = field(q)
    g = parse_matrix(F, matrix)
    timer = timeit.Timer(
        lambda: TreeAutomorphism._product(F, *g.entries()).attracting_end(depth)
    )
    return (lambda: timer.timeit(1)), 1


def _inexact_end_cell(q):
    """One end of [[t,1 mod p^3000],[1,0]] to depth 1100."""
    return _deep_end_cell(q, "[[t,1 mod p^3000],[1,0]]", 1100)


def _sphere_cell(q):
    """One radius-4 sphere from a fresh vertex, and its vertex count."""
    F = field(q)
    tree = Tree(F)
    timer = timeit.Timer(lambda: tree.sphere(Vertex(0, LaurentSeries.zero(F)), 4))
    return (lambda: timer.timeit(1)), (q + 1) * q**3


def interleaved_min(cells, repeat):
    """The fastest of `repeat` runs of each cell, a callable giving its own
    time in seconds. Each repeat runs every cell once, so a slow phase of
    the machine falls on all cells alike rather than on one row."""
    best = [float("inf")] * len(cells)
    for _ in range(repeat):
        for i, cell in enumerate(cells):
            best[i] = min(best[i], cell())
    return best


def _first_irreducible(p, e):
    """The least monic modulus of degree e over F_p that `Field` accepts."""
    for low in range(p**e):
        modulus = tuple(low // p**i % p for i in range(e)) + (1,)
        try:
            Field(p, e, modulus)
        except InvalidInputError:
            continue
        return modulus


def _field_cell(p, e):
    modulus = _first_irreducible(p, e)
    timer = timeit.Timer(lambda: Field(p, e, modulus))
    return lambda: timer.timeit(1)


def main():
    # row -> (operands from (rng, F, shared), operation); shared is one
    # tree, one end, one base vertex, one lattice and one truncated end per field
    ops = {
        "series +": (_pair(_series), lambda x, y: x + y),
        "series -": (_pair(_series), lambda x, y: x - y),
        "series *": (_pair(_series), lambda x, y: x * y),
        "matrix *": (_pair(_matrix), lambda x, y: x * y),
        "det": (
            lambda r, F, T: (_matrix(r, F),),
            lambda g: TreeAutomorphism._product(g.field, *g.entries()).det(),
        ),
        "act_vertex": (
            lambda r, F, T: (_matrix(r, F), _vertex(r, F)),
            TreeAutomorphism.act_vertex,
        ),
        "act_end": (lambda r, F, T: (_matrix(r, F), _end(r, F)), TreeAutomorphism.act_end),
        "drift_along_end": (
            lambda r, F, T: (_zero_end_fixer(r, F), T[0].end_zero()),
            drift_along_end,
        ),
        "inverse 8": (lambda r, F, T: (_unit_series(r, F), 8), LaurentSeries.inverse),
        "inverse 16": (lambda r, F, T: (_unit_series(r, F), 16), LaurentSeries.inverse),
        "quotient 16": (lambda r, F, T: _quotient_operands(r, F, 16), LaurentSeries.quotient),
        "inverse 32": (lambda r, F, T: (_unit_series(r, F), 32), LaurentSeries.inverse),
        "divmod_t": (lambda r, F, T: (_t_poly(r, F, 6), _t_poly(r, F, 3)), divmod_t),
        "gcd_t": (lambda r, F, T: (_t_poly(r, F, 4), _t_poly(r, F, 4)), gcd_t),
        "RationalEnd": (
            lambda r, F, T: (F, _t_poly(r, F, r.randrange(3)), _t_poly(r, F, r.randrange(3))),
            RationalEnd,
        ),
        "series hash": (lambda r, F, T: (_unit_series(r, F),), _fresh_hash),
        "vertex new": (lambda r, F, T: _level_residue(r, F), Vertex),
        "vertex ==": (lambda r, F, T: _twins(r, F), lambda x, y: x == y),
        "vertex hash": (lambda r, F, T: _hashed(r, F), hash),
        "neighbors": (lambda r, F, T: (T[0], _vertex(r, F)), Tree.neighbors),
        "step_to_end": (lambda r, F, T: (T[0], _vertex(r, F), _end(r, F)), Tree.step_to_end),
        "busemann": (
            lambda r, F, T: (T[0], T[2], *_level_residue(r, F), T[1]),
            _busemann_to_fresh,
        ),
        "busemann trunc": (
            lambda r, F, T: (T[0], T[2], *_level_residue(r, F), T[4]),
            _busemann_to_fresh,
        ),
        "end separation": (
            lambda r, F, T: (
                _end(r, F) if r.random() < 0.5 else _truncated_end(r, F), _truncated_end(r, F)
            ),
            end_difference_valuation,
        ),
        "reduce_vertex": (
            lambda r, F, T: (T[3], _deep_vertex(r, F)),
            NagaoLattice.reduce_vertex,
        ),
    }
    rows, cells = [], []  # rows: (name, per-op counts of its cells by field)
    for name, (make, op) in ops.items():
        counts = []
        for q in QS:
            F = field(q)
            rng = random.Random(f"microbench:{name}:{q}")
            fixed = random.Random(f"microbench:tree:{q}")
            shared = (
                Tree(F), _end(fixed, F), _vertex(fixed, F), NagaoLattice(F), _truncated_end(fixed, F)
            )
            cell, count = _per_op_cell(op, [make(rng, F, shared) for _ in range(PAIRS)])
            cells.append(cell)
            counts.append(count)
        rows.append((name, counts))
    for name, make_cell in (
        ("attracting_end 64", _attracting_end_cell),
        ("attracting_end 2048", _deep_end_cell),
        ("inexact end 1100", _inexact_end_cell),
        ("busemann bfs", _busemann_bfs_cell),
        ("sphere 4", _sphere_cell),
        ("horoball certify", _horoball_cell),
    ):
        made = [make_cell(q) for q in QS]
        cells += [cell for cell, _ in made]
        rows.append((name, [count for _, count in made]))
    times = iter(interleaved_min(cells, REPEAT))
    print(f"{'us/op':<20}" + "".join(f"{f'F_{q}':>10}" for q in QS))
    for name, counts in rows:
        print(f"{name:<20}" + "".join(f"{next(times) / n * 1e6:10.2f}" for n in counts))
    names = [f"F_{p}" if e == 1 else f"F_{p}^{e}" for p, e in LARGE_FIELDS]
    print(f"\n{'ms':<20}" + "".join(f"{name:>10}" for name in names))
    row = interleaved_min([_field_cell(p, e) for p, e in LARGE_FIELDS], FIELD_REPEAT)
    print(f"{'Field(p, e)':<20}" + "".join(f"{t * 1e3:10.1f}" for t in row))


if __name__ == "__main__":
    main()
