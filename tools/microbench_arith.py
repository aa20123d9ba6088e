"""Per-layer microbenchmark of the exact arithmetic under the tree.

Times series `+`, `-`, `*` and the product of two matrices
(`TreeAutomorphism.__mul__`) over F_2, F_3, F_4 and F_9 on fixed seeded
operands, and prints the minimum over repeats of the time per operation,
in microseconds. Run from the root of a checkout:

    PYTHONPATH=src python3 tools/microbench_arith.py

Series operands are exact, with nonzero digits at 1 to 4 of the degrees
-3..3; the matrices are products of one upper and one lower shear by such
series, so they are exact and of determinant 1.
"""

import random
import timeit

from sl2btree.autom import TreeAutomorphism
from sl2btree.field import field
from sl2btree.series import LaurentSeries

QS = (2, 3, 4, 9)
PAIRS = 64
REPEAT = 7  # timed runs per row; the fastest is kept


def _series(rng, F):
    degrees = rng.sample(range(-3, 4), rng.randint(1, 4))
    return LaurentSeries.exact(F, {d: rng.randrange(1, F.q) for d in degrees})


def _matrix(rng, F):
    return TreeAutomorphism.upper_shear(F, _series(rng, F)) * TreeAutomorphism.lower_shear(
        F, _series(rng, F)
    )


def _per_op_us(op, pairs):
    def run():
        for x, y in pairs:
            op(x, y)

    runs = timeit.repeat(run, number=20, repeat=REPEAT)
    return min(runs) / (20 * len(pairs)) * 1e6


def main():
    ops = {
        "series +": (_series, lambda x, y: x + y),
        "series -": (_series, lambda x, y: x - y),
        "series *": (_series, lambda x, y: x * y),
        "matrix *": (_matrix, lambda x, y: x * y),
    }
    print(f"{'us/op':<10}" + "".join(f"{f'F_{q}':>8}" for q in QS))
    for name, (make, op) in ops.items():
        row = []
        for q in QS:
            F = field(q)
            rng = random.Random(f"microbench:{name}:{q}")
            pairs = [(make(rng, F), make(rng, F)) for _ in range(PAIRS)]
            row.append(_per_op_us(op, pairs))
        print(f"{name:<10}" + "".join(f"{t:8.2f}" for t in row))


if __name__ == "__main__":
    main()
