"""Time the packed circuit-fill table of ``finefill.filling`` against one
solve per circuit, the measurement behind ``_LANES_PER_FILL`` and
``_ENTRY_LANES``.

    python3 tools/packed_table_costs.py [REPEATS]

Run it from the root of a finefill checkout; it imports ``src/``.  For each
complex (barycentric subdivisions of the tetrahedron and of the coned-off
S3 and S4 complexes, and filled grids) and each ring set, (Z) and (Z, Q),
it fills every circuit of length <= k of a fresh copy once with a table
and once with none, REPEATS times alternating (default 5), and prints the
medians: the table's build time per edge, each route's time per circuit,
the saving per circuit and the circuits per edge at which the table pays
for its build.  The table is forced on or off whatever the bounds say, and
each fill restores the bounds after it, so an in-process caller keeps the
module's own.
"""

import gc
import os
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from finefill import (BARYCENTRIC, INT, RAT, coned_off_cayley_complex, filling,  # noqa: E402
                      parse_complex, parse_group, subdivide, validate)
from finefill.chains import circuit_masks  # noqa: E402

S4 = """group v1
degree 4
gen a (1 2)
gen b (1 2 3 4)
gen binv (1 4 3 2)
sgen a a
sgen b binv
subgroup A a
relator a a
relator b b b b
relator a b a b a b
"""


def read(name):
    with open(os.path.join(ROOT, "data", name), encoding="utf-8") as fh:
        return fh.read()


def subdivided(cx, times):
    for _ in range(times):
        cx = subdivide(cx, BARYCENTRIC).complex
    return cx


def grid(n):
    """The n x n grid of unit squares, every square filled."""
    vs = [f"g{r}_{c}" for r in range(n + 1) for c in range(n + 1)]
    es = [(f"h{r}_{c}", f"g{r}_{c}", f"g{r}_{c + 1}") for r in range(n + 1) for c in range(n)]
    es += [(f"v{r}_{c}", f"g{r}_{c}", f"g{r + 1}_{c}") for r in range(n) for c in range(n + 1)]
    fs = [(f"s{r}_{c}", [(1, f"h{r}_{c}"), (1, f"v{r}_{c + 1}"), (-1, f"h{r + 1}_{c}"),
                         (-1, f"v{r}_{c}")]) for r in range(n) for c in range(n)]
    return validate(vs, es, fs)


def tetra(times):
    return lambda: subdivided(parse_complex(read("tetra.cx")), times)


def coned(text, times):
    return lambda: subdivided(coned_off_cayley_complex(parse_group(text)).complex, times)


CASES = [  # (name, build, k)
    ("tetra'", tetra(1), 5), ("S4-coned", coned(S4, 0), 4), ("S4-coned'", coned(S4, 1), 4),
    ("tetra''", tetra(2), 4), ("S3-coned''", coned(read("s3.grp"), 2), 4),
    ("S4-coned''", coned(S4, 2), 3), ("tetra'''", tetra(3), 3),
    ("grid4", lambda: grid(4), 6), ("grid17", lambda: grid(17), 4), ("grid33", lambda: grid(33), 4),
]


def once(build, k, rings, table):
    """(build time, fill time, circuits, complex) of one fill of a fresh copy,
    the table forced on or off; the module's bounds are restored after."""
    bounds = filling._LANES_PER_FILL, filling._ENTRY_LANES
    filling._LANES_PER_FILL = filling._ENTRY_LANES = 1 << 62 if table else 0
    try:
        cx = build()
        ctx = filling._context(cx)
        ctx.lines, ctx.rat  # the Smith form and what both routes read off it
        n = len(circuit_masks(cx, k))
        gc.collect()
        start = perf_counter()
        if table:
            ctx.packed(n)
        built = perf_counter()
        filling._fill_circuits(cx, k, rings)
        return built - start, perf_counter() - built, n, cx
    finally:
        filling._LANES_PER_FILL, filling._ENTRY_LANES = bounds


def main(argv):
    repeats = int(argv[1]) if len(argv) > 1 else 5
    for rings in ((INT,), (INT, RAT)):
        print("rings", ",".join(rings))
        for name, build, k in CASES:
            runs = [(once(build, k, rings, True), once(build, k, rings, False))
                    for _ in range(repeats)]
            (_, _, n, cx), ne = runs[0][0], len(runs[0][0][3].edges)
            nf = len(cx.faces)
            make = median(p[0] for p, _ in runs)
            packed, solved = median(p[1] for p, _ in runs) / n, median(s[1] for _, s in runs) / n
            save = solved - packed
            even = f"{make / save / ne:.2f}" if save > 0 else "never"
            print(f"{name:11s} rank={len(filling._context(cx).lines)} faces={nf} edges={ne} "
                  f"lanes={nf + ne} k={k} circuits={n} build/edge={make / ne * 1e6:.1f}us "
                  f"packed/circuit={packed * 1e6:.1f}us solve/circuit={solved * 1e6:.1f}us "
                  f"save/circuit={save * 1e6:.1f}us break-even circuits/edge={even}", flush=True)


if __name__ == "__main__":
    main(sys.argv)
