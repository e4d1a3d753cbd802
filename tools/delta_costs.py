"""Time the phases of ``finefill.hyperbolicity_delta`` on the graphs the
README's hyperbolicity paragraph names.

    python3 tools/delta_costs.py [REPEATS]

Run it from the root of a finefill checkout; it imports ``src/``.  Each
graph (a 400-cycle, a 400-vertex path, the 20x20 and 10x40 grids, the
399-spoke wheel, a random tree on 400 vertices with 200 random chords, and
the split wheel at 40, 60 and 80 rim vertices) is built fresh REPEATS
times (default 5), and each copy is timed once through the whole call and
once phase by phase on a second fresh copy: the BFS distance rows (with
the adjacency), the blocks, the pruned pair scan of every block of at least
four vertices, and the witness pass of the blocks that attain the maximum.
It prints the medians in seconds, with the value and the witness.
"""

import gc
import os
import random
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from finefill import hyperbolicity, validate  # noqa: E402


def cycle(n):
    return validate([f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{(i + 1) % n}")
                                                   for i in range(n)])


def path(n):
    return validate([f"p{i}" for i in range(n)], [(f"e{i}", f"p{i}", f"p{i + 1}")
                                                   for i in range(n - 1)])


def grid(rows, cols):
    vs = [f"g{r}_{c}" for r in range(rows) for c in range(cols)]
    es = [(f"h{r}_{c}", f"g{r}_{c}", f"g{r}_{c + 1}") for r in range(rows) for c in range(cols - 1)]
    es += [(f"v{r}_{c}", f"g{r}_{c}", f"g{r + 1}_{c}") for r in range(rows - 1) for c in range(cols)]
    return validate(vs, es)


def wheel(n):
    es = [(f"rim{i}", f"w{i}", f"w{(i + 1) % n}") for i in range(n)]
    es += [(f"spk{i}", "hub", f"w{i}") for i in range(n)]
    return validate(["hub"] + [f"w{i}" for i in range(n)], es)


def split_wheel(n):
    """A wheel on n rim vertices whose hub is split into an edge h1-h2, h1
    joined to the first half of the rim and h2 to the rest (diameter 3, 2*delta 2)."""
    es = [(f"rim{i}", f"w{i}", f"w{(i + 1) % n}") for i in range(n)]
    es += [(f"spk{i}", "h1" if i < n // 2 else "h2", f"w{i}") for i in range(n)]
    return validate(["h1", "h2"] + [f"w{i}" for i in range(n)], es + [("hub", "h1", "h2")])


def chorded_tree(n, chords, seed=1):
    """A random tree on n vertices plus ``chords`` random chords (seeded)."""
    rng = random.Random(seed)
    vs = [f"t{i}" for i in range(n)]
    es = [(f"e{i}", vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    es += [(f"x{j}", *rng.sample(vs, 2)) for j in range(chords)]
    return validate(vs, es)


CASES = [  # (name, build)
    ("C400", lambda: cycle(400)), ("P400", lambda: path(400)),
    ("grid20x20", lambda: grid(20, 20)), ("grid10x40", lambda: grid(10, 40)),
    ("W399", lambda: wheel(399)), ("tree400+200", lambda: chorded_tree(400, 200)),
    ("split40", lambda: split_wheel(40)), ("split60", lambda: split_wheel(60)),
    ("split80", lambda: split_wheel(80)),
]


def phases(cx):
    """Seconds of each phase of one delta on a fresh complex, as
    ``hyperbolicity_delta`` runs them."""
    h = hyperbolicity
    times = []
    start = perf_counter()
    adj = h._adjacency(cx)[1]
    rows = h._distance_rows(cx)
    times.append(perf_counter() - start)
    start = perf_counter()
    blocks = [b for b in h._blocks(adj) if len(b) >= 4]
    times.append(perf_counter() - start)
    start = perf_counter()
    valued = [(h._block_twice_delta(rows, adj, b), b) for b in blocks]
    times.append(perf_counter() - start)
    best = max((value for value, _ in valued), default=0)
    start = perf_counter()
    if best:
        min(h._least_witness(rows, b, best) for value, b in valued if value == best)
    times.append(perf_counter() - start)
    return times


def whole(cx):
    start = perf_counter()
    rep = hyperbolicity.hyperbolicity_delta(cx)
    return perf_counter() - start, rep


def main(argv):
    repeats = int(argv[1]) if len(argv) > 1 else 5
    print("graph        n     2delta diam  bfs_s    blocks_s scan_s   witness_s delta_s  witness")
    for name, build in CASES:
        totals, parts = [], []
        for _ in range(repeats):
            gc.collect()
            total, rep = whole(build())
            totals.append(total)
            gc.collect()
            parts.append(phases(build()))
        bfs, blocks, scan, witness = (median(p[i] for p in parts) for i in range(4))
        print(f"{name:12s} {rep.vertex_count:<5d} {2 * rep.delta!s:6s} {rep.diameter:<4d} "
              f"{bfs:.4f}   {blocks:.4f}   {scan:.4f}   {witness:.4f}    {median(totals):.4f}   "
              f"{','.join(rep.witness)}", flush=True)


if __name__ == "__main__":
    main(sys.argv)
