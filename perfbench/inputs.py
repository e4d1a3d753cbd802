"""Seeded benchmark inputs: complex families, query mixes and file writers.

Everything here is independent of the finefill package, so a change to the
package cannot change what the benchmark feeds it.  A complex is a plain
:class:`Cx`; the seed picks random cycles, chords and circuits, and for
families with no random choice it only permutes vertex, edge and face ids
(``relabel``), which still changes every id-ordered choice the program makes.
"""

import os
import random
from dataclasses import dataclass, field
from itertools import combinations


@dataclass
class Cx:
    vertices: list
    edges: dict                                  # edge id -> (tail, head)
    faces: dict = field(default_factory=dict)    # face id -> ((sign, edge id), ...)

    def ends(self, sign, eid):
        t, h = self.edges[eid]
        return (t, h) if sign > 0 else (h, t)


@dataclass(frozen=True)
class Query:
    """One CLI invocation plus what the checker needs to judge its stdout."""

    name: str          # query class, e.g. "fill-z:W6/omega4"
    argv: tuple        # arguments of finefill.cli.main; paths relative to the input dir
    kind: str          # fill | weakarea | fv | linearity | fine | delta
    cx: Cx             # the complex or graph the query reads
    cycle: dict = None  # edge id -> coefficient, for fill and weakarea
    param: int = 0      # N, kmax or L


# -- families -------------------------------------------------------------------

def graph(n_vertices, pairs):
    vs = [f"v{i}" for i in range(n_vertices)]
    return Cx(vs, {f"e{i}": (vs[a], vs[b]) for i, (a, b) in enumerate(pairs)})


def cycle_graph(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def wheel(n):
    # vertex n is the hub
    return graph(n + 1, [(i, (i + 1) % n) for i in range(n)] + [(n, i) for i in range(n)])


def complete(n):
    return graph(n, list(combinations(range(n), 2)))


def cube():
    return graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                     (0, 4), (1, 5), (2, 6), (3, 7)])


def prism():
    return graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


def grid(rows, cols):
    def v(r, c):
        return r * cols + c
    pairs = [(v(r, c), v(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    pairs += [(v(r, c), v(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return graph(rows * cols, pairs)


def grid_disk(rows, cols):
    """The rows x cols vertex grid with every unit square filled."""
    g = grid(rows, cols)
    eid = {frozenset(te): e for e, te in g.edges.items()}
    vs = g.vertices
    for r in range(rows - 1):
        for c in range(cols - 1):
            a, b = vs[r * cols + c], vs[r * cols + c + 1]
            d, e = vs[(r + 1) * cols + c], vs[(r + 1) * cols + c + 1]
            g.faces[f"f{len(g.faces)}"] = walk_through(g, [a, b, e, d], eid)
    return g


def random_connected(n, rng):
    """A random spanning tree on n vertices plus n // 4 distinct chords."""
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    present = {frozenset(p) for p in pairs}
    while len(pairs) < n - 1 + n // 4:
        a, b = rng.sample(range(n), 2)
        if frozenset((a, b)) not in present:
            present.add(frozenset((a, b)))
            pairs.append((a, b))
    return graph(n, pairs)


def tetrahedron():
    g = complete(4)
    eid = {frozenset(te): e for e, te in g.edges.items()}
    for i, tri in enumerate(combinations(g.vertices, 3)):
        g.faces[f"f{i}"] = walk_through(g, list(tri), eid)
    return g


def walk_through(cx, cyclic_vertices, eid):
    """The closed walk visiting ``cyclic_vertices`` in order, as signed edges."""
    walk = []
    for a, b in zip(cyclic_vertices, cyclic_vertices[1:] + cyclic_vertices[:1]):
        e = eid[frozenset((a, b))]
        walk.append((1 if cx.edges[e] == (a, b) else -1, e))
    return tuple(walk)


def circuits(cx, max_len):
    """Every circuit of length <= max_len, each once, as a signed walk.

    Depth-first from each vertex, keeping only circuits whose least vertex
    (in list order) is the start; the two directions are merged by edge set.
    """
    order = {v: i for i, v in enumerate(cx.vertices)}
    out_steps = {v: [] for v in cx.vertices}
    for e, (t, h) in cx.edges.items():
        out_steps[t].append((1, e))
        out_steps[h].append((-1, e))
    found = {}
    for start in cx.vertices:
        stack = [(start, ())]
        while stack:
            cur, walk = stack.pop()
            used = {e for _, e in walk}
            for sign, e in out_steps[cur]:
                if e in used:
                    continue
                end = cx.ends(sign, e)[1]
                step = walk + ((sign, e),)
                if end == start:
                    found.setdefault(frozenset(x for _, x in step), step)
                elif (len(step) < max_len and order[end] > order[start]
                      and all(cx.ends(s, x)[1] != end for s, x in walk)):
                    stack.append((end, step))
    return sorted(found.values(), key=lambda w: (len(w), sorted(x for _, x in w)))


def omega(g, n):
    """``g`` with one face glued along each of its circuits of length <= n."""
    return Cx(list(g.vertices), dict(g.edges),
              {f"f{i}": w for i, w in enumerate(circuits(g, n))})


def barycentric(cx):
    """Barycentric subdivision: halve every edge, star every face (2L triangles)."""
    vertices = list(cx.vertices)
    edges = {}
    halves = {}
    for e, (t, h) in cx.edges.items():
        mid = f"{e}m"
        vertices.append(mid)
        edges[f"{e}a"], edges[f"{e}b"] = (t, mid), (mid, h)
        halves[e] = (f"{e}a", f"{e}b")
    faces = {}
    for f, walk in cx.faces.items():
        bary = f"{f}c"
        vertices.append(bary)
        n = len(walk)
        for i, (sign, e) in enumerate(walk):
            edges[f"{f}s{i}"] = (bary, cx.ends(sign, e)[0])
            edges[f"{f}t{i}"] = (bary, f"{e}m")
        for i, (sign, e) in enumerate(walk):
            a, b = halves[e]
            first, second = ((1, a), (1, b)) if sign > 0 else ((-1, b), (-1, a))
            faces[f"{f}A{i}"] = (first, (-1, f"{f}t{i}"), (1, f"{f}s{i}"))
            faces[f"{f}B{i}"] = (second, (-1, f"{f}s{(i + 1) % n}"), (1, f"{f}t{i}"))
    return Cx(vertices, edges, faces)


# Filled complexes of the package's corpus; their barycentric subdivisions feed fv.
def triangle_face():
    g = cycle_graph(3)
    g.faces["f0"] = ((1, "e0"), (1, "e1"), (1, "e2"))
    return g


def square_face():
    g = cycle_graph(4)
    g.faces["f0"] = ((1, "e0"), (1, "e1"), (1, "e2"), (1, "e3"))
    return g


def double_traversal():
    return Cx(["v0"], {"e0": ("v0", "v0")}, {"f0": ((1, "e0"), (1, "e0"))})


def bigon():
    return Cx(["v0", "v1"], {"e0": ("v0", "v1"), "e1": ("v0", "v1")},
              {"f0": ((1, "e0"), (-1, "e1"))})


def figure8_faces():
    """Two filled triangles sharing one vertex."""
    g = graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    g.faces = {"f0": ((1, "e0"), (1, "e1"), (1, "e2")), "f1": ((1, "e3"), (1, "e4"), (1, "e5"))}
    return g


# -- coned-off Cayley graphs and complexes of permutation groups ------------------

def _compose(a, b):
    return tuple(b[a[i]] for i in range(len(a)))


def _cycle_perm(degree, *cycles):
    p = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            p[x - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(p)


# (degree, generators, inverse pairs, coned-off subgroup generators, relators);
# the relators present the group, so the coned-off complex is simply connected.
S3 = (3, {"a": ((1, 2),), "b": ((1, 2, 3),), "B": ((1, 3, 2),)},
      {"a": "a", "b": "B", "B": "b"}, ("a",), ("bbb", "abab"))
S4 = (4, {"a": ((1, 2),), "b": ((1, 2, 3, 4),), "B": ((1, 4, 3, 2),)},
      {"a": "a", "b": "B", "B": "b"}, ("a",), ("bbbb", "ababab"))


def coned_off(group, with_faces):
    """Cayley graph of ``group``, one cone vertex per left coset of the
    subgroup, and (with faces) relator faces and cone triangles."""
    degree, gens, inverse, sub_gens, relators = group
    perm = {s: _cycle_perm(degree, *c) for s, c in gens.items()}
    ident = tuple(range(degree))
    elems, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = _compose(g, perm[s])
                if h not in index:
                    index[h] = len(elems)
                    elems.append(h)
                    nxt.append(h)
        frontier = nxt

    def mul(i, s):
        return index[_compose(elems[i], perm[s])]

    vs = [f"g{i}" for i in range(len(elems))]
    edges, step = {}, {}
    for i in range(len(elems)):
        for s in gens:
            if (i, s) in step:
                continue
            e = f"c{len(edges)}"
            j = mul(i, s)
            edges[e] = (vs[i], vs[j])
            step[(i, s)] = (1, e)
            step[(j, inverse[s])] = (-1, e)
    coned = set()
    for i in range(len(elems)):
        if i in coned:
            continue
        members, frontier = {i}, [i]
        while frontier:
            frontier = [mul(g, s) for g in frontier for s in sub_gens
                        if mul(g, s) not in members]
            members.update(frontier)
        cone = f"x{len(vs) - len(elems)}"
        vs.append(cone)
        coned.update(members)
        for g in sorted(members):
            edges[f"k{g}"] = (vs[g], cone)
    cx = Cx(vs, edges)
    if with_faces:
        seen = set()

        def add_face(walk):
            key = frozenset(e for _, e in walk)
            if key not in seen:
                seen.add(key)
                cx.faces[f"f{len(cx.faces)}"] = tuple(walk)

        for word in relators:
            for i in range(len(elems)):
                walk, cur = [], i
                for s in word:
                    walk.append(step[(cur, s)])
                    cur = mul(cur, s)
                add_face(walk)
        for i in range(len(elems)):
            for s in sub_gens:
                j = mul(i, s)
                if j != i:
                    add_face([step[(i, s)], (1, f"k{j}"), (-1, f"k{i}")])
    return cx


# -- relabelling and writers ----------------------------------------------------------

def relabel(cx, rng):
    """A copy of ``cx`` under seeded random id permutations; cell order is kept."""
    vmap = dict(zip(cx.vertices, (f"v{i}" for i in rng.sample(range(len(cx.vertices)),
                                                              len(cx.vertices)))))
    emap = dict(zip(cx.edges, (f"e{i}" for i in rng.sample(range(len(cx.edges)),
                                                           len(cx.edges)))))
    fmap = dict(zip(cx.faces, (f"f{i}" for i in rng.sample(range(len(cx.faces)),
                                                          len(cx.faces)))))
    out = Cx([vmap[v] for v in cx.vertices],
             {emap[e]: (vmap[t], vmap[h]) for e, (t, h) in cx.edges.items()},
             {fmap[f]: tuple((s, emap[e]) for s, e in w) for f, w in cx.faces.items()})
    return out


def cx_text(cx):
    out = ["complex v1"]
    out += [f"vertex {v}" for v in cx.vertices]
    out += [f"edge {e} {t} {h}" for e, (t, h) in cx.edges.items()]
    out += ["face %s %s" % (f, " ".join(("+" if s > 0 else "-") + e for s, e in w))
            for f, w in cx.faces.items()]
    return "\n".join(out) + "\n"


def cy_text(cycle):
    return "chain1 v1 INT\n" + "".join(f"{c} {e}\n" for e, c in sorted(cycle.items()) if c)


def walk_cycle(walk, scale=1, into=None):
    """Add ``scale`` times the 1-chain of a signed walk into ``into`` (or a new dict)."""
    acc = {} if into is None else into
    for s, e in walk:
        acc[e] = acc.get(e, 0) + scale * s
        if not acc[e]:
            del acc[e]
    return acc


# -- workload mixes -------------------------------------------------------------------

class _Mix:
    """The files and queries of one workload, drawn from one seeded generator."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.files = {}
        self.queries = []

    def add_cx(self, cx):
        name = f"c{len(self.files)}.cx"
        self.files[name] = cx_text(cx)
        return name

    def add_cy(self, cycle):
        name = f"c{len(self.files)}.cy"
        self.files[name] = cy_text(cycle)
        return name

    def query(self, *args, **kwargs):
        self.queries.append(Query(*args, **kwargs))

    def random_cycle(self, walks):
        """A nonzero sum of one to three seeded circuits with coefficients +-1, +-2."""
        while True:
            acc = {}
            for _ in range(self.rng.randint(1, 3)):
                walk_cycle(self.rng.choice(walks), self.rng.choice((-2, -1, 1, 2)), acc)
            if acc:
                return acc


# fill-lp graphs, and the mix as (graph, omega n, "z" | "q" | "weakarea", count).
# Three timing classes.  The median falls inside the first; the tail (10
# queries beyond it) falls among the 24 K4 queries of the last, below its
# four slower W5 and K5 ones.  Many queries of one kind around each order
# statistic keep the seed from moving it much:
#   closed form, the kernel of d2 has rank <= 1 (44 queries, ~3-7 ms);
#   rational LP without bound rows (4 queries, ~8-30 ms);
#   branch and bound, two bound rows per face (28 queries, ~0.05-0.25 s).
FILL_LP_GRAPHS = {
    "W5": lambda: wheel(5), "W6": lambda: wheel(6), "W7": lambda: wheel(7),
    "K4": lambda: complete(4), "K5": lambda: complete(5), "cube": cube, "prism": prism,
    "grid3x3": lambda: grid(3, 3), "grid3x4": lambda: grid(3, 4),
}
_CLOSED = ("cube", "prism", "grid3x3", "grid3x4")
FILL_LP = [
    *[(g, 4, ring, 4) for g in _CLOSED for ring in ("z", "q")],
    *[(g, 4, "weakarea", 2) for g in _CLOSED],
    *[(g, 3, "z", 1) for g in ("W5", "W6", "W7")], ("W5", 3, "q", 1),
    *[(g, 4, "q", 1) for g in ("W5", "W6", "W7", "K5")],
    ("K4", 4, "z", 24),
    ("W5", 4, "z", 1), ("K5", 3, "z", 1), ("W5", 4, "weakarea", 1), ("K5", 3, "weakarea", 1),
]


def fill_lp(b):
    # Every query reads its own relabelling of its graph: B&B times depend on
    # the id order as much as on the cycle, so one labelling shared by a class
    # would move the whole class, and its order statistics, with the seed.
    for name, n, what, count in FILL_LP:
        for _ in range(count):
            g = relabel(FILL_LP_GRAPHS[name](), b.rng)
            walks = circuits(g, len(g.vertices))
            if what == "weakarea":
                cyc = walk_cycle(b.rng.choice([w for w in walks if len(w) > n]))
                b.query(f"weakarea:{name}/N{n}",
                        ("weakarea", "--N", str(n), "--cycle", b.add_cy(cyc), b.add_cx(g)),
                        "weakarea", g, cyc, n)
                continue
            om = omega(g, n)
            cyc = b.random_cycle(walks)
            b.query(f"fill-{what}:{name}/omega{n}",
                    ("fill", "--ring", what, "--cycle", b.add_cy(cyc), b.add_cx(om)),
                    "fill", om, cyc)


# fv-table: barycentric subdivisions of the filled corpus complexes, each with
# fv over Z and Q and linearity; the tetrahedron is the heavy end.  The costs
# (4-300 ms) leave no wide gap near the median or the tail.
FV_TABLE = [
    *[(name, make, k) for name, make in (("triangle", triangle_face), ("square", square_face),
                                         ("double", double_traversal), ("bigon", bigon))
      for k in (5, 6, 7)],
    ("figure8", figure8_faces, 5), ("tetra", tetrahedron, 5),
]


def fv_table(b):
    for name, make, k in FV_TABLE:
        cx = relabel(barycentric(make()), b.rng)
        path = b.add_cx(cx)
        for ring in ("z", "q"):
            b.query(f"fv-{ring}:{name}''/k{k}", ("fv", "--ring", ring, "--kmax", str(k), path),
                    "fv", cx, param=k)
        b.query(f"linearity:{name}''/k{k}", ("linearity", "--kmax", str(k), path),
                "linearity", cx, param=k)


FINE_COMPLEXES = {
    "disk2x2": lambda: grid_disk(3, 3), "disk2x3": lambda: grid_disk(3, 4),
    "disk3x3": lambda: grid_disk(4, 4), "disk2x4": lambda: grid_disk(3, 5),
    "S3-coned": lambda: coned_off(S3, True), "S4-coned": lambda: coned_off(S4, True),
    "tetra": tetrahedron,
}
# fine-special: (complex, scale L, seeded relabellings).  The median falls in
# the middle of the 24 queries of 27-32 ms (the classes with 4 copies), above
# 22 lighter ones; the tail (10 queries beyond it) in the middle of the 8
# S3-coned L=6 queries (~130 ms), below the 2 disk2x3 L=8 ones (~160 ms) and
# the 5 that take 0.3-0.6 s.
FINE_SPECIAL = [
    *[(d, length, 2) for d in ("disk2x2", "disk2x3", "disk3x3", "disk2x4")
      for length in (5, 6, 7)
      if (d, length) not in (("disk2x4", 6), ("disk2x4", 7), ("disk3x3", 6), ("disk3x3", 7))],
    ("disk2x4", 6, 4), ("disk2x4", 7, 4), ("disk3x3", 6, 4), ("disk3x3", 7, 4),
    ("disk2x2", 8, 2), *[("tetra", length, 2) for length in (5, 6, 7)], ("tetra", 8, 4),
    ("S3-coned", 5, 4),
    ("disk2x3", 8, 2), ("S3-coned", 6, 8), ("S4-coned", 4, 2), ("S4-coned", 5, 2),
    ("disk3x3", 8, 1), ("disk2x4", 8, 1), ("S3-coned", 7, 1), ("S3-coned", 8, 1),
    ("S4-coned", 6, 1),
]


def fine_special(b):
    for name, length, copies in FINE_SPECIAL:
        for _ in range(copies):
            cx = relabel(FINE_COMPLEXES[name](), b.rng)
            b.query(f"fine:{name}/L{length}",
                    ("fine", "--method", "special", "--length", str(length), b.add_cx(cx)),
                    "fine", cx, param=length)


# delta-scan: the scan is O(n^4) whatever the edges, so the time is set by
# the vertex count and sizes are fixed.  Of the 51 queries, the 8 with 40-60
# vertices lie beyond the tail, which (10 queries beyond it) falls on the
# middle of five random 38-vertex graphs; the median falls on the middle of
# seven random 33-vertex ones.  Same-size graphs still differ by their
# distances, so a group of several keeps one graph from moving either value.
DELTA_SCAN = [
    *[(f"C{n}", lambda n=n: cycle_graph(n)) for n in (30, 40, 50, 60)],
    *[(f"grid{r}x{c}", lambda r=r, c=c: grid(r, c)) for r, c in ((5, 6), (6, 6), (6, 7))],
    ("S4-coned", lambda: coned_off(S4, False)),
]
DELTA_RANDOM_SIZES = ((30,) * 12 + (31,) * 4 + (32,) * 4 + (33,) * 7 + (34,) * 3 + (35,) * 2
                      + (36,) * 2 + (38,) * 5 + (40, 42, 44, 46))


def delta_scan(b):
    items = DELTA_SCAN + [(f"random{n}", lambda n=n: random_connected(n, b.rng))
                          for n in DELTA_RANDOM_SIZES]
    for name, make in items:
        g = relabel(make(), b.rng)
        b.query(f"delta:{name}", ("delta", b.add_cx(g)), "delta", g)


WORKLOADS = {
    "fill-lp": fill_lp,
    "fv-table": fv_table,
    "fine-special": fine_special,
    "delta-scan": delta_scan,
}


def build(workload, seed):
    """(files, queries) for one workload: file name -> text, and the query list.

    The queries run in a seeded shuffled order, so no query class always runs
    back to back.
    """
    b = _Mix(f"{workload}:{seed}")
    WORKLOADS[workload](b)
    b.rng.shuffle(b.queries)
    return b.files, b.queries


def write(files, directory):
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
