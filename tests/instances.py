"""Shared desk-scale instances for the test and acceptance suites.

CORPUS is the canonical "corpus complexes" list: every spec-named separator
plus enough variety (loops, parallel edges, repeated-edge walks, graphs and
filled complexes) to exercise each operation, sized so the whole acceptance
suite stays inside its runtime budgets.  CORPUS_GRAPHS holds the twenty
faceless graphs used by the weak-area bridge.
"""

from finefill import BARYCENTRIC, validate, parse_group, coned_off_cayley_complex, subdivide


def triangle_graph():
    return validate("abc", [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])


def triangle_face():
    return validate("abc", [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")],
                    [("f", [(1, "e1"), (1, "e2"), (1, "e3")])])


def double_traversal():
    return validate("v", [("e", "v", "v")], [("f", [(1, "e"), (1, "e")])])


def square_face():
    return validate("abcd",
                    [("s1", "a", "b"), ("s2", "b", "c"), ("s3", "c", "d"), ("s4", "d", "a")],
                    [("f", [(1, "s1"), (1, "s2"), (1, "s3"), (1, "s4")])])


def bigon():
    return validate("uv", [("p", "u", "v"), ("q", "u", "v")],
                    [("f", [(1, "p"), (-1, "q")])])


def figure8_graph():
    return validate("vabcd",
                    [("p1", "v", "a"), ("p2", "a", "b"), ("p3", "b", "v"),
                     ("q1", "v", "c"), ("q2", "c", "d"), ("q3", "d", "v")])


def figure8_faces():
    return validate("vabcd",
                    [("p1", "v", "a"), ("p2", "a", "b"), ("p3", "b", "v"),
                     ("q1", "v", "c"), ("q2", "c", "d"), ("q3", "d", "v")],
                    [("fp", [(1, "p1"), (1, "p2"), (1, "p3")]),
                     ("fq", [(1, "q1"), (1, "q2"), (1, "q3")])])


def figure8_one_face():
    # only the p loop is filled: p and q are both circuits of length 3,
    # and p, which fills, sorts before q, which does not
    return validate("vabcd",
                    [("p1", "v", "a"), ("p2", "a", "b"), ("p3", "b", "v"),
                     ("q1", "v", "c"), ("q2", "c", "d"), ("q3", "d", "v")],
                    [("fp", [(1, "p1"), (1, "p2"), (1, "p3")])])


def tetrahedron():
    return validate("1234",
                    [("e12", "1", "2"), ("e13", "1", "3"), ("e14", "1", "4"),
                     ("e23", "2", "3"), ("e24", "2", "4"), ("e34", "3", "4")],
                    [("f123", [(1, "e12"), (1, "e23"), (-1, "e13")]),
                     ("f124", [(1, "e12"), (1, "e24"), (-1, "e14")]),
                     ("f134", [(1, "e13"), (1, "e34"), (-1, "e14")]),
                     ("f234", [(1, "e23"), (1, "e34"), (-1, "e24")])])


def k4_graph():
    return validate("1234",
                    [("e12", "1", "2"), ("e13", "1", "3"), ("e14", "1", "4"),
                     ("e23", "2", "3"), ("e24", "2", "4"), ("e34", "3", "4")])


def cycle_graph(n, prefix="v"):
    vs = [f"{prefix}{i}" for i in range(n)]
    es = [(f"{prefix}e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    return validate(vs, es)


def hexagon():
    return cycle_graph(6, prefix="h")


def hexagon_chord():
    return validate("abcdef",
                    [("h1", "a", "b"), ("h2", "b", "c"), ("h3", "c", "d"),
                     ("h4", "d", "e"), ("h5", "e", "f"), ("h6", "f", "a"),
                     ("ch", "a", "d")])


def small_tree():
    return validate("rxyz", [("t1", "r", "x"), ("t2", "r", "y"), ("t3", "y", "z")])


def theta_graph():
    # two vertices joined by three parallel edges
    return validate("uv", [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")])


S3_GRP = """group v1
degree 3
gen a (1 2)
gen b (1 2 3)
gen binv (1 3 2)
sgen a a
sgen b binv
subgroup A a
relator a a
relator b b b
relator a b a b
"""


def s3_presentation():
    return parse_group(S3_GRP)


def coned_s3():
    return coned_off_cayley_complex(s3_presentation())


S4_GRP = """group v1
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


def coned_s4():
    return coned_off_cayley_complex(parse_group(S4_GRP))


def path_graph(n):
    vs = [f"p{i}" for i in range(n)]
    es = [(f"pe{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    return validate(vs, es)


def star_tree(n):
    vs = ["c"] + [f"l{i}" for i in range(n)]
    es = [(f"se{i}", "c", f"l{i}") for i in range(n)]
    return validate(vs, es)


def k4_minus_edge():
    return validate("1234",
                    [("e12", "1", "2"), ("e13", "1", "3"),
                     ("e23", "2", "3"), ("e24", "2", "4"), ("e34", "3", "4")])


def complete_bipartite_2_3():
    vs = ["a", "b", "x", "y", "z"]
    es = [(f"e{u}{w}", u, w) for u in "ab" for w in "xyz"]
    return validate(vs, es)


def cube_graph():
    vs = [f"c{i}" for i in range(8)]
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    es = [(f"ce{i}", f"c{a}", f"c{b}") for i, (a, b) in enumerate(pairs)]
    return validate(vs, es)


def prism_graph():
    vs = [f"q{i}" for i in range(6)]
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    es = [(f"qe{i}", f"q{a}", f"q{b}") for i, (a, b) in enumerate(pairs)]
    return validate(vs, es)


def wheel_graph(n):
    vs = ["hub"] + [f"w{i}" for i in range(n)]
    es = [(f"rim{i}", f"w{i}", f"w{(i + 1) % n}") for i in range(n)]
    es += [(f"spk{i}", "hub", f"w{i}") for i in range(n)]
    return validate(vs, es)


def grid_disk(rows, cols):
    """The rows x cols grid of unit squares, every square filled."""
    vs = [f"g{r}_{c}" for r in range(rows + 1) for c in range(cols + 1)]
    es = [(f"h{r}_{c}", f"g{r}_{c}", f"g{r}_{c + 1}")
          for r in range(rows + 1) for c in range(cols)]
    es += [(f"v{r}_{c}", f"g{r}_{c}", f"g{r + 1}_{c}")
           for r in range(rows) for c in range(cols + 1)]
    fs = [(f"s{r}_{c}", [(1, f"h{r}_{c}"), (1, f"v{r}_{c + 1}"),
                         (-1, f"h{r + 1}_{c}"), (-1, f"v{r}_{c}")])
          for r in range(rows) for c in range(cols)]
    return validate(vs, es, fs)


def triangle_face_open_square():
    # a filled triangle and an empty square sharing the vertex a: the
    # shortest circuit fills, the shortest unfillable one is longer
    return validate("abcxyz",
                    [("t1", "a", "b"), ("t2", "b", "c"), ("t3", "c", "a"),
                     ("q1", "a", "x"), ("q2", "x", "y"), ("q3", "y", "z"), ("q4", "z", "a")],
                    [("ft", [(1, "t1"), (1, "t2"), (1, "t3")])])


def loop_triangle():
    # triangle with a loop hung on one vertex
    return validate("abc",
                    [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"), ("l", "a", "a")])


def bigon_graph():
    return validate("uv", [("p", "u", "v"), ("q", "u", "v")])


def double_traversal_and_disk():
    """The double traversal with a second face e on its loop: the loop fills
    to 1 over Z and to 1/2 over Q, so every circuit fills finitely in both
    rings, though not alike."""
    return validate("v", [("e", "v", "v")], [("f", [(1, "e"), (1, "e")]), ("g", [(1, "e")])])


def z3_moore_loop(triangle_faces):
    """A loop e with the face e+e+e, so H_1 has torsion Z/3, and a triangle
    through its vertex with ``triangle_faces`` faces glued along it."""
    triangle = [(1, "t1"), (1, "t2"), (1, "t3")]
    return validate("vab", [("e", "v", "v"), ("t1", "v", "a"), ("t2", "a", "b"),
                            ("t3", "b", "v")],
                    [("f", [(1, "e")] * 3)]
                    + [(f"g{i}", triangle) for i in range(triangle_faces)])


def random_multigraph(rng):
    """Up to 7 vertices (some isolated) and up to 10 edges, loops and
    parallel edges included; the ids sort neither as created nor as numbers."""
    vs = [f"v{x}" for x in rng.sample(range(30), rng.randint(1, 7))]
    es = []
    for x in rng.sample(range(30), rng.randint(0, 10)):
        tail = rng.choice(vs)
        roll = rng.random()
        if roll < 0.2:
            head = tail  # a loop
        elif roll < 0.45 and es:
            _, tail, head = rng.choice(es)  # parallel to an earlier edge
        else:
            head = rng.choice(vs)
        es.append((f"e{x}", tail, head))
    return validate(vs, es)


# canonical corpus complexes (criteria 3, 4, 5, 6, 9 and the invariants)
CORPUS = [
    ("triangle-graph", triangle_graph),
    ("triangle-face", triangle_face),
    ("double-traversal", double_traversal),
    ("square-face", square_face),
    ("bigon", bigon),
    ("figure8-graph", figure8_graph),
    ("figure8-faces", figure8_faces),
    ("tetrahedron", tetrahedron),
    ("k4", k4_graph),
    ("hexagon", hexagon),
    ("hexagon-chord", hexagon_chord),
    ("tree", small_tree),
    ("theta", theta_graph),
]

# complexes whose last invariant factor of d2 is D = 2 or 3, at kernel
# ranks 0, 1, 2 and 2
TORSION = [
    ("double-traversal-barycentric", lambda: subdivide(double_traversal(), BARYCENTRIC).complex),
    ("z3-moore-2", lambda: z3_moore_loop(2)),
    ("z3-moore-3", lambda: z3_moore_loop(3)),
    ("z3-moore-3-barycentric", lambda: subdivide(z3_moore_loop(3), BARYCENTRIC).complex),
]

# twenty faceless graphs for the weak-area bridge (criterion 8)
CORPUS_GRAPHS = [
    ("C3", lambda: cycle_graph(3, "a")),
    ("C4", lambda: cycle_graph(4, "b")),
    ("C5", lambda: cycle_graph(5, "c")),
    ("C6", lambda: cycle_graph(6, "d")),
    ("C7", lambda: cycle_graph(7, "f")),
    ("C8", lambda: cycle_graph(8, "g")),
    ("theta", theta_graph),
    ("K4", k4_graph),
    ("K4-e", k4_minus_edge),
    ("K23", complete_bipartite_2_3),
    ("cube", cube_graph),
    ("prism", prism_graph),
    ("W4", lambda: wheel_graph(4)),
    ("W5", lambda: wheel_graph(5)),
    ("figure8", figure8_graph),
    ("hexagon-chord", hexagon_chord),
    ("bigon", bigon_graph),
    ("loop-triangle", loop_triangle),
    ("star", lambda: star_tree(4)),
    ("path", lambda: path_graph(5)),
]
