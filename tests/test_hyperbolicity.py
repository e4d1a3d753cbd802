import random
from collections.abc import Mapping
from itertools import combinations

import pytest
from fractions import Fraction

from finefill import all_pairs_distances, coned_off_cayley_graph, hyperbolicity_delta, validate
from finefill import hyperbolicity
from finefill.constructions import parse_group
from finefill.errors import DisconnectedError, InternalError, TooLargeError

from finefill.hyperbolicity import DEFAULT_VERTEX_CAP

from instances import S4_GRP, cycle_graph, k4_graph, path_graph, small_tree, wheel_graph
from oracles import (dict_bfs_distances, exhaustive_delta, floyd_warshall, four_point_delta,
                     has_induced_c4, mask_at_least, mask_far_apart_pairs, mask_least_witness,
                     set_far_apart_pairs, sum_at_least)


def test_distances_path_and_hexagon():
    path = validate("abc", [("p", "a", "b"), ("q", "b", "c")])
    d = all_pairs_distances(path)
    assert d["a"]["c"] == 2
    hexg = cycle_graph(6)
    rep = hyperbolicity_delta(hexg)
    assert rep.diameter == 3


def test_distances_match_floyd_warshall():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(2, 8)
        vs = [f"v{i}" for i in range(n)]
        es = [(f"e{i}", vs[rng.randint(0, i - 1)], vs[i]) for i in range(1, n)]
        es += [(f"x{j}", rng.choice(vs), rng.choice(vs)) for j in range(rng.randint(0, 4))]
        cx = validate(vs, es)
        bfs = all_pairs_distances(cx)
        fw = floyd_warshall(cx)
        for u in vs:
            for w in vs:
                assert bfs[u][w] == fw[u][w]
        order = sorted(vs)
        assert list(bfs) == order and all(list(row) == order for row in bfs.values())
        assert bfs == dict_bfs_distances(cx)


def test_delta_reads_the_table_through_the_module_name(monkeypatch):
    # the benchmark's tracer wraps hyperbolicity.all_pairs_distances by name;
    # the table and the scan read one BFS per complex, whose int rows are
    # cached on the complex
    calls, bfs = [], []
    real, real_bfs = hyperbolicity.all_pairs_distances, hyperbolicity._bfs_rows

    def spy(complex_):
        calls.append(complex_)
        return real(complex_)

    def bfs_spy(adj):
        bfs.append(adj)
        return real_bfs(adj)

    monkeypatch.setattr(hyperbolicity, "all_pairs_distances", spy)
    monkeypatch.setattr(hyperbolicity, "_bfs_rows", bfs_spy)
    graphs = [cycle_graph(6), small_tree(), k4_graph(), wheel_graph(7)]
    seen = set()
    for g in graphs + graphs[:1]:
        before = len(calls)
        hyperbolicity_delta(g)
        all_pairs_distances(g)
        assert calls[before:] == [g]
        seen.add(id(g))
        assert len(bfs) == len(seen)
        assert all_pairs_distances(g)._built == {}   # delta reads no row of the view
        order = sorted(g.vertices)
        table = dict_bfs_distances(g)
        assert hyperbolicity._distance_rows(g) == [[table[u][v] for v in order] for u in order]


def test_the_distance_table_is_a_view_built_on_read():
    g = _grid(3, 4)
    table = all_pairs_distances(g)
    assert isinstance(table, Mapping) and all_pairs_distances(g) is table
    # membership, length and iteration read the vertex order and build no row
    assert all(u in table for u in g.vertices) and "g9_9" not in table and 0 not in table
    assert len(table) == 12 and list(table) == sorted(g.vertices)
    assert table._built == {}
    row = table["g1_2"]
    assert table["g1_2"] is row and list(table._built) == ["g1_2"]
    with pytest.raises(KeyError):
        table["g9_9"]
    with pytest.raises(TypeError):
        table["g9_9"] = {}
    with pytest.raises(TypeError):
        row["g0_0"] = 5     # a row is shared by every later reader of the table
    assert table == dict_bfs_distances(g) and dict_bfs_distances(g) == table
    assert table != {**dict_bfs_distances(g), "g0_0": {}}


def test_disconnected_refused():
    cx = validate("abcd", [("p", "a", "b"), ("q", "c", "d")])
    with pytest.raises(DisconnectedError):
        all_pairs_distances(cx)
    with pytest.raises(DisconnectedError):
        hyperbolicity_delta(cx)


def test_known_delta_values():
    assert hyperbolicity_delta(small_tree()).delta == 0
    assert hyperbolicity_delta(cycle_graph(6)).delta == 1
    assert hyperbolicity_delta(k4_graph()).delta == 0


def test_random_trees_are_zero_hyperbolic():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(4, 12)
        vs = [f"t{i}" for i in range(n)]
        es = [(f"e{i}", vs[rng.randint(0, i - 1)], vs[i]) for i in range(1, n)]
        assert hyperbolicity_delta(validate(vs, es)).delta == 0


def test_cycle_sequence_matches_brute_force():
    # frozen values for C_n, n = 4..12, verified against the independent
    # Floyd-Warshall quadruple oracle (the sequence is NOT monotone: the
    # four-point constant dips at C5 and C9)
    expected = [Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1),
                Fraction(2), Fraction(3, 2), Fraction(2), Fraction(2), Fraction(3)]
    for n, want in zip(range(4, 13), expected):
        g = cycle_graph(n)
        rep = hyperbolicity_delta(g)
        assert rep.delta == want == four_point_delta(g), n


def test_delta_invariant_under_relabeling():
    g1 = validate("abcde",
                  [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"),
                   ("e4", "d", "e"), ("e5", "e", "a"), ("x", "a", "c")])
    g2 = validate("vwxyz",
                  [("f1", "v", "w"), ("f2", "w", "x"), ("f3", "x", "y"),
                   ("f4", "y", "z"), ("f5", "z", "v"), ("y0", "v", "x")])
    assert hyperbolicity_delta(g1).delta == hyperbolicity_delta(g2).delta


def test_delta_at_most_diameter_and_witness_attains():
    for build in (lambda: cycle_graph(7), k4_graph, small_tree):
        rep = hyperbolicity_delta(build())
        assert rep.delta <= rep.diameter
        if rep.witness is not None and rep.delta > 0:
            cx = build()
            d = all_pairs_distances(cx)
            a, b, c, e = rep.witness
            s = sorted((d[a][b] + d[c][e], d[a][c] + d[b][e], d[a][e] + d[b][c]))
            assert Fraction(s[2] - s[1], 2) == rep.delta


def test_vertex_cap_refusal():
    with pytest.raises(TooLargeError):
        hyperbolicity_delta(cycle_graph(6), vertex_cap=3)
    assert hyperbolicity_delta(cycle_graph(6), vertex_cap=6).delta == 1
    for cap in (-1, -5):
        with pytest.raises(ValueError, match="^vertex_cap must be >= 0$"):
            hyperbolicity_delta(cycle_graph(6), vertex_cap=cap)
    with pytest.raises(ValueError, match="^vertex_cap must be >= 0$"):
        hyperbolicity_delta(validate("", []), vertex_cap=-1)


def test_small_graphs_report_zero():
    tiny = validate("ab", [("e", "a", "b")])
    rep = hyperbolicity_delta(tiny)
    assert rep.delta == 0 and rep.witness is None


def test_delta_paired_with_linearly_bounded_fv():
    # context check: where FV_Z stays linearly bounded over the table range,
    # record delta of the 1-skeleton alongside; finite graphs are always
    # hyperbolic, so the pairing records data and draws no conclusion
    from finefill import INF, INT, fv
    from instances import CORPUS
    pairs = []
    for name, build in CORPUS:
        cx = build()
        if not cx.faces:
            continue
        table = fv(cx, 4, INT)
        values = [table.value(k) for k in range(5)]
        if any(v is INF for v in values):
            continue
        bound = max(Fraction(values[k], k) for k in range(1, 5))
        skeleton = validate(cx.vertices, [(e.id, e.tail, e.head) for e in cx.edges])
        rep = hyperbolicity_delta(skeleton)
        assert all(Fraction(values[k]) <= bound * k for k in range(1, 5))
        assert rep.delta <= rep.diameter
        pairs.append((name, bound, rep.delta))
    assert pairs


def _twice_four_point(dist, quad):
    a, b, c, d = quad
    s = sorted((dist[a][b] + dist[c][d], dist[a][c] + dist[b][d], dist[a][d] + dist[b][c]))
    return s[2] - s[1]


def _random_connected(rng, n, kind):
    """A connected graph on n shuffled ids: a random tree, a chorded cycle,
    or a chain of chorded cycles glued at cut vertices; pendant trees hang
    off the core, and loops and parallel edges are sprinkled in."""
    ids = [f"v{i}" for i in range(n)]
    rng.shuffle(ids)
    pairs = []
    if kind == "tree" or n < 4:
        core = 1
    else:
        core = rng.randint(4, n)
        start = 0
        while start < core - 1:          # cycles ids[start..stop], each sharing one vertex
            stop = min(core - 1, start + rng.randint(3, 8))
            ring = ids[start:stop + 1]
            pairs += list(zip(ring, ring[1:] + ring[:1]))
            pairs += [tuple(rng.sample(ring, 2)) for _ in range(rng.randint(0, 2))]
            start = stop
    pairs += [(ids[rng.randrange(i)], ids[i]) for i in range(core, n)]
    pairs += [(v, v) for v in rng.sample(ids, rng.randint(0, 2))]
    pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 2)))
    return validate(ids, [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)])


def test_delta_matches_exhaustive_oracle():
    rng = random.Random(13)
    kinds = ("tree", "chorded", "chorded")
    for trial in range(90):
        n = rng.randint(1, 3) if trial < 6 else rng.randint(4, 30 if trial % 5 == 0 else 16)
        g = _random_connected(rng, n, kinds[trial % 3])
        rep = hyperbolicity_delta(g)
        assert (rep.delta, rep.witness, rep.diameter) == exhaustive_delta(g), trial
        assert rep.vertex_count == n


def _chorded_tree(rng, n):
    """A random spanning tree on n shuffled ids plus n // 4 distinct chords,
    shaped like the random graphs of the benchmark's delta workload."""
    ids = [f"v{i}" for i in range(n)]
    rng.shuffle(ids)
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    present = set(map(frozenset, pairs))
    while len(pairs) < n - 1 + n // 4:
        a, b = rng.sample(range(n), 2)
        if frozenset((a, b)) not in present:
            present.add(frozenset((a, b)))
            pairs.append((a, b))
    return validate(ids, [(f"e{i}", ids[a], ids[b]) for i, (a, b) in enumerate(pairs)])


def test_witness_pass_matches_exhaustive_oracle_on_benchmark_shapes():
    # blocks of 16-26 vertices with 2*delta 3 or 4, and C30, C31 and the 5x6
    # grid: the sizes where the witness pass's pruned c and d loops do the work
    rng = random.Random(30)
    graphs = [_chorded_tree(rng, n) for n in (30, 31, 32, 33, 33, 34, 35, 36, 36)]
    graphs += [cycle_graph(30), cycle_graph(31), _grid(5, 6)]
    shapes = []
    for g in graphs:
        rep = hyperbolicity_delta(g)
        assert (rep.delta, rep.witness, rep.diameter) == exhaustive_delta(g)
        adj = hyperbolicity._adjacency(g)[1]
        shapes.append((2 * rep.delta, max(map(len, hyperbolicity._blocks(adj)))))
    assert all(twice in (3, 4) and size >= 16 for twice, size in shapes[:9]), shapes
    assert shapes[9:] == [(14, 30), (14, 31), (8, 30)]


def test_least_witness_may_span_two_blocks():
    # a hangs off the square b-c-d-e at e: (a, b, c, d) attains delta 1 through
    # the block's nearest points (e, b, c, d) and precedes (b, c, d, e)
    square = [("s1", "b", "c"), ("s2", "c", "d"), ("s3", "d", "e"), ("s4", "e", "b")]
    g = validate("abcde", square + [("p", "a", "e")])
    assert hyperbolicity_delta(g).witness == ("a", "b", "c", "d") == exhaustive_delta(g)[1]
    # hung off c instead, a shares c's nearest point, so (a, b, c, d) has delta 0
    g = validate("abcde", square + [("p", "a", "c")])
    assert hyperbolicity_delta(g).witness == ("a", "b", "d", "e") == exhaustive_delta(g)[1]


def _grid(rows, cols):
    vs = [f"g{r}_{c}" for r in range(rows) for c in range(cols)]
    es = [(f"h{r}_{c}", f"g{r}_{c}", f"g{r}_{c + 1}") for r in range(rows) for c in range(cols - 1)]
    es += [(f"v{r}_{c}", f"g{r}_{c}", f"g{r + 1}_{c}") for r in range(rows - 1) for c in range(cols)]
    return validate(vs, es)


def test_default_cap_finishes():
    # W399: every far-apart pair of the wheel is at distance 2 and its 2*delta
    # is 1, so only the bound of a block of diameter 2 without an induced
    # 4-cycle stops its scan before about n**4 steps
    assert DEFAULT_VERTEX_CAP == 400
    reps = {}
    for name, g, want in (("cycle", cycle_graph(400), 100), ("path", path_graph(400), 0),
                          ("grid", _grid(20, 20), 19), ("wheel", wheel_graph(399), Fraction(1, 2))):
        rep = reps[name] = hyperbolicity_delta(g)
        assert rep.vertex_count == 400 and rep.delta == want
        assert _twice_four_point(all_pairs_distances(g), rep.witness) == 2 * want
    assert reps["grid"].witness == ("g0_0", "g0_19", "g19_0", "g19_19")
    assert reps["path"].witness == tuple(sorted(path_graph(400).vertices)[:4])
    assert reps["wheel"].witness == ("hub", "w0", "w1", "w2")
    # a clique's scan stops before its first pair; every pair of K100 is far
    # apart, so meeting each with every earlier one takes about n**4 steps
    clique = validate([f"k{i:02}" for i in range(100)],
                      [(f"e{i}", f"k{a:02}", f"k{b:02}")
                       for i, (a, b) in enumerate(combinations(range(100), 2))])
    rep = hyperbolicity_delta(clique)
    assert (rep.delta, rep.witness, rep.diameter) == (0, ("k00", "k01", "k02", "k03"), 1)


def _oracle_cases():
    rng = random.Random(15)
    kinds = ("tree", "chorded", "chorded")
    cases = [_random_connected(rng, rng.randint(4, 30), kinds[t % 3]) for t in range(60)]
    cases += [wheel_graph(n) for n in range(4, 13)]
    cases += [cycle_graph(n) for n in (4, 5, 9, 16, 31)]
    cases += [_grid(r, c) for r, c in ((2, 2), (2, 7), (4, 4), (5, 6))]
    cases.append(coned_off_cayley_graph(parse_group(S4_GRP)).complex)
    return cases


def _check_packed_rows(rows):
    """Masks read off packed rows equal the per-entry and sum-of-bits masks."""
    lanes = hyperbolicity._Lanes(max(map(max, rows)), len(rows[0]))
    for row in rows:
        packed = lanes.pack(row)
        for bound in (0, 1, max(row), max(row) + 1):
            want = sum_at_least(row, bound)
            assert lanes.at_least(packed, bound) == mask_at_least(row, bound) == want
    return lanes


def _outcome(find, *args):
    try:
        return find(*args)
    except InternalError:
        return "no quadruple"


def test_fast_paths_match_moved_oracles():
    seen = {"blocks": 0, "one_sided": 0, "cut_in_pair": 0, "loops_or_parallel": 0,
            "witnesses": 0, "no_quadruple": 0}
    for g in _oracle_cases():
        table = all_pairs_distances(g)
        assert table == dict_bfs_distances(g)
        order, adj = hyperbolicity._adjacency(g)
        assert order == sorted(g.vertices) and list(table) == order
        rows = hyperbolicity._distance_rows(g)
        assert rows == [list(row.values()) for row in table.values()]
        assert adj == [[w for w, d in enumerate(row) if d == 1] for row in rows]
        seen["loops_or_parallel"] += sum(map(len, adj)) < 2 * len(g.edges)
        _check_packed_rows(rows)
        for block in hyperbolicity._blocks(adj):
            if len(block) < 4:
                continue
            seen["blocks"] += 1
            pairs = hyperbolicity._far_apart_pairs(rows, adj, block)
            want = set_far_apart_pairs(rows, adj, block)
            assert pairs == mask_far_apart_pairs(rows, adj, block) == want
            assert set(pairs) == set(want)
            _check_packed_rows([[rows[u][v] for v in block] for u in block])
            # the block's own maximum, and every smaller target, which some
            # quadruple may miss
            for target in range(1, hyperbolicity._block_twice_delta(rows, adj, block) + 1):
                got = _outcome(hyperbolicity._least_witness, rows, block, target)
                assert got == _outcome(mask_least_witness, rows, block, target)
                seen["witnesses"] += 1
                seen["no_quadruple"] += got == "no quadruple"
            inside = set(block)
            cut = {u for u in block if any(w not in inside for w in adj[u])}
            seen["cut_in_pair"] += sum(a in cut or b in cut for _, a, b in want)

            def far(a, b):      # no block neighbour of a is farther from b than a
                return max(rows[b][w] for w in adj[a] if w in inside) <= rows[b][a]

            seen["one_sided"] += sum(far(a, b) != far(b, a) for a, b in combinations(block, 2))
    assert all(count > 0 for count in seen.values()), seen


def test_packed_rows_across_the_lane_width_boundary():
    # one-byte lanes hold distances up to 127 under their guard bit: C254
    # (diameter 127) is the largest cycle on them, C256 (diameter 128) and
    # C520 (diameter 260, above the default cap) take two-byte lanes
    for n, width in ((254, 1), (256, 2), (520, 2)):
        g = cycle_graph(n)
        rep = hyperbolicity_delta(g, vertex_cap=n)
        assert rep.delta == n // 4 and rep.diameter == n // 2
        assert _twice_four_point(all_pairs_distances(g), rep.witness) == 2 * (n // 4)
        rows = hyperbolicity._distance_rows(g)
        assert _check_packed_rows(rows[::4]).width == width    # rows of a cycle: rotations
        order, adj = hyperbolicity._adjacency(g)
        [block] = hyperbolicity._blocks(adj)
        pairs = hyperbolicity._far_apart_pairs(rows, adj, block)
        assert pairs == mask_far_apart_pairs(rows, adj, block)
        assert len(pairs) == n // 2
        assert (hyperbolicity._least_witness(rows, block, 2 * (n // 4))
                == mask_least_witness(rows, block, 2 * (n // 4)))


def _random_diameter_two(rng, n, kind):
    """A connected graph of diameter 2 on n shuffled ids: a dense random
    graph, a cone over a random forest with a few chords, or a 5-cycle whose
    vertices are blown up into cliques (never an induced 4-cycle)."""
    ids = [f"v{i}" for i in range(n)]
    rng.shuffle(ids)
    if kind == "dense":
        while True:
            pairs = [p for p in combinations(ids, 2) if rng.random() < 0.6]
            g = validate(ids, [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)])
            dist = floyd_warshall(g)
            if max(d for row in dist.values() for d in row.values()) == 2:
                return g
    if kind == "cone":
        apex, base = ids[0], ids[1:]
        pairs = [(apex, v) for v in base]
        pairs += [(base[rng.randrange(i)], base[i]) for i in range(1, len(base))
                  if rng.random() < 0.8]
        pairs += [tuple(rng.sample(base, 2)) for _ in range(rng.randint(0, 2))]
    else:
        cuts = sorted(rng.sample(range(1, n), 4))
        parts = [ids[i:j] for i, j in zip([0] + cuts, cuts + [n])]
        pairs = [p for part in parts for p in combinations(part, 2)]
        pairs += [(a, b) for k in range(5) for a in parts[k] for b in parts[(k + 1) % 5]]
    return validate(ids, [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)])


def test_diameter_two_blocks_stop_at_their_bound():
    # in a block of diameter 2, 2*delta is 2 exactly when it has an induced
    # 4-cycle, and at most 1 otherwise; the scan stops at that bound.  A cone
    # over a forest may split into cliques, of 2*delta 0
    rng = random.Random(22)
    kinds = ("dense", "cone", "blown-up C5")
    with_c4 = without = 0
    for trial in range(240):
        g = _random_diameter_two(rng, rng.randint(5, 10), kinds[trial % 3])
        rep = hyperbolicity_delta(g)
        assert (rep.delta, rep.witness, rep.diameter) == exhaustive_delta(g), trial
        c4 = has_induced_c4(g)
        order, adj = hyperbolicity._adjacency(g)
        assert hyperbolicity._has_induced_c4(adj, list(range(len(order)))) == c4, trial
        assert (rep.delta == 1) == c4, trial
        with_c4 += c4
        without += rep.delta == Fraction(1, 2)
    assert with_c4 >= 60 and without >= 60, (with_c4, without)
