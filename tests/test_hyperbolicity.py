import random
from itertools import combinations

import pytest
from fractions import Fraction

from finefill import all_pairs_distances, coned_off_cayley_graph, hyperbolicity_delta, validate
from finefill import hyperbolicity
from finefill.constructions import parse_group
from finefill.errors import DisconnectedError, TooLargeError

from finefill.hyperbolicity import DEFAULT_VERTEX_CAP

from instances import S4_GRP, cycle_graph, k4_graph, path_graph, small_tree, wheel_graph
from oracles import (dict_bfs_distances, exhaustive_delta, floyd_warshall, four_point_delta,
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
    # the benchmark's tracer wraps hyperbolicity.all_pairs_distances by name
    calls = []
    real = hyperbolicity.all_pairs_distances

    def spy(complex_):
        calls.append(complex_)
        return real(complex_)

    monkeypatch.setattr(hyperbolicity, "all_pairs_distances", spy)
    graphs = [cycle_graph(6), small_tree(), k4_graph()]
    for g in graphs + graphs[:1]:
        before = len(calls)
        hyperbolicity_delta(g)
        assert calls[before:] == [g]


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
    assert DEFAULT_VERTEX_CAP == 400
    for g, want in ((cycle_graph(400), 100), (path_graph(400), 0), (_grid(20, 20), 19)):
        rep = hyperbolicity_delta(g)
        assert rep.vertex_count == 400 and rep.delta == want
        assert _twice_four_point(all_pairs_distances(g), rep.witness) == 2 * want
    assert rep.witness == ("g0_0", "g0_19", "g19_0", "g19_19")
    assert hyperbolicity_delta(path_graph(400)).witness == tuple(sorted(path_graph(400).vertices)[:4])


def _oracle_cases():
    rng = random.Random(15)
    kinds = ("tree", "chorded", "chorded")
    cases = [_random_connected(rng, rng.randint(4, 30), kinds[t % 3]) for t in range(60)]
    cases += [wheel_graph(n) for n in range(4, 13)]
    cases += [cycle_graph(n) for n in (4, 5, 9, 16, 31)]
    cases += [_grid(r, c) for r, c in ((2, 2), (2, 7), (4, 4), (5, 6))]
    cases.append(coned_off_cayley_graph(parse_group(S4_GRP)).complex)
    return cases


def test_fast_paths_match_moved_oracles():
    seen = {"blocks": 0, "one_sided": 0, "cut_in_pair": 0, "loops_or_parallel": 0}
    for g in _oracle_cases():
        table = all_pairs_distances(g)
        assert table == dict_bfs_distances(g)
        order = sorted(g.vertices)
        assert list(table) == order
        rows = [list(row.values()) for row in table.values()]
        adj = hyperbolicity._adjacency(order, g.edges)
        assert adj == [[w for w, d in enumerate(row) if d == 1] for row in rows]
        seen["loops_or_parallel"] += sum(map(len, adj)) < 2 * len(g.edges)
        for row in rows:
            for bound in (0, 1, max(row), max(row) + 1):
                assert hyperbolicity._at_least(row, bound) == sum_at_least(row, bound)
        for block in hyperbolicity._blocks(adj):
            if len(block) < 4:
                continue
            seen["blocks"] += 1
            pairs = hyperbolicity._far_apart_pairs(rows, adj, block)
            want = set_far_apart_pairs(rows, adj, block)
            assert pairs == want and set(pairs) == set(want)
            inside = set(block)
            cut = {u for u in block if any(w not in inside for w in adj[u])}
            seen["cut_in_pair"] += sum(a in cut or b in cut for _, a, b in want)

            def far(a, b):      # no block neighbour of a is farther from b than a
                return max(rows[b][w] for w in adj[a] if w in inside) <= rows[b][a]

            seen["one_sided"] += sum(far(a, b) != far(b, a) for a, b in combinations(block, 2))
    assert all(count > 0 for count in seen.values()), seen
