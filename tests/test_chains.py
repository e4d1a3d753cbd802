import random
from collections import Counter

import pytest
from fractions import Fraction

from finefill import (BARYCENTRIC, Chain, INT, RAT, decompose_into_circuits,
                      enumerate_circuits, enumerate_cycles, filling_norm, is_cycle,
                      is_disjoint, parse_chain, subdivide, validate, write_chain)
from finefill import chains
from finefill.chains import (canonical_walk_key, circuit_from_chain, circuit_masks,
                             make_circuit, require_circuit)
from finefill.errors import NotACircuitError, NotACycleError, UnknownEdgeError

from instances import (CORPUS, CORPUS_GRAPHS, TORSION, bigon, coned_s3, figure8_graph,
                       k4_graph, random_multigraph, small_tree, tetrahedron, triangle_face,
                       triangle_graph)
from oracles import (all_rotations_walk_key, brute_circuit_count, brute_cycles,
                     frozenset_circuit_search, multiset_cycles, string_walk_decompose,
                     two_direction_circuit_search)


def triangle_cycle():
    return Chain(1, INT, {"e1": 1, "e2": 1, "e3": 1})


def test_is_cycle():
    tri = triangle_graph()
    assert is_cycle(tri, triangle_cycle())
    assert not is_cycle(tri, Chain(1, INT, {"e1": 1}))
    loop = validate("v", [("e", "v", "v")])
    assert is_cycle(loop, Chain(1, INT, {"e": 1}))


def test_is_disjoint():
    a = Chain(1, INT, {"e1": 1, "e2": 1})
    assert is_disjoint(a, Chain(1, INT, {"e3": 1, "e4": -1}))
    assert not is_disjoint(a, Chain(1, INT, {"e2": 5}))
    assert is_disjoint(Chain(1, INT, {}), a)


def test_circuit_canonical_key_identifies_rotations_and_reversals():
    w = ((1, "e1"), (1, "e2"), (1, "e3"))
    rot = ((1, "e2"), (1, "e3"), (1, "e1"))
    rev = ((-1, "e3"), (-1, "e2"), (-1, "e1"))
    assert make_circuit(w).key == make_circuit(rot).key == make_circuit(rev).key


def _search_cases():
    """CORPUS, CORPUS_GRAPHS, TORSION, coned-S3 and the barycentric
    subdivisions of CORPUS and CORPUS_GRAPHS."""
    cases = [(name, build()) for name, build in CORPUS + CORPUS_GRAPHS + TORSION]
    cases.append(("S3-coned", coned_s3().complex))
    cases += [(name + "''", subdivide(build(), BARYCENTRIC).complex)
              for name, build in CORPUS + CORPUS_GRAPHS]
    return cases


def _random_multigraph(rng):
    """Up to 5 vertices (some isolated) and up to 8 edges, loops and parallel
    edges included."""
    vs = [f"v{i}" for i in range(rng.randint(1, 5))]
    es = []
    for i in range(rng.randint(1, 8)):
        tail = rng.choice(vs)
        roll = rng.random()
        if roll < 0.2:
            head = tail  # a loop
        elif roll < 0.45 and es:
            _, tail, head = rng.choice(es)  # parallel to an earlier edge
        else:
            head = rng.choice(vs)
        es.append((f"e{i}", tail, head))
    return validate(vs, es)


def test_circuit_search_matches_frozenset_oracle():
    # the same walks in the same order, not only the same keys: the
    # orientation of every omega face is the walk found first
    total = 0
    for name, cx in _search_cases():
        got = enumerate_circuits(cx, None, 8)
        want = frozenset_circuit_search(cx, 8)
        assert [(c.walk, c.key) for c in got] == [(c.walk, c.key) for c in want], name
        total += len(got)
    assert total > 6000


def test_circuit_search_matches_oracle_with_loops_and_parallel_edges():
    rng = random.Random(1301)
    loops = parallel = 0
    for _ in range(300):
        cx = _random_multigraph(rng)
        ends = [frozenset((e.tail, e.head)) for e in cx.edges]
        loops += any(e.tail == e.head for e in cx.edges)
        parallel += len(set(ends)) < len(ends)
        for scale in (1, 2, len(cx.edges)):
            got = enumerate_circuits(cx, None, scale)
            want = frozenset_circuit_search(cx, scale)
            assert [(c.walk, c.key) for c in got] == [(c.walk, c.key) for c in want], (
                cx.edges, scale)
    assert loops >= 100 and parallel >= 100, (loops, parallel)


def test_pruned_circuit_search_matches_oracle_at_every_scale():
    # the search drops a path only when the BFS distance back to its start
    # leaves no room to close within the scale, a bound that moves with the
    # scale: the same walks in the same order at every scale 1..8, on the
    # search cases and the 300 multigraphs of the test above.  The cached
    # masks are the circuits' edge supports.
    rng = random.Random(1301)
    cases = _search_cases() + [("random", _random_multigraph(rng)) for _ in range(300)]
    total = Counter()
    for name, cx in cases:
        index = {e.id: i for i, e in enumerate(cx.edges)}
        for scale in range(1, 9):
            got = enumerate_circuits(cx, None, scale)
            want = frozenset_circuit_search(cx, scale)
            assert [(c.walk, c.key) for c in got] == [(c.walk, c.key) for c in want], (
                name, cx.edges if name == "random" else None, scale)
            masks = circuit_masks(cx, scale)
            assert list(masks.values()) == got
            assert all(mask == sum(1 << index[e] for _, e in c.walk)
                       for mask, c in masks.items())
            total[scale] += len(got)
    assert all(total[scale] < total[scale + 1] for scale in range(1, 8)), total


def test_one_direction_search_matches_two_direction_oracle(monkeypatch):
    # the search closes each circuit once, leaving by the later of its two
    # root steps, which is the walk the two-direction search kept: the same
    # masks, walks, keys and order, on the search cases at scales 1, 2 and 8
    # (and |E| up to 12 edges) and on the 300 multigraphs at 1, 2, 8 and |E|
    closings = []
    least_rotation = chains._least_rotation

    def counting(toks, rtoks):
        closings.append(toks)
        return least_rotation(toks, rtoks)

    rng = random.Random(1301)
    cases = _search_cases() + [("random", _random_multigraph(rng)) for _ in range(300)]
    total = 0
    for name, cx in cases:
        scales = {1, 2, 8}
        if name == "random" or len(cx.edges) <= 12:
            scales.add(max(len(cx.edges), 1))
        for scale in sorted(scales):
            want = two_direction_circuit_search(cx, scale)
            monkeypatch.setattr(chains, "_least_rotation", counting)
            closings.clear()
            got = chains._all_circuits(cx, scale)
            monkeypatch.setattr(chains, "_least_rotation", least_rotation)
            assert [(m, c.walk, c.key) for m, c in got.items()] == [
                (m, c.walk, c.key) for m, c in want.items()], (
                name, cx.edges if name == "random" else None, scale)
            assert len(closings) == len(got), (name, scale)
            total += len(got)
    assert total > 10000, total


def test_canonical_walk_key_matches_all_rotations():
    walks = [(), ((1, "e0"), (1, "e0")), ((1, "e"), (-1, "e")),
             ((1, "a"), (-1, "b"), (1, "a"), (-1, "b")), ((-1, "x"),) * 3]
    for _, cx in _search_cases():
        walks += [f.walk for f in cx.faces]
        for circ in enumerate_circuits(cx, None, 4):
            walks += [circ.walk[r:] + circ.walk[:r] for r in range(circ.length)]
    # words over two or three signed letters repeat their least token, and
    # periodic ones tie on several rotations
    rng = random.Random(1302)
    letters = [(s, e) for s in (1, -1) for e in ("a", "b", "c")]
    for _ in range(3000):
        word = [rng.choice(letters[:rng.randint(2, 6)]) for _ in range(rng.randint(1, 6))]
        walks.append(tuple(word * rng.randint(1, 3)))
    for walk in walks:
        assert canonical_walk_key(walk) == all_rotations_walk_key(walk), walk
    assert canonical_walk_key(((1, "e0"), (1, "e0"))) == ("+e0", "+e0")


def test_enumerate_circuits_k4():
    k4 = k4_graph()
    assert len(enumerate_circuits(k4, None, 3)) == 4
    assert len(enumerate_circuits(k4, "e12", 3)) == 2
    assert len(enumerate_circuits(k4, None, 4)) == 7
    with pytest.raises(UnknownEdgeError):
        enumerate_circuits(k4, "zz", 3)


def test_enumerate_circuits_tree_empty():
    assert enumerate_circuits(small_tree(), None, 9) == []


def test_short_circuits_admitted():
    cx = validate("uv", [("l", "u", "u"), ("p", "u", "v"), ("q", "u", "v")])
    found = enumerate_circuits(cx, None, 2)
    assert sorted(c.length for c in found) == [1, 2]


def test_circuit_counts_match_subset_oracle():
    for name, build in CORPUS:
        cx = build()
        if len(cx.edges) > 8:
            continue
        for scale in (2, 4, 8):
            got = len(enumerate_circuits(cx, None, scale))
            assert got == brute_circuit_count(cx, scale), (name, scale)


def test_anchored_equals_filtered():
    for name, build in CORPUS:
        cx = build()
        scale = min(len(cx.edges), 6) if cx.edges else 1
        allc = enumerate_circuits(cx, None, scale)
        for e in cx.edges:
            got = [c.key for c in enumerate_circuits(cx, e.id, scale)]
            want = [c.key for c in allc if c.contains_edge(e.id)]
            assert got == want, (name, e.id)


def test_enumerate_cycles_examples():
    tri = triangle_graph()
    assert len(enumerate_cycles(tri, 2)) == 1
    three = enumerate_cycles(tri, 3)
    assert len(three) == 3
    assert len(enumerate_cycles(k4_graph(), 3)) == 9


def test_enumerate_cycles_against_vector_oracle():
    for name, build in CORPUS:
        cx = build()
        if len(cx.edges) > 8:
            continue
        k = 4
        got = {c.serialize() for c in enumerate_cycles(cx, k)}
        assert got == brute_cycles(cx, k), name


def test_enumerate_cycles_matches_multiset_oracle():
    # same cycles in the same order as summing every circuit multiset,
    # cancelling ones included
    for name, build in CORPUS:
        cx = build()
        for k in range(6):
            assert enumerate_cycles(cx, k) == multiset_cycles(cx, k), (name, k)


def test_enumerate_cycles_no_duplicates_sorted():
    cycles = enumerate_cycles(tetrahedron(), 6)
    keys = [c.serialize() for c in cycles]
    assert len(keys) == len(set(keys))
    order = [(c.l1(), c.serialize()) for c in cycles]
    assert order == sorted(order)


def test_decompose_figure_eight():
    cx = figure8_graph()
    gamma = Chain(1, INT, {"p1": 1, "p2": 1, "p3": 1, "q1": 1, "q2": 1, "q3": 1})
    parts = decompose_into_circuits(cx, gamma)
    assert len(parts) == 2
    assert sum(p.length for p in parts) == gamma.l1()
    total = Chain(1, INT, {})
    for p in parts:
        total = total.add(p.induced_cycle())
    assert total == gamma


def test_decompose_single_and_doubled_circuit():
    tri = triangle_graph()
    parts = decompose_into_circuits(tri, triangle_cycle())
    assert len(parts) == 1 and parts[0].induced_cycle() == triangle_cycle()
    doubled = triangle_cycle().scale(2)
    parts = decompose_into_circuits(tri, doubled)
    assert len(parts) == 2 and all(p.length == 3 for p in parts)
    assert decompose_into_circuits(tri, Chain(1, INT, {})) == []


def test_decompose_rejects_non_cycles():
    with pytest.raises(NotACycleError):
        decompose_into_circuits(triangle_graph(), Chain(1, INT, {"e1": 1}))
    # a RAT cycle with a non-integral coefficient is refused as filling_norm refuses it
    half = Chain(1, RAT, {e: Fraction(c, 2) for e, c in triangle_cycle().coeffs.items()})
    for call, message in ((lambda: decompose_into_circuits(triangle_graph(), half),
                           "decomposition is defined for integral cycles"),
                          (lambda: filling_norm(triangle_face(), half, RAT),
                           "fillings are computed for integral cycles")):
        with pytest.raises(NotACycleError, match=message):
            call()


def test_decompose_takes_an_integral_rat_cycle_over_int_as_filling_norm_does():
    # on a bigon the RAT cycle p - q with integral coefficients has filling
    # norm 1, and it decomposes exactly as the same cycle over INT
    cx = bigon()
    rat = Chain(1, RAT, {"p": Fraction(1), "q": Fraction(-2, 2)})
    assert filling_norm(cx, rat, INT).value == 1
    parts = decompose_into_circuits(cx, rat)
    assert parts == decompose_into_circuits(cx, Chain(1, INT, {"p": 1, "q": -1}))
    assert [p.induced_cycle() for p in parts] == [Chain(1, INT, {"p": 1, "q": -1})]


def test_decompose_randomized_norm_additivity():
    rng = random.Random(20240817)
    failures = 0
    for name, build in CORPUS:
        cx = build()
        circuits = enumerate_circuits(cx, None, min(len(cx.edges), 8)) if cx.edges else []
        if not circuits:
            continue
        for _ in range(200):
            gamma = Chain(1, INT, {})
            for _ in range(rng.randint(1, 3)):
                c = rng.choice(circuits)
                gamma = gamma.add(c.induced_cycle().scale(rng.choice([-2, -1, 1, 2])))
            parts = decompose_into_circuits(cx, gamma)
            total = Chain(1, INT, {})
            for p in parts:
                total = total.add(p.induced_cycle())
            if total != gamma or sum(p.length for p in parts) != gamma.l1():
                failures += 1
    assert failures == 0


def test_decompose_walks_match_the_string_vertex_tracer():
    # the same circuits, walks included, in the same order
    rng = random.Random(2324)
    cases = [(name, build()) for name, build in CORPUS + CORPUS_GRAPHS + TORSION]
    cases += [("random", random_multigraph(rng)) for _ in range(150)]
    total = 0
    for name, cx in cases:
        circuits = enumerate_circuits(cx, None, min(len(cx.edges), 6)) if cx.edges else []
        for _ in range(40 if circuits else 0):
            gamma = Chain(1, INT, {})
            for _ in range(rng.randint(1, 4)):
                c = rng.choice(circuits)
                gamma = gamma.add(c.induced_cycle().scale(rng.choice([-2, -1, 1, 2])))
            got = decompose_into_circuits(cx, gamma)
            want = string_walk_decompose(cx, gamma)
            assert [(c.walk, c.key) for c in got] == [(c.walk, c.key) for c in want], (
                name, gamma)
            total += len(got)
    assert total > 5000, total


def test_circuit_splits_are_trivial():
    # no circuit cycle splits into two nonzero disjoint cycles
    from itertools import combinations
    for name, build in CORPUS:
        cx = build()
        if len(cx.edges) > 8:
            continue
        for circ in enumerate_circuits(cx, None, len(cx.edges)):
            gamma = circ.induced_cycle()
            support = sorted(gamma.coeffs)
            for r in range(1, len(support)):
                for part in combinations(support, r):
                    alpha = Chain(1, INT, {e: gamma.coeffs[e] for e in part})
                    beta = gamma.add(alpha.neg())
                    if alpha.is_zero() or beta.is_zero():
                        continue
                    assert not (is_cycle(cx, alpha) and is_cycle(cx, beta)), \
                        (name, circ.key, part)


def test_circuit_from_chain():
    k4 = k4_graph()
    for c in enumerate_circuits(k4, None, 4):
        assert circuit_from_chain(k4, c.induced_cycle()).key == c.key
    assert circuit_from_chain(k4, Chain(1, INT, {"e12": 1})) is None
    assert circuit_from_chain(triangle_graph(), triangle_cycle().scale(2)) is None
    with pytest.raises(NotACircuitError):
        require_circuit(triangle_graph(), triangle_cycle().scale(2))


def test_circuit_from_chain_matches_the_circuit_list():
    """A +-1 chain gives a circuit exactly when it is +- the induced cycle of
    a circuit that the full search lists; that circuit has the listed key,
    the chain's steps, and is the one part that decompose_into_circuits
    splits the chain into."""
    rng = random.Random(20261020)
    for name, build in CORPUS + CORPUS_GRAPHS + TORSION:
        cx = build()
        listed = {}  # signed steps -> listed circuit, both directions
        for c in enumerate_circuits(cx, None, len(cx.edges)):
            for s in (1, -1):
                listed[frozenset((s * t, e) for t, e in c.walk)] = c
        cases = [Chain(1, INT, {e: t for t, e in steps}) for steps in listed]
        edges = [e.id for e in cx.edges]
        for _ in range(200):
            part = rng.sample(edges, rng.randint(1, min(len(edges), 8)))
            cases.append(Chain(1, INT, {e: rng.choice((1, -1)) for e in part}))
        for chain in cases:
            steps = frozenset((v, e) for e, v in chain.coeffs.items())
            got = circuit_from_chain(cx, chain)
            if steps not in listed:
                assert got is None, (name, chain)
                continue
            assert got.key == listed[steps].key and frozenset(got.walk) == steps, (name, chain)
            assert got == decompose_into_circuits(cx, chain)[0], (name, chain)


def test_circuit_from_chain_pinned_cases():
    tri, cycle = triangle_graph(), triangle_cycle()
    assert circuit_from_chain(tri, cycle.add(Chain(1, INT, {"zz": 1}))) is None  # unknown edge
    assert circuit_from_chain(tri, Chain(1, INT, {"zz": 1})) is None
    assert circuit_from_chain(tri, Chain(1, INT, {})) is None
    assert circuit_from_chain(tri, Chain(2, INT, {"e1": 1})) is None
    assert circuit_from_chain(tri, cycle.scale(-2)) is None
    # two triangles meeting at v: a +-1 cycle that splits into two circuits
    eight = Chain(1, INT, {e: 1 for e in ("p1", "p2", "p3", "q1", "q2", "q3")})
    assert circuit_from_chain(figure8_graph(), eight) is None
    assert circuit_from_chain(figure8_graph(), eight.neg()) is None
    rat = Chain(1, RAT, {e: Fraction(c) for e, c in cycle.coeffs.items()})
    assert circuit_from_chain(tri, rat) == circuit_from_chain(tri, cycle) == make_circuit(
        ((1, "e1"), (1, "e2"), (1, "e3")))
    # the walk starts at the tail of the least edge: -e1 runs from b
    assert circuit_from_chain(tri, rat.neg()).walk == ((-1, "e1"), (-1, "e3"), (-1, "e2"))


def test_cy_round_trip():
    ch = Chain(1, RAT, {"e1": Fraction(1, 2), "e2": Fraction(-3)})
    assert parse_chain(write_chain(ch)) == ch
    ci = Chain(1, INT, {"e1": 2, "e2": -1})
    assert parse_chain(write_chain(ci)) == ci
    from finefill.errors import FormatError
    with pytest.raises(FormatError):
        parse_chain("chain1 v1 INT\n1/2 e1\n")
