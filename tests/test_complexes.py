import random
from collections import Counter

import pytest
from decimal import Decimal
from fractions import Fraction

from finefill import (BARYCENTRIC, INT, MIDPOINT, RAT, Chain, H1Report,
                      boundary, homology_h1, l1_norm, omega_n, parse_complex,
                      subdivide, validate, write_complex)
from finefill import chains, filling, fineness, hyperbolicity
from finefill.complexes import rank_d1
from finefill.errors import UnknownCellError, ValidationError

from instances import (CORPUS, CORPUS_GRAPHS, TORSION, double_traversal, random_multigraph,
                       tetrahedron, triangle_face, triangle_graph, wheel_graph)
from oracles import (RecordingCache, boundary_matrix_1, chain_face_columns, dense_d2,
                     determinant_divisor_factors, edge_loop_adjacency, face_boundary, incident,
                     rank_over_q, smith_form, sparse_columns)


def test_validate_triangle_graph():
    cx = triangle_graph()
    assert len(cx.vertices) == 3 and len(cx.edges) == 3 and not cx.faces


def test_validate_rejects_open_walk():
    with pytest.raises(ValidationError) as err:
        validate("ab", [("e1", "a", "b"), ("e2", "b", "a")], [("f", [(1, "e1")])])
    assert any(code == "WALK_NOT_CLOSED" for code, _ in err.value.violations)


def test_validate_rejects_discontinuous_walk():
    with pytest.raises(ValidationError) as err:
        validate("abc",
                 [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"), ("d", "a", "c")],
                 [("f", [(1, "e1"), (1, "d"), (1, "e3")])])
    assert any(code == "WALK_DISCONTINUOUS" for code, _ in err.value.violations)


def test_validate_rejects_dangling_and_duplicates():
    with pytest.raises(ValidationError) as err:
        validate("aa", [("e", "a", "zz")])
    codes = {code for code, _ in err.value.violations}
    assert codes == {"DUPLICATE_ID", "DANGLING_REFERENCE"}


@pytest.mark.parametrize("edges, faces, violation", [
    ([("e", "a", "a")], [("f", [(2, "e")])], ("DANGLING_REFERENCE", "face 'f': bad sign 2")),
    ([("e", "a", "a")], [("f", [(1, "zz")])],
     ("DANGLING_REFERENCE", "face 'f': unknown edge 'zz'")),
    ([("e", "a", "a")], [("f", [])], ("WALK_NOT_CLOSED", "face 'f': empty walk")),
    ([("e", "a", "a"), ("e", "a", "a")], [], ("DUPLICATE_ID", "duplicate id 'e'")),
    ([("e", "a", "a")], [("f", [(1, "e")]), ("f", [(1, "e")])],
     ("DUPLICATE_ID", "duplicate id 'f'")),
], ids=["bad-sign", "unknown-edge", "empty-walk", "duplicate-edge", "duplicate-face"])
def test_validate_face_checks(edges, faces, violation):
    with pytest.raises(ValidationError) as err:
        validate("a", edges, faces)
    assert err.value.violations == [violation]


def test_double_traversal_is_valid():
    cx = double_traversal()
    assert boundary(cx, Chain(2, INT, {"f": 1})).coeffs == {"e": 2}


def test_boundary_examples():
    cx = triangle_face()
    df = boundary(cx, Chain(2, INT, {"f": 1}))
    assert df.coeffs == {"e1": 1, "e2": 1, "e3": 1}
    assert boundary(cx, df).is_zero()
    e = boundary(cx, Chain(1, INT, {"e1": 1}))
    assert e.coeffs == {"a": -1, "b": 1}
    with pytest.raises(UnknownCellError):
        boundary(cx, Chain(2, INT, {"nope": 1}))


def test_boundary_squared_vanishes_on_corpus():
    for _, build in CORPUS:
        cx = build()
        for f in cx.faces:
            assert boundary(cx, boundary(cx, Chain(2, INT, {f.id: 1}))).is_zero()


def test_one_edge_numbering_shared_by_every_module():
    omega = omega_n(wheel_graph(4), 5)
    faces = [f.id for f in omega.faces]
    assert len(faces) >= 11 and sorted(faces) != faces  # ids do not sort as created
    cases = CORPUS + TORSION + [
        ("tetrahedron-barycentric", lambda: subdivide(tetrahedron(), BARYCENTRIC).complex),
        ("omega-w4-5", lambda: omega_n(wheel_graph(4), 5))]
    for name, build in cases:
        cx = build()
        cx._cache = RecordingCache(cx._cache)
        index = cx.edge_index
        assert index == {e.id: i for i, e in enumerate(cx.edges)}, name
        # circuit support masks are edge_index bits
        masks = chains.circuit_masks(cx, 4)
        for mask, circ in masks.items():
            assert mask == sum(1 << index[e] for _, e in circ.walk), (name, circ)
        # the sparse d2 is the dense one's columns, and filling reads it
        assert cx.face_columns() == sparse_columns(dense_d2(cx)), name
        assert filling._context(cx).columns is cx.face_columns(), name
        assert "d2_columns" in cx._cache.stored, name
        # the special-chain tables: faces in id order, the same columns re-indexed
        tables = fineness._Tables(cx, 4)
        assert tables.face_ids == sorted(f.id for f in cx.faces), name
        assert tables.face_boundary == [
            {index[e]: c for e, c in face_boundary(cx, fid).coeffs.items()}
            for fid in tables.face_ids], name
        assert tables.circuits is masks, name
        # one adjacency per complex, for the distances and delta alike
        hyperbolicity.hyperbolicity_delta(cx)
        hyperbolicity.all_pairs_distances(cx)
        hyperbolicity.hyperbolicity_delta(cx)
        assert cx._cache.stored.count("adjacency") == 1, name
        # one vertex numbering, for the circuit search, the walk tracer and delta
        for circ in masks.values():
            parts = chains.decompose_into_circuits(cx, circ.induced_cycle())
            assert [part.key for part in parts] == [circ.key], name
        chains.circuit_masks(cx, 5)
        assert cx._cache.stored.count("skeleton") == 1, name


def _repeating_walks():
    # a walk that runs an edge twice gives coefficient 2, one that steps
    # back along it gives 0
    return validate("ab", [("x", "a", "b"), ("y", "b", "a"), ("z", "a", "a")],
                    [("twice", [(1, "x"), (1, "y"), (1, "x"), (1, "y")]),
                     ("back", [(1, "x"), (-1, "x"), (1, "z")]),
                     ("mixed", [(1, "z"), (1, "x"), (1, "y"), (1, "z"), (-1, "z")])])


def test_face_columns_sum_the_signs_of_each_face_walk():
    # the columns summed from the face walks are those of one boundary
    # Chain per face, and a coefficient 0 is dropped
    for name, build in CORPUS + TORSION:
        cx = build()
        assert cx.face_columns() == chain_face_columns(cx), name
    cx = _repeating_walks()
    assert cx.face_columns() == chain_face_columns(cx) == [
        [(0, 2), (1, 2)], [(2, 1)], [(0, 1), (1, 1), (2, 1)]]


def test_boundary_of_a_2_chain_sums_the_face_boundaries():
    # boundary() reads the face columns; the oracle adds up one boundary
    # Chain per face of the chain, in either ring
    rng = random.Random(2525)
    cases = CORPUS + TORSION + [
        ("tetrahedron-barycentric", lambda: subdivide(tetrahedron(), BARYCENTRIC).complex),
        ("omega-w4-5", lambda: omega_n(wheel_graph(4), 5)),
        ("repeating-walks", _repeating_walks)]
    for name, build in cases:
        cx = build()
        faces = [f.id for f in cx.faces]
        for trial in range(20):
            picked = rng.sample(faces, rng.randint(0, len(faces)))
            for ring in (INT, RAT):
                mu = Chain(2, ring, {f: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                     if ring == RAT else rng.randint(-3, 3) for f in picked})
                want = Chain(1, ring, {})
                for f, c in mu.coeffs.items():
                    want = want.add(face_boundary(cx, f).to_ring(ring).scale(c))
                got = boundary(cx, mu)
                assert got == want and got.ring == ring, (name, trial, mu)
                assert boundary(cx, got).is_zero(), (name, trial, mu)
    cx = _repeating_walks()
    assert boundary(cx, Chain(2, INT, {"twice": 1})).coeffs == {"x": 2, "y": 2}
    assert boundary(cx, Chain(2, INT, {"back": -1})).coeffs == {"z": -1}
    assert boundary(cx, Chain(2, INT, {"twice": 1, "mixed": -2})).coeffs == {"z": -2}


def test_incident_lists_loops_twice_and_parallel_edges_once():
    cx = validate("abc", [("q", "a", "b"), ("p", "a", "b"), ("m", "b", "a"),
                          ("l", "a", "a")])
    order, rank, steps = cx.skeleton()
    assert order == ["a", "b", "c"] and rank == {"a": 0, "b": 1, "c": 2}
    # edge indices in edges order: q 0, p 1, m 2, l 3
    assert steps[0] == [((1, "l"), 0, 3), ((-1, "l"), 0, 3), ((-1, "m"), 1, 2),
                        ((1, "p"), 1, 1), ((1, "q"), 1, 0)]
    assert steps[1] == [((1, "m"), 0, 2), ((-1, "p"), 0, 1), ((-1, "q"), 0, 0)]
    assert steps[2] == []
    assert list(cx._cache) == ["skeleton"]  # one entry for every vertex


def test_skeleton_matches_the_reference_step_order():
    rng = random.Random(2323)
    cases = [(name, build()) for name, build in CORPUS + CORPUS_GRAPHS + TORSION]
    cases += [("random", random_multigraph(rng)) for _ in range(200)]
    seen = Counter()
    for name, cx in cases:
        order, rank, steps = cx.skeleton()
        assert order == sorted(cx.vertices) and len(steps) == len(order), name
        assert rank == {v: r for r, v in enumerate(order)}, name
        for v, row in zip(order, steps):
            assert tuple(step for step, _, _ in row) == incident(cx, v), (name, v)
            for step, end, i in row:
                assert cx.edge_endpoints(step) == (v, order[end]), (name, step)
                assert i == cx.edge_index[step[1]], (name, step)
        assert hyperbolicity._adjacency(cx) == edge_loop_adjacency(cx), name
        ends = [frozenset((e.tail, e.head)) for e in cx.edges]
        seen["loops"] += any(e.tail == e.head for e in cx.edges)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["isolated"] += not all(steps)
    assert min(seen.values()) >= 50, seen


def test_l1_norm():
    assert l1_norm(Chain(1, INT, {})) == 0
    assert l1_norm(Chain(1, INT, {"e1": 2, "e2": -3})) == 5
    assert l1_norm(Chain(2, RAT, {"f": Fraction(1, 2)})) == Fraction(1, 2)


def test_norm_triangle_inequality_and_homogeneity():
    a = Chain(1, INT, {"e1": 2, "e2": -1})
    b = Chain(1, INT, {"e2": 4, "e3": 1})
    assert l1_norm(a.add(b)) <= l1_norm(a) + l1_norm(b)
    for r in (-3, -1, 0, 2, 5):
        assert l1_norm(a.scale(r)) == abs(r) * l1_norm(a)


def test_int_chain_rejects_fractions():
    with pytest.raises(ValueError):
        Chain(1, INT, {"e": Fraction(1, 2)})
    # integral values of other types are stored as ints, zeros dropped
    ch = Chain(1, INT, {"a": True, "b": Fraction(4, 2), "c": 0, "d": Fraction(0), "e": -3})
    assert ch.coeffs == {"a": 1, "b": 2, "e": -3}
    assert all(type(c) is int for c in ch.coeffs.values())
    rat = Chain(1, RAT, {"a": 1, "b": Fraction(1, 2), "c": 0, "d": True})
    assert rat.coeffs == {"a": 1, "b": Fraction(1, 2), "d": 1}
    assert all(type(c) is Fraction for c in rat.coeffs.values())


def test_chains_refuse_floats_and_non_integral_int_coefficients():
    # no float is rounded into an INT chain or expanded into a RAT one
    for ring in (INT, RAT):
        for c in (1.5, 0.1, 2.0, 0.0, -1.0):
            with pytest.raises(ValueError, match="float coefficient"):
                Chain(1, ring, {"e": c})
    for c in (Fraction(3, 2), Decimal("1.5"), Decimal("-0.5")):
        with pytest.raises(ValueError, match="non-integer coefficient .* in INT chain"):
            Chain(1, INT, {"e": c})
    assert Chain(1, INT, {"a": Decimal(2), "b": False}).coeffs == {"a": 2}
    assert Chain(1, RAT, {"a": Decimal("1.5")}).coeffs == {"a": Fraction(3, 2)}


def test_homology_tetrahedron():
    cx = tetrahedron()
    assert homology_h1(cx) == H1Report(0, ())
    # independent oracle: betti = (E - rank d1) - rank d2, torsion from
    # determinant divisors
    d1, d2 = boundary_matrix_1(cx), dense_d2(cx)
    betti = (len(cx.edges) - rank_over_q(d1)) - rank_over_q(d2)
    torsion = tuple(f for f in determinant_divisor_factors(d2) if f > 1)
    assert homology_h1(cx) == H1Report(betti, torsion)


def test_homology_triangle_graph():
    assert homology_h1(triangle_graph()) == H1Report(1, ())


def test_homology_double_traversal():
    cx = double_traversal()
    assert homology_h1(cx) == H1Report(0, (2,))
    assert determinant_divisor_factors(dense_d2(cx)) == [2]


def test_homology_matches_oracle_on_corpus():
    for name, build in CORPUS:
        cx = build()
        d1, d2 = boundary_matrix_1(cx), dense_d2(cx)
        betti = (len(cx.edges) - rank_over_q(d1)) - (rank_over_q(d2) if cx.faces else 0)
        torsion = tuple(f for f in determinant_divisor_factors(d2) if f > 1) if cx.faces else ()
        assert homology_h1(cx) == H1Report(betti, torsion), name


def test_rank_d1_matches_smith_rank():
    # |V| less the number of components equals the rank of the Smith form
    # of d1, on the corpus and on random graphs with loops, parallel edges
    # and isolated vertices
    rng = random.Random(4242)
    complexes = [build() for _, build in CORPUS]
    for _ in range(200):
        vertices = [f"v{i}" for i in range(rng.randint(1, 8))]
        edges = [(f"e{j}", rng.choice(vertices), rng.choice(vertices))
                 for j in range(rng.randint(0, 10))]
        complexes.append(validate(vertices, edges))
    loops = parallel = 0
    for cx in complexes:
        d1 = boundary_matrix_1(cx)
        smith = len(smith_form(d1)[1])
        assert rank_d1(cx) == smith == rank_over_q(d1), cx
        loops += any(e.tail == e.head for e in cx.edges)
        parallel += len({frozenset((e.tail, e.head)) for e in cx.edges}) < len(cx.edges)
    assert loops >= 30 and parallel >= 30, (loops, parallel)


def test_midpoint_subdivision_counts():
    res = subdivide(triangle_graph(), MIDPOINT)
    assert len(res.complex.vertices) == 6 and len(res.complex.edges) == 6


def test_barycentric_face_counts():
    assert len(subdivide(triangle_face(), BARYCENTRIC).complex.faces) == 6
    # walk of length 2 gives 4 triangles
    res = subdivide(double_traversal(), BARYCENTRIC)
    assert len(res.complex.faces) == 4
    assert homology_h1(res.complex) == H1Report(0, (2,))


def test_subdivision_preserves_h1_on_corpus():
    for name, build in CORPUS:
        cx = build()
        h = homology_h1(cx)
        for mode in (MIDPOINT, BARYCENTRIC):
            sub = subdivide(cx, mode).complex
            assert homology_h1(sub) == h, (name, mode)


def test_midpoint_doubles_cycle_norms():
    from finefill import enumerate_cycles
    for name, build in CORPUS:
        cx = build()
        res = subdivide(cx, MIDPOINT)
        for gamma in enumerate_cycles(cx, 4):
            img = res.map_chain1(gamma)
            assert l1_norm(img) == 2 * l1_norm(gamma), name
            assert boundary(res.complex, img).is_zero(), name


def test_provenance_map():
    res = subdivide(triangle_face(), BARYCENTRIC)
    for cell, (dim, orig) in res.provenance.items():
        assert dim in (0, 1, 2)
        if dim == 2:
            assert orig == "f"


def test_cx_round_trip():
    for name, build in CORPUS:
        cx = build()
        assert parse_complex(write_complex(cx)) == cx, name


def test_empty_and_point_complexes():
    empty = validate((), ())
    assert homology_h1(empty) == H1Report(0, ())
    point = validate("p", ())
    assert homology_h1(point) == H1Report(0, ())
    assert parse_complex(write_complex(point)) == point


def test_cx_comments_and_errors():
    text = "complex v1\n# a comment\nvertex a\n"
    cx = parse_complex(text)
    assert cx.vertices == ("a",)
    from finefill.errors import FormatError
    with pytest.raises(FormatError):
        parse_complex("vertex a\n")
    with pytest.raises(FormatError):
        parse_complex("complex v1\nface f e1\n")
