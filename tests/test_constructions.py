import os
import random

import pytest

from finefill import (Chain, INT, H1Report, coned_off_cayley_complex,
                      coned_off_cayley_graph, enumerate_circuits, filling_norm,
                      fv, group_closure, homology_h1, omega_n, parse_group,
                      weak_area, write_group)
from finefill.constructions import (FiniteGroupPresentation, compose,
                                    cycle_notation, face_circuit, parse_cycles,
                                    write_coned_off)
from finefill.errors import (CapExceededError, FormatError, HasFacesError,
                             RelatorFailsError, ValidationError)
from finefill.hyperbolicity import all_pairs_distances

from instances import (CORPUS_GRAPHS, S3_GRP, S4_GRP, coned_s3, hexagon_chord,
                       k4_graph, s3_presentation, small_tree, triangle_graph)
from oracles import reference_coned_off


def test_omega_counts():
    assert len(omega_n(triangle_graph(), 3).faces) == 1
    assert len(omega_n(k4_graph(), 3).faces) == 4
    assert len(omega_n(small_tree(), 6).faces) == 0


def test_omega_rejects_faces():
    from instances import triangle_face
    with pytest.raises(HasFacesError):
        omega_n(triangle_face(), 3)


def test_omega_face_count_matches_circuits_and_monotone():
    for name, build in CORPUS_GRAPHS[:8]:
        g = build()
        prev = 0
        for n in range(1, 7):
            om = omega_n(g, n)
            circuits = enumerate_circuits(g, None, n)
            assert len(om.faces) == len(circuits), (name, n)
            assert len(om.faces) >= prev
            prev = len(om.faces)
            for f in om.faces:
                assert face_circuit(f).length <= n


def test_omega_kills_h1_at_vertex_count():
    for name, build in [("K4", k4_graph), ("hex-chord", hexagon_chord)]:
        g = build()
        om = omega_n(g, len(g.vertices))
        assert homology_h1(om) == H1Report(0, ()), name


def test_cycle_notation_round_trip():
    for text, deg in [("(1 2)", 3), ("(1 2 3)", 3), ("(1 2)(3 4)", 4), ("()", 2)]:
        p = parse_cycles(text, deg)
        assert parse_cycles(cycle_notation(p), deg) == p
    with pytest.raises(FormatError):
        parse_cycles("(1 9)", 3)
    with pytest.raises(FormatError):
        parse_cycles("(1 1)", 3)
    # a point in two cycles would map two points to one
    for text in ("(1 2)(2 3)", "(1 2)(4 5)(5 1)"):
        with pytest.raises(FormatError, match="repeated point"):
            parse_cycles(text, 5)


def invert(p):
    """The inverse of the permutation ``p`` of 0..n-1, a tuple of images."""
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def test_compose_and_invert():
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(1 2 3)", 3)
    assert compose(a, invert(a)) == (0, 1, 2)
    assert compose(a, b) != compose(b, a)  # S3 is nonabelian


def test_group_closure_s3():
    table = group_closure(s3_presentation())
    assert table.order == 6
    assert table.elements[0] == (0, 1, 2)


def test_group_closure_trivial():
    p = parse_group("group v1\ndegree 1\n")
    assert group_closure(p).order == 1


def test_group_closure_z4_relators():
    p = parse_group("group v1\ndegree 4\ngen a (1 2 3 4)\ngen ainv (1 4 3 2)\n"
                    "sgen a ainv\nrelator a a a a\n")
    assert group_closure(p).order == 4


def test_relator_failure_detected():
    p = parse_group("group v1\ndegree 3\ngen a (1 2)\nsgen a a\nrelator a\n")
    with pytest.raises(RelatorFailsError):
        group_closure(p)


def test_closure_cap():
    p = parse_group("group v1\ndegree 5\ngen a (1 2 3 4 5)\ngen b (1 2)\n"
                    "sgen a a\n")  # a is not an involution: sgen invalid later
    with pytest.raises(CapExceededError):
        group_closure(p, cap=10)


def test_coned_off_graph_census_s3():
    coned = coned_off_cayley_graph(s3_presentation())
    cx = coned.complex
    assert len(coned.element_vertices) == 6
    assert len(coned.cone_vertices) == 3
    assert len(coned.cayley_edges) == 9
    assert len(coned.cone_edges) == 6
    assert not cx.faces
    for (_, _), vid in coned.cone_vertices.items():
        deg = sum(1 for e in cx.edges if vid in (e.tail, e.head))
        assert deg == 2


def test_coned_off_empty_peripherals_is_plain_cayley():
    p = s3_presentation()
    bare = FiniteGroupPresentation(p.degree, p.generators, p.symmetric,
                                   p.inverses, (), p.relators)
    coned = coned_off_cayley_graph(bare)
    assert len(coned.complex.vertices) == 6
    assert len(coned.complex.edges) == 9
    assert not coned.cone_edges


def test_same_coset_distance_two():
    coned = coned_off_cayley_graph(s3_presentation())
    dist = all_pairs_distances(coned.complex)
    table = coned.table
    sub = [i for i in range(table.order)
           if table.elements[i] in ((0, 1, 2), (1, 0, 2))]
    from finefill.constructions import left_cosets
    for key, members in left_cosets(table, sub).items():
        for g in members:
            for h in members:
                vg, vh = coned.element_vertices[g], coned.element_vertices[h]
                assert dist[vg][vh] <= 2


def test_coned_off_complex_census_s3():
    coned = coned_s3()
    cx = coned.complex
    assert len(cx.vertices) == 9
    assert len(cx.edges) == 15
    assert len(cx.faces) == 8
    assert len(coned.relator_faces) == 5  # two b^3 traces, three (ab)^2 traces
    assert len(coned.triangle_faces) == 3
    assert homology_h1(cx) == H1Report(0, ())


def test_coned_off_z4_single_relator_face():
    p = parse_group("group v1\ndegree 4\ngen a (1 2 3 4)\ngen ainv (1 4 3 2)\n"
                    "sgen a ainv\nrelator a a a a\n")
    coned = coned_off_cayley_complex(p)
    assert len(coned.complex.vertices) == 4
    assert len(coned.complex.edges) == 4
    assert len(coned.complex.faces) == 1


def test_triangle_faces_run_through_cones():
    coned = coned_s3()
    cx = coned.complex
    cone_ids = set(coned.cone_vertices.values())
    for fid in coned.triangle_faces:
        f = cx.face_by_id[fid]
        assert len(f.walk) == 3
        visited = {cx.edge_endpoints(step)[0] for step in f.walk}
        assert visited & cone_ids


def test_element_cone_degree_is_peripheral_count():
    coned = coned_s3()
    cone_ids = set(coned.cone_vertices.values())
    for vid in coned.element_vertices:
        cone_deg = sum(1 for e in coned.complex.edges
                       if (e.tail == vid and e.head in cone_ids)
                       or (e.head == vid and e.tail in cone_ids))
        assert cone_deg == len(coned.table.presentation.subgroups)


def test_removing_cones_recovers_plain_cayley_graph():
    p = s3_presentation()
    coned = coned_off_cayley_graph(p)
    bare = coned_off_cayley_graph(
        FiniteGroupPresentation(p.degree, p.generators, p.symmetric,
                                p.inverses, (), p.relators))
    kept = [(e.id, e.tail, e.head) for e in coned.complex.edges
            if e.id in coned.cayley_edges]
    want = [(e.id, e.tail, e.head) for e in bare.complex.edges]
    assert kept == want
    assert list(coned.element_vertices) == list(bare.complex.vertices)


def test_presentation_validation():
    with pytest.raises(ValidationError):
        # subgroup generator not in S
        parse_and_build("group v1\ndegree 3\ngen a (1 2)\ngen b (1 2 3)\n"
                        "sgen a a\nsubgroup P b\n")
    with pytest.raises(ValidationError):
        # sgen names a non-inverse
        parse_and_build("group v1\ndegree 3\ngen a (1 2)\ngen b (1 2 3)\n"
                        "sgen a b\n")


def parse_and_build(text):
    return coned_off_cayley_graph(parse_group(text))


def test_grp_round_trip():
    p = s3_presentation()
    assert parse_group(write_group(p)) == p


def test_coned_off_serialization_mentions_labels():
    text = write_coned_off(coned_s3())
    assert "# cone " in text and "# triangle-face " in text
    from finefill import parse_complex
    assert parse_complex(text) == coned_s3().complex


def test_weak_area_bridge_on_omega():
    # the weak-area value is by definition the integral filling norm in the
    # omega complex; check the bridge explicitly on a couple of graphs
    for name, build in [("K4", k4_graph), ("hex-chord", hexagon_chord)]:
        g = build()
        om = omega_n(g, 4)
        for circ in enumerate_circuits(g, None, 6):
            got = weak_area(g, circ, 4).value
            want = filling_norm(om, circ.induced_cycle(), INT).value
            assert got == want, (name, circ.key)


def test_omega_fv_linearity_monitor():
    # on graphs made 1-acyclic by omega at n = |V|, the per-k ratios
    # FV(k)/k stay within the small-k behaviour over the table range
    from fractions import Fraction
    from finefill import INF
    for name, build in [("triangle", triangle_graph), ("K4", k4_graph)]:
        g = build()
        om = omega_n(g, len(g.vertices))
        girth = min(c.length for c in enumerate_circuits(g, None, len(g.vertices)))
        table = fv(om, 6, INT)
        assert all(table.value(k) is not INF for k in range(7))
        small = max(Fraction(table.value(k), k) for k in range(1, girth + 2))
        for k in range(1, 7):
            assert Fraction(table.value(k), k) <= small, (name, k)


DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")


def _coned_off_fields(coned):
    # every field, each dict with its insertion order
    cx = coned.complex
    tables = (coned.table.index, coned.cone_vertices, coned.cayley_edges,
              coned.cone_edges, coned.relator_faces, coned.triangle_faces)
    return (cx.vertices, [(e.id, e.tail, e.head) for e in cx.edges],
            [(f.id, f.walk) for f in cx.faces], coned.table.elements,
            coned.element_vertices, [list(t.items()) for t in tables])


def _assert_matches_reference(presentation):
    for builder, with_faces in ((coned_off_cayley_graph, False),
                                (coned_off_cayley_complex, True)):
        coned = builder(presentation)
        ref = reference_coned_off(presentation, with_faces)
        assert _coned_off_fields(coned) == _coned_off_fields(ref)
        assert write_coned_off(coned) == write_coned_off(ref)


@pytest.mark.parametrize("source", ["s3.grp", "z4.grp", "S4"])
def test_coned_off_matches_reference_builder(source):
    if source == "S4":
        text = S4_GRP
    else:
        with open(os.path.join(DATA, source), encoding="utf-8") as fh:
            text = fh.read()
    _assert_matches_reference(parse_group(text))


def _order(perm):
    k, power = 1, perm
    while power != tuple(range(len(perm))):
        k, power = k + 1, compose(power, perm)
    return k


def _random_presentation(rng):
    """A presentation on 2-3 random permutations of 3-5 points whose relators
    hold: a^ord(a) for every generator and (ab)^ord(ab) for random pairs of
    S. The first generator is an involution, a non-involution x gets an
    inverse X, and some generators get an alias with the same permutation
    (and an alias of the inverse). Peripheral subgroups are random subsets
    of S."""
    degree = rng.randint(3, 5)
    ident = tuple(range(degree))
    gens, pairs = [], []
    for i in range(rng.randint(2, 3)):
        name = "abc"[i]
        perm = ident
        while perm == ident:
            if i == 0 or rng.random() < 0.3:
                points = rng.sample(range(degree), 2 * rng.randint(1, degree // 2))
                swaps = dict(zip(points[::2], points[1::2]))
                swaps.update((b, a) for a, b in list(swaps.items()))
                perm = tuple(swaps.get(j, j) for j in range(degree))
            else:
                perm = tuple(rng.sample(range(degree), degree))
        inverse = tuple(sorted(range(degree), key=perm.__getitem__))
        for alias in ("", "y")[:1 + (rng.random() < 0.3)]:
            gens.append((name + alias, perm))
            if inverse == perm:
                pairs.append((name + alias, name + alias))
            else:
                gens.append((name.upper() + alias, inverse))
                pairs.append((name + alias, name.upper() + alias))
    perms = dict(gens)
    symmetric = list(dict.fromkeys(n for pair in pairs for n in pair))
    relators = [[n] * _order(p) for n, p in gens]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(symmetric), rng.choice(symmetric)
        relators.append([a, b] * _order(compose(perms[a], perms[b])))
    lines = ["group v1", f"degree {degree}"]
    lines += [f"gen {n} {cycle_notation(p)}" for n, p in gens]
    lines += [f"sgen {a} {b}" for a, b in pairs]
    for k in range(rng.randint(0, 2)):
        subset = rng.sample(symmetric, rng.randint(1, len(symmetric)))
        lines.append(f"subgroup P{k} {' '.join(subset)}")
    lines += [f"relator {' '.join(word)}" for word in relators]
    return parse_group("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", range(60))
def test_coned_off_matches_reference_builder_on_random_presentations(seed):
    _assert_matches_reference(_random_presentation(random.Random(seed)))


def test_random_presentations_cover_involutions_aliases_and_subgroups():
    presentations = [_random_presentation(random.Random(seed)) for seed in range(60)]
    assert all(any(p.inverses[s] == s for s in p.symmetric) for p in presentations)
    assert any(s != p.inverses[s] for p in presentations for s in p.symmetric)
    assert sum(1 for p in presentations
               if len(set(p.generators)) > len({perm for _, perm in p.generators})) >= 10
    assert sum(1 for p in presentations if p.subgroups) >= 20


def test_coned_off_refuses_an_inverse_map_that_is_not_an_involution():
    # sgen b B, then sgen B by: B is paired with by, but b still with B
    p = parse_group("group v1\ndegree 3\ngen a (1 2)\ngen b (1 2 3)\ngen B (1 3 2)\n"
                    "gen by (1 2 3)\nsgen a a\nsgen b B\nsgen B by\nrelator b b b\n")
    for builder in (coned_off_cayley_graph, coned_off_cayley_complex):
        with pytest.raises(ValidationError) as err:
            builder(p)
        assert err.value.violations == [("RELATOR_FAILS", "the inverse of 'B' is not 'b'")]
