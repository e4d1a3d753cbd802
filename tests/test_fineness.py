import time
from collections import Counter

import pytest

from finefill import fineness
from finefill import (BARYCENTRIC, INF, Chain, INT, boundary,
                      check_minimal_fillings_special, circuits_via_fillings,
                      enumerate_circuits, enumerate_special_chains,
                      fineness_certificate, filling_norm, find_special_ordering, fv,
                      homology_h1, subdivide)
from finefill.chains import circuit_from_chain
from finefill.fineness import GRAPH_SEARCH, SPECIAL_CHAIN, FinenessRecord
from finefill.errors import (BudgetExceededError, FillingInfiniteError,
                             FVInfiniteError, UnknownEdgeError)

from instances import (CORPUS, CORPUS_GRAPHS, coned_s3, coned_s4, double_traversal, grid_disk,
                       k4_graph, small_tree, tetrahedron, triangle_face, validate)
from oracles import (circuits_from_special_chains, fillings_of_norm, frozenset_face_search,
                     per_edge_special_chain_search)


def test_special_chains_single_face():
    cx = triangle_face()
    found = enumerate_special_chains(cx, "e1", 1)
    assert sorted(c.serialize() for c in found) == [(("f", -1),), (("f", 1),)]


def test_special_chains_tetra_depth_one():
    found = enumerate_special_chains(tetrahedron(), "e12", 1)
    assert len(found) == 4
    assert all(c.l1() == 1 for c in found)
    assert {f for c in found for f in c.coeffs} == {"f123", "f124"}


def test_special_chains_skip_disjoint_faces():
    cx = validate("abcxyz",
                  [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                   ("d1", "x", "y"), ("d2", "y", "z"), ("d3", "z", "x")],
                  [("f", [(1, "e1"), (1, "e2"), (1, "e3")]),
                   ("g", [(1, "d1"), (1, "d2"), (1, "d3")])])
    for n in (1, 2, 3):
        for chain in enumerate_special_chains(cx, "e1", n):
            assert "g" not in chain.coeffs


def test_special_chains_quantitative_bound():
    # quantitative finiteness: step one picks among the signed faces meeting
    # the base edge, and step k+1 among signed faces meeting the running
    # boundary, whose support has at most k*C edges with at most F_adj faces
    # each; the resulting product bounds the deduplicated chain count
    for name, build in CORPUS:
        cx = build()
        if not cx.faces or not cx.edges:
            continue
        fadj = max(len(cx.faces_meeting_edge(e.id)) for e in cx.edges)
        cbound = max(len(cx.face_boundary(f.id).coeffs) for f in cx.faces)
        e = cx.edges[0].id
        fmax = len(cx.faces_meeting_edge(e))
        for n in (1, 2, 3):
            count = len(enumerate_special_chains(cx, e, n))
            total = 0
            for j in range(1, n + 1):
                orderings = 2 * fmax
                for k in range(1, j):
                    orderings *= 2 * k * cbound * fadj
                total += orderings
            assert count <= total, (name, n, count, total)


def test_special_chain_orderings_verify_with_prefixes():
    cx = tetrahedron()
    for chain in enumerate_special_chains(cx, "e12", 3):
        state = find_special_ordering(cx, chain, "e12")
        assert state is not None
        assert state.verify(cx)
        # every prefix is itself special (checked via a fresh state)
        for k in range(1, state.norm() + 1):
            prefix = Chain(2, INT, {f: s for f, s in state.steps[:k]})
            sub = find_special_ordering(cx, prefix, "e12")
            assert sub is not None and sub.verify(cx)


def test_unknown_edge():
    with pytest.raises(UnknownEdgeError):
        enumerate_special_chains(tetrahedron(), "zz", 1)


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        enumerate_special_chains(tetrahedron(), "e12", 3, budget=1)


def test_circuits_via_fillings_tetra():
    cx = tetrahedron()
    got = circuits_via_fillings(cx, "e12", 3)
    want = enumerate_circuits(cx, "e12", 3)
    assert [c.key for c in got] == [c.key for c in want]
    assert len(got) == 2


def test_circuits_via_fillings_single_face():
    got = circuits_via_fillings(triangle_face(), "e1", 3)
    assert len(got) == 1 and got[0].length == 3


def test_circuits_via_fillings_infinite_fv():
    with pytest.raises(FVInfiniteError):
        circuits_via_fillings(double_traversal(), "e", 1)


def test_method_agreement_on_acyclic_corpus():
    for name, build in CORPUS:
        cx = build()
        if not homology_h1(cx).trivial or not cx.faces:
            continue
        girth = min((c.length for c in enumerate_circuits(cx, None, len(cx.edges))),
                    default=1)
        scale = girth + 3
        for e in cx.edges:
            special = {c.key for c in circuits_via_fillings(cx, e.id, scale)}
            direct = {c.key for c in enumerate_circuits(cx, e.id, scale)}
            assert special == direct, (name, e.id)


def test_fineness_certificate_graph_method():
    cert = fineness_certificate(tetrahedron(), 3, GRAPH_SEARCH)
    assert cert.exact and all(r.count == 2 and r.status == "OK" for r in cert.records)
    cert = fineness_certificate(small_tree(), 7, GRAPH_SEARCH)
    assert all(r.count == 0 for r in cert.records)
    cert = fineness_certificate(k4_graph(), 3, GRAPH_SEARCH)
    assert all(r.count == 2 for r in cert.records)


def test_graph_search_lists_match_per_edge_calls():
    # the per-edge lists come from one pass over the circuit list
    cases = CORPUS + CORPUS_GRAPHS + [("S3-coned", lambda: coned_s3().complex),
                                      ("disk2x3", lambda: grid_disk(2, 3))]
    found = 0
    for name, build in cases:
        cx = build()
        for scale in (1, 3, 6):
            cert = fineness_certificate(cx, scale, GRAPH_SEARCH)
            assert [r.edge for r in cert.records] == [e.id for e in cx.edges], name
            for record in cert.records:
                want = tuple(enumerate_circuits(cx, record.edge, scale))
                assert record.circuits == want, (name, scale, record.edge)
                assert (record.count, record.status) == (len(want), "OK")
                found += record.count
    assert found > 500, found


def test_fineness_certificate_methods_agree():
    a = fineness_certificate(tetrahedron(), 3, GRAPH_SEARCH)
    b = fineness_certificate(tetrahedron(), 3, SPECIAL_CHAIN)
    for ra, rb in zip(a.records, b.records):
        assert ra.edge == rb.edge
        assert [c.key for c in ra.circuits] == [c.key for c in rb.circuits]


def test_fineness_certificate_budget_incomplete():
    cert = fineness_certificate(tetrahedron(), 3, SPECIAL_CHAIN, budget=1)
    assert not cert.exact
    assert all(r.status == "INCOMPLETE" for r in cert.records)


def test_fineness_special_method_rejects_infinite_fv():
    with pytest.raises(FVInfiniteError):
        fineness_certificate(double_traversal(), 1, SPECIAL_CHAIN)


def test_minimal_fillings_special_single_face():
    cx = triangle_face()
    circ = enumerate_circuits(cx, None, 3)[0]
    rep = check_minimal_fillings_special(cx, circ, "e1")
    assert rep.ok and len(rep.fillings) == 1
    chain, state = rep.fillings[0]
    assert set(chain.coeffs) == {"f"} and state is not None


def test_minimal_fillings_special_tetrahedron():
    cx = tetrahedron()
    for circ in enumerate_circuits(cx, None, 4):
        for _, eid in circ.walk:
            rep = check_minimal_fillings_special(cx, circ, eid)
            assert rep.ok, (circ.key, eid)
            for chain, state in rep.fillings:
                assert state is not None and state.verify(cx)
            # the enumeration is the full set of minimal fillings
            gamma = circ.induced_cycle()
            from finefill import filling_norm
            value = int(filling_norm(cx, gamma, INT).value)
            want = {c.serialize() for c in fillings_of_norm(cx, gamma, value)}
            assert {c.serialize() for c, _ in rep.fillings} == want


def test_find_special_ordering_refusals():
    # two triangles f1, f2 on the base edge e1, and a triangle g apart from both
    cx = validate("abcdxyz",
                  [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                   ("e4", "b", "d"), ("e5", "d", "a"),
                   ("d1", "x", "y"), ("d2", "y", "z"), ("d3", "z", "x")],
                  [("f1", [(1, "e1"), (1, "e2"), (1, "e3")]),
                   ("f2", [(1, "e1"), (1, "e4"), (1, "e5")]),
                   ("g", [(1, "d1"), (1, "d2"), (1, "d3")])])
    assert find_special_ordering(cx, Chain(2, INT, {"f1": 1}), "e1") is not None
    # disjoint faces: no running boundary ever meets g
    assert find_special_ordering(cx, Chain(2, INT, {"f1": 1, "g": 1}), "e1") is None
    # f2 then f1 leaves {g} once more, which f1 then f2 already refuted
    assert find_special_ordering(cx, Chain(2, INT, {"f1": 1, "f2": -1, "g": 1}),
                                 "e1") is None
    assert find_special_ordering(cx, Chain(2, INT, {"f1": 2}), "e1") is None
    # no face of the chain meets the base edge
    assert find_special_ordering(cx, Chain(2, INT, {"f1": 1}), "e4") is None
    with pytest.raises(UnknownEdgeError):
        find_special_ordering(cx, Chain(2, INT, {"f1": 1}), "zz")


def test_minimal_fillings_counterexample(monkeypatch):
    # a 4-circuit of the tetrahedron bounds either pair of faces it separates
    cx = tetrahedron()
    circ = next(c for c in enumerate_circuits(cx, None, 4) if c.length == 4)
    monkeypatch.setattr(fineness, "find_special_ordering", lambda *args: None)
    rep = check_minimal_fillings_special(cx, circ, circ.walk[0][1])
    assert not rep.ok and len(rep.fillings) == 2
    assert rep.counterexample == rep.fillings[0][0]
    assert all(state is None for _, state in rep.fillings) and rep.orderings() == ()


def test_minimal_fillings_match_oracle():
    # every (circuit, edge) pair on which the brute-force oracle finishes; a
    # filling has a special ordering exactly when the per-edge special-chain
    # search of the oracles reaches it at the filling norm
    cases = [(name, build()) for name, build in CORPUS if 0 < len(build().faces) <= 6]
    cases += [("disk2x2", grid_disk(2, 2)), ("disk2x3", grid_disk(2, 3))]
    pairs = 0
    for name, cx in cases:
        for circ in enumerate_circuits(cx, None, len(cx.edges)):
            gamma = circ.induced_cycle()
            value = filling_norm(cx, gamma, INT).value
            if value is INF:
                with pytest.raises(FillingInfiniteError):
                    check_minimal_fillings_special(cx, circ, circ.walk[0][1])
                continue
            value = int(value)
            want = sorted(fillings_of_norm(cx, gamma, value), key=lambda c: c.serialize())
            for eid in sorted(circ.edge_ids()):
                rep = check_minimal_fillings_special(cx, circ, eid)
                assert [c for c, _ in rep.fillings] == want, (name, circ.key, eid)
                special, complete = per_edge_special_chain_search(
                    cx, eid, value, fineness.DEFAULT_BUDGET)
                assert complete
                special = {c.serialize() for c in special}
                assert rep.ok == all(c.serialize() in special for c in want)
                for chain, state in rep.fillings:
                    assert (state is not None) == (chain.serialize() in special)
                    assert state is None or (state.verify(cx) and state.chain() == chain)
                pairs += 1
    assert pairs > 100


def test_minimal_fillings_of_large_fills():
    # the boundary circuits of the 3x3 and 4x4 disks (fills 9 and 16) and the
    # barycentric tetrahedron's first circuit of the largest fill at length
    # <= 6 (12): far too many 2-chains have those norms to list them all
    cases = []
    for n, fill in ((3, 9), (4, 16)):
        cx = grid_disk(n, n)
        rim = boundary(cx, Chain(2, INT, {f.id: 1 for f in cx.faces}))
        cases.append((cx, circuit_from_chain(cx, rim), fill))
    bary = subdivide(tetrahedron(), BARYCENTRIC).complex
    circuits = enumerate_circuits(bary, None, 6)
    fills = [filling_norm(bary, c.induced_cycle(), INT).value for c in circuits]
    cases.append((bary, circuits[fills.index(max(fills))], 12))
    for cx, circ, fill in cases:
        gamma = circ.induced_cycle()
        assert filling_norm(cx, gamma, INT).value == fill
        for eid in sorted(circ.edge_ids()):
            started = time.perf_counter()
            rep = check_minimal_fillings_special(cx, circ, eid)
            assert time.perf_counter() - started < 2, (circ.key, eid)
            assert rep.ok and rep.fillings
            for chain, _ in rep.fillings:
                assert boundary(cx, chain) == gamma and chain.l1() == fill


def test_minimal_fillings_special_errors():
    cx = double_traversal()
    circ = enumerate_circuits(cx, None, 1)[0]
    with pytest.raises(FillingInfiniteError):
        check_minimal_fillings_special(cx, circ, "e")
    with pytest.raises(UnknownEdgeError):
        check_minimal_fillings_special(tetrahedron(),
                                       enumerate_circuits(tetrahedron(), None, 3)[0],
                                       "e34")


def test_round_trip_fineness_and_fv():
    # finite FV at every k <= k_max  ->  special-chain certificate succeeds;
    # nontrivial H1  ->  FV_Z hits INFINITE at some k <= edge count
    from finefill import INF
    for name, build in CORPUS:
        cx = build()
        h = homology_h1(cx)
        if h.trivial and cx.faces:
            table = fv(cx, 4, INT)
            if all(table.value(k) is not INF for k in range(5)):
                cert = fineness_certificate(cx, 4, SPECIAL_CHAIN)
                assert cert.exact, name
        if not h.trivial:
            table = fv(cx, len(cx.edges), INT)
            assert any(table.value(k) is INF for k in range(len(cx.edges) + 1)), name


def test_special_chain_method_on_coned_s3():
    cx = coned_s3().complex
    assert homology_h1(cx).trivial
    for e in list(cx.edges)[:5]:
        special = {c.key for c in circuits_via_fillings(cx, e.id, 4)}
        direct = {c.key for c in enumerate_circuits(cx, e.id, 4)}
        assert special == direct, e.id


# -- the shared per-face search against the per-edge oracle ---------------------

def _filled_corpus():
    return [(name, build()) for name, build in CORPUS if build().faces]


def _twice_a_circuit():
    # f1 + f2 bounds twice the triangle, which needs three faces to fill once
    return validate("abc", [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                            ("l", "a", "a")],
                    [("f1", [(1, "e1"), (1, "e2"), (1, "e3"), (1, "l")]),
                     ("f2", [(1, "e1"), (1, "e2"), (1, "e3"), (-1, "l")]),
                     ("f3", [(1, "e1"), (1, "e2"), (1, "e3"), (1, "l"), (1, "l")])])


def _oracle_records(cx, scale, budget=fineness.DEFAULT_BUDGET, rejected=None):
    bound = int(fv(cx, scale, INT).value(scale))
    records = []
    for e in cx.edges:
        chains, complete = per_edge_special_chain_search(cx, e.id, bound, budget)
        circuits = tuple(circuits_from_special_chains(cx, chains, e.id, scale, rejected))
        records.append(FinenessRecord(e.id, len(circuits), circuits,
                                      "OK" if complete else "INCOMPLETE"))
    return tuple(records)


def test_special_chains_match_per_edge_oracle():
    cases = [(name, cx, range(1, 9)) for name, cx in _filled_corpus()]
    cases += [("disk2x2", grid_disk(2, 2), range(1, 9)),
              ("disk2x3", grid_disk(2, 3), (3, 5, 8)),
              ("disk3x3", grid_disk(3, 3), (2, 4)),
              ("coned-S3", coned_s3().complex, (2, 4))]
    for name, cx, norms in cases:
        for norm in norms:
            for e in cx.edges:
                want, complete = per_edge_special_chain_search(
                    cx, e.id, norm, fineness.DEFAULT_BUDGET)
                assert complete
                got = enumerate_special_chains(cx, e.id, norm)
                assert [c.serialize() for c in got] == [c.serialize() for c in want], \
                    (name, norm, e.id)


def test_certificates_match_per_edge_oracle():
    # records compare whole: edge, count, status and every Circuit, whose walk
    # runs in the direction of the boundary of the first chain inducing it.
    # The cases meet every boundary that the search's lookup by support must
    # reject: +-1 ones that are no circuit (coned-S3 from scale 6), multiples
    # of a circuit and circuits longer than the scale
    rejected = Counter()
    cases = _filled_corpus() + [("disk2x2", grid_disk(2, 2)), ("disk2x3", grid_disk(2, 3)),
                                ("disk3x3", grid_disk(3, 3)),
                                ("coned-S3", coned_s3().complex),
                                ("twice-a-circuit", _twice_a_circuit())]
    for name, cx in cases:
        for scale in range(1, 9):
            if any(fv(cx, scale, INT).value(k) is INF for k in range(scale + 1)):
                continue
            cert = fineness_certificate(cx, scale, SPECIAL_CHAIN)
            assert cert.exact
            assert cert.records == _oracle_records(cx, scale, rejected=rejected), (name, scale)
            for e in cx.edges:
                assert circuits_via_fillings(cx, e.id, scale) == list(
                    cert.record(e.id).circuits)
    assert rejected["not a circuit"] and rejected["multiple"] and rejected["too long"], rejected


def test_budget_boundary_is_the_state_count():
    # |S(e)| states fit a budget of |S(e)| and not one of |S(e)| - 1
    for cx, norm in ((tetrahedron(), 3), (grid_disk(2, 2), 4), (coned_s3().complex, 3)):
        for e in cx.edges:
            size = len(per_edge_special_chain_search(cx, e.id, norm,
                                                     fineness.DEFAULT_BUDGET)[0])
            got = enumerate_special_chains(cx, e.id, norm, budget=size)
            assert len(got) == size
            with pytest.raises(BudgetExceededError):
                enumerate_special_chains(cx, e.id, norm, budget=size - 1)
            with pytest.raises(BudgetExceededError):
                enumerate_special_chains(cx, e.id, norm, budget=-1)
    # an edge on no face has no states, so no budget is too small
    pendant = validate("abcd", [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                                ("p", "c", "d")],
                       [("f", [(1, "e1"), (1, "e2"), (1, "e3")])])
    assert enumerate_special_chains(pendant, "p", 3, budget=-1) == []


def test_status_agrees_with_per_edge_oracle_at_every_budget():
    union_decided = False
    pendant = validate("abcd", [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                                ("p", "c", "d")],
                       [("f", [(1, "e1"), (1, "e2"), (1, "e3")])])
    for cx, scale in ((tetrahedron(), 4), (grid_disk(2, 2), 8), (pendant, 3)):
        bound = int(fv(cx, scale, INT).value(scale))
        sizes = {e.id: len(per_edge_special_chain_search(
            cx, e.id, bound, fineness.DEFAULT_BUDGET)[0]) for e in cx.edges}
        complete = {r.edge: r for r in _oracle_records(cx, scale)}
        tables = fineness._Tables(cx)
        for e in cx.edges:
            searched = [fineness._search_face(tables, g, bound, fineness.DEFAULT_BUDGET)
                        for g in tables.faces_meeting(e.id)]
            # states met from two faces: the sum of the face searches overcounts
            union_decided |= 2 * sum(len(s) for s, _, _ in searched) > sizes[e.id]
        for budget in range(-1, max(sizes.values()) + 2):
            cert = fineness_certificate(cx, scale, SPECIAL_CHAIN, budget=budget)
            want = _oracle_records(cx, scale, budget)
            assert cert.exact == all(r.status == "OK" for r in want)
            for rec, old in zip(cert.records, want):
                assert rec.status == old.status, (budget, rec.edge)
                assert rec.status == ("OK" if sizes[rec.edge] <= max(budget, 0)
                                      else "INCOMPLETE")
                assert rec.count == len(rec.circuits)
                # a partial list holds only circuits of the complete one
                full = {c.key for c in complete[rec.edge].circuits}
                assert {c.key for c in rec.circuits} <= full
                if rec.status == "OK":
                    assert rec == complete[rec.edge]
    assert union_decided


def test_each_face_searched_once_per_certificate(monkeypatch):
    calls = []
    search = fineness._search_face

    def counted(tables, g, max_norm, cap):
        calls.append((tables.face_ids[g], max_norm, cap))
        return search(tables, g, max_norm, cap)

    monkeypatch.setattr(fineness, "_search_face", counted)
    cx = grid_disk(2, 3)
    bound = int(fv(cx, 8, INT).value(8))
    for budget in (fineness.DEFAULT_BUDGET, 100):
        calls.clear()
        fineness_certificate(cx, 8, SPECIAL_CHAIN, budget=budget)
        assert sorted(f for f, _, _ in calls) == sorted(f.id for f in cx.faces)
        assert {(n, cap) for _, n, cap in calls} == {(bound, budget // 2)}


def _ordinals(x):
    return frozenset(o for o in range(x.bit_length()) if x >> o & 1)


def test_bitmask_search_matches_frozenset_oracle():
    # every face at every cap from 0 to |R(f, +1)| + 1: the same cut and the
    # same states, read as sets of signed-face ints.  A search that is not
    # cut finds the same circuits, keyed by support here and by circuit key
    # there; a cut one finds part of them, as the oracle tries its
    # candidates in set order and so may expand other states first
    cases = [(name, cx, (8,)) for name, cx in _filled_corpus()]
    cases += [("disk2x2", grid_disk(2, 2), (6, 8)), ("disk2x3", grid_disk(2, 3), (6, 8)),
              ("disk3x3", grid_disk(3, 3), (6,)), ("coned-S3", coned_s3().complex, (5, 6)),
              ("coned-S4", coned_s4().complex, (6,)), ("twice-a-circuit", _twice_a_circuit(), (8,))]
    searched = cuts = 0
    for name, cx, scales in cases:
        for scale in scales:
            value = fv(cx, scale, INT).value(scale)
            if value is INF:
                continue
            bound = int(value)
            tables = fineness._Tables(cx, scale)
            for g in range(len(tables.face_ids)):
                full_states, full_circuits, cut = frozenset_face_search(tables, g, bound, -1)
                assert not cut
                full = {key: (order, circ.walk) for key, (order, circ) in full_circuits.items()}
                for cap in range(len(full_states) + 2):
                    states, circuits, cut = fineness._search_face(tables, g, bound, cap)
                    old_states, old_circuits, old_cut = frozenset_face_search(
                        tables, g, bound, cap)
                    assert cut == old_cut == (cap < len(full_states)), (name, scale, g, cap)
                    assert all(tables.circuits[support].key == circ.key
                               for support, (_, circ) in circuits.items())
                    got = {circ.key: (order, circ.walk) for order, circ in circuits.values()}
                    assert len(got) == len(circuits)
                    ordinal_states = {_ordinals(x) for x in states}
                    assert len(ordinal_states) == len(states)
                    assert ordinal_states == old_states, (name, scale, g, cap)
                    if cut:
                        cuts += 1
                        assert got.keys() <= full.keys(), (name, scale, g, cap)
                    else:
                        assert old_states == full_states and got == full, (name, scale, g, cap)
                    searched += 1
    assert searched > 1000 and cuts > 1000, (searched, cuts)
