import random

import pytest
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from finefill import (Chain, INF, INT, RAT, boundary, decompose_into_circuits,
                      enumerate_circuits, enumerate_cycles, filling_norm, fv,
                      homology_h1, linearity_report, superadditive_closure,
                      validate, weak_area)
from finefill import BARYCENTRIC, filling, linalg, simplex, subdivide
from finefill.chains import circuit_masks, require_circuit
from finefill.constructions import omega_n
from finefill.fineness import (GRAPH_SEARCH, SPECIAL_CHAIN, check_minimal_fillings_special,
                               enumerate_special_chains, fineness_certificate)
from finefill.hyperbolicity import all_pairs_distances, hyperbolicity_delta
from finefill.errors import HasFacesError, InternalError, NotACycleError

from instances import (CORPUS, CORPUS_GRAPHS, TORSION, bigon, coned_s3, coned_s4,
                       double_traversal, double_traversal_and_disk,
                       figure8_one_face, grid_disk, hexagon, hexagon_chord,
                       k4_graph, square_face, tetrahedron, triangle_face,
                       triangle_face_open_square, triangle_graph)
from oracles import (RecordingCache, all_cycles_fv, chain_from_vector, dense, dense_d2,
                     dense_line_fill, dense_minimize_on_line, dense_rational_solve,
                     dict_conformal_search,
                     exhaustive_int_filling, fraction_solve_lp,
                     full_box_branch_and_bound, gamma_vector, incident, lp_route_filling_value,
                     minimize_on_line, multiset_cycles, nonzeros, partition_maximum,
                     reference_fill_circuits, rref_rational_solve, smith_integer_solve)


def test_single_face_fills_its_boundary():
    cx = triangle_face()
    gamma = Chain(1, INT, {"e1": 1, "e2": 1, "e3": 1})
    res = filling_norm(cx, gamma, INT)
    assert res.value == 1 and res.witness.coeffs == {"f": 1}
    assert res.certificate == "FEASIBLE_OPTIMAL"
    cx4 = square_face()
    g4 = Chain(1, INT, {"s1": 1, "s2": 1, "s3": 1, "s4": 1})
    assert filling_norm(cx4, g4, INT).value == 1


def test_double_traversal_separates_rings():
    cx = double_traversal()
    gamma = Chain(1, INT, {"e": 1})
    rq = filling_norm(cx, gamma, RAT)
    assert rq.value == Fraction(1, 2)
    assert rq.witness.coeffs == {"f": Fraction(1, 2)}
    rz = filling_norm(cx, gamma, INT)
    assert rz.value is INF and rz.witness is None
    assert rz.certificate == "INTEGRALLY_INFEASIBLE"


def test_an_unknown_ring_is_refused():
    # no ring but INT and RAT reaches a solve: a witness built for another
    # ring would drop its denominator (here 1/2 f would come out as f)
    cx = double_traversal()
    gamma = Chain(1, INT, {"e": 1})
    for ring in ("z", "int", None):
        for call in (lambda: filling_norm(cx, gamma, ring), lambda: fv(cx, 2, ring),
                     lambda: filling.fv_value(cx, 2, ring), lambda: Chain(1, ring, {"e": 1})):
            with pytest.raises(ValueError, match=f"^unknown ring {ring!r}$"):
                call()
    assert set(filling._context(cx).fills) <= {INT, RAT}
    assert all(key[0] in (INT, RAT) for key in filling._context(cx).value_cache)
    assert filling_norm(cx, gamma, RAT).witness.coeffs == {"f": Fraction(1, 2)}


def test_rationally_infeasible_label_in_both_rings():
    # two loops, one face on the first: the second loop bounds nothing, not
    # even over Q
    cx = validate("v", [("e0", "v", "v"), ("e1", "v", "v")], [("f", [(1, "e0")])])
    gamma = Chain(1, INT, {"e1": 1})
    rq = filling_norm(cx, gamma, RAT)
    assert rq.value is INF and rq.certificate == "RATIONALLY_INFEASIBLE"
    fresh = validate("v", [("e0", "v", "v"), ("e1", "v", "v")], [("f", [(1, "e0")])])
    rz = filling_norm(fresh, gamma, INT)
    assert rz.value is INF and rz.certificate == "RATIONALLY_INFEASIBLE"
    assert filling_norm(fresh, Chain(1, INT, {"e0": 3}), INT).value == 3


class _Reads(list):
    """A list that counts the items read through indexing or iteration."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


def test_integral_label_reads_one_product_with_u(monkeypatch):
    # an integrally infeasible and a rationally infeasible Z fill each take
    # their label from the one u.gamma of one RationalSolver.solve, which
    # reads one column of u for each nonzero entry of gamma and no row of u
    two_loops = validate("v", [("e0", "v", "v"), ("e1", "v", "v")], [("f", [(1, "e0")])])
    solves = []
    solve = linalg.RationalSolver.solve

    def counting(self, b):
        solves.append(b)
        return solve(self, b)

    monkeypatch.setattr(linalg.RationalSolver, "solve", counting)
    for cx, gamma, label in ((double_traversal(), {"e": 1}, "INTEGRALLY_INFEASIBLE"),
                             (two_loops, {"e1": 1}, "RATIONALLY_INFEASIBLE")):
        rat = filling._context(cx).rat
        u, d, v = cx.smith_form_2()
        u_rows = cx._cache["snf2"] = (_Reads(u), d, v)
        columns = rat.u_columns = _Reads(rat.u_columns)
        solves.clear()
        res = filling_norm(cx, Chain(1, INT, gamma), INT)
        assert res.value is INF and res.certificate == label
        assert len(solves) == 1, label
        assert (columns.reads, u_rows[0].reads) == (len(gamma), 0), label


def test_torsion_fills_match_oracles(monkeypatch):
    # the last invariant factor D > 1 on each complex, at kernel ranks 0, 1
    # and 2 (branch and bound): a Z fill is integral exactly when D divides
    # the rational solution X.  Each complex: (build, largest cycle norm,
    # exhaustive search cap, (D, kernel rank))
    solves = []
    solve = linalg.RationalSolver.solve

    def counting(self, b):
        solves.append(b)
        return solve(self, b)

    def no_integer_solve(*args, **kwargs):
        raise AssertionError("a fill called solve_integer")

    monkeypatch.setattr(linalg.RationalSolver, "solve", counting)
    monkeypatch.setattr(linalg, "solve_integer", no_integer_solve)
    cases = [(build, *params) for (_, build), params
             in zip(TORSION, [(6, 4, (2, 0)), (6, 3, (3, 1)), (6, 3, (3, 2)), (4, 1, (3, 2))])]
    for build, k_max, cap, shape in cases:
        cx = build()
        ctx = filling._context(cx)
        d2 = dense_d2(cx)
        assert (ctx.rat.denominator, len(cx.faces) - ctx.rat.rank) == shape
        labels = Counter()
        for cycle in enumerate_cycles(cx, k_max):
            if cycle.is_zero() or cycle.serialize() > cycle.neg().serialize():
                continue  # one cycle of each pair +-gamma: both fill alike
            vec = gamma_vector(ctx, cycle)
            rational = rref_rational_solve(d2, vec) is not None
            integral = smith_integer_solve(d2, vec, snf=cx.smith_form_2()) is not None
            solves.clear()
            rq, rz = filling_norm(cx, cycle, RAT), filling_norm(cx, cycle, INT)
            # one particular solve per fill, either ring, of gamma's nonzeros
            assert [dict(b) for b in solves] == [nonzeros(vec)] * 2
            assert rq.certificate == ("FEASIBLE_OPTIMAL" if rational
                                      else "RATIONALLY_INFEASIBLE"), cycle.coeffs
            assert rz.certificate == ("FEASIBLE_OPTIMAL" if integral
                                      else "INTEGRALLY_INFEASIBLE" if rational
                                      else "RATIONALLY_INFEASIBLE"), cycle.coeffs
            labels[rz.certificate] += 1
            oracle = exhaustive_int_filling(cx, cycle, cap)
            if oracle is not None:
                assert rz.value == oracle, cycle.coeffs
            else:
                assert rz.value is INF or rz.value > cap, cycle.coeffs
            assert rq.value <= rz.value
        assert labels["FEASIBLE_OPTIMAL"] >= 5 and labels["INTEGRALLY_INFEASIBLE"] >= 5, labels


def test_no_faces_certificate():
    res = filling_norm(triangle_graph(), Chain(1, INT, {"e1": 1, "e2": 1, "e3": 1}), INT)
    assert res.value is INF and res.certificate == "NO_FACES"


def test_zero_cycle():
    res = filling_norm(tetrahedron(), Chain(1, INT, {}), INT)
    assert res.value == 0 and res.witness.is_zero()


def test_rejects_non_cycles():
    with pytest.raises(NotACycleError):
        filling_norm(tetrahedron(), Chain(1, INT, {"e12": 1}), INT)
    with pytest.raises(NotACycleError):
        filling_norm(double_traversal(), Chain(1, RAT, {"e": Fraction(1, 2)}), RAT)
    with pytest.raises(NotACycleError):
        filling_norm(triangle_face(), Chain(2, INT, {"f": 1}), INT)


def test_rat_gamma_with_integral_coefficients_is_filled_as_int():
    cx = triangle_face()
    rat = Chain(1, RAT, {"e1": Fraction(1), "e2": Fraction(1), "e3": Fraction(1)})
    for ring in (INT, RAT):
        res = filling_norm(cx, rat, ring)
        assert res.value == 1 and res.witness == Chain(2, ring, {"f": 1})
        assert filling_norm(cx, Chain(1, INT, {"e1": 1, "e2": 1, "e3": 1}), ring) is res


def test_value_cache_hit_runs_no_cycle_check(monkeypatch):
    # a cached gamma was checked when it was filled; a non-cycle is never
    # cached, so it is rejected every time
    checks = []
    is_cycle = filling.is_cycle

    def counting(complex_, chain):
        checks.append(chain)
        return is_cycle(complex_, chain)

    monkeypatch.setattr(filling, "is_cycle", counting)
    cx = double_traversal()
    gamma = Chain(1, INT, {"e": 1})
    rz = filling_norm(cx, gamma, INT)
    assert rz.value is INF and len(checks) == 1
    assert filling_norm(cx, gamma, INT) is rz and len(checks) == 1
    # the Q value of a gamma filled over Z is its own entry
    rq = filling_norm(cx, gamma, RAT)
    assert rq.value == Fraction(1, 2) and rq.ring == RAT and len(checks) == 2
    assert filling_norm(cx, gamma, RAT) is rq and len(checks) == 2
    for _ in range(2):
        with pytest.raises(NotACycleError):
            filling_norm(tetrahedron(), Chain(1, INT, {"e12": 1}), INT)
    assert len(checks) == 4


def test_tetrahedron_fillings_match_exhaustive_oracle():
    cx = tetrahedron()
    for cycle in enumerate_cycles(cx, 6):
        if cycle.is_zero():
            continue
        got = filling_norm(cx, cycle, INT).value
        want = exhaustive_int_filling(cx, cycle, 4)
        assert got == want, cycle.coeffs


def test_strategies_agree_on_corpus():
    for name, build in CORPUS:
        cx = build()
        if not cx.faces:
            continue
        for cycle in enumerate_cycles(cx, 4):
            for ring in (INT, RAT):
                auto = filling_norm(cx, cycle, ring)
                lp = lp_route_filling_value(cx, cycle, ring)
                assert auto.value == lp, (name, ring, cycle.coeffs)


def test_one_smith_form_of_d2_per_complex(monkeypatch):
    # homology, an integral fill and a rational fill on the closed form all
    # read the Smith form cached with the complex, and so do rational fills
    # on the LP route of a complex that takes no other query
    cx = tetrahedron()
    omega = omega_n(k4_graph(), 4)
    factored = []
    smith_normal_form = linalg.smith_normal_form

    def counting(columns, rows):
        factored.append(columns)
        return smith_normal_form(columns, rows)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    triangle = Chain(1, INT, {"e12": 1, "e23": 1, "e13": -1})
    assert homology_h1(cx).trivial
    assert filling_norm(cx, triangle, INT).value == 1
    assert len(filling._context(cx).kernel) <= 1
    assert filling_norm(cx, triangle, RAT).value == 1
    square = Chain(1, INT, {"e12": 1, "e24": 1, "e34": -1, "e13": -1})
    assert filling_norm(omega, triangle, RAT).value == 1
    assert filling_norm(omega, square, RAT).value == 1
    assert factored.count(cx.face_columns()) == 1
    assert factored.count(omega.face_columns()) == 1
    assert len(factored) == 2
    assert len(filling._context(omega).kernel) >= 2


# the cache keys of the tables a complex may hold: its one form of d2 (the
# face columns), the Smith form and homology, the filling context, the
# distances, and the tables of one scale or ring
_TABLE_KEYS = {"skeleton", "d2_columns", "snf2", "h1", "filling_ctx", "apsp",
               "distance_rows", "adjacency"}


def _is_table_key(key):
    if isinstance(key, str):
        return key in _TABLE_KEYS
    if key[0] in ("fv", "fv_value"):
        return len(key) == 3 and key[1] in (INT, RAT) and type(key[2]) is int
    return key[0] in ("circuits", "omega") and len(key) == 2 and type(key[1]) is int


def test_every_cache_entry_is_a_table_of_the_whole_complex():
    # every query kind reads d2 through the face columns and caches nothing
    # per cell, so a second form of d2, or an entry per face or edge, stores
    # a key outside these families; the tetrahedron fills on the closed
    # form, omega_4(K4) on the LP route (rationally) and branch and bound
    graph = k4_graph()
    graph._cache = RecordingCache()
    omega = omega_n(graph, 4)
    omega._cache = RecordingCache()
    tetra = tetrahedron()
    tetra._cache = RecordingCache()
    triangle = Chain(1, INT, {"e12": 1, "e23": 1, "e13": -1})
    for cx in (tetra, omega):
        homology_h1(cx)
        for ring in (INT, RAT):
            assert filling_norm(cx, triangle, ring).value == 1
            fv(cx, 4, ring)
        linearity_report(cx, 3)
        for method in (GRAPH_SEARCH, SPECIAL_CHAIN):
            fineness_certificate(cx, 3, method)
        enumerate_special_chains(cx, "e12", 2)
        (circuit,) = decompose_into_circuits(cx, triangle)
        assert check_minimal_fillings_special(cx, circuit, "e12").ok
        hyperbolicity_delta(cx)
    assert len(filling._context(tetra).kernel) <= 1
    assert len(filling._context(omega).kernel) >= 2
    assert weak_area(graph, triangle, 4).value == 1
    hyperbolicity_delta(graph)
    all_pairs_distances(graph)
    for cx in (graph, omega, tetra):
        stored = cx._cache.stored
        assert stored and set(stored) == set(cx._cache), cx
        assert [key for key in stored if not _is_table_key(key)] == [], cx
    assert "d2_columns" in omega._cache and ("omega", 4) in graph._cache


def test_lp_equality_rows_are_d2_and_its_negation(monkeypatch):
    # _lp_optimum reads [d2 | -d2] off the face columns, at the root LP and
    # at every node of branch and bound
    solve_lp, seen = simplex.solve_lp, []

    def recording(c, a_eq, b_eq, a_ub, b_ub):
        seen.append([list(row) for row in a_eq])
        return solve_lp(c, a_eq, b_eq, a_ub, b_ub)

    monkeypatch.setattr(simplex, "solve_lp", recording)
    cases = CORPUS + TORSION + [("omega-k4-4", lambda: omega_n(k4_graph(), 4))]
    checked = 0
    for name, build in cases:
        cx = build()
        if not cx.faces:
            continue
        want = [row + [-v for v in row] for row in dense_d2(cx)]
        ctx = filling._context(cx)
        for cycle in enumerate_cycles(cx, 3):
            seen.clear()
            filling._lp_optimum(ctx, gamma_vector(ctx, cycle))
            lp_route_filling_value(cx, cycle, INT)
            assert seen and all(rows == want for rows in seen), (name, cycle)
            checked += len(seen)
    assert checked >= 100


def test_rational_witness_does_not_depend_on_the_particular_solution():
    # on a line of solutions the weighted median moves with the particular
    # solution, so the Smith-form solution and the free-variables-at-0 one
    # give the same minimizer
    lines = 0
    for name, build in CORPUS:
        cx = build()
        if not cx.faces:
            continue
        ctx = filling._context(cx)
        if len(ctx.kernel) > 1:
            continue
        z = dense(ctx.kernel[0], len(cx.faces)) if ctx.kernel else None
        for cycle in enumerate_cycles(cx, 4):
            res = filling_norm(cx, cycle, RAT)
            particular = rref_rational_solve(dense_d2(cx), gamma_vector(ctx, cycle))
            if particular is None:
                assert res.value is INF, (name, cycle.coeffs)
                continue
            den = lcm(*(v.denominator for v in particular))
            big_m = [v.numerator * (den // v.denominator) for v in particular]
            x, den, val = dense_minimize_on_line(big_m, den, z, integral=False)
            assert res.value == val, (name, cycle.coeffs)
            assert res.witness == chain_from_vector(ctx, x, RAT, den), (name, cycle.coeffs)
            lines += z is not None
    assert lines >= 10


def test_witness_does_not_depend_on_query_order():
    # the optimum on this cycle's line of solutions is an interval, and the
    # weighted median's tie rule is not symmetric under t -> -t, so the
    # witness of -gamma negated is the other end of that interval
    gamma = Chain(1, INT, {"e12": 1, "e13": -1, "e24": 1, "e34": -1})
    for ring in (INT, RAT):
        fresh = filling_norm(tetrahedron(), gamma, ring)
        cx = tetrahedron()
        filling_norm(cx, gamma.neg(), ring)
        after = filling_norm(cx, gamma, ring)
        assert after == fresh, ring
        assert sorted(fresh.witness.coeffs) == ["f123", "f234"], ring


def test_witnesses_verify():
    for name, build in CORPUS:
        cx = build()
        for cycle in enumerate_cycles(cx, 4):
            for ring in (INT, RAT):
                res = filling_norm(cx, cycle, ring)
                if res.value is INF:
                    continue
                assert boundary(cx, res.witness).to_ring(RAT) == cycle.to_ring(RAT)
                assert Fraction(res.witness.l1()) == Fraction(res.value)


def test_int_recheck_rejects_bad_witnesses(monkeypatch):
    # (complex, cycle, witness x over den, value) that pass, each spoiled once
    # in a face coefficient (same norm) and once in the value
    tri = Chain(1, INT, {"e12": 1, "e23": 1, "e13": -1})
    # (witnesses as {face index: entry} nonzeros, cycles as (edge index,
    # coefficient) pairs)
    cases = [(tetrahedron(), tri, INT, {0: 1}, 1, 1, {1: 1}),
             (double_traversal(), Chain(1, INT, {"e": 1}), RAT, {0: 1}, 2, Fraction(1, 2),
              {0: -1})]
    for cx, gamma, ring, x, den, value, off in cases:
        ctx = filling._context(cx)
        terms = ctx.terms(gamma.coeffs.items())
        filling._verify_filling(ctx, terms, x, den, value)
        with pytest.raises(InternalError, match="witness boundary mismatch"):
            filling._verify_filling(ctx, terms, off, den, value)
        with pytest.raises(InternalError, match="witness norm mismatch"):
            filling._verify_filling(ctx, terms, x, den, value * 2)
        assert filling_norm(cx, gamma, ring).value == value

    # a fill whose line minimizer comes back spoiled raises and caches nothing
    minimize_on_line = filling._minimize_on_line

    def spoiled(big_m, den, line, integral):
        x, den, val = minimize_on_line(big_m, den, line, integral)
        return {j: v + den for j, v in x.items()}, den, val

    monkeypatch.setattr(filling, "_minimize_on_line", spoiled)
    for build, gamma, ring in ((tetrahedron, tri, INT),
                               (double_traversal, Chain(1, INT, {"e": 1}), RAT)):
        cx = build()
        with pytest.raises(InternalError):
            filling_norm(cx, gamma, ring)
        assert not filling._context(cx).value_cache
    monkeypatch.setattr(filling, "_minimize_on_line", minimize_on_line)

    # a spoiled kernel vector fails the check that d2 z = 0, made once per
    # complex before its line is built, and nothing is cached
    for ring in (INT, RAT):
        cx = tetrahedron()
        ctx = filling._context(cx)
        [z] = ctx.kernel
        ctx.kernel = [{**z, 0: 2 * z[0]}]
        with pytest.raises(InternalError, match="kernel vector with a nonzero boundary"):
            filling_norm(cx, tri, ring)
        assert not ctx.value_cache and "lines" not in vars(ctx)


def test_result_types():
    # the CLI formats Z values and coefficients as ints and Q ones as
    # Fractions in lowest terms
    proper = 0
    for name, build in CORPUS:
        cx = build()
        for cycle in enumerate_cycles(cx, 4):
            rz = filling_norm(cx, cycle, INT)
            if rz.value is not INF:
                assert type(rz.value) is int, (name, cycle.coeffs)
                assert all(type(c) is int for c in rz.witness.coeffs.values())
            rq = filling_norm(cx, cycle, RAT)
            if rq.value is not INF:
                for v in (rq.value, *rq.witness.coeffs.values()):
                    assert type(v) is Fraction, (name, cycle.coeffs)
                    assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
                proper += rq.value.denominator > 1
    assert proper >= 1


def test_rational_at_most_integral():
    for name, build in CORPUS:
        cx = build()
        for cycle in enumerate_cycles(cx, 4):
            vq = filling_norm(cx, cycle, RAT).value
            vz = filling_norm(cx, cycle, INT).value
            assert vq <= vz, (name, cycle.coeffs)


def test_rational_homogeneity():
    cx = tetrahedron()
    quad = Chain(1, INT, {"e12": 1, "e23": 1, "e34": 1, "e14": -1})
    base = filling_norm(cx, quad, RAT).value
    for m in (-3, -2, -1, 2, 4):
        assert filling_norm(cx, quad.scale(m), RAT).value == abs(m) * base


def test_filling_subadditive_along_decompositions():
    for name, build in CORPUS:
        cx = build()
        if not cx.faces:
            continue
        for cycle in enumerate_cycles(cx, 5):
            if cycle.is_zero():
                continue
            parts = decompose_into_circuits(cx, cycle)
            for ring in (INT, RAT):
                whole = filling_norm(cx, cycle, ring).value
                total = 0
                for p in parts:
                    total = total + filling_norm(cx, p.induced_cycle(), ring).value
                assert whole <= total, (name, ring, cycle.coeffs)


def test_branch_and_bound_matches_oracle_on_wide_kernel():
    # omega_4(K4) has a rank-4 boundary kernel, so the solver route is the
    # simplex relaxation plus branch and bound; check it against the
    # exhaustive bounded search
    om = omega_n(k4_graph(), 4)
    kernel = len(om.faces) - (len(om.edges) - len(om.vertices) + 1)
    assert kernel >= 2
    for cycle in enumerate_cycles(om, 4):
        if cycle.is_zero():
            continue
        got = filling_norm(om, cycle, INT).value
        want = exhaustive_int_filling(om, cycle, 3)
        assert got == want, cycle.coeffs
        assert filling_norm(om, cycle, RAT).value <= got


def _k5_graph():
    return validate("12345", [(f"e{a}{b}", a, b)
                              for a in "12345" for b in "12345" if a < b])


def _check_against_full_box(om, k, solve_lp):
    ctx = filling._context(om)
    checked = 0
    for cycle in enumerate_cycles(om, k):
        if cycle.is_zero():
            continue
        vec = gamma_vector(ctx, cycle)
        mu_int = linalg.solve_integer(om.smith_form_2(), vec)
        if mu_int is None:
            continue
        x, val = filling._branch_and_bound(ctx, vec, nonzeros(mu_int))
        start = filling._reduce_by_kernel(nonzeros(mu_int), ctx.lines)
        y, want = full_box_branch_and_bound(dense_d2(om), vec,
                                            dense(start, len(ctx.faces)),
                                            solve_lp)
        assert val == want, cycle.coeffs
        for witness in (dense(x, len(ctx.faces)), y):
            mu = chain_from_vector(ctx, witness, INT)
            assert boundary(om, mu) == cycle and mu.l1() == val, cycle.coeffs
        checked += 1
    return checked


def test_branch_and_bound_matches_full_box_oracle():
    # box rows only on branched faces against the old search that boxes every
    # face at every node: on omega_4(K4) with the Fraction-tableau simplex, on
    # omega_3(K5) (kernel rank 4) with the package simplex, which
    # test_lp_matches_fraction_oracle checks on its own
    assert _check_against_full_box(omega_n(k4_graph(), 4), 4, fraction_solve_lp) >= 10
    assert _check_against_full_box(omega_n(_k5_graph(), 3), 5, simplex.solve_lp) >= 70


def test_branch_and_bound_matches_full_box_oracle_when_it_branches(monkeypatch):
    # the omega complexes above have integral LP optima at the root; faces
    # that run over a loop several times give fractional ones, so these
    # searches branch, and the box rows of branched faces come into play
    lp_calls = []
    solve_lp = simplex.solve_lp

    def counting(*args):
        lp_calls.append(1)
        return solve_lp(*args)

    monkeypatch.setattr(simplex, "solve_lp", counting)
    rng = random.Random(1)
    checked = built = 0
    while built < 12:
        vs = [f"v{i}" for i in range(rng.randint(1, 3))]
        es = [(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(rng.randint(2, 4))]
        graph = validate(vs, es)
        walks = [_random_closed_walk(graph, rng, 6) for _ in range(rng.randint(3, 6))]
        cx = validate(vs, es, [(f"f{j}", w) for j, w in enumerate(walks) if w])
        if len(cx.faces) - len(cx.smith_form_2()[1]) < 2:
            continue
        built += 1
        checked += _check_against_full_box(cx, 3, fraction_solve_lp)
    assert len(lp_calls) > 2 * checked


def test_branch_and_bound_root_lp_has_no_box_rows(monkeypatch):
    calls = []
    solve_lp = simplex.solve_lp

    def recording(c, a_eq, b_eq, a_ub=None, b_ub=None):
        calls.append(a_ub)
        return solve_lp(c, a_eq, b_eq, a_ub, b_ub)

    monkeypatch.setattr(simplex, "solve_lp", recording)
    om = omega_n(k4_graph(), 4)
    square = Chain(1, INT, {"e12": 1, "e23": 1, "e34": 1, "e14": -1})
    assert filling_norm(om, square, INT).value == 1
    assert calls and not calls[0]


def _random_closed_walk(cx, rng, max_len):
    for _ in range(8):
        start = rng.choice(cx.vertices)
        walk = []
        cur = start
        for _ in range(rng.randint(1, max_len)):
            steps = incident(cx, cur)
            if not steps:
                break
            step = rng.choice(steps)
            walk.append(step)
            cur = cx.edge_endpoints(step)[1]
        if walk and cur == start:
            return walk
    return None


def test_filling_routes_cross_validate_on_random_complexes():
    # closed-form line minimization, simplex/branch-and-bound, and the
    # exhaustive bounded oracle must agree wherever they all apply
    rng = random.Random(90125)
    built = 0
    for _ in range(40):
        nv = rng.randint(1, 4)
        vs = [f"v{i}" for i in range(nv)]
        es = [(f"e{i}", rng.choice(vs), rng.choice(vs))
              for i in range(rng.randint(1, 5))]
        graph = validate(vs, es)
        faces = []
        for j in range(rng.randint(0, 3)):
            walk = _random_closed_walk(graph, rng, 4)
            if walk:
                faces.append((f"f{j}", walk))
        cx = validate(vs, es, faces)
        if not cx.faces:
            continue
        built += 1
        cap = 3
        for cycle in enumerate_cycles(cx, 3):
            vz = filling_norm(cx, cycle, INT).value
            assert vz == lp_route_filling_value(cx, cycle, INT)
            vq = filling_norm(cx, cycle, RAT).value
            assert vq == lp_route_filling_value(cx, cycle, RAT)
            assert vq <= vz
            oracle = exhaustive_int_filling(cx, cycle, cap)
            if oracle is not None:
                assert vz == oracle, (es, faces, cycle.coeffs)
            else:
                assert vz is INF or vz > cap, (es, faces, cycle.coeffs)
    assert built >= 10


def test_fv_tetrahedron_table():
    cx = tetrahedron()
    tz = fv(cx, 6, INT)
    assert [tz.value(k) for k in range(7)] == [0, 0, 0, 1, 2, 2, 2]
    tq = fv(cx, 6, RAT)
    for k in range(7):
        assert tq.value(k) <= tz.value(k)
    # witness cycles attain the entries
    for k in range(7):
        w = tz.witness(k)
        assert w.l1() <= k
        assert filling_norm(cx, w, INT).value == tz.value(k)


def test_fv_matches_all_cycles_oracle(monkeypatch):
    candidates = {}

    def counted(cx, max_norm, fills=None):
        found = enumerate_cycles(cx, max_norm, fills)
        candidates[id(cx)] = len(found)
        return found

    monkeypatch.setattr(filling, "enumerate_cycles", counted)
    cases = CORPUS + CORPUS_GRAPHS + [
        ("disk2x2", lambda: grid_disk(2, 2)), ("disk2x3", lambda: grid_disk(2, 3)),
        ("disk3x3", lambda: grid_disk(3, 3)), ("S3-coned", lambda: coned_s3().complex),
        ("triangle-face+open-square", triangle_face_open_square),
        ("figure8-one-face", figure8_one_face)]
    cases += [(name + "''", lambda build=build: subdivide(build(), BARYCENTRIC).complex)
              for name, build in CORPUS if build().faces]
    kmax = 6
    fewer = set()
    for name, build in cases:
        for ring in (INT, RAT):
            values, witnesses = all_cycles_fv(build(), kmax, ring)
            cx = build()
            for k in range(kmax + 1):
                table = fv(cx, k, ring)
                assert list(table.values) == values[:k + 1], (name, ring, k)
                assert list(table.witnesses) == witnesses[:k + 1], (name, ring, k)
            if name.endswith("''") and ring == INT:
                everything = len(multiset_cycles(cx, kmax))
                if candidates[id(cx)] < everything:
                    fewer.add(name)
    assert "tetrahedron''" in fewer and len(fewer) >= 3, fewer
    # the table turns inf at the empty square, not at the filled triangle
    assert all_cycles_fv(triangle_face_open_square(), 4, INT)[0] == [0, 0, 0, 1, INF]
    # a fillable circuit sorts before an unfillable one of the same length
    assert all_cycles_fv(figure8_one_face(), 4, INT)[0] == [0, 0, 0, INF, INF]


def _circuit_cycles(fills):
    """{serialization: value} of the induced cycle of each circuit of
    ``fills``, either sign."""
    return {cycle.serialize(): value for circuit, value in fills
            for cycle in (circuit.induced_cycle(), circuit.induced_cycle().neg())}


def test_candidate_search_matches_dict_oracle(monkeypatch):
    # the int search with sign masks returns the keys, in the order, of the
    # dict search with Fraction totals, for the fills fv passes it, less the
    # single circuits: fv reads those off the fill list, one per length,
    # and each one the search would have kept fills to less than that
    # length's peak, or ties it and sorts after it
    calls = []

    def recording(cx, max_norm, fills=None):
        found = enumerate_cycles(cx, max_norm, fills)
        calls.append((cx, max_norm, fills, found))
        return found

    monkeypatch.setattr(filling, "enumerate_cycles", recording)
    cases = CORPUS + TORSION + [("S3-coned", lambda: coned_s3().complex)]
    cases += [(name + "''", lambda build=build: subdivide(build(), BARYCENTRIC).complex)
              for name, build in CORPUS if build().faces]
    denominators, candidates, pruned, singles = Counter(), 0, 0, Counter()
    for name, build in cases:
        for ring in (INT, RAT):
            calls.clear()
            cx = build()
            stops = set()
            for k in (3, 4 if name == "z3-moore-3-barycentric" else 6):  # its Q LPs are slow
                table = fv(cx, k, ring)
                stops.add(next((j - 1 for j in range(k + 1) if table.value(j) is INF), k))
            # one search per norm bound, the second table of a bound reuses it
            assert sorted(max_norm for _, max_norm, _, _ in calls) == sorted(stops), (name, ring)
            for cx, max_norm, fills, found in calls:
                want = [c.serialize() for c in dict_conformal_search(cx, max_norm, fills)]
                circuit_cycles = _circuit_cycles(fills)
                keys = [key for _, key, _ in found]
                assert keys == [key for key in want if key not in circuit_cycles], (
                    name, ring, max_norm)
                assert all(type(key) is tuple for key in keys), (name, ring)
                assert [norm for norm, _, _ in found] == [
                    sum(abs(c) for _, c in key) for key in keys], (name, ring)
                peaks = {length: (key, fills[i][1])
                         for length, key, i in filling._circuit_peaks(fills)}
                for key in want:
                    if key in circuit_cycles:
                        peak_key, peak_value = peaks[sum(abs(c) for _, c in key)]
                        value = circuit_cycles[key]
                        assert value < peak_value or (value == peak_value and key >= peak_key), (
                            name, ring, key)
                        singles["peak" if key == peak_key else "dropped"] += 1
                denominators[max((Fraction(v).denominator for _, v in fills), default=1)] += 1
                candidates += len(found)
                if len(found) < len(enumerate_cycles(cx, max_norm)):
                    pruned += 1
    # Q fills over denominators 2 (the double traversal's 1/2) and 3 (Moore loops)
    assert {2, 3} <= set(denominators), denominators
    assert candidates > 400 and pruned >= 10, (candidates, pruned)
    assert singles["peak"] >= 80 and singles["dropped"] >= 1000, singles
    # without fills every cycle comes back as a Chain, as the multiset oracle gives it
    for name, build in TORSION + [("S3-coned", lambda: coned_s3().complex),
                                  ("tetrahedron''", lambda: subdivide(tetrahedron(),
                                                                     BARYCENTRIC).complex)]:
        cx = build()
        for k in range(5):
            assert enumerate_cycles(cx, k) == multiset_cycles(cx, k), (name, k)


def _record_fills(monkeypatch):
    """A list that every circuit fill and every solve of :func:`fv` and
    :func:`linearity_report` appends to, once per ring: (route, the sorted
    (edge index, coefficient) terms of the cycle, ring), route "packed"
    for a packed fill that gave a value and "solve" for a
    ``_solve_vector`` call.  Both routes key a cycle alike, so a cycle
    filled by both shows up twice under one key."""
    filled = []
    _record_packed_fills(monkeypatch, lambda terms, rings, values: filled.extend(
        ("packed", terms, ring) for ring in rings))
    solve_vector = filling._solve_vector

    def solving(ctx, terms, rings):
        filled.extend(("solve", tuple(sorted(terms)), ring) for ring in rings)
        return solve_vector(ctx, terms, rings)

    monkeypatch.setattr(filling, "_solve_vector", solving)
    return filled


def _record_packed_fills(monkeypatch, record):
    """Call record(terms, rings, values) for every packed fill that gives
    values, terms the sorted (edge index, sign) terms of the circuit's
    walk, as ``_fill_circuits`` would pass them to ``_solve_vector``."""
    packed, fill = filling._FillingContext.packed, filling._PackedSolutions.fill
    index = {}  # id of a table -> the edge index of its complex

    def packing(ctx, fills):
        table = packed(ctx, fills)
        if table:
            index[id(table)] = ctx.complex.edge_index
        return table

    def recording(self, walk, rings):
        values = fill(self, walk, rings)
        if values is not None:
            edge_index = index[id(self)]
            record(tuple(sorted((edge_index[e], s) for s, e in walk)), rings, values)
        return values

    monkeypatch.setattr(filling._FillingContext, "packed", packing)
    monkeypatch.setattr(filling._PackedSolutions, "fill", recording)


def _steps(cx, circuit):
    """The sorted (edge index, sign) terms of a circuit, as
    :func:`_record_fills` lists a fill."""
    return tuple(sorted((cx.edge_index[e], s) for s, e in circuit.walk))


def test_fv_fills_no_candidate_that_only_ties(monkeypatch):
    # the tetrahedron's circuits are 4 triangles filling to 1 and 3 squares
    # filling to 2, so L(u) = L(4) = 2 from u = 4 on.  A cycle of norm u > 4
    # whose split only sums to 2 fills to at most FV(u - 1), so fv leaves it
    # unfilled: at k = 6 it fills the 7 circuits and nothing else, where the
    # rule that kept such ties also filled 10 pairs of triangles.
    # Each circuit is one packed fill, and nothing is solved.
    calls = []
    enumerate_cycles_ = filling.enumerate_cycles
    filled = _record_fills(monkeypatch)

    def recording(cx, max_norm, fills=None):
        found = enumerate_cycles_(cx, max_norm, fills)
        calls.append((cx, max_norm, fills, found))
        return found

    monkeypatch.setattr(filling, "enumerate_cycles", recording)
    for ring in (INT, RAT):
        filled.clear()
        calls.clear()
        table = fv(tetrahedron(), 6, ring)
        assert [route for route, _, _ in filled] == ["packed"] * 7, ring
        assert (list(table.values), list(table.witnesses)) == all_cycles_fv(tetrahedron(), 6, ring)
        [(cx, max_norm, fills, found)] = calls
        kept = [c.serialize() for c in dict_conformal_search(cx, max_norm, fills, keep_ties=True)]
        circuits = set(_circuit_cycles(fills))
        assert {key for _, key, _ in found} <= circuits | {()}, ring
        assert found == [(0, (), 0)], ring
        assert len({key for key in kept if key not in circuits} - {()}) == 20, ring


def test_fv_circuit_fills_match_filling_norm(monkeypatch):
    # fv fills each circuit once, from its packed sum or, where there is no
    # table or the sum's defect lanes are not 0, from its edge vector; the
    # value and its type are those filling_norm gives the circuit's cycle,
    # inf included, and so is the certificate of a solve: a packed fill is
    # FEASIBLE_OPTIMAL when finite and INTEGRALLY_INFEASIBLE when not.  Both
    # routes record a cycle under its (edge index, coefficient) terms, so a
    # cycle filled by both is caught
    solved = []  # (route, terms, certificate, value)
    solve_vector = filling._solve_vector

    def packed(terms, rings, values):
        solved.extend(("packed", terms, filling.FEASIBLE_OPTIMAL if value is not INF
                       else filling.INTEGRALLY_INFEASIBLE, value) for value in values)

    def recording(ctx, terms, rings):
        results = solve_vector(ctx, terms, rings)
        solved.extend(("solve", tuple(sorted(terms)), result[0], result[3])
                      for result in results)
        return results

    _record_packed_fills(monkeypatch, packed)
    monkeypatch.setattr(filling, "_solve_vector", recording)
    cases = CORPUS + CORPUS_GRAPHS[:4] + TORSION + [
        ("S3-coned", lambda: coned_s3().complex), ("disk3x3", lambda: grid_disk(3, 3)),
        ("omega4-K4", lambda: omega_n(k4_graph(), 4)),
        ("triangle-face+open-square", triangle_face_open_square),
        ("figure8-one-face", figure8_one_face)]
    cases += [(name + "''", lambda build=build: subdivide(build(), BARYCENTRIC).complex)
              for name, build in CORPUS if build().faces]
    kmax = 5
    checked, certificates, kernel_ranks, packed = Counter(), Counter(), set(), Counter()
    for name, build in cases:
        for ring in (INT, RAT):
            cx = build()
            solved.clear()
            table = fv(cx, kmax, ring)
            inside = {key: (certificate, value) for _, key, certificate, value in solved}
            assert len(inside) == len(solved), (name, ring)  # one ring, one fill each
            via_table = {key for route, key, _, _ in solved if route == "packed"}
            ctx = filling._context(cx)
            # circuits are filled up to the first length holding an unfillable one
            stop = next((k for k in range(kmax + 1) if table.value(k) is INF), kmax)
            fresh = build()
            for circ in enumerate_circuits(cx, None, stop) if stop else ():
                cycle = circ.induced_cycle()
                want = filling_norm(fresh, cycle, ring)
                key = _steps(cx, circ)
                assert key == tuple(sorted(ctx.terms(cycle.coeffs.items())))
                got = inside[key]
                assert got == (want.certificate, want.value), (name, ring, circ.walk)
                assert type(got[1]) is type(want.value), (name, ring, circ.walk)
                packed[ring] += key in via_table
                checked[ring] += 1
                certificates[ring, want.certificate] += 1
            if cx.faces:
                kernel_ranks.add(len(ctx.kernel))
    assert min(checked.values()) > 300, checked
    for ring, certificate in ((INT, filling.NO_FACES), (RAT, filling.NO_FACES),
                              (INT, filling.INTEGRALLY_INFEASIBLE),
                              (INT, filling.RATIONALLY_INFEASIBLE),
                              (RAT, filling.RATIONALLY_INFEASIBLE)):
        assert certificates[ring, certificate] > 0, (ring, certificate)
    assert {0, 1} <= kernel_ranks and max(kernel_ranks) >= 2, kernel_ranks
    assert min(packed.values()) > 200, packed


def _wide_kernel(n):
    """Two loops a and b at one vertex with the faces a^n, a b^-1 and
    b^(n + 1): kernel rank 1, spanned by (n + 1, -n (n + 1), -n) for n >= 2,
    so its entries reach |z_j| >= 2, and last invariant factor 1."""
    return validate("v", [("a", "v", "v"), ("b", "v", "v")],
                    [("f", [(1, "a")] * n), ("g", [(1, "a"), (-1, "b")]),
                     ("h", [(1, "b")] * (n + 1))])


def _packed_fill_cases():
    """(name, build) of the complexes the packed circuit fills are checked
    on: CORPUS, TORSION, the barycentric subdivisions and the double
    traversal with a disk, circuits that bound nothing over Q beside faces,
    kernels with entries |z_j| >= 2, and seeded random complexes (loops,
    parallel edges and repeated-edge faces, at every kernel rank)."""
    cases = _corpus_torsion_and_subdivisions() + [
        ("triangle-face+open-square", triangle_face_open_square),
        ("figure8-one-face", figure8_one_face),
        ("wide-kernel-2", lambda: _wide_kernel(2)), ("wide-kernel-5", lambda: _wide_kernel(5))]
    rng = random.Random(2929)
    while len(cases) < 90:
        vs = [f"v{i}" for i in range(rng.randint(1, 4))]
        es = [(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(rng.randint(1, 6))]
        graph = validate(vs, es)
        walks = [_random_closed_walk(graph, rng, 5) for _ in range(rng.randint(1, 4))]
        faces = [(f"f{j}", walk) for j, walk in enumerate(walks) if walk]
        cases.append((f"random-{len(cases)}", lambda vs=vs, es=es, faces=faces:
                      validate(vs, es, faces)))
    return cases


def test_packed_circuit_fills_match_the_per_circuit_route(monkeypatch):
    # every circuit of length <= 5, both rings together and each alone, on
    # a fresh complex each: the same circuits, values and value types as
    # the reference's one solve per circuit, at every kernel rank; a
    # circuit whose defect lanes do not sum to 0 bounds nothing over Q, and
    # its fill falls back to a solve and is inf in every ring
    fallbacks = []
    fill = filling._PackedSolutions.fill

    def recording(self, walk, rings):
        values = fill(self, walk, rings)
        if values is None:
            fallbacks.append(walk)
        return values

    monkeypatch.setattr(filling._PackedSolutions, "fill", recording)
    seen = Counter()
    for name, build in _packed_fill_cases():
        k = 4 if name == "z3-moore-3-barycentric" else 5  # its Q LPs are slow
        for rings in ((INT, RAT), (INT,), (RAT,)):
            cx = build()
            fallbacks.clear()
            got = filling._fill_circuits(cx, k, rings)
            want = reference_fill_circuits(build(), k, rings)
            assert set(got) == set(want) == set(rings), name
            unfillable = set()
            for ring in rings:
                (fills, stop), (want_fills, want_stop) = got[ring], want[ring]
                where = (name, rings, ring)
                assert [c.key for c, _ in fills] == [c.key for c, _ in want_fills], where
                assert [v for _, v in fills] == [v for _, v in want_fills], where
                assert [type(v) for _, v in fills] == [type(v) for _, v in want_fills], where
                assert [c.key for c in stop] == [c.key for c in want_stop], where
                unfillable |= {c.walk for c in stop}
                seen["finite"] += len(fills)
            assert set(fallbacks) <= unfillable, name
            ctx = filling._context(cx)
            if not ctx.table:
                seen["no table", "faces" if cx.faces else "no faces"] += 1
                continue
            seen["kernel rank", len(ctx.kernel)] += 1
            seen["D > 1"] += ctx.table.den > 1
            seen["|z_j| >= 2"] += any(abs(w) >= 2 for zs, _, _ in ctx.lines for w in zs.values())
            seen["fallback"] += len(fallbacks)
    for key in (("kernel rank", 0), ("kernel rank", 1), ("no table", "faces"),
                ("no table", "no faces"), "D > 1", "|z_j| >= 2", "fallback"):
        assert seen[key] >= 3, (key, seen)
    assert seen["finite"] > 1000, seen


def test_packed_fills_across_the_lane_width_boundary():
    # one-byte lanes hold lane sums up to 127 under their sign bit: the
    # faces a^n, a b^-1 and b^(n + 1) bound every lane's sum of |entries|
    # by 2 n + 2, so n = 62 is the last complex of that family on them,
    # n = 63 takes two-byte lanes, and n = 16383 four-byte ones.  Every
    # fill equals the reference's, the face lanes of a circuit's sum are
    # the X of RationalSolver.solve, and lane sums at the ends of the range
    # decode exactly
    for n, width in ((62, 1), (63, 2), (16382, 2), (16383, 4)):
        cx = _wide_kernel(n)
        ctx = filling._context(cx)
        table = ctx.packed(1)
        assert table.layout.size == width * (len(cx.faces) + len(cx.edges)), n
        assert filling._fill_circuits(cx, 2, (INT, RAT)) == reference_fill_circuits(
            _wide_kernel(n), 2, (INT, RAT)), n
        for circuit in circuit_masks(cx, 2).values():
            total = table.total(circuit.walk)
            assert total + table.bias >> table.bits == 0, n
            x = table.decode(total, table.faces, table.bias)
            big_x, den = ctx.rat.solve([(cx.edge_index[e], s) for s, e in circuit.walk])
            assert (list(x), table.den) == (dense(big_x, len(cx.faces)), den), n

        def pack(row):
            return sum(v << 8 * width * k for k, v in enumerate(row))

        top = (1 << 8 * width - 1) - 1
        lanes = len(cx.faces) + len(cx.edges)
        for row in ([top] * lanes, [-top - 1] * lanes, [top, -top - 1, 0, 1, -1][:lanes]):
            halves = [v // 2 for v in row], [v - v // 2 for v in row]
            assert table.decode(pack(halves[0]) + pack(halves[1]), table.layout,
                                table.signs) == tuple(row), n


def test_a_table_is_built_only_by_fills_that_pay_for_it(monkeypatch):
    # tetrahedron'' has 36 edges and 24 faces: its table takes 36 * 60
    # lanes, 60 an entry.  A fill of its 162 circuits of length <= 5 builds
    # the table when that is at most _LANES_PER_FILL lanes per circuit and
    # the entry at most _ENTRY_LANES lanes; past either bound every circuit
    # is solved, and the fills are the reference's either way
    def build():
        return subdivide(tetrahedron(), BARYCENTRIC).complex

    want = reference_fill_circuits(build(), 5, (INT, RAT))
    n = len(want[INT][0])
    assert n == 162 and not want[INT][1]
    for per_fill, entry, built in ((-(-36 * 60 // n), 60, True), (36 * 60 // n, 60, False),
                                   (100, 60, True), (100, 59, False)):
        monkeypatch.setattr(filling, "_LANES_PER_FILL", per_fill)
        monkeypatch.setattr(filling, "_ENTRY_LANES", entry)
        cx = build()
        filled = _record_fills(monkeypatch)
        assert filling._fill_circuits(cx, 5, (INT, RAT)) == want, (per_fill, entry)
        assert bool(filling._context(cx).table) == built, (per_fill, entry)
        routes = Counter(route for route, _, _ in filled)
        assert routes == Counter({"packed" if built else "solve": 2 * n}), (per_fill, entry)
        monkeypatch.undo()
    # the circuits of length <= 3 do not pay for it, those of lengths 4
    # and 5 do: the first call solves, the second builds the table and
    # fills from it, and the values are the reference's
    cx = build()
    short = len(circuit_masks(cx, 3))
    per_fill = -(-36 * 60 // (n - short))
    assert short * per_fill < 36 * 60
    monkeypatch.setattr(filling, "_LANES_PER_FILL", per_fill)
    filled = _record_fills(monkeypatch)
    filling._fill_circuits(cx, 3, (INT, RAT))
    assert not filling._context(cx).table
    assert filling._fill_circuits(cx, 5, (INT, RAT)) == want
    assert Counter(route for route, _, _ in filled) == Counter(
        {"solve": 2 * short, "packed": 2 * (n - short)})
    # at the module's bounds tetrahedron'' has a table at k = 5, as the
    # fv-table benchmark fills it
    monkeypatch.undo()
    cx = build()
    filling._fill_circuits(cx, 5, (INT,))
    assert filling._context(cx).table


def test_zero_defect_circuit_fills_make_no_solve(monkeypatch):
    # at kernel rank <= 1 a circuit whose defect lanes sum to 0 is filled
    # from its packed sum alone: _solve_vector and RationalSolver.solve see
    # exactly the circuits that bound nothing over Q, once each.  Every
    # complex here is small enough for its fills to pay for the table
    calls = []
    solve_vector, solve = filling._solve_vector, linalg.RationalSolver.solve

    def vector(ctx, terms, rings):
        calls.append(("vector", tuple(sorted(terms))))
        return solve_vector(ctx, terms, rings)

    def solving(self, b):
        calls.append(("solve", tuple(sorted(b))))
        return solve(self, b)

    monkeypatch.setattr(filling, "_solve_vector", vector)
    monkeypatch.setattr(linalg.RationalSolver, "solve", solving)
    packed = fallback = 0
    for name, build in _packed_fill_cases():
        cx = build()
        ctx = filling._context(cx)
        if not cx.faces or len(ctx.kernel) > 1:
            continue
        calls.clear()
        k = 5
        filled = filling._fill_circuits(cx, k, (INT, RAT))
        assert ctx.table or not any(fills for fills, _ in filled.values()), name
        made = Counter(calls)
        circuits = {c.walk: c for fills, stop in filled.values()
                    for c in [c for c, _ in fills] + stop}
        want = Counter()
        for circuit in circuits.values():
            terms = tuple(sorted(ctx.terms(circuit.induced_cycle().coeffs.items())))
            bounds = filling_norm(build(), circuit.induced_cycle(), RAT).value is not INF
            if not bounds:
                want["vector", terms] += 1
                want["solve", terms] += 1
            packed += bounds
            fallback += not bounds
        assert made == want, name
    assert packed > 300 and fallback >= 10, (packed, fallback)


def test_sparse_line_fills_match_dense_oracle():
    # at kernel rank <= 1 a fill works on the supports of gamma, X and z; the
    # oracle takes the dense route through full-length vectors.  Every cycle
    # of norm <= 5, both rings, both call orders (gamma then -gamma, -gamma
    # then gamma), each order on a fresh complex: the same certificate, the
    # same value of the same type and the same witness
    cases = CORPUS + [(name, build) for name, build in TORSION
                      if name in ("double-traversal-barycentric", "z3-moore-2")]
    cases += [("disk3x3", lambda: grid_disk(3, 3)), ("S3-coned", lambda: coned_s3().complex),
              ("S4-coned", lambda: coned_s4().complex),
              ("tetrahedron''", lambda: subdivide(tetrahedron(), BARYCENTRIC).complex),
              # cycles that bound nothing over Q beside faces
              ("triangle-face+open-square", triangle_face_open_square),
              ("figure8-one-face", figure8_one_face)]
    seen = Counter()
    for name, build in cases:
        cycles = [c for c in enumerate_cycles(build(), 5)
                  if not c.is_zero() and c.serialize() < c.neg().serialize()]
        for ring in (INT, RAT):
            for negated_first in (False, True):
                cx = build()
                ctx = filling._context(cx)
                if cx.faces:
                    assert len(ctx.kernel) <= 1, name
                    seen["kernel rank", len(ctx.kernel)] += 1
                for cycle in cycles:
                    for gamma in ((cycle.neg(), cycle) if negated_first
                                  else (cycle, cycle.neg())):
                        vec = gamma_vector(ctx, gamma)
                        certificate, x, den, value = dense_line_fill(ctx, vec, ring)
                        got = filling_norm(cx, gamma, ring)
                        where = (name, ring, negated_first, gamma.coeffs)
                        assert got.certificate == certificate, where
                        assert got.value == value and type(got.value) is type(value), where
                        assert got.witness == (None if x is None
                                               else chain_from_vector(ctx, x, ring, den)), where
                        seen[certificate] += 1
                        if x is not None and cx.faces:
                            # the minimizer left the particular solution
                            big_x, d = dense_rational_solve(dense_d2(cx), vec,
                                                            snf=cx.smith_form_2())
                            seen["moved"] += [Fraction(v, den) for v in x] != [
                                Fraction(v, d) for v in big_x]
    assert seen["kernel rank", 0] and seen["kernel rank", 1], seen
    for key in ("FEASIBLE_OPTIMAL", "INTEGRALLY_INFEASIBLE", "RATIONALLY_INFEASIBLE",
                "NO_FACES", "moved"):
        assert seen[key] >= 10, seen


def _spoil_first_entry(monkeypatch):
    """Make the next packed tables add 1 to face lane 0 of edge index 0's
    entry before they re-check their entries."""
    check = filling._PackedSolutions.check

    def spoiled(self, columns):
        self.entries[0] += 1
        return check(self, columns)

    monkeypatch.setattr(filling._PackedSolutions, "check", spoiled)


def test_fv_rechecks_a_spoiled_particular_solution(monkeypatch):
    # the particular solutions that every circuit fill sums go through the
    # int re-check of the packed table inside fv too; a table with one face
    # lane of one edge's entry spoiled raises and is not kept, and no fv
    # table or candidates are cached
    for build in (tetrahedron, triangle_face, bigon):
        for ring in (INT, RAT):
            cx = build()
            ctx = filling._context(cx)
            _spoil_first_entry(monkeypatch)
            with pytest.raises(InternalError, match="witness boundary mismatch"):
                fv(cx, 4, ring)
            assert ctx.table is None, build.__name__
            assert not [key for key in cx._cache if key[0] in ("fv", "fv_value")], build.__name__
            assert not ctx.candidates, build.__name__
            monkeypatch.undo()
            assert fv(cx, 4, ring) == fv(build(), 4, ring), (build.__name__, ring)
            assert ctx.table, build.__name__


def _corpus_torsion_and_subdivisions():
    """CORPUS, TORSION, the barycentric subdivisions of CORPUS's filled
    complexes, and the double traversal with a disk on its loop and its
    subdivision, whose circuits fill finitely in both rings but not alike,
    as (name, build) pairs."""
    disk = [("double-traversal-and-disk", double_traversal_and_disk)]
    return CORPUS + TORSION + disk + [
        (name + "''", lambda build=build: subdivide(build(), BARYCENTRIC).complex)
        for name, build in CORPUS + disk if build().faces]


def test_fv_zero_entry_monotone_and_ring_comparison():
    # FV(0) = 0, FV is monotone and FV_Q(k) <= FV_Z(k) at every k <= 6; at
    # kernel rank 0 with last invariant factor 1 every cycle has one
    # filling, an integral one, so the two tables are equal, witnesses
    # included
    equal = Counter()
    for name, build in _corpus_torsion_and_subdivisions():
        cx = build()
        kmax = 4 if name == "z3-moore-3-barycentric" else 6  # its Q LPs are slow
        tz = fv(cx, kmax, INT)
        tq = fv(cx, kmax, RAT)
        assert tz.value(0) == 0 and tq.value(0) == 0
        for k in range(1, kmax + 1):
            assert tz.value(k - 1) <= tz.value(k), name
            assert tq.value(k - 1) <= tq.value(k), name
            assert tq.value(k) <= tz.value(k), name
        ctx = filling._context(cx)
        if not ctx.kernel and ctx.rat.denominator == 1:
            assert (tq.values, tq.witnesses) == (tz.values, tz.witnesses), name
            equal["faces" if cx.faces else "graph"] += 1
        else:
            equal["other"] += any(tq.value(k) < tz.value(k) for k in range(kmax + 1))
    assert equal["faces"] >= 5 and equal["graph"] >= 5 and equal["other"] >= 3, equal


def test_fv_double_traversal():
    cx = double_traversal()
    assert fv(cx, 1, INT).value(1) is INF
    assert fv(cx, 1, RAT).value(1) == Fraction(1, 2)


def test_fv_infinite_on_faceless_graphs():
    tz = fv(triangle_graph(), 3, INT)
    assert tz.value(2) == 0 and tz.value(3) is INF


def test_superadditive_closure_linear_fixed_point():
    vals = [5 * n for n in range(1, 65)]
    assert superadditive_closure(vals) == [Fraction(5 * n) for n in range(1, 65)]


def test_superadditive_closure_examples():
    assert superadditive_closure([1, 1, 3]) == [1, 2, 3]
    assert superadditive_closure([0, 0, 0]) == [0, 0, 0]
    with pytest.raises(ValueError):
        superadditive_closure([-1])


def test_superadditive_closure_against_partition_oracle():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(1, 12)
        vals = [Fraction(rng.randint(0, 20), rng.choice([1, 1, 2])) for _ in range(n)]
        closed = superadditive_closure(vals)
        for m in range(1, n + 1):
            assert closed[m - 1] == partition_maximum(vals, m)


def test_superadditive_closure_is_least_majorant():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(2, 10)
        vals = [Fraction(rng.randint(0, 9)) for _ in range(n)]
        closed = superadditive_closure(vals)
        full = [Fraction(0)] + closed
        for m in range(1, n + 1):
            assert full[m] >= vals[m - 1]
            for j in range(1, m):
                assert full[j] + full[m - j] <= full[m]
            # tightness: each value is forced by f or by some split, so no
            # entry can be decreased without breaking one of the two clauses
            forced = max([vals[m - 1]] + [full[j] + full[m - j] for j in range(1, m)])
            assert full[m] == forced


def test_weak_area_examples():
    tri = triangle_graph()
    gamma = Chain(1, INT, {"e1": 1, "e2": 1, "e3": 1})
    assert weak_area(tri, gamma, 3).value == 1
    hexg = hexagon()
    hex_cycle = Chain(1, INT, {f"he{i}": 1 for i in range(6)})
    assert weak_area(hexg, hex_cycle, 5).value is INF
    hexc = hexagon_chord()
    cyc = Chain(1, INT, {f"h{i}": 1 for i in range(1, 7)})
    res = weak_area(hexc, cyc, 4)
    assert res.value == 2 and len(res.expression) == 2
    total = Chain(1, INT, {})
    for sign, circ in res.expression:
        total = total.add(circ.induced_cycle().scale(sign))
    assert total == cyc


def test_weak_area_errors_and_monotonicity():
    with pytest.raises(HasFacesError):
        weak_area(triangle_face(), Chain(1, INT, {"e1": 1, "e2": 1, "e3": 1}), 3)
    from finefill.errors import NotACircuitError
    with pytest.raises(NotACircuitError):
        weak_area(triangle_graph(),
                  Chain(1, INT, {"e1": 2, "e2": 2, "e3": 2}), 3)
    hexc = hexagon_chord()
    cyc = Chain(1, INT, {f"h{i}": 1 for i in range(1, 7)})
    values = [weak_area(hexc, cyc, n).value for n in range(4, 8)]
    for a, b in zip(values, values[1:]):
        assert b <= a
    assert weak_area(hexc, cyc, 6).value == 1


def test_weak_area_is_omega_filling_norm():
    for name, build in CORPUS_GRAPHS[:6]:
        graph = build()
        n = 4
        omega = omega_n(graph, n)
        for circ in enumerate_circuits(graph, None, n + 2):
            got = weak_area(graph, circ, n).value
            want = filling_norm(omega, circ.induced_cycle(), INT).value
            assert got == want, (name, circ.key)


def test_weak_area_checks_its_cycle_once(monkeypatch):
    # the input check splits a Chain into circuits without taking its
    # boundary, and the fill on omega checks the cycle: one is_cycle per
    # query, given a Chain or a Circuit; a chain that is not a cycle is still
    # refused as no circuit
    from finefill import chains
    from finefill.errors import NotACircuitError
    checks = []
    is_cycle = chains.is_cycle

    def counting(complex_, chain):
        checks.append(chain)
        return is_cycle(complex_, chain)

    monkeypatch.setattr(chains, "is_cycle", counting)
    monkeypatch.setattr(filling, "is_cycle", counting)
    queries = 0
    for name, build in CORPUS_GRAPHS[:6] + [("hexagon-chord", hexagon_chord)]:
        for circ in enumerate_circuits(build(), None, 6):
            for gamma in (circ.induced_cycle(), circ.induced_cycle().neg(), circ):
                checks.clear()
                weak_area(build(), gamma, 4)
                assert len(checks) == 1, (name, circ.key)
                queries += 1
        path = Chain(1, INT, {build().edges[0].id: 1})
        with pytest.raises(NotACircuitError):
            weak_area(build(), path, 4)
    assert queries >= 20, queries


def test_linearity_report():
    rows = linearity_report(tetrahedron(), 3)
    assert rows[-1] == (3, 1, Fraction(1), Fraction(1))
    rows = linearity_report(double_traversal(), 1)
    assert rows[0][1] is INF and rows[0][2] == Fraction(1, 2) and rows[0][3] is None
    rows = linearity_report(triangle_graph(), 3)
    assert rows[-1][1] is INF and rows[-1][2] is INF and rows[-1][3] is None


def _fill_stop(table):
    """The length up to which fv filled circuits: the first k holding an
    unfillable one, else the table's k_max."""
    return next((k for k in range(table.k_max + 1) if table.value(k) is INF), table.k_max)


def test_linearity_shares_the_ring_work(monkeypatch):
    # linearity solves each circuit once for both rings and searches for
    # candidates once where the two rings' circuit fills agree; its tables
    # equal fresh single-ring tables, values, witnesses and value types,
    # whether it runs alone or after fv in either ring
    solves, searches = [], []
    solve = linalg.RationalSolver.solve
    enumerate_cycles_ = filling.enumerate_cycles

    def counting(self, b):
        solves.append(tuple(sorted(b)))
        return solve(self, b)

    def recording(cx, max_norm, fills=None, above=None):
        searches.append((max_norm, tuple(value for _, value in fills)))
        return enumerate_cycles_(cx, max_norm, fills, above)

    _record_packed_fills(monkeypatch, lambda terms, rings, values: solves.append(terms))
    monkeypatch.setattr(linalg.RationalSolver, "solve", counting)
    monkeypatch.setattr(filling, "enumerate_cycles", recording)
    searched = {}
    for name, build in _corpus_torsion_and_subdivisions():
        k = 4 if name == "z3-moore-3-barycentric" else 5  # its Q LPs are slow
        fresh = {ring: fv(build(), k, ring) for ring in (INT, RAT)}
        for first in (None, INT, RAT):
            cx = build()
            searches.clear()
            if first is not None:
                fv(cx, k, first)
            solves.clear()
            rows = linearity_report(cx, k)
            for ring in (INT, RAT):
                table = fv(cx, k, ring)  # the one linearity built or found
                where = (name, first, ring)
                assert table.values == fresh[ring].values, where
                assert list(map(type, table.values)) == list(map(type, fresh[ring].values)), where
                assert table.witnesses == fresh[ring].witnesses, where
            assert [row[1:3] for row in rows] == [
                (fresh[INT].value(j), fresh[RAT].value(j)) for j in range(1, k + 1)], name
            # no search twice on one complex, and no circuit filled twice by
            # linearity: on a fresh complex each circuit filled is one packed
            # fill or one solve for both rings (none when there are no
            # faces), after fv in one ring at most one
            assert len(searches) == len(set(searches)), (name, first)
            stop = max(map(_fill_stop, fresh.values()))
            counts = Counter(solves)
            for circuit in enumerate_circuits(cx, None, stop) if stop else ():
                solved = counts[_steps(cx, circuit)]
                if first is None:
                    assert solved == (1 if cx.faces else 0), (name, circuit.walk)
                else:
                    assert solved <= 1, (name, first, circuit.walk)
            if first is None:
                searched[name] = len(searches)
    assert searched["triangle-face''"] == searched["tetrahedron''"] == 1, searched
    assert searched["double-traversal''"] == 2, searched
    # circuit fills that differ at the same fill stop: a search per ring
    assert searched["double-traversal-and-disk"] == searched["double-traversal-and-disk''"] == 2, (
        searched)
    assert sum(n == 1 for n in searched.values()) >= 10, searched


def test_linearity_rechecks_a_spoiled_particular_solution(monkeypatch):
    # the particular solutions that the circuit fills of both rings sum go
    # through the int re-check of the one packed table inside linearity; a
    # table with one face lane of one edge's entry spoiled raises and is not
    # kept, and no fv table in either ring and no candidates are cached
    for build in (tetrahedron, triangle_face, bigon):
        cx = build()
        ctx = filling._context(cx)
        _spoil_first_entry(monkeypatch)
        with pytest.raises(InternalError, match="witness boundary mismatch"):
            linearity_report(cx, 4)
        assert ctx.table is None, build.__name__
        assert not [key for key in cx._cache if key[0] in ("fv", "fv_value")], build.__name__
        assert not ctx.candidates, build.__name__
        monkeypatch.undo()
        assert linearity_report(cx, 4) == linearity_report(build(), 4), build.__name__
        for ring in (INT, RAT):
            assert fv(cx, 4, ring) == fv(build(), 4, ring), (build.__name__, ring)


def _peak_faults(peaks, fills, brute):
    """Where the circuit peaks ``peaks`` (:func:`filling._circuit_peaks` of
    ``fills``) differ from ``brute``: (length, least serialization, largest
    fill) per length."""
    faults = []
    if [length for length, _, _ in peaks] != [length for length, _, _ in brute]:
        faults.append(("lengths", peaks, brute))
    for (length, key, i), (_, want_key, want_value) in zip(peaks, brute):
        circuit, value = fills[i]
        if (key, value) != (want_key, want_value) or type(value) is not type(want_value):
            faults.append(("peak", length, key, value, want_key, want_value))
        if key not in {c.serialize() for c in (circuit.induced_cycle(),
                                                circuit.induced_cycle().neg())}:
            faults.append(("not its circuit", length, key, circuit.walk))
    return faults


def test_circuit_peaks_match_brute_force(monkeypatch):
    # fv reads one single circuit per length off its fill list: the largest
    # fill at that length and the least serialization, over both signs, of
    # a circuit attaining it.  A brute force over circuit_masks, filled on a
    # fresh complex, agrees at every length, ties included; a tie broken
    # toward the larger serialization fails it.  The candidate search that
    # fv runs never returns a circuit taken once
    calls = []

    def recording(cx, max_norm, fills=None, above=None):
        found = enumerate_cycles(cx, max_norm, fills, above)
        calls.append((fills, found))
        return found

    monkeypatch.setattr(filling, "enumerate_cycles", recording)
    seen = Counter()
    for name, build in _corpus_torsion_and_subdivisions():
        k = 4 if name == "z3-moore-3-barycentric" else 6  # its Q LPs are slow
        for ring in (INT, RAT):
            cx, fresh = build(), build()
            calls.clear()
            table = fv(cx, k, ring)
            [(fills, found)] = calls
            circuit_cycles = _circuit_cycles(fills)
            assert not [key for _, key, _ in found if key in circuit_cycles], (name, ring)
            seen["repeated circuits"] += sum(
                1 for _, key, _ in found
                if len({abs(c) for _, c in key}) == 1 and abs(key[0][1]) > 1)
            brute = []
            by_length = {}
            for circuit in circuit_masks(fresh, k).values():
                value = filling_norm(fresh, circuit.induced_cycle(), ring).value
                by_length.setdefault(circuit.length, []).append((value, circuit))
            ties = {}  # length -> the least serialization of each circuit of largest fill
            for length, group in sorted(by_length.items()):
                if length > _fill_stop(table) or any(v is INF for v, _ in group):
                    break
                top = max(v for v, _ in group)
                ties[length] = sorted(min(c.induced_cycle().serialize(),
                                          c.induced_cycle().neg().serialize())
                                      for v, c in group if v == top)
                brute.append((length, ties[length][0], top))
            peaks = filling._circuit_peaks(fills)
            assert _peak_faults(peaks, fills, brute) == [], (name, ring)
            seen["lengths"] += len(peaks)
            for j, (length, key, i) in enumerate(peaks):
                if len(ties[length]) > 1:
                    seen["ties"] += 1
                    doctored = list(peaks)
                    doctored[j] = (length, ties[length][-1], i)
                    assert _peak_faults(doctored, fills, brute), (name, ring, length)
    assert seen["lengths"] >= 50 and seen["ties"] >= 40, seen
    assert seen["repeated circuits"] >= 50, seen


def test_linear_bound_via_circuit_ratios():
    # FV(k) <= k * max over circuits of length <= k of fill(c)/|c|
    for name, build in CORPUS:
        cx = build()
        if not cx.faces:
            continue
        kmax = 4
        for ring in (INT, RAT):
            table = fv(cx, kmax, ring)
            for k in range(1, kmax + 1):
                circuits = enumerate_circuits(cx, None, k)
                ratios = []
                infinite = False
                for c in circuits:
                    v = filling_norm(cx, c.induced_cycle(), ring).value
                    if v is INF:
                        infinite = True
                        break
                    ratios.append(Fraction(v, c.length))
                if infinite:
                    continue
                bound = k * max(ratios) if ratios else 0
                assert table.value(k) <= bound, (name, ring, k)


def test_infinite_value_ordering():
    assert INF == INF and not (INF < INF) and INF <= INF
    assert INF > 1000 and 1000 < INF
    assert not (INF <= Fraction(10 ** 9))
    assert Fraction(1, 2) <= INF


def test_minimize_on_line_matches_oracle():
    # int and Fraction pairs; copies and multiples of one entry share its
    # breakpoint, so most lines have repeated breakpoints
    rng = random.Random(41)
    for trial in range(3000):
        n = rng.randint(1, 9)
        rational = trial % 2 == 1

        def entry(bound):
            v = rng.randint(-bound, bound)
            return Fraction(v, rng.randint(1, 4)) if rational and rng.random() < 0.6 else v

        mu = [entry(6) for _ in range(n)]
        z = [entry(3) for _ in range(n)]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            c = rng.choice((1, 2, -1, -3))
            mu[j], z[j] = mu[i] * c, z[i] * c
        if trial % 50 == 0:
            z = None if trial % 100 == 0 else [0] * n
        # the line takes mu as ints over one denominator and an int z: scale
        # z by its own lcm (both sides get the same z)
        if z is not None:
            z_scale = lcm(*(Fraction(w).denominator for w in z))
            z = [int(w * z_scale) for w in z]
        den = lcm(*(Fraction(m).denominator for m in mu))
        big_m = [int(m * den) for m in mu]
        # the package takes M and the minimizer as their nonzeros, and z as
        # its line; a kernel vector is never zero, so a zero z is no line
        line = filling._line(nonzeros(z)) if z is not None and any(z) else None
        for integral in (False, True):
            x, x_den, val = filling._minimize_on_line(nonzeros(big_m), den, line, integral)
            want_x, want_val = minimize_on_line(mu, z, integral)
            assert ([Fraction(v, x_den) for v in dense(x, n)], val) == (want_x, want_val), (
                mu, z, integral)
            assert all(type(v) is int and v for v in x.values())
            assert type(x_den) is int and x_den > 0 and type(val) is Fraction


def _largest_circuit_fill(cx, k, ring):
    circuits = enumerate_circuits(cx, None, k) if k else []
    return max((filling_norm(cx, c.induced_cycle(), ring).value for c in circuits), default=0)


def test_fv_value_matches_table_and_all_cycles_oracle(monkeypatch):
    # FV(k) alone equals the table's entry at k, and the all-cycles running
    # maximum where that oracle finishes; its candidates, the cycles with a
    # split summing above the largest circuit fill T, are those of the dict
    # search asked for the same threshold
    calls = []

    def recording(cx, max_norm, fills=None, above=None):
        found = enumerate_cycles(cx, max_norm, fills, above)
        calls.append((cx, max_norm, fills, above, found))
        return found

    monkeypatch.setattr(filling, "enumerate_cycles", recording)
    small = CORPUS + [(name, build) for name, build in TORSION
                      if name != "z3-moore-3-barycentric"]
    small += [("disk2x2", lambda: grid_disk(2, 2)), ("disk2x3", lambda: grid_disk(2, 3))]
    large = [("z3-moore-3-barycentric", dict(TORSION)["z3-moore-3-barycentric"]),
             ("disk3x3", lambda: grid_disk(3, 3)), ("S3-coned", lambda: coned_s3().complex),
             ("S4-coned", lambda: coned_s4().complex),
             ("tetrahedron''", lambda: subdivide(tetrahedron(), BARYCENTRIC).complex)]
    infinite = above_t = 0
    for name, build in small + large:
        for ring in (INT, RAT):
            # the Q LPs of the barycentric Moore loop are slow beyond k = 4
            kmax = 4 if (name, ring) == ("z3-moore-3-barycentric", RAT) else 8
            cx = build()
            table = fv(cx, kmax, ring)
            if (name, build) in small:
                want = all_cycles_fv(cx, kmax, ring)[0]
            for k in range(1, kmax + 1):
                calls.clear()
                got = filling.fv_value(cx, k, ring)
                value_calls = list(calls)
                assert got == table.value(k), (name, ring, k)
                if (name, build) in small:
                    assert got == want[k], (name, ring, k)
                if got is INF:
                    infinite += 1
                    assert not value_calls
                    continue
                assert type(got) is (int if ring == INT else Fraction)
                [(called, max_norm, fills, above, found)] = value_calls
                assert max_norm == k and above == _largest_circuit_fill(called, k, ring)
                keys = [c.serialize() for c in dict_conformal_search(called, k, fills, above)]
                assert [key for _, key, _ in found] == keys, (name, ring, k)
                assert [norm for norm, _, _ in found] == [
                    sum(abs(c) for _, c in key) for key in keys], (name, ring, k)
                above_t += got > above
    assert infinite >= 20 and above_t >= 20, (infinite, above_t)


def test_fv_value_exceeds_the_largest_circuit_fill():
    # FV above T, the largest fill of a circuit: a value that stops at T
    # fails these
    for cx, k, value, t in ((tetrahedron(), 7, 3, 2), (tetrahedron(), 8, 4, 2),
                            (coned_s4().complex, 6, 2, 1)):
        assert _largest_circuit_fill(cx, k, INT) == t
        assert filling.fv_value(cx, k, INT) == value == fv(cx, k, INT).value(k)
    assert filling.fv_value(tetrahedron(), 0, INT) == 0
    with pytest.raises(ValueError):
        filling.fv_value(tetrahedron(), -1, INT)


def test_fv_value_solves_each_cycle_once_per_complex(monkeypatch):
    # fv_value at k = 1..8 on one complex, then fv up to 8 in the same ring,
    # fill each cycle once up to sign, a circuit by a packed fill or a solve
    # and another cycle by a solve: the fills of a ring stay on the complex
    filled = _record_fills(monkeypatch)
    for build, rings in ((tetrahedron, (INT, RAT)), (lambda: grid_disk(2, 3), (INT, RAT)),
                         (lambda: coned_s3().complex, (INT, RAT)),
                         (lambda: subdivide(tetrahedron(), BARYCENTRIC).complex, (INT,))):
        for ring in rings:
            cx = build()
            filled.clear()
            values = [filling.fv_value(cx, k, ring) for k in range(1, 9)]
            assert [route for route, _, _ in filled].count("packed") > 3
            assert fv(cx, 8, ring).values[1:] == tuple(values)
            keys = [(r, min(terms, tuple((i, -c) for i, c in terms))) for _, terms, r in filled]
            assert len(keys) == len(set(keys)), (ring, len(keys) - len(set(keys)))


def _gate_faults(cx, ring, entries, filled, top):
    """What is wrong with the gate fv and fv_value run over ``entries``, the
    (norm, serialization, bound, value or None) entries they read in their
    order (the candidates of one ``enumerate_cycles`` call, each without a
    value, and for fv the circuit peaks, each with its value), from the
    running maximum ``top``; ``filled`` holds the serializations the call
    filled.  Every entry is filled here by ``filling_norm``: its bound must
    be >= that fill, and a value, when one comes with it, must equal it; an
    entry left unfilled without a value must have a bound <= the running
    maximum before it."""
    faults = []
    for _, key, bound, value in entries:
        if not key:
            continue
        fill = filling_norm(cx, Chain(1, INT, dict(key)), ring).value
        if bound < fill:
            faults.append(("bound below the fill", key, bound, fill))
        if value is not None and value != fill:
            faults.append(("value is not the fill", key, value, fill))
        if value is None and key not in filled and bound > top:
            faults.append(("skipped above the maximum", key, bound, top))
        top = max(top, fill)
    return faults


def test_candidate_fills_are_skipped_only_below_the_running_maximum(monkeypatch):
    # fv and fv_value fill a candidate only when its least split sum, which
    # bounds its fill, exceeds the running maximum; the gate's checks hold on
    # every entry, the circuit peaks fv merges in included, and a bound
    # lowered by one below a fill it attained fails them
    calls, filled = [], set()
    cycle_fill, enumerate_cycles_ = filling._cycle_fill, filling.enumerate_cycles

    def recording_fill(ctx, key, ring):
        filled.add(key)
        return cycle_fill(ctx, key, ring)

    def recording(cx, max_norm, fills=None, above=None):
        found = enumerate_cycles_(cx, max_norm, fills, above)
        calls.append((cx, fills, above, found))
        return found

    monkeypatch.setattr(filling, "_cycle_fill", recording_fill)
    monkeypatch.setattr(filling, "enumerate_cycles", recording)
    cases = CORPUS + TORSION
    cases += [(name + "''", lambda build=build: subdivide(build(), BARYCENTRIC).complex)
              for name, build in CORPUS if build().faces]
    skipped = Counter()
    lowered = peaks = 0
    for name, build in cases:
        kmax = 4 if name == "z3-moore-3-barycentric" else 6  # its Q LPs are slow
        for ring in (INT, RAT):
            cx = build()
            zero = 0 if ring == INT else Fraction(0)
            runs = [("fv", lambda: fv(cx, kmax, ring))]
            runs += [("fv_value", lambda k=k: filling.fv_value(cx, k, ring))
                     for k in range(1, kmax + 1)]
            for entry, run in runs:
                calls.clear()
                filled.clear()
                run()
                if not calls:  # an unfillable circuit: no candidates
                    continue
                [(called, fills, above, found)] = calls
                top = zero if above is None else above
                entries = [(norm, key, bound, None) for norm, key, bound in found]
                if above is None:
                    circuit_peaks = [(length, key, fills[i][1], fills[i][1])
                                     for length, key, i in filling._circuit_peaks(fills)]
                    entries = sorted(entries + circuit_peaks, key=lambda e: e[:2])
                    peaks += len(circuit_peaks)
                assert _gate_faults(called, ring, entries, set(filled), top) == [], (
                    name, ring, entry)
                skipped[entry] += sum(1 for _, key, _, value in entries
                                      if key and value is None and key not in filled)
                # a tight candidate, whose bound is its fill, with its bound
                # lowered by one
                for j, (norm, key, bound, value) in enumerate(entries):
                    if (key and value is None and bound
                            == filling_norm(called, Chain(1, INT, dict(key)), ring).value):
                        doctored = list(entries)
                        doctored[j] = (norm, key, bound - 1, value)
                        assert _gate_faults(called, ring, doctored, set(filled), top), (
                            name, ring, entry, key)
                        lowered += 1
                        break
    assert skipped["fv"] >= 200 and skipped["fv_value"] >= 200, skipped
    assert lowered >= 40 and peaks >= 50, (lowered, peaks)
