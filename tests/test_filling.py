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
from finefill.chains import require_circuit
from finefill.constructions import omega_n
from finefill.fineness import (GRAPH_SEARCH, SPECIAL_CHAIN, check_minimal_fillings_special,
                               enumerate_special_chains, fineness_certificate)
from finefill.hyperbolicity import all_pairs_distances, hyperbolicity_delta
from finefill.errors import HasFacesError, InternalError, NotACycleError

from instances import (CORPUS, CORPUS_GRAPHS, TORSION, bigon, coned_s3, coned_s4,
                       double_traversal,
                       figure8_one_face, grid_disk, hexagon, hexagon_chord,
                       k4_graph, square_face, tetrahedron, triangle_face,
                       triangle_face_open_square, triangle_graph)
from oracles import (RecordingCache, all_cycles_fv, chain_from_vector, dense, dense_d2,
                     dense_line_fill, dense_minimize_on_line, dense_rational_solve,
                     dict_conformal_search,
                     exhaustive_int_filling, fraction_solve_lp,
                     full_box_branch_and_bound, gamma_vector, incident, lp_route_filling_value,
                     minimize_on_line, multiset_cycles, nonzeros, partition_maximum,
                     rref_rational_solve, smith_integer_solve)


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


def test_candidate_search_matches_dict_oracle(monkeypatch):
    # the int search with sign masks returns the keys, in the order, of the
    # dict search with Fraction totals, for the fills fv passes it
    calls = []

    def recording(cx, max_norm, fills=None):
        found = enumerate_cycles(cx, max_norm, fills)
        calls.append((cx, max_norm, fills, found))
        return found

    monkeypatch.setattr(filling, "enumerate_cycles", recording)
    cases = CORPUS + TORSION + [("S3-coned", lambda: coned_s3().complex)]
    cases += [(name + "''", lambda build=build: subdivide(build(), BARYCENTRIC).complex)
              for name, build in CORPUS if build().faces]
    denominators, candidates, pruned = Counter(), 0, 0
    for name, build in cases:
        for ring in (INT, RAT):
            calls.clear()
            cx = build()
            for k in (3, 4 if name == "z3-moore-3-barycentric" else 6):  # its Q LPs are slow
                fv(cx, k, ring)
            assert len(calls) == 2, (name, ring)
            for cx, max_norm, fills, found in calls:
                want = dict_conformal_search(cx, max_norm, fills)
                keys = [key for key, _, _ in found]
                assert keys == [c.serialize() for c in want], (name, ring, max_norm)
                assert all(type(key) is tuple for key in keys), (name, ring)
                denominators[max((Fraction(v).denominator for _, v in fills), default=1)] += 1
                candidates += len(found)
                if len(found) < len(enumerate_cycles(cx, max_norm)):
                    pruned += 1
    # Q fills over denominators 2 (the double traversal's 1/2) and 3 (Moore loops)
    assert {2, 3} <= set(denominators), denominators
    assert candidates > 1000 and pruned >= 10, (candidates, pruned)
    # without fills every cycle comes back as a Chain, as the multiset oracle gives it
    for name, build in TORSION + [("S3-coned", lambda: coned_s3().complex),
                                  ("tetrahedron''", lambda: subdivide(tetrahedron(),
                                                                     BARYCENTRIC).complex)]:
        cx = build()
        for k in range(5):
            assert enumerate_cycles(cx, k) == multiset_cycles(cx, k), (name, k)


def test_fv_fills_no_candidate_that_only_ties(monkeypatch):
    # the tetrahedron's circuits are 4 triangles filling to 1 and 3 squares
    # filling to 2, so L(u) = L(4) = 2 from u = 4 on.  A cycle of norm u > 4
    # whose split only sums to 2 fills to at most FV(u - 1), so fv leaves it
    # unfilled: at k = 6 it fills the 7 circuits and nothing else, where the
    # rule that kept such ties also filled 10 pairs of triangles.
    solved, calls = [], []
    solve_vector, enumerate_cycles_ = filling._solve_vector, filling.enumerate_cycles

    def counting(ctx, terms, ring):
        solved.append(terms)
        return solve_vector(ctx, terms, ring)

    def recording(cx, max_norm, fills=None):
        found = enumerate_cycles_(cx, max_norm, fills)
        calls.append((cx, max_norm, fills, found))
        return found

    monkeypatch.setattr(filling, "_solve_vector", counting)
    monkeypatch.setattr(filling, "enumerate_cycles", recording)
    for ring in (INT, RAT):
        solved.clear()
        calls.clear()
        table = fv(tetrahedron(), 6, ring)
        assert len(solved) == 7, ring
        assert (list(table.values), list(table.witnesses)) == all_cycles_fv(tetrahedron(), 6, ring)
        [(cx, max_norm, fills, found)] = calls
        kept = [c.serialize() for c in dict_conformal_search(cx, max_norm, fills, keep_ties=True)]
        circuits = {c.serialize() for circuit, _ in fills
                    for c in (circuit.induced_cycle(), circuit.induced_cycle().neg())}
        assert {key for key, _, _ in found} <= circuits | {()}, ring
        assert len({key for key in kept if key not in circuits} - {()}) == 20, ring


def test_fv_circuit_fills_match_filling_norm(monkeypatch):
    # fv solves each circuit from its edge vector; the certificate and value
    # are those filling_norm gives the circuit's cycle, inf included
    solved = []
    solve_vector = filling._solve_vector

    def recording(ctx, terms, ring):
        result = solve_vector(ctx, terms, ring)
        solved.append((tuple(sorted(terms)), result[0], result[3]))
        return result

    monkeypatch.setattr(filling, "_solve_vector", recording)
    cases = CORPUS + CORPUS_GRAPHS[:4] + TORSION + [
        ("S3-coned", lambda: coned_s3().complex), ("disk3x3", lambda: grid_disk(3, 3)),
        ("omega4-K4", lambda: omega_n(k4_graph(), 4)),
        ("triangle-face+open-square", triangle_face_open_square),
        ("figure8-one-face", figure8_one_face)]
    cases += [(name + "''", lambda build=build: subdivide(build(), BARYCENTRIC).complex)
              for name, build in CORPUS if build().faces]
    kmax = 5
    checked, certificates, kernel_ranks = Counter(), Counter(), set()
    for name, build in cases:
        for ring in (INT, RAT):
            cx = build()
            solved.clear()
            table = fv(cx, kmax, ring)
            inside = {vec: (certificate, value) for vec, certificate, value in solved}
            ctx = filling._context(cx)
            # circuits are filled up to the first length holding an unfillable one
            stop = next((k for k in range(kmax + 1) if table.value(k) is INF), kmax)
            fresh = build()
            for circ in enumerate_circuits(cx, None, stop) if stop else ():
                cycle = circ.induced_cycle()
                want = filling_norm(fresh, cycle, ring)
                got = inside[tuple(sorted(ctx.terms(cycle.coeffs.items())))]
                assert got == (want.certificate, want.value), (name, ring, circ.walk)
                assert type(got[1]) is type(want.value), (name, ring, circ.walk)
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


def test_fv_rechecks_a_spoiled_particular_solution(monkeypatch):
    # the particular solution of every circuit fill goes through the int
    # re-check inside fv too; the spoiled fill raises and caches no table
    for build in (tetrahedron, triangle_face, bigon):
        for ring in (INT, RAT):
            cx = build()
            ctx = filling._context(cx)
            solve = ctx.rat.solve

            def spoiled(vec, solve=solve):
                result = solve(vec)
                if result is None:
                    return None
                x, den = result
                x = dict(x)
                x[0] = x.get(0, 0) + den
                return {j: v for j, v in x.items() if v}, den

            monkeypatch.setattr(ctx.rat, "solve", spoiled)
            with pytest.raises(InternalError, match="witness boundary mismatch"):
                fv(cx, 4, ring)
            monkeypatch.setattr(ctx.rat, "solve", solve)
            assert fv(cx, 4, ring) == fv(build(), 4, ring), (build.__name__, ring)


def test_fv_zero_entry_monotone_and_ring_comparison():
    for name, build in CORPUS:
        cx = build()
        tz = fv(cx, 4, INT)
        tq = fv(cx, 4, RAT)
        assert tz.value(0) == 0 and tq.value(0) == 0
        for k in range(1, 5):
            assert tz.value(k - 1) <= tz.value(k), name
            assert tq.value(k - 1) <= tq.value(k), name
            assert tq.value(k) <= tz.value(k), name


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
                assert [key for key, _, _ in found] == keys, (name, ring, k)
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
    # solve each cycle once up to sign: the fills of a ring stay on the complex
    solved = []
    solve = filling._solve_vector

    def counted(ctx, terms, ring):
        solved.append((ring, tuple(sorted(terms))))
        return solve(ctx, terms, ring)

    monkeypatch.setattr(filling, "_solve_vector", counted)
    for build, rings in ((tetrahedron, (INT, RAT)), (lambda: grid_disk(2, 3), (INT, RAT)),
                         (lambda: coned_s3().complex, (INT, RAT)),
                         (lambda: subdivide(tetrahedron(), BARYCENTRIC).complex, (INT,))):
        for ring in rings:
            cx = build()
            solved.clear()
            values = [filling.fv_value(cx, k, ring) for k in range(1, 9)]
            assert solved
            assert fv(cx, 8, ring).values[1:] == tuple(values)
            keys = [(r, min(terms, tuple((i, -c) for i, c in terms))) for r, terms in solved]
            assert len(keys) == len(set(keys)), (ring, len(keys) - len(set(keys)))


def _gate_faults(cx, ring, candidates, filled, top):
    """What is wrong with the gate fv and fv_value run over ``candidates``,
    the (serialization, value, bound) triples of one ``enumerate_cycles``
    call in its order, from the running maximum ``top``; ``filled`` holds
    the serializations the call filled.  Every candidate is filled here by
    ``filling_norm``: its bound must be >= that fill, and a value, when one
    comes with it, must equal it; a candidate left unfilled without a value
    must have a bound <= the running maximum before it."""
    faults = []
    for key, value, bound in candidates:
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
    # every candidate, and a bound lowered by one below a fill it attained
    # fails them
    calls, filled = [], set()
    fill_circuits, enumerate_cycles_ = filling._fill_circuits, filling.enumerate_cycles

    def recording_fills(complex_, k_max, ring):
        fill, fills, unfillable = fill_circuits(complex_, k_max, ring)

        def recording(key):
            filled.add(key)
            return fill(key)

        return recording, fills, unfillable

    def recording(cx, max_norm, fills=None, above=None):
        found = enumerate_cycles_(cx, max_norm, fills, above)
        calls.append((cx, above, found))
        return found

    monkeypatch.setattr(filling, "_fill_circuits", recording_fills)
    monkeypatch.setattr(filling, "enumerate_cycles", recording)
    cases = CORPUS + TORSION
    cases += [(name + "''", lambda build=build: subdivide(build(), BARYCENTRIC).complex)
              for name, build in CORPUS if build().faces]
    skipped = Counter()
    lowered = 0
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
                [(called, above, found)] = calls
                top = zero if above is None else above
                assert _gate_faults(called, ring, found, set(filled), top) == [], (
                    name, ring, entry)
                skipped[entry] += sum(1 for key, value, _ in found
                                      if key and value is None and key not in filled)
                # a tight candidate, whose bound is its fill, with its bound
                # lowered by one
                for j, (key, value, bound) in enumerate(found):
                    if key and bound == filling_norm(called, Chain(1, INT, dict(key)), ring).value:
                        doctored = list(found)
                        doctored[j] = (key, value, bound - 1)
                        assert _gate_faults(called, ring, doctored, set(filled), top), (
                            name, ring, entry, key)
                        lowered += 1
                        break
    assert skipped["fv"] >= 200 and skipped["fv_value"] >= 200, skipped
    assert lowered >= 40, lowered
