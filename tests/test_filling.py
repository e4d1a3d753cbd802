import random

import pytest
from fractions import Fraction

from finefill import (Chain, INF, INT, RAT, boundary, decompose_into_circuits,
                      enumerate_circuits, enumerate_cycles, filling_norm, fv,
                      homology_h1, linearity_report, superadditive_closure,
                      validate, weak_area)
from finefill import filling, linalg, simplex
from finefill.chains import require_circuit
from finefill.constructions import omega_n
from finefill.errors import HasFacesError, NotACycleError

from instances import (CORPUS, CORPUS_GRAPHS, double_traversal, hexagon,
                       hexagon_chord, k4_graph, square_face, tetrahedron,
                       triangle_face, triangle_graph)
from oracles import (exhaustive_int_filling, fraction_solve_lp,
                     full_box_branch_and_bound, lp_route_filling_value,
                     minimize_on_line, partition_maximum, rref_rational_solve)


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


def test_rationally_infeasible_label_in_both_rings(monkeypatch):
    # two loops, one face on the first: the second loop bounds nothing, not
    # even over Q
    cx = validate("v", [("e0", "v", "v"), ("e1", "v", "v")], [("f", [(1, "e0")])])
    gamma = Chain(1, INT, {"e1": 1})
    rq = filling_norm(cx, gamma, RAT)
    assert rq.value is INF and rq.certificate == "RATIONALLY_INFEASIBLE"

    def no_rational_factorization(*args):
        raise AssertionError("an integral query built the rational factorization")

    monkeypatch.setattr(linalg, "RationalSolver", no_rational_factorization)
    fresh = validate("v", [("e0", "v", "v"), ("e1", "v", "v")], [("f", [(1, "e0")])])
    rz = filling_norm(fresh, gamma, INT)
    assert rz.value is INF and rz.certificate == "RATIONALLY_INFEASIBLE"
    assert filling_norm(fresh, Chain(1, INT, {"e0": 3}), INT).value == 3


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

    def counting(a):
        factored.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    triangle = Chain(1, INT, {"e12": 1, "e23": 1, "e13": -1})
    assert homology_h1(cx).trivial
    assert filling_norm(cx, triangle, INT).value == 1
    assert len(filling._context(cx).kernel) <= 1
    assert filling_norm(cx, triangle, RAT).value == 1
    square = Chain(1, INT, {"e12": 1, "e24": 1, "e34": -1, "e13": -1})
    assert filling_norm(omega, triangle, RAT).value == 1
    assert filling_norm(omega, square, RAT).value == 1
    assert factored.count(cx.boundary_matrix_2()) == 1
    assert factored.count(omega.boundary_matrix_2()) == 1
    assert len(filling._context(omega).kernel) >= 2


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
        z = ctx.kernel[0] if ctx.kernel else None
        for cycle in enumerate_cycles(cx, 4):
            ctx.value_cache.clear()  # a cached -cycle would hand back its witness negated
            res = filling_norm(cx, cycle, RAT)
            particular = rref_rational_solve(ctx.d2, ctx.gamma_vector(cycle))
            if particular is None:
                assert res.value is INF, (name, cycle.coeffs)
                continue
            x, val = filling._minimize_on_line(particular, z, integral=False)
            assert res.value == val, (name, cycle.coeffs)
            assert res.witness == ctx.chain_from_vector(x, RAT), (name, cycle.coeffs)
            lines += z is not None
    assert lines >= 10


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
        vec = ctx.gamma_vector(cycle)
        mu_int = linalg.solve_integer(ctx.d2, vec, snf=ctx.snf)
        if mu_int is None:
            continue
        x, val = filling._branch_and_bound(ctx, vec, mu_int)
        start = filling._reduce_by_kernel(mu_int, ctx.kernel)
        y, want = full_box_branch_and_bound(ctx.d2, vec, start, solve_lp)
        assert val == want, cycle.coeffs
        for witness in (x, y):
            mu = ctx.chain_from_vector(witness, INT)
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
        ctx = filling._context(cx)
        if len(cx.faces) - linalg.snf_rank(ctx.snf[1]) < 2:
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
            steps = cx.incident(cur)
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
        for integral in (False, True):
            x, val = filling._minimize_on_line(mu, z, integral)
            want_x, want_val = minimize_on_line(mu, z, integral)
            assert (x, val) == (want_x, want_val), (mu, z, integral)
            assert [type(v) for v in x] == [type(v) for v in want_x]
            assert type(val) is type(want_val)
