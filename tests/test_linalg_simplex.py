import random

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from finefill import BARYCENTRIC, enumerate_cycles, filling, linalg, omega_n, subdivide
from finefill.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

from instances import CORPUS, TORSION, k4_graph, wheel_graph
from oracles import (dense, dense_d2, dense_rational_solve, dense_smith_factors,
                     dense_smith_normal_form, determinant_divisor_factors, fraction_solve_lp,
                     gamma_vector, mat_vec, nonzeros, rref_rational_solve, smith_form,
                     smith_integer_solve, sparse_columns)


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_mat_vec_matches_dense_product():
    rng = random.Random(17)
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 8)
        a = [[rng.choice((0, 0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4)))
              for _ in range(cols)] for _ in range(rows)]
        density = rng.random()
        v = [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 3)))
             if rng.random() < density else 0 for _ in range(cols)]
        dense = [sum(row[j] * v[j] for j in range(cols)) for row in a]
        assert mat_vec(a, v) == dense


def test_snf_randomized():
    rng = random.Random(99)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        u, d, v = dense_smith_factors(smith_form(a), rows, cols)
        assert matmul(matmul(u, a), v) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i] != 0 and diag[i + 1] != 0:
                assert diag[i + 1] % diag[i] == 0
        assert all(x >= 0 for x in diag)
        # unimodularity
        assert abs(_det(u)) == 1 and abs(_det(v)) == 1


def _complexes_for_smith_forms():
    complexes = [build() for _, build in CORPUS + TORSION]
    complexes += [subdivide(build(), BARYCENTRIC).complex
                  for _, build in CORPUS + TORSION[:3] if build().faces]
    complexes += [omega_n(k4_graph(), 4), omega_n(wheel_graph(4), 3)]
    return complexes


def test_smith_form_matches_scanning_oracle():
    # the unit shortcuts (stop the pivot search at the first +-1, skip the
    # divisibility scan under a unit pivot) give the same u, d and v
    matrices = [dense_d2(cx) for cx in _complexes_for_smith_forms()]
    rng = random.Random(314)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        # sparse entries without units make non-unit pivots and folds
        entries = rng.choice(((0, 0, 0, -3, -2, 2, 3), tuple(range(-3, 4))))
        matrices.append([[rng.choice(entries) for _ in range(cols)] for _ in range(rows)])
    seen = Counter()
    for a in matrices:
        events = Counter()
        rows, cols = len(a), len(a[0])
        want = dense_smith_normal_form(a, events, unit_shortcuts=False)
        assert dense_smith_factors(smith_form(a), rows, cols) == want, a
        assert dense_smith_normal_form(a) == want, a
        seen["non-unit pivot"] += events["non_unit_pivot"] > 0
        seen["fold"] += events["fold"] > 0
    assert seen["non-unit pivot"] >= 50 and seen["fold"] >= 20, seen


def test_sparse_smith_form_matches_dense_elimination():
    # the elimination on dict rows, dict columns of v and a position <->
    # column map makes the dense elimination's operations: densified, its
    # factors are the dense ones entry for entry, on the face columns of
    # the complexes, on random matrices whose steps include quotient-0
    # swaps and non-unit pivots, and on empty and all-zero shapes
    for cx in _complexes_for_smith_forms():
        a = dense_d2(cx)
        snf = linalg.smith_normal_form(cx.face_columns(), len(cx.edges))
        assert dense_smith_factors(snf, len(cx.edges), len(cx.faces)) == (
            dense_smith_normal_form(a)), cx
        assert snf == cx.smith_form_2()
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(2000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.random()
        a = [[rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
        events = Counter()
        want = dense_smith_normal_form(a, events)
        u, d, v = snf = linalg.smith_normal_form(sparse_columns(a), rows)
        assert dense_smith_factors(snf, rows, cols) == want, a
        assert all(v[j] == dict(sorted(v[j].items())) for j in range(cols))
        assert all(x > 0 for x in d) and all(y % x == 0 for x, y in zip(d, d[1:]))
        seen["quotient 0"] += events["zero_quotient"] > 0
        seen["non-unit pivot"] += events["non_unit_pivot"] > 0
        seen["factor > 1"] += any(x > 1 for x in d)
        seen["rank-deficient"] += len(d) < min(rows, cols)
    assert len(seen) == 4 and min(seen.values()) >= 20, seen
    # 0 x n, n x 0 and all-zero: identity factors and no invariant factor
    for rows, cols in ((0, 3), (3, 0), (0, 0), (2, 3)):
        u, d, v = linalg.smith_normal_form([[] for _ in range(cols)], rows)
        assert (u, d, v) == ([{i: 1} for i in range(rows)], [], [{j: 1} for j in range(cols)])
        if rows:
            zero = [[0] * cols for _ in range(rows)]
            assert dense_smith_factors((u, d, v), rows, cols) == dense_smith_normal_form(zero)


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_invariant_factors_against_minor_gcds():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert smith_form(a)[1] == determinant_divisor_factors(a)


def test_integer_solve_round_trip():
    rng = random.Random(31)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        x0 = [rng.randint(-3, 3) for _ in range(cols)]
        b = [sum(a[i][j] * x0[j] for j in range(cols)) for i in range(rows)]
        snf = smith_form(a)
        x = linalg.solve_integer(snf, b)
        assert x is not None
        assert [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)] == b
        for k in linalg.integer_kernel_basis(snf):
            k = dense(k, cols)
            assert all(sum(a[i][j] * k[j] for j in range(cols)) == 0 for i in range(rows))


def test_integer_solve_infeasible():
    assert linalg.solve_integer(smith_form([[2]]), [1]) is None
    assert linalg.solve_integer(smith_form([[2, 4]]), [3]) is None


def test_rational_solver():
    # x = X / D over the last invariant factor D; b and X as their nonzeros
    rs = linalg.RationalSolver(smith_form([[2]]))
    assert rs.solve([(0, 1)]) == ({0: 1}, 2)
    assert rs.solve([]) == ({}, 2)
    rs = linalg.RationalSolver(smith_form([[1, 1], [1, 1]]))
    assert rs.solve([(0, 1), (1, 2)]) is None
    assert rs.rank == 1


def _random_solver_matrix(rng):
    rows, cols = rng.randint(1, 6), rng.randint(0, 7)
    kind = rng.choice(("dense", "sparse", "low-rank", "scaled"))
    if kind == "low-rank":
        k = rng.randint(0, min(rows, cols))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
        a = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
             for i in range(rows)]
    else:
        density = 0.3 if kind == "sparse" else 1.0
        a = [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
        if kind == "scaled":
            scale = rng.choice((2, 3, 4, 6))
            a = [[scale * v for v in row] for row in a]
    if rows > 1 and rng.random() < 0.3:
        a[rng.randrange(rows)] = [0] * cols
    if cols > 1 and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in a:
            row[j] = 0
    return a


def test_rational_solver_matches_row_reduction_oracle():
    rng = random.Random(606)
    matrices = [_random_solver_matrix(rng) for _ in range(400)]
    matrices += [dense_d2(build()) for _, build in CORPUS]  # double-traversal: [[2]]
    seen = {"feasible": 0, "infeasible": 0, "factor > 1": 0, "rank-deficient": 0}
    for a in matrices:
        rows, cols = len(a), len(a[0]) if a else 0
        snf = smith_form(a)
        solver = linalg.RationalSolver(snf)
        seen["factor > 1"] += any(f > 1 for f in snf[1])
        seen["rank-deficient"] += solver.rank < min(rows, cols)
        for _ in range(3):
            if rng.random() < 0.5:
                x0 = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                      for _ in range(cols)]
                b = mat_vec(a, x0)
                # the solver takes an int b: clear b's denominators
                scale = lcm(*(Fraction(v).denominator for v in b))
                b = [int(v * scale) for v in b]
            else:
                b = [rng.randint(-4, 4) for _ in range(rows)]
            solution = solver.solve(nonzeros(b).items())
            x_oracle = rref_rational_solve(a, b)
            assert (solution is None) == (x_oracle is None), (a, b)
            if solution is None:
                seen["infeasible"] += 1
                continue
            seen["feasible"] += 1
            big_x, den = solution
            assert all(type(v) is int and v for v in big_x.values())
            assert type(den) is int and den > 0
            big_x = [big_x.get(j, 0) for j in range(cols)]
            assert mat_vec(a, big_x) == [den * v for v in b], (a, b)
            diff = [Fraction(p, den) - q for p, q in zip(big_x, x_oracle)]
            assert not any(mat_vec(a, diff)), (a, b)
    assert min(seen.values()) >= 30, seen


def test_sparse_solve_matches_dense_smith_products():
    # RationalSolver.solve sums u*b and v*y over the nonzero entries of b
    # and y only; the oracle forms both dense products.  (X, D) and None
    # agree, X as its nonzeros, on random matrices and on d2 of the corpus
    # and the torsion complexes, whose right-hand sides include every cycle
    # of norm <= 4.
    rng = random.Random(1212)
    matrices = [(_random_solver_matrix(rng), []) for _ in range(400)]
    for _, build in CORPUS + TORSION:
        ctx = filling._context(build())
        matrices.append((dense_d2(ctx.complex),
                         [gamma_vector(ctx, c) for c in enumerate_cycles(ctx.complex, 4)]))
    seen = Counter()
    for a, vectors in matrices:
        rows, cols = len(a), len(a[0]) if a else 0
        snf = smith_form(a)
        solver = linalg.RationalSolver(snf)
        seen["factor > 1"] += any(f > 1 for f in snf[1])
        seen["rank-deficient"] += solver.rank < min(rows, cols)
        for _ in range(3):
            if rng.random() < 0.5:
                b = mat_vec(a, [rng.randint(-3, 3) for _ in range(cols)])
                if any(b) and rng.random() < 0.5:
                    b = [v // gcd(*b) for v in b]
            else:
                b = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(rows)]
            vectors.append(b)
        for b in vectors:
            solution = solver.solve(nonzeros(b).items())
            want = dense_rational_solve(a, b, snf=snf)
            assert solution == (want and (nonzeros(want[0]), want[1])), (a, b)
            seen["infeasible" if solution is None else "feasible"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 30, seen


def test_integer_solve_matches_smith_division_oracle():
    # solve_integer reads the rational solution X / D; the oracle divides
    # u*b by the Smith diagonal.  Right-hand sides a*x0 solve integrally,
    # a*x0 over the gcd of its entries often only rationally, random ones
    # often not at all.
    rng = random.Random(1001)
    seen = Counter()
    for _ in range(300):
        a = _random_solver_matrix(rng)
        rows, cols = len(a), len(a[0])
        snf = smith_form(a)
        for kind in ("integral", "divided", "random"):
            b = mat_vec(a, [rng.randint(-4, 4) for _ in range(cols)])
            if kind == "divided" and any(b):
                b = [v // gcd(*b) for v in b]
            elif kind == "random":
                b = [rng.randint(-4, 4) for _ in range(rows)]
            x = linalg.solve_integer(snf, b)
            assert x == smith_integer_solve(a, b, snf=snf), (a, b)
            if x is not None:
                assert mat_vec(a, x) == b
                seen["integral"] += 1
            elif rref_rational_solve(a, b) is not None:
                seen["rational only"] += 1
            else:
                seen["none"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 30, seen


def test_lp_known_instances():
    # min p+n st 2p-2n = 1  -> 1/2
    st, x, v = solve_lp([1, 1], [[2, -2]], [1])
    assert st == OPTIMAL and v == Fraction(1, 2)
    st, _, _ = solve_lp([1], [[0]], [1])
    assert st == INFEASIBLE
    st, _, _ = solve_lp([-1], [], [], [[-1]], [0])
    assert st == UNBOUNDED


def test_lp_feasibility_of_reported_point():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 4)
        me, mu = rng.randint(0, 2), rng.randint(1, 2)
        c = [rng.randint(0, 4) for _ in range(n)]
        a_eq = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(me)]
        b_eq = [rng.randint(-3, 3) for _ in range(me)]
        a_ub = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(mu)]
        b_ub = [rng.randint(-3, 3) for _ in range(mu)]
        st, x, v = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
        if st != OPTIMAL:
            continue
        for r, b in zip(a_eq, b_eq):
            assert sum(Fraction(r[j]) * x[j] for j in range(n)) == b
        for r, b in zip(a_ub, b_ub):
            assert sum(Fraction(r[j]) * x[j] for j in range(n)) <= b
        assert all(xi >= 0 for xi in x)
        assert sum(Fraction(c[j]) * x[j] for j in range(n)) == v


def test_lp_matches_fraction_oracle():
    # the integer tableau must make the pivots of the Fraction tableau: same
    # status, same vertex, same value, also with Fraction coefficients, zero
    # costs and right-hand sides (ties, degenerate pivots) and redundant
    # equality rows (artificials that cannot be driven out)
    rng = random.Random(20240)

    def coef():
        v = rng.randint(-4, 4)
        return Fraction(v, rng.choice([1, 2, 3, 6])) if rng.random() < 0.3 else v

    def rhs():
        return coef() if rng.random() < 0.6 else 0

    statuses = set()
    for trial in range(400):
        n = rng.randint(1, 6)
        me, mu = rng.randint(0, 4), rng.randint(0, 4)
        c = [coef() for _ in range(n)]
        if trial % 2:
            c = [abs(v) for v in c]
        if trial % 3 == 0:
            c = [v if rng.random() < 0.5 else 0 for v in c]
        a_eq = [[coef() for _ in range(n)] for _ in range(me)]
        b_eq = [rhs() for _ in range(me)]
        if a_eq and trial % 5 == 0:
            k = rng.randrange(me)
            a_eq.append([2 * v for v in a_eq[k]])
            b_eq.append(2 * b_eq[k])
        a_ub = [[coef() for _ in range(n)] for _ in range(mu)]
        b_ub = [rhs() for _ in range(mu)]
        got = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
        assert got == fraction_solve_lp(c, a_eq, b_eq, a_ub, b_ub), trial
        statuses.add(got[0])
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_lp_ratio_ties_leave_by_least_basic_index():
    # a degenerate LP with many optimal vertices: the one returned depends on
    # breaking ratio-test ties by the least basic index, as Bland's rule does
    lp = ([0, 0, 0, 0, 4], [[1, 1, -3, 0, 0]], [0],
          [[-4, 3, 2, 3, 0], [-2, Fraction(-4, 3), 0, -4, 0], [-1, -3, -3, 1, -1]],
          [3, 4, Fraction(-4, 3)])
    want = (OPTIMAL, [Fraction(2, 3), 0, Fraction(2, 9), 0, 0], 0)
    assert fraction_solve_lp(*lp) == want
    assert solve_lp(*lp) == want
