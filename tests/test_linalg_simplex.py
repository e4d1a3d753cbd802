import random

from fractions import Fraction

from finefill import linalg
from finefill.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

from instances import CORPUS
from oracles import determinant_divisor_factors, fraction_solve_lp, rref_rational_solve


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
        assert linalg.mat_vec(a, v) == dense


def test_snf_randomized():
    rng = random.Random(99)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        u, d, v = linalg.smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i] != 0 and diag[i + 1] != 0:
                assert diag[i + 1] % diag[i] == 0
        assert all(x >= 0 for x in diag)
        # unimodularity
        assert abs(_det(u)) == 1 and abs(_det(v)) == 1


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
        assert linalg.invariant_factors(a) == determinant_divisor_factors(a)


def test_integer_solve_round_trip():
    rng = random.Random(31)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        x0 = [rng.randint(-3, 3) for _ in range(cols)]
        b = [sum(a[i][j] * x0[j] for j in range(cols)) for i in range(rows)]
        x = linalg.solve_integer(a, b)
        assert x is not None
        assert [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)] == b
        for k in linalg.integer_kernel_basis(a):
            assert all(sum(a[i][j] * k[j] for j in range(cols)) == 0 for i in range(rows))


def test_integer_solve_infeasible():
    assert linalg.solve_integer([[2]], [1]) is None
    assert linalg.solve_integer([[2, 4]], [3]) is None


def test_rational_solver():
    rs = linalg.RationalSolver([[2]])
    assert rs.solve([Fraction(1)]) == [Fraction(1, 2)]
    rs = linalg.RationalSolver([[1, 1], [1, 1]])
    assert rs.solve([Fraction(1), Fraction(2)]) is None
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
    matrices += [build().boundary_matrix_2() for _, build in CORPUS]  # double-traversal: [[2]]
    seen = {"feasible": 0, "infeasible": 0, "factor > 1": 0, "rank-deficient": 0}
    for a in matrices:
        rows, cols = len(a), len(a[0]) if a else 0
        snf = linalg.smith_normal_form(a)
        solver = linalg.RationalSolver(a, snf=snf)
        factors = linalg.invariant_factors(a, snf=snf)
        seen["factor > 1"] += any(f > 1 for f in factors)
        seen["rank-deficient"] += solver.rank < min(rows, cols)
        for _ in range(3):
            if rng.random() < 0.5:
                x0 = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                      for _ in range(cols)]
                b = linalg.mat_vec(a, x0)
            else:
                b = [rng.randint(-4, 4) for _ in range(rows)]
            x = solver.solve(b)
            x_oracle = rref_rational_solve(a, b)
            assert (x is None) == (x_oracle is None), (a, b)
            if x is None:
                seen["infeasible"] += 1
                continue
            seen["feasible"] += 1
            assert linalg.mat_vec(a, x) == b, (a, b)
            diff = [p - q for p, q in zip(x, x_oracle)]
            assert not any(linalg.mat_vec(a, diff)), (a, b)
    assert min(seen.values()) >= 30, seen


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
