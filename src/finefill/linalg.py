"""Exact linear algebra over the integers and rationals.

Matrices are dense row-major lists of Python ints, and all results are
exact; a rational solution comes back as an int vector over one common
denominator.  The Smith normal form is the one factorization: integral and
rational solves, the kernel and the invariant factors all read it.  Its
factors u and v are sparse, so the repeated solve keeps them as lists of
column nonzeros and costs the support of its right-hand side, not the
size of the matrix: it takes the right-hand side as its (row, entry)
nonzeros and returns the solution as its nonzeros.
"""

from itertools import compress, islice


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def sparse_columns(m, count=None):
    """The (row, entry) nonzeros of each of the first ``count`` columns of m
    (all of them by default), in one pass over its entries."""
    columns = zip(*m) if count is None else islice(zip(*m), count)
    return [list(compress(enumerate(col), col)) for col in columns]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, q):
    # row[dst] += q * row[src]
    rd, rs = m[dst], m[src]
    for k in range(len(rd)):
        rd[k] += q * rs[k]


def _add_col(m, dst, src, q):
    for row in m:
        row[dst] += q * row[src]


def smith_normal_form(a):
    """Return (u, d, v) with u*a*v = d diagonal, u and v unimodular.

    Diagonal entries are nonnegative and each divides the next, so the
    nonzero ones are the invariant factors of the matrix.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(row) for row in a]
    u = identity(rows)
    v = identity(cols)

    def pivot_at(t):
        # smallest nonzero |entry| in the remaining block keeps numbers tame
        # (the first least one; nothing beats a unit)
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < abs(best[2])):
                    best = (i, j, e)
                    if e in (1, -1):
                        return best
        return best

    def clear_once(t):
        # one pass of row/column elimination at pivot t; returns True when
        # every off-pivot entry in row t and column t is zero afterwards
        clean = True
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                _add_row(d, i, t, -q)
                _add_row(u, i, t, -q)
                if d[i][t] != 0:
                    _swap_rows(d, t, i)
                    _swap_rows(u, t, i)
                    clean = False
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                _add_col(d, j, t, -q)
                _add_col(v, j, t, -q)
                if d[t][j] != 0:
                    _swap_cols(d, t, j)
                    _swap_cols(v, t, j)
                    clean = False
        if clean:
            clean = all(d[i][t] == 0 for i in range(t + 1, rows)) and all(
                d[t][j] == 0 for j in range(t + 1, cols))
        return clean

    t = 0
    while t < min(rows, cols):
        piv = pivot_at(t)
        if piv is None:
            break
        i, j, _ = piv
        if i != t:
            _swap_rows(d, t, i)
            _swap_rows(u, t, i)
        if j != t:
            _swap_cols(d, t, j)
            _swap_cols(v, t, j)
        while True:
            while not clear_once(t):
                pass
            if d[t][t] in (1, -1):
                break  # a unit divides everything
            # divisibility: fold a non-multiple into row t and re-clear
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _add_row(d, t, bad, 1)
            _add_row(u, t, bad, 1)
        if d[t][t] < 0:
            for k in range(cols):
                d[t][k] = -d[t][k]
            for k in range(rows):
                u[t][k] = -u[t][k]
        t += 1
    return u, d, v


def snf_rank(d):
    n = min(len(d), len(d[0]) if d else 0)
    r = 0
    for i in range(n):
        if d[i][i] != 0:
            r += 1
    return r


def invariant_factors(a, snf=None):
    """Nonzero diagonal of the Smith form, in divisibility order."""
    if snf is None:
        snf = smith_normal_form(a)
    _, d, _ = snf
    return [d[i][i] for i in range(snf_rank(d))]


def solve_integer(a, b, snf=None):
    """One integral solution x of a*x = b, or None if there is none: the
    rational solution X / D, when D divides every entry of X."""
    solver = RationalSolver(a, snf=snf)
    solution = solver.solve([(i, v) for i, v in enumerate(b) if v])
    if solution is None:
        return None
    big_x, den = solution
    if any(v % den for v in big_x.values()):
        return None
    x = [0] * solver.width
    for j, v in big_x.items():
        x[j] = v // den
    return x


def integer_kernel_basis(a, snf=None):
    """Basis of the lattice {x integral : a*x = 0} (columns of x space)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if snf is None:
        snf = smith_normal_form(a)
    _, d, v = snf
    r = snf_rank(d)
    basis = []
    for j in range(r, cols):
        basis.append([v[i][j] for i in range(cols)])
    return basis


class RationalSolver:
    """Repeated exact solves of a*x = b over Q, read off a Smith form of a.

    With u*a*v = d, a*x = b has a rational solution exactly when u*b
    vanishes from the rank on, and then x = v*y with y_i = (u*b)_i / d_i.
    The last invariant factor D is a multiple of every other, so D*y is
    an int vector, and so is X = v*(D*y): the solution is X / D.  As v is
    unimodular, X lies in D*Z^n exactly when D*y does, that is when every
    d_i divides (u*b)_i: then X / D is the integral solution v*y.
    """

    def __init__(self, a, snf=None):
        if snf is None:
            snf = smith_normal_form(a)
        u, d, v = snf
        self.rank = snf_rank(d)
        self.denominator = d[self.rank - 1][self.rank - 1] if self.rank else 1
        self.scale = [self.denominator // d[i][i] for i in range(self.rank)]
        # y is zero from the rank on, so only the first rank columns of v count
        self.u_columns = sparse_columns(u)
        self.v_columns = sparse_columns(v, self.rank)
        self.width = len(v)

    def solve(self, b):
        """(X, D) with x = X / D a rational solution of a*x = b, or None when
        there is none.  b comes as its (row, entry) nonzeros and X as a dict
        {column: entry} of its nonzeros; u*b and v*y are summed over the
        nonzero entries of b and y only."""
        u_columns = self.u_columns
        ub = [0] * len(u_columns)
        for j, bj in b:
            for i, c in u_columns[j]:
                ub[i] += c * bj
        if any(ub[self.rank:]):
            return None
        x = {}
        for ubi, s, column in zip(ub, self.scale, self.v_columns):
            if ubi:
                yi = ubi * s
                for j, c in column:
                    x[j] = x.get(j, 0) + c * yi
        return {j: v for j, v in x.items() if v}, self.denominator
