"""Exact linear algebra over the integers and rationals.

Everything here works on dense row-major lists of Python ints or
Fractions.  Sizes are desk scale (hundreds of rows at most), so clarity
wins over asymptotics; all results are exact.  The Smith normal form is
the one factorization: integral and rational solves, the kernel and the
invariant factors all read it.
"""

from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    """a.v, reading only the nonzero entries of v."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nonzero) for row in a]


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
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < abs(best[2])):
                    best = (i, j, e)
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
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] != 0:
            out.append(d[i][i])
    return out


def solve_integer(a, b, snf=None):
    """One integral solution x of a*x = b, or None if there is none."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if snf is None:
        snf = smith_normal_form(a)
    u, d, v = snf
    ub = mat_vec(u, b)
    y = [0] * cols
    r = min(rows, cols)
    for i in range(r):
        di = d[i][i]
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    for i in range(r, rows):
        if ub[i] != 0:
            return None
    return mat_vec(v, y)


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
    The last invariant factor D is a multiple of every other, so y is kept
    as ints scaled by D and divided once at the end.
    """

    def __init__(self, a, snf=None):
        if snf is None:
            snf = smith_normal_form(a)
        self.u, d, self.v = snf
        self.rank = snf_rank(d)
        self.denominator = d[self.rank - 1][self.rank - 1] if self.rank else 1
        self.scale = [self.denominator // d[i][i] for i in range(self.rank)]

    def solve(self, b):
        """One rational solution of a*x = b, or None."""
        ub = mat_vec(self.u, b)
        if any(ub[self.rank:]):
            return None
        y = [0] * len(self.v)
        for i, s in enumerate(self.scale):
            y[i] = ub[i] * s
        return [Fraction(x, self.denominator) for x in mat_vec(self.v, y)]
