"""Exact linear algebra over the integers and rationals.

A matrix comes as its columns, each the (row, entry) nonzeros of one
column, and its row count, and all results are exact; a rational solution
comes back as an int vector over one common denominator.  The Smith normal
form is the one factorization: integral and rational solves, the kernel
and the invariant factors all read it.  It is sparse, and so are its
factors u and v, so the repeated solve keeps them as lists of column
nonzeros and costs the support of its right-hand side, not the size of the
matrix: it takes the right-hand side as its (row, entry) nonzeros and
returns the solution as its nonzeros.
"""


def _add(dst, src, q):
    """dst += q * src for dicts {index: entry} of nonzeros, q not 0."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def smith_normal_form(columns, rows):
    """(u, d, v) with u*a*v = diag(d), u and v unimodular, for the rows x
    len(columns) matrix a given as the (row, entry) nonzeros of each column.

    u comes as its rows and v as its columns, each a dict {index: entry} of
    its nonzeros (v's in ascending index order), and d as the nonzero
    diagonal: each entry is positive and divides the next, so d lists the
    invariant factors and len(d) is the rank.

    The elimination runs on dict rows of a and u and on dict columns of v.
    A column swap only swaps two entries of the position <-> column maps,
    so the rows of a stay keyed by column.  Each pivot is the first entry
    of least |entry| in (row, position) order over the remaining block,
    and the row and column passes, the divisibility folds and the sign fix
    make the operations of the dense elimination in its order, so the
    factors are the dense ones entry for entry.
    """
    cols = len(columns)
    d = [{} for _ in range(rows)]
    for j, column in enumerate(columns):
        for i, c in column:
            d[i][j] = c
    u = [{i: 1} for i in range(rows)]
    v = [{j: 1} for j in range(cols)]  # by column, like the rows of d
    key = list(range(cols))  # position -> column
    pos = list(range(cols))  # column -> position

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_positions(s, t):
        key[s], key[t] = key[t], key[s]
        pos[key[s]], pos[key[t]] = s, t

    def clear_once(t):
        # one row pass and one column pass at pivot t; True when neither
        # swapped, and then row t and column t are clear off the pivot
        kt = key[t]
        below = []  # the rows under t that meet column t after the row pass
        for i in [i for i in range(t + 1, rows) if kt in d[i]]:
            q = d[i][kt] // d[t][kt]
            if q:
                _add(d[i], d[t], -q)
                _add(u[i], u[t], -q)
            if kt in d[i]:
                swap_rows(t, i)
                below.append(i)  # the old row t, which meets column t
        clean = not below
        # a column op adds a multiple of column t to column j: in row t and
        # in the rows of ``below``, rescanned after a column swap
        pivot_row = d[t]
        for j in sorted(pos[c] for c in pivot_row if c != kt):
            kt, kj = key[t], key[j]
            q = pivot_row[kj] // pivot_row[kt]
            if q:
                if below is None:
                    below = [i for i in range(t + 1, rows) if kt in d[i]]
                for row in [pivot_row] + [d[i] for i in below]:
                    y = row.get(kj, 0) - q * row[kt]
                    if y:
                        row[kj] = y
                    else:
                        del row[kj]
                _add(v[kj], v[kt], -q)
            if kj in pivot_row:
                swap_positions(t, j)
                below = None
                clean = False
        return clean

    t = 0
    while t < min(rows, cols):
        best = None  # (|entry|, row)
        for i in range(t, rows):
            if d[i]:
                least = min(map(abs, d[i].values()))
                if best is None or least < best[0]:
                    best = (least, i)
                    if least == 1:
                        break  # nothing beats a unit
        if best is None:
            break
        least, i = best
        j = min(pos[c] for c, e in d[i].items() if abs(e) == least)
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_positions(t, j)
        while True:
            while not clear_once(t):
                pass
            p = d[t][key[t]]
            if p in (1, -1):
                break  # a unit divides everything
            # divisibility: fold a non-multiple into row t and re-clear
            bad = next((i for i in range(t + 1, rows) if any(e % p for e in d[i].values())),
                       None)
            if bad is None:
                break
            _add(d[t], d[bad], 1)
            _add(u[t], u[bad], 1)
        if d[t][key[t]] < 0:
            d[t][key[t]] = -d[t][key[t]]
            u[t] = {k: -x for k, x in u[t].items()}
        t += 1
    return u, [d[s][key[s]] for s in range(t)], [dict(sorted(v[c].items())) for c in key]


def solve_integer(snf, b):
    """One integral solution x of a*x = b, or None if there is none, for
    the Smith form ``snf`` of a: the rational solution X / D, when D divides
    every entry of X."""
    solver = RationalSolver(snf)
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


def integer_kernel_basis(snf):
    """Basis of the lattice {x integral : a*x = 0} for the Smith form
    ``snf`` of a: the columns of v from the rank on, as dicts {index:
    entry} of their nonzeros in ascending index order."""
    _, d, v = snf
    return v[len(d):]


class RationalSolver:
    """Repeated exact solves of a*x = b over Q, read off the Smith form
    ``snf`` of a.

    With u*a*v = d, a*x = b has a rational solution exactly when u*b
    vanishes from the rank on, and then x = v*y with y_i = (u*b)_i / d_i.
    The last invariant factor D is a multiple of every other, so D*y is
    an int vector, and so is X = v*(D*y): the solution is X / D.  As v is
    unimodular, X lies in D*Z^n exactly when D*y does, that is when every
    d_i divides (u*b)_i: then X / D is the integral solution v*y.
    """

    def __init__(self, snf):
        u, d, v = snf
        self.rank = len(d)
        self.denominator = d[-1] if d else 1
        self.scale = [self.denominator // di for di in d]
        # the (row, entry) nonzeros of each column of u, by one transpose;
        # y is zero from the rank on, so only the first rank columns of v count
        self.u_columns = [[] for _ in u]
        for i, row in enumerate(u):
            for j, c in row.items():
                self.u_columns[j].append((i, c))
        self.v_columns = [list(column.items()) for column in v[:self.rank]]
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
