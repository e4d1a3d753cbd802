"""Exact two-phase simplex over the rationals, pivoted fraction-free.

Minimizes c.x subject to equality and upper-bound rows with x >= 0.  The
tableau holds Python ints over one common denominator D (Bareiss, Math.
Comp. 1968; the integer pivoting of Avis's lrs): the rational tableau is
T / D, every basic column is D times a unit vector, and a pivot on the
entry p replaces each entry by (t * p - t_c * t_r) // D, a division that
is always exact, before D becomes p.  Pivoting follows Bland's rule, so
the solver terminates, and the optimum it reports is exact: x and the
value come back as Fractions.  Problem sizes here are small; no effort is
spent on sparsity.
"""

from fractions import Fraction
from math import lcm

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"


def solve_lp(c, a_eq, b_eq, a_ub=None, b_ub=None):
    """Return (status, x, value); x and value are None unless OPTIMAL."""
    a_ub = a_ub or []
    b_ub = b_ub or []
    n = len(c)
    n_slack = len(a_ub)
    rows = []
    for row, rhs in zip(a_eq, b_eq):
        rows.append(list(row) + [0] * n_slack + [rhs])
    for i, (row, rhs) in enumerate(zip(a_ub, b_ub)):
        r = list(row) + [0] * n_slack + [rhs]
        r[n + i] = 1
        rows.append(r)
    m = len(rows)
    n_struct = n + n_slack
    total = n_struct + m  # one artificial per row
    # Every constraint row is scaled by one common lcm of the denominators, so
    # each artificial variable stands for the same multiple of the rational
    # one: phase 1 then makes the pivots of the rational tableau.
    scale = lcm(1, *(v.denominator for r in rows for v in r))
    tab = []
    for i, r in enumerate(rows):
        r = [int(v * scale) for v in r]
        if r[-1] < 0:
            r = [-v for v in r]
        art = [0] * m
        art[i] = 1
        tab.append(r[:-1] + art + r[-1:])
    basis = [n_struct + i for i in range(m)]
    d = 1  # the common denominator D of the tableau and the cost row

    # phase 1: minimize the sum of artificials
    cost = [0] * n_struct + [1] * m + [0]
    for row in tab:
        cost = [cv - tv for cv, tv in zip(cost, row)]
    _, d = _pivot_until_optimal(tab, cost, basis, total, d)
    if cost[total] != 0:  # artificial sum > 0
        return INFEASIBLE, None, None

    # drive leftover artificials out of the basis where possible
    drop = []
    for i in range(m):
        if basis[i] >= n_struct:
            piv = next((j for j in range(n_struct) if tab[i][j] != 0), None)
            if piv is None:
                drop.append(i)
            else:
                d = _pivot(tab, cost, basis, i, piv, d)
    for i in sorted(drop, reverse=True):
        del tab[i]
        del basis[i]

    # phase 2: original objective; the artificial columns are frozen at zero,
    # so they are dropped from the tableau
    tab = [row[:n_struct] + row[-1:] for row in tab]
    cscale = lcm(1, *(v.denominator for v in c))
    cint = [int(v * cscale) for v in c]
    cost = [d * v for v in cint] + [0] * (n_slack + 1)
    for row, bj in zip(tab, basis):
        f = cint[bj] if bj < n else 0
        if f:
            cost = [cv - f * tv for cv, tv in zip(cost, row)]
    status, d = _pivot_until_optimal(tab, cost, basis, n_struct, d)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = Fraction(tab[i][-1], d)
    value = Fraction(-cost[-1], d * cscale)
    return OPTIMAL, x, value


def _pivot_until_optimal(tab, cost, basis, ncols, d):
    """Pivot by Bland's rule until no reduced cost is negative: (status, D)."""
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return OPTIMAL, d
        # ratio test: least rhs/a over a > 0, compared by cross-multiplying
        # (the common denominator cancels); ties go to the least basic index
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a <= 0:
                continue
            if leave is not None:
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_a, best_b = i, a, row[-1]
        if leave is None:
            return UNBOUNDED, d
        d = _pivot(tab, cost, basis, leave, enter, d)


def _pivot(tab, cost, basis, row, col, d):
    """One Bareiss step on tab[row][col]: returns the new denominator, which
    it keeps positive."""
    p = tab[row][col]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row:
            tab[i] = _eliminate(r, prow, r[col], p, d)
    cost[:] = _eliminate(cost, prow, cost[col], p, d)
    if p < 0:
        for i, r in enumerate(tab):
            tab[i] = [-v for v in r]
        cost[:] = [-v for v in cost]
        p = -p
    basis[row] = col
    return p


def _eliminate(r, prow, f, p, d):
    """(r * p - f * prow) // d; the row itself when that is the identity."""
    if f == 0 and p == d:
        return r
    return [(v * p - f * w) // d for v, w in zip(r, prow)]
