"""Independent oracles the suites check the library against.

Nothing here shares code with the implementation paths it verifies:
fillings are exhaustive bounded searches, homology uses determinant
divisors, distances use Floyd-Warshall, four-point delta scans every
quadruple, cycle sets use raw coefficient vectors, circuit counts use
degree-two edge subsets, rational solves use Gauss-Jordan elimination
over Fractions, linear programs use a Fraction tableau,
integral fillings can also come from branch and bound that boxes every face
at every node, line minimizations rescan every entry at every breakpoint,
and special 2-chains come from a separate search per base edge over Chain
objects.  The one exception is :func:`lp_route_filling_value`, which runs
the package's own LP and branch and bound on every cycle, so that they
check the closed form the package takes at kernel rank <= 1.
"""

from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd

from finefill import Chain, INF, INT, RAT, boundary, filling, is_cycle, linalg
from finefill.chains import circuit_from_chain
from finefill.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED


def exhaustive_int_filling(cx, gamma, cap):
    """Least norm of an integral 2-chain with the given boundary, searching
    every chain of norm <= cap; None if none exists within the cap."""
    faces = [f.id for f in cx.faces]
    best = None

    def rec(i, rem, acc):
        nonlocal best
        ch = Chain(2, INT, dict(acc))
        if boundary(cx, ch) == gamma:
            v = ch.l1()
            if best is None or v < best:
                best = v
        if i == len(faces):
            return
        rec(i + 1, rem, acc)
        for c in range(1, rem + 1):
            for s in (1, -1):
                acc[faces[i]] = s * c
                rec(i + 1, rem - c, acc)
            del acc[faces[i]]

    rec(0, cap, {})
    return best


def fillings_of_norm(cx, gamma, norm):
    """Every integral 2-chain of norm exactly ``norm`` bounding ``gamma``."""
    faces = [f.id for f in cx.faces]
    out = []

    def rec(i, rem, acc):
        if rem == 0:
            ch = Chain(2, INT, dict(acc))
            if boundary(cx, ch) == gamma:
                out.append(ch)
            return
        if i == len(faces):
            return
        rec(i + 1, rem, acc)
        for c in range(1, rem + 1):
            for s in (1, -1):
                acc[faces[i]] = s * c
                rec(i + 1, rem - c, acc)
            del acc[faces[i]]

    rec(0, norm, {})
    return out


def brute_cycles(cx, k):
    """Serializations of all integral 1-cycles with l1-norm <= k, found by
    scanning raw coefficient vectors (use only when edges <= 8)."""
    eids = [e.id for e in cx.edges]
    found = set()

    def rec(i, rem, acc):
        if i == len(eids):
            ch = Chain(1, INT, dict(acc))
            if is_cycle(cx, ch):
                found.add(ch.serialize())
            return
        for c in range(-rem, rem + 1):
            if c:
                acc[eids[i]] = c
            rec(i + 1, rem - abs(c), acc)
            acc.pop(eids[i], None)

    rec(0, k, {})
    return found


def brute_circuit_count(cx, max_len, anchor=None):
    """Circuits as edge subsets: connected, every vertex of degree two."""
    count = 0
    for r in range(1, min(len(cx.edges), max_len) + 1):
        for sub in combinations(cx.edges, r):
            if anchor is not None and all(e.id != anchor for e in sub):
                continue
            deg = {}
            for e in sub:
                if e.tail == e.head:
                    deg[e.tail] = deg.get(e.tail, 0) + 2
                else:
                    deg[e.tail] = deg.get(e.tail, 0) + 1
                    deg[e.head] = deg.get(e.head, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            vs = set(deg)
            adj = {v: set() for v in vs}
            for e in sub:
                if e.tail != e.head:
                    adj[e.tail].add(e.head)
                    adj[e.head].add(e.tail)
            seen, stack = set(), [next(iter(vs))]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(adj[v])
            if seen == vs:
                count += 1
    return count


def determinant_divisor_factors(matrix):
    """Invariant factors via gcds of k x k minors (exact, independent of
    any normal-form elimination; small matrices only)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def minors_gcd(k):
        g = 0
        for rsub in combinations(range(rows), k):
            for csub in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in csub] for i in rsub]
                g = gcd(g, _det(sub))
        return g

    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        dk = minors_gcd(k)
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return factors


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def rank_over_q(matrix):
    """Row reduction rank with Fractions."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def rref_rational_solve(a, b):
    """The solution of a*x = b over Q whose free variables are 0, or None:
    Gauss-Jordan elimination of [a | b] over Fractions, pivoting on the
    first nonzero entry of each column in turn."""
    cols = len(a[0]) if a else 0
    m = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    pivots = []
    for col in range(cols):
        lead = len(pivots)
        piv = next((i for i in range(lead, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        m[lead] = [v / m[lead][col] for v in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[lead])]
        pivots.append(col)
    if any(row[-1] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = m[i][-1]
    return x


def partition_maximum(values, n):
    """max over partitions n = n_1 + ... + n_k of sum f(n_i), brute force."""
    best = None

    def rec(remaining, smallest, acc):
        nonlocal best
        if remaining == 0:
            if best is None or acc > best:
                best = acc
            return
        for part in range(smallest, remaining + 1):
            rec(remaining - part, part, acc + values[part - 1])

    rec(n, 1, Fraction(0))
    return best


def floyd_warshall(cx):
    inf = float("inf")
    vs = list(cx.vertices)
    dist = {u: {v: (0 if u == v else inf) for v in vs} for u in vs}
    for e in cx.edges:
        if e.tail != e.head:
            dist[e.tail][e.head] = 1
            dist[e.head][e.tail] = 1
    for k in vs:
        for i in vs:
            dik = dist[i][k]
            if dik == inf:
                continue
            for j in vs:
                if dik + dist[k][j] < dist[i][j]:
                    dist[i][j] = dik + dist[k][j]
    return dist


def four_point_delta(cx):
    """Quadruple scan over Floyd-Warshall distances."""
    return exhaustive_delta(cx)[0]


def exhaustive_delta(cx):
    """(delta, witness, diameter) of a connected graph by scanning every
    quadruple of Floyd-Warshall distances in lexicographic order: the witness
    is the least quadruple attaining delta, ``sorted(vertices)[:4]`` when
    delta is 0, and None below four vertices."""
    dist = floyd_warshall(cx)
    diameter = max((dist[u][v] for u in cx.vertices for v in cx.vertices), default=0)
    best = Fraction(0)
    witness = None
    for quad in combinations(sorted(cx.vertices), 4):
        a, b, c, d = quad
        s = sorted((dist[a][b] + dist[c][d],
                    dist[a][c] + dist[b][d],
                    dist[a][d] + dist[b][c]))
        gap = Fraction(s[2] - s[1], 2)
        if gap > best:
            best = gap
            witness = quad
    if witness is None and len(cx.vertices) >= 4:
        witness = tuple(sorted(cx.vertices)[:4])
    return best, witness, diameter


# -- linear programs -----------------------------------------------------------

def fraction_solve_lp(c, a_eq, b_eq, a_ub=None, b_ub=None):
    """The two-phase simplex on a Fraction tableau, Bland's rule throughout:
    (status, x, value), x and value None unless OPTIMAL."""
    a_ub = a_ub or []
    b_ub = b_ub or []
    n = len(c)
    rows = []
    rhs = []
    n_slack = len(a_ub)
    for i, row in enumerate(a_eq):
        r = [Fraction(v) for v in row] + [Fraction(0)] * n_slack
        rows.append(r)
        rhs.append(Fraction(b_eq[i]))
    for i, row in enumerate(a_ub):
        r = [Fraction(v) for v in row] + [Fraction(0)] * n_slack
        r[n + i] = Fraction(1)
        rows.append(r)
        rhs.append(Fraction(b_ub[i]))
    m = len(rows)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    total = n + n_slack + m  # one artificial per row
    tab = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * m + [rhs[i]]
        row[n + n_slack + i] = Fraction(1)
        tab.append(row)
    basis = [n + n_slack + i for i in range(m)]

    # phase 1: minimize the sum of artificials
    cost = [Fraction(0)] * (total + 1)
    for j in range(n + n_slack, total):
        cost[j] = Fraction(1)
    for i in range(m):
        cost = [cv - tv for cv, tv in zip(cost, tab[i])]
    _fraction_pivot_until_optimal(tab, cost, basis, total)
    if -cost[total] != 0:  # artificial sum > 0
        return INFEASIBLE, None, None

    # drive leftover artificials out of the basis where possible
    drop = []
    for i in range(m):
        if basis[i] >= n + n_slack:
            piv = next((j for j in range(n + n_slack) if tab[i][j] != 0), None)
            if piv is None:
                drop.append(i)
            else:
                _fraction_pivot(tab, cost, basis, i, piv, total)
    for i in sorted(drop, reverse=True):
        del tab[i]
        del basis[i]
    m = len(tab)

    # phase 2: original objective, artificial columns frozen at zero
    cost = [Fraction(0)] * (total + 1)
    for j in range(n):
        cost[j] = Fraction(c[j])
    for i in range(m):
        bj = basis[i]
        if cost[bj] != 0:
            f = cost[bj]
            cost = [cv - f * tv for cv, tv in zip(cost, tab[i])]
    status = _fraction_pivot_until_optimal(tab, cost, basis, n + n_slack)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
    value = -cost[total]
    return OPTIMAL, x, value


def _fraction_pivot_until_optimal(tab, cost, basis, ncols):
    total = len(cost) - 1
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(len(tab)):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][total] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _fraction_pivot(tab, cost, basis, leave, enter, total)


def _fraction_pivot(tab, cost, basis, row, col, total):
    piv = tab[row][col]
    if piv != 1:
        inv = 1 / piv
        tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [v - f * p for v, p in zip(tab[i], prow)]
    if cost[col] != 0:
        f = cost[col]
        cost[:] = [v - f * p for v, p in zip(cost, prow)]
    basis[row] = col


def full_box_branch_and_bound(d2, vec, incumbent, solve_lp=fraction_solve_lp):
    """Least |mu|_1 over integral mu with d2 mu = vec: (mu, value).

    Branch and bound from a feasible integral ``incumbent``.  Every node's LP,
    the root included, bounds every face variable to +-|incumbent|_1 by two
    inequality rows and is solved by ``solve_lp``.  Branches on the variable
    with the largest fractional part, depth first, lower branch first.
    """
    nf = len(d2[0])
    a_eq = [row + [-v for v in row] for row in d2]
    incumbent = list(incumbent)
    inc_val = sum(abs(v) for v in incumbent)
    box = inc_val
    stack = [tuple((-box, box) for _ in range(nf))]
    while stack:
        bounds = stack.pop()
        a_ub, b_ub = [], []
        for j, (lb, ub) in enumerate(bounds):
            row = [0] * (2 * nf)
            row[j], row[nf + j] = 1, -1
            a_ub += [row, [-v for v in row]]
            b_ub += [ub, -lb]
        status, x, val = solve_lp([1] * (2 * nf), a_eq, vec, a_ub, b_ub)
        if status != OPTIMAL or val >= inc_val or ceil(val) >= inc_val:
            continue
        x = [x[j] - x[nf + j] for j in range(nf)]
        fracs = [(x[j] - floor(x[j]), -j) for j in range(nf) if x[j] != floor(x[j])]
        if not fracs:
            cand = [int(v) for v in x]
            if sum(abs(v) for v in cand) < inc_val:
                incumbent, inc_val = cand, sum(abs(v) for v in cand)
            continue
        j = -max(fracs)[1]
        lo, hi = bounds[j]
        down, up = list(bounds), list(bounds)
        down[j] = (lo, floor(x[j]))
        up[j] = (ceil(x[j]), hi)
        stack += [tuple(up), tuple(down)]
    return incumbent, inc_val


def lp_route_filling_value(cx, gamma, ring):
    """Filling norm of the integral cycle ``gamma`` by the LP (over Q) or
    branch and bound (over Z), whatever the rank of the kernel of d2."""
    ctx = filling._context(cx)
    vec = ctx.gamma_vector(gamma)
    if ring == RAT:
        x, val = filling._lp_optimum(ctx, vec)
    else:
        mu = linalg.solve_integer(ctx.d2, vec, snf=ctx.snf)
        x, val = (None, None) if mu is None else filling._branch_and_bound(ctx, vec, mu)
    if x is None:
        return INF
    assert linalg.mat_vec(ctx.d2, x) == vec and sum(abs(v) for v in x) == val
    return val


def minimize_on_line(mu, z, integral):
    """Exact min of |mu + t z|_1 over rational or integral t (z may be None):
    (x, value), the weighted median found by summing, at each breakpoint, the
    weights of every entry whose breakpoint it is."""
    if z is None or all(v == 0 for v in z):
        val = sum(abs(Fraction(v)) for v in mu)
        return list(mu), val

    def norm_at(t):
        return sum(abs(Fraction(m) + t * w) for m, w in zip(mu, z))

    points = sorted(set(Fraction(-m, w) for m, w in zip(mu, z) if w != 0))
    total = sum(abs(w) for w in z)
    acc = 0
    t_star = points[-1]
    for p in points:
        acc += sum(abs(w) for m, w in zip(mu, z) if w != 0 and Fraction(-m, w) == p)
        if 2 * acc >= total:
            t_star = p
            break
    if integral:
        cands = sorted({floor(t_star), ceil(t_star)})
        best_t = min(cands, key=lambda t: (norm_at(Fraction(t)), t))
        best_t = Fraction(best_t)
    else:
        best_t = t_star
    x = [Fraction(m) + best_t * w for m, w in zip(mu, z)]
    if integral:
        x = [int(v) for v in x]
    return x, norm_at(best_t)


def per_edge_special_chain_search(complex_, edge, max_norm, budget):
    """Special 2-chains based at ``edge`` with norm <= max_norm: (chains,
    complete).

    One depth-first search from the signed faces meeting the edge, over
    Chain objects; it pops at most ``budget`` states, and ``complete`` is
    False when states were left.  The chains, every state generated, are
    sorted by (norm, serialization).
    """
    if max_norm < 1:
        return [], True
    seen = {}
    stack = []
    visited = 0
    for fid in complex_.faces_meeting_edge(edge):
        for sign in (1, -1):
            mu = ((fid, sign),)
            running = complex_.face_boundary(fid).scale(sign)
            key = frozenset(mu)
            if key not in seen:
                seen[key] = (mu, running)
                stack.append((frozenset((fid,)), mu, running))
    complete = True
    while stack:
        visited += 1
        if visited > budget:
            complete = False
            break
        used, mu, running = stack.pop()
        if len(mu) >= max_norm:
            continue
        candidates = set()
        for eid in running.coeffs:
            candidates.update(complex_.faces_meeting_edge(eid))
        for fid in sorted(candidates - used):
            for sign in (1, -1):
                mu2 = mu + ((fid, sign),)
                key = frozenset(mu2)
                if key in seen:
                    continue
                running2 = running.add(complex_.face_boundary(fid).scale(sign))
                seen[key] = (mu2, running2)
                stack.append((used | {fid}, mu2, running2))
    out = [Chain(2, INT, {f: s for f, s in mu}) for mu, _ in seen.values()]
    out.sort(key=lambda c: (c.l1(), c.serialize()))
    return out, complete


def circuits_from_special_chains(complex_, chains, edge, max_length):
    """Circuits through ``edge`` of length <= max_length that boundaries of
    the chains induce, each as the boundary of the first chain inducing it."""
    found = {}
    for mu in chains:
        circ = circuit_from_chain(complex_, boundary(complex_, mu))
        if circ is None or circ.length > max_length or not circ.contains_edge(edge):
            continue
        found.setdefault(circ.key, circ)
    return sorted(found.values())
