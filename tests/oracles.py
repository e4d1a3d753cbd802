"""Independent oracles the suites check the library against.

Nothing here shares code with the implementation paths it verifies:
fillings are exhaustive bounded searches, homology uses determinant
divisors, the steps leaving a vertex come from a sort of the edge ends at
it, circuit decompositions from a walk over vertex ids, the adjacency
from one pass over the edges, distances use Floyd-Warshall or a BFS over
dicts of vertex ids,
four-point delta scans every quadruple, induced 4-cycles are looked for
among every four vertices, far-apart pairs come from one set per vertex
tested on every pair, row masks from a sum of bits, cycle sets
use raw coefficient vectors or sums of every circuit multiset (cancelling
ones too), circuit counts use degree-two edge
subsets, rational solves use Gauss-Jordan elimination over Fractions,
linear programs use a Fraction tableau, circuit lists come from a search
over frozensets that keys every closing walk by comparing all its rotations
in both directions, the candidate cycles of ``fv`` from a search over
coefficient dicts with Fraction fill totals, the Smith form from the
elimination on dense rows and columns, with or without the shortcuts at a
unit pivot, the columns of d2 from one boundary Chain per face (the
dense d2 that the dense oracles read lays out the package's face columns),
integral fillings can also come
from branch and bound that boxes every face at every node, line
minimizations rescan every entry at every breakpoint, and special
2-chains come from a separate search per base edge over Chain objects, or
from a search per face, over frozensets of signed-face ints in set order or
over int bit sets in face order.
Ten exceptions: :func:`two_direction_circuit_search` is the package's
earlier circuit search, run on the package's step table and keys, so that
it checks the one-direction search that replaced it,
:func:`mask_far_apart_pairs` and :func:`mask_least_witness` run the
package's own pair and witness passes on masks built from one comparison
per entry, so that they check the packed rows ``hyperbolicity`` builds
its masks from,
:func:`lp_route_filling_value` runs the package's own LP and branch and
bound on every cycle, so that they check the closed form the package
takes at kernel rank <= 1, :func:`all_cycles_fv` fills every
cycle with the package's ``filling_norm``, so that it checks which cycles
``fv`` leaves unfilled, :func:`smith_integer_solve` reads the package's
Smith form, dividing u*b by its diagonal where ``linalg.solve_integer``
reads the rational solution X / D, and :func:`dense_rational_solve` reads
that Smith form too, forming the dense products u*b and v*y that
``linalg.RationalSolver`` sums over the nonzero entries only, and
:func:`dense_line_fill` reads that Smith form and the package's kernel,
filling a cycle at kernel rank <= 1 through full-length vectors where
``filling`` works on the supports of the cycle, the solution and the
kernel vector.
Then :func:`reference_coned_off` is the package's earlier builder of
the coned-off Cayley complex, run on the package's group table, cosets and
walk keys, so that it checks the one-scan builder that replaced it.
Last, :func:`reference_fill_circuits` is the package's earlier circuit
fill, each circuit solved on its own through ``filling._solve_vector``
(one rational solve, then the line or LP optimum and the witness re-check
in each ring), so that it checks the packed per-edge sums that replaced it
at kernel rank <= 1.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby
from math import ceil, floor, gcd, lcm
from operator import ge, itemgetter

from finefill import (Chain, INF, INT, RAT, boundary, enumerate_circuits, filling, is_cycle,
                      linalg)
from finefill.chains import (Circuit, canonical_walk_key, circuit_from_chain, circuit_masks,
                             make_circuit)
from finefill.complexes import validate
from finefill.constructions import (ConedOffComplex, _subgroup_elements, _token_step,
                                    _validated_presentation, group_closure, left_cosets)
from finefill.errors import DisconnectedError, InternalError, NotACycleError
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


def multiset_cycles(cx, max_norm):
    """Every integral 1-cycle with l1-norm <= max_norm, sorted by (norm,
    serialization), zero cycle included: sums of every multiset of signed
    circuits of total length <= max_norm, cancelling ones included,
    deduplicated."""
    cycles = {(): Chain(1, INT, {})}
    if max_norm >= 1:
        circuits = enumerate_circuits(cx, None, max_norm)
        vecs = [c.induced_cycle().coeffs for c in circuits]
        lens = [c.length for c in circuits]

        def extend(idx_from, budget, acc):
            for i in range(idx_from, len(circuits)):
                if lens[i] > budget:
                    continue
                for sign in (1, -1):
                    m = 1
                    while m * lens[i] <= budget:
                        nxt = dict(acc)
                        for e, c in vecs[i].items():
                            nxt[e] = nxt.get(e, 0) + sign * m * c
                            if not nxt[e]:
                                del nxt[e]
                        key = tuple(sorted(nxt.items()))
                        if key not in cycles:
                            cycles[key] = Chain(1, INT, nxt)
                        extend(i + 1, budget - m * lens[i], nxt)
                        m += 1

        extend(0, max_norm, {})
    return sorted(cycles.values(), key=lambda c: (c.l1(), c.serialize()))


def all_cycles_fv(cx, k_max, ring):
    """(values, witnesses) of FV(0..k_max): a running maximum of filling
    norms over every cycle of :func:`multiset_cycles` in its order, the
    witness of a value the first cycle reaching it; INF ends the scan."""
    top = (0 if ring == INT else Fraction(0), Chain(1, INT, {}))
    rows = []
    for cycle in multiset_cycles(cx, k_max):
        norm = cycle.l1()
        if norm == 0:
            continue
        rows.extend([top] * (norm - len(rows)))
        value = filling.filling_norm(cx, cycle, ring).value
        if value > top[0]:
            top = (value, cycle)
        if value is INF:
            break
    rows.extend([top] * (k_max + 1 - len(rows)))
    values, witnesses = zip(*rows)
    return list(values), list(witnesses)


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


def all_rotations_walk_key(walk):
    """Least token tuple over every rotation of the walk and of its reversal,
    a token being the sign and the edge id, as in ``"+e1"``; None for the
    empty walk."""
    walk = tuple(walk)
    best = None
    for w in (walk, tuple((-s, e) for s, e in reversed(walk))):
        toks = tuple(("+" if s > 0 else "-") + e for s, e in w)
        for r in range(len(toks)):
            cand = toks[r:] + toks[:r]
            if best is None or cand < best:
                best = cand
    return best


def incident(cx, vertex):
    """The reference step order: the signed edges leaving ``vertex`` by
    edge id, +1 before -1, from a sort of every edge end.  A non-loop edge
    appears once (with the sign that makes it leave); a loop appears with
    both signs."""
    ends = [(1, e.id) for e in cx.edges if e.tail == vertex]
    ends += [(-1, e.id) for e in cx.edges if e.head == vertex]
    return tuple(sorted(ends, key=lambda se: (se[1], -se[0])))


def string_walk_decompose(cx, cycle):
    """The circuits ``chains.decompose_into_circuits`` splits an integral
    1-cycle into, traced on vertex ids through :func:`incident`: from the
    tail of the least remaining edge (its head when the coefficient is
    negative), take the first step of the remaining support that leaves
    the current vertex along its sign, and peel a circuit at the first
    repeated vertex."""
    if cycle.ring != INT or not is_cycle(cx, cycle):
        raise NotACycleError("not an integral cycle")
    remaining = dict(cycle.coeffs)
    out = []
    while remaining:
        eid = min(remaining)
        cur = cx.edge_endpoints((1 if remaining[eid] > 0 else -1, eid))[0]
        walk, positions = [], {cur: 0}
        while True:
            step = next(se for se in incident(cx, cur) if remaining.get(se[1], 0) * se[0] > 0)
            walk.append(step)
            cur = cx.edge_endpoints(step)[1]
            if cur in positions:
                walk = walk[positions[cur]:]
                break
            positions[cur] = len(walk)
        out.append(Circuit(tuple(walk), all_rotations_walk_key(walk)))
        for s, e in walk:
            remaining[e] -= s
            if not remaining[e]:
                del remaining[e]
    return out


def frozenset_circuit_search(cx, max_length):
    """Every circuit of length <= max_length, sorted by (length, key).

    A depth-first search from each vertex for the circuits whose least
    vertex it is, holding the used edges and the visited vertices as
    frozensets.  It finds each circuit once in each direction, keys every
    closing walk with :func:`all_rotations_walk_key`, and keeps the first
    walk found per key.
    """
    found = {}
    order = {v: i for i, v in enumerate(sorted(cx.vertices))}
    for start in sorted(cx.vertices):
        stack = [(start, (), frozenset(), frozenset((start,)))]
        while stack:
            cur, walk, used, visited = stack.pop()
            for step in incident(cx, cur):
                eid = step[1]
                if eid in used:
                    continue
                end = cx.edge_endpoints(step)[1]
                if end == start:
                    closed = walk + (step,)
                    found.setdefault(all_rotations_walk_key(closed), closed)
                    continue
                if len(walk) + 1 >= max_length:
                    continue
                if order[end] < order[start] or end in visited:
                    continue
                stack.append((end, walk + (step,), used | {eid}, visited | {end}))
    return [Circuit(walk, key)
            for key, walk in sorted(found.items(), key=lambda kw: (len(kw[1]), kw[0]))]


def two_direction_circuit_search(cx, max_length):
    """The circuits of length <= max_length keyed by their edge masks, in
    (length, key) order, as ``chains.circuit_masks`` holds them, from the
    package's earlier search on its step table, which closes every circuit
    in both directions and keeps the first walk.

    A depth-first search on vertex ranks, with the used edges and the
    visited vertices as bit sets.  From each start it first takes the BFS
    distance back[v] from v to the start through vertices above the start,
    and a path of length l ending at v is pushed only when l + back[v] <=
    max_length.  Every walk that closes at the start is keyed unless its
    edge set was found before.
    """
    steps = cx.skeleton()[2]
    outs = [[(step, end, 1 << i) for step, end, i in row] for row in steps]
    found = {}
    for start in range(len(outs)):
        back = [max_length] * len(outs)
        back[start] = 0
        frontier = [start]
        for d in range(1, max_length):
            if not frontier:
                break
            nxt = []
            for v in frontier:
                for _, end, _ in outs[v]:
                    if end > start and back[end] == max_length:
                        back[end] = d
                        nxt.append(end)
            frontier = nxt
        stack = [(start, (), 0, 1 << start)]
        while stack:
            cur, walk, used, visited = stack.pop()
            room = max_length - len(walk) - 1
            for step, end, b in outs[cur]:
                if used & b:
                    continue
                if end == start:
                    if used | b not in found:
                        found[used | b] = make_circuit(walk + (step,))
                    continue
                if back[end] > room or visited >> end & 1:
                    continue
                stack.append((end, walk + (step,), used | b, visited | 1 << end))
    return dict(sorted(found.items(), key=lambda mc: (len(mc[1].walk), mc[1].key)))


def dict_conformal_search(cx, max_norm, fills=None, above=None, keep_ties=False):
    """The candidate cycles of ``chains.enumerate_cycles`` as Chains, in
    (norm, serialization) order, with the single circuits that it leaves to
    the caller's fill list, from a search that keeps each sum as an
    {edge: coefficient} dict, tests a circuit's sign conformity against it
    entry by entry and adds the fill values as given (Fractions over Q).
    With ``fills`` given, a sum at norm u is a candidate when its total is
    >= L(u), and > L(u) where L(u) = L(u - 1) (``keep_ties`` drops that
    second rule); with ``above`` set, when its total exceeds it.  A sum is
    extended when its total plus U(r) would be a candidate at norm u + r
    for some r >= 1."""
    ties = fills is not None and not keep_ties
    if fills is None:
        circuits = enumerate_circuits(cx, None, max_norm) if max_norm >= 1 else []
        fills = [(circuit, 0) for circuit in circuits]
    lower = [0] * (max_norm + 1)
    for circuit, value in fills:
        lower[circuit.length] = max(lower[circuit.length], value)
    upper = [0] * (max_norm + 1)
    for k in range(1, max_norm + 1):
        lower[k] = max(lower[k], lower[k - 1])
        upper[k] = max(lower[j] + upper[k - j] for j in range(1, k + 1))

    def bar(norm):
        """(v, strict): a candidate at ``norm`` has a total > v, or = v
        unless strict."""
        if above is not None:
            return above, True
        return lower[norm], ties and norm > 0 and lower[norm] == lower[norm - 1]

    def meets(total, bar_):
        value, strict = bar_
        return total > value or (total == value and not strict)

    # the weakest bar that a sum at norm u must meet for some extension of
    # it to meet the bar of its own norm, None at the largest norm
    reach = [min(((bar(u + r)[0] - upper[r], bar(u + r)[1])
                  for r in range(1, max_norm - u + 1)), default=None)
             for u in range(max_norm + 1)]
    signed = [[(e, sign * s) for s, e in circuit.walk] for circuit, _ in fills for sign in (1, -1)]
    lens = [circuit.length for circuit, _ in fills]
    values = [value for _, value in fills]
    found = {(): 0}

    def extend(start, used, filled, acc):
        for i in range(start, len(fills)):
            li = lens[i]
            if used + li > max_norm:
                break
            for vec in signed[2 * i:2 * i + 2]:
                if any(acc.get(e, 0) * c < 0 for e, c in vec):
                    continue
                nxt, norm, total = acc, used, filled
                while norm + li <= max_norm:
                    nxt = dict(nxt)
                    for e, c in vec:
                        nxt[e] = nxt.get(e, 0) + c
                    norm += li
                    total += values[i]
                    if meets(total, bar(norm)):
                        found.setdefault(tuple(sorted(nxt.items())), norm)
                    if reach[norm] is not None and meets(total, reach[norm]):
                        extend(i + 1, norm, total, nxt)

    extend(0, 0, 0, {})
    return [Chain(1, INT, dict(key)) for key in sorted(found, key=lambda k: (found[k], k))]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def sparse_columns(m):
    """The (row, entry) nonzeros of each column of the dense matrix m."""
    return [[(i, e) for i, e in enumerate(col) if e] for col in zip(*m)]


def smith_form(a):
    """``linalg.smith_normal_form`` of the dense matrix a (one row at least)."""
    return linalg.smith_normal_form(sparse_columns(a), len(a))


def dense_smith_factors(snf, rows, cols):
    """The dense (u, d, v) of a sparse Smith form (u by rows, d the
    invariant factors, v by columns) of a rows x cols matrix."""
    u_rows, factors, v_columns = snf
    u = [[row.get(j, 0) for j in range(rows)] for row in u_rows]
    d = [[0] * cols for _ in range(rows)]
    for t, f in enumerate(factors):
        d[t][t] = f
    v = [[column.get(i, 0) for column in v_columns] for i in range(cols)]
    return u, d, v


def face_boundary(cx, fid):
    """The boundary of the face ``fid`` as a Chain: the signs of its walk
    summed per edge id."""
    f = cx.face_by_id[fid]
    acc = {}
    for sign, eid in f.walk:
        acc[eid] = acc.get(eid, 0) + sign
    return Chain(1, INT, acc)


def dense_d2(cx):
    """d2 as rows=edges, cols=faces (ints), filled from the face columns."""
    m = [[0] * len(cx.faces) for _ in cx.edges]
    for j, column in enumerate(cx.face_columns()):
        for i, c in column:
            m[i][j] = c
    return m


def chain_face_columns(cx):
    """d2's columns through one :func:`face_boundary` Chain per face: the
    (edge index, coefficient) nonzeros of each, edges ascending."""
    index = cx.edge_index
    return [sorted((index[e], c) for e, c in face_boundary(cx, f.id).coeffs.items())
            for f in cx.faces]


def dense_smith_normal_form(a, events=None, unit_shortcuts=True):
    """(u, d, v) with u*a*v = d diagonal, u and v unimodular, by row and
    column elimination on the dense matrix a: each pivot is the first entry
    of least |entry| in (row, column) order over the remaining block, and a
    negative pivot's row is negated.  The unit shortcuts end the pivot
    search at the first unit and skip the divisibility scan under a unit
    pivot; without them every pivot search scans the whole remaining block
    and every pivot, a unit too, is followed by the scan.  ``events`` (a
    Counter), when given, counts the non-unit pivots chosen, the
    divisibility folds and the elimination steps whose quotient is 0."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(row) for row in a]
    u = identity(rows)
    v = identity(cols)
    if events is None:
        events = Counter()

    def swap_rows(m, i, j):
        m[i], m[j] = m[j], m[i]

    def swap_cols(m, i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_row(m, dst, src, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]

    def add_col(m, dst, src, q):
        for row in m:
            row[dst] += q * row[src]

    def pivot_at(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < abs(best[2])):
                    best = (i, j, e)
                    if unit_shortcuts and e in (1, -1):
                        return best
        return best

    def clear_once(t):
        clean = True
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                events["zero_quotient"] += q == 0
                add_row(d, i, t, -q)
                add_row(u, i, t, -q)
                if d[i][t] != 0:
                    swap_rows(d, t, i)
                    swap_rows(u, t, i)
                    clean = False
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                events["zero_quotient"] += q == 0
                add_col(d, j, t, -q)
                add_col(v, j, t, -q)
                if d[t][j] != 0:
                    swap_cols(d, t, j)
                    swap_cols(v, t, j)
                    clean = False
        if clean:
            clean = all(d[i][t] == 0 for i in range(t + 1, rows)) and all(
                d[t][j] == 0 for j in range(t + 1, cols))
        return clean

    t = 0
    while t < min(rows, cols):
        best = pivot_at(t)
        if best is None:
            break
        i, j, e = best
        if abs(e) != 1:
            events["non_unit_pivot"] += 1
        if i != t:
            swap_rows(d, t, i)
            swap_rows(u, t, i)
        if j != t:
            swap_cols(d, t, j)
            swap_cols(v, t, j)
        while True:
            while not clear_once(t):
                pass
            if unit_shortcuts and d[t][t] in (1, -1):
                break
            bad = next((i for i in range(t + 1, rows)
                        if any(d[i][j] % d[t][t] for j in range(t + 1, cols))), None)
            if bad is None:
                break
            events["fold"] += 1
            add_row(d, t, bad, 1)
            add_row(u, t, bad, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


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


def boundary_matrix_1(cx):
    """d1 as rows=vertices, cols=edges (ints)."""
    vi = {v: i for i, v in enumerate(cx.vertices)}
    m = [[0] * len(cx.edges) for _ in cx.vertices]
    for j, e in enumerate(cx.edges):
        m[vi[e.head]][j] += 1
        m[vi[e.tail]][j] -= 1
    return m


def mat_vec(a, v):
    """The dense product a.v, reading only the nonzero entries of v."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nonzero) for row in a]


def smith_integer_solve(a, b, snf=None):
    """The normal-form integral solution of a*x = b, or None: with u*a*v = d,
    y_i = (u*b)_i / d_i when every d_i divides (u*b)_i and u*b vanishes
    from the rank on, y_i = 0 beyond the rank, and x = v*y.  ``snf`` is
    the package's Smith form of a, read densely."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u, d, v = dense_smith_factors(snf or smith_form(a), rows, cols)
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


def dense_rational_solve(a, b, snf=None):
    """(X, D) with X / D a rational solution of a*x = b, or None, through
    the two dense products of the Smith form u*a*v = d: u*b must vanish
    from the rank on, y_i = (u*b)_i * (D / d_i) below it, D the last
    nonzero d_i (1 at rank 0), and X = v*y.  ``snf`` is the package's Smith
    form of a, read densely."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u, d, v = dense_smith_factors(snf or smith_form(a), rows, cols)
    diagonal = [d[i][i] for i in range(min(rows, cols)) if d[i][i]]
    rank = len(diagonal)
    den = diagonal[-1] if diagonal else 1
    ub = mat_vec(u, b)
    if any(ub[rank:]):
        return None
    y = [ub[i] * (den // diagonal[i]) if i < rank else 0 for i in range(cols)]
    return mat_vec(v, y), den


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


def edge_loop_adjacency(cx):
    """(order, adj) of the 1-skeleton from one pass over the edges: ``order``
    the sorted vertices, ``adj`` the sorted neighbour rank lists, each a set
    of the other ends of the vertex's non-loop edges."""
    order = sorted(cx.vertices)
    rank = {v: i for i, v in enumerate(order)}
    adj = [set() for _ in order]
    for e in cx.edges:
        t, h = rank[e.tail], rank[e.head]
        if t != h:
            adj[t].add(h)
            adj[h].add(t)
    return order, [sorted(nbrs) for nbrs in adj]


def dict_bfs_distances(cx):
    """BFS distance table ``{u: {v: d}}`` over dicts and sets of vertex ids,
    one BFS per vertex; raises DisconnectedError as the package does."""
    adj = {v: set() for v in cx.vertices}
    for e in cx.edges:
        if e.tail != e.head:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
    dist = {}
    for src in cx.vertices:
        d = {src: 0}
        frontier = [src]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in d:
                        d[w] = level
                        nxt.append(w)
            frontier = nxt
        if len(d) != len(cx.vertices):
            raise DisconnectedError("graph is not connected")
        dist[src] = d
    return dist


def set_far_apart_pairs(rows, adj, block):
    """(d(a,b), a, b) for the pairs a, b of ``block`` in ``combinations``
    order where neither end has a block neighbour farther from the other
    end, from one set per vertex b of the vertices a that no block
    neighbour of a beats in distance from b."""
    members = set(block)
    nbrs = {u: [w for w in adj[u] if w in members] for u in block}
    local = {}
    for b in block:
        rb = rows[b]
        local[b] = {a for a in block if max(map(rb.__getitem__, nbrs[a])) <= rb[a]}
    return [(rows[a][b], a, b) for a, b in combinations(block, 2)
            if a in local[b] and b in local[a]]


def sum_at_least(row, bound):
    """Bit mask of the positions of ``row`` holding at least ``bound``, as a
    sum of bits."""
    return sum(1 << j for j, d in enumerate(row) if d >= bound)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags):
    """Bit mask of the true positions of the bools ``flags``, position 0 lowest."""
    return int(bytes(flags).translate(_DIGITS)[::-1], 2)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_at_least(row, bound):
    """Bit mask of the positions of ``row`` holding at least ``bound``, from
    one comparison per entry."""
    return _mask(map(bound.__le__, row))


def mask_far_apart_pairs(rows, adj, block):
    """The far-apart pairs of ``hyperbolicity._far_apart_pairs``, in its
    order, with the mask of each vertex built from one comparison per block
    position against the positionwise maximum of its block neighbours' rows."""
    in_block = itemgetter(*block)
    local = {u: in_block(rows[u]) for u in block}
    apart = [_mask(map(ge, local[a], map(max, *[local[w] for w in adj[a] if w in local])))
             for a in block]
    pairs = []
    for i, a in enumerate(block):
        ra = rows[a]
        for j in _bits(apart[i] & -(2 << i)):
            if apart[j] >> i & 1:
                b = block[j]
                pairs.append((ra[b], a, b))
    return pairs


def mask_least_witness(rows, block, target):
    """The witness of ``hyperbolicity._least_witness`` by the same pruned
    pass, with its far and long masks from :func:`mask_at_least`."""
    first = {u: u for u in block}
    in_block = itemgetter(*block)
    for x, row in enumerate(rows):
        if x not in first:
            near = in_block(row)
            u = block[near.index(min(near))]
            if x < first[u]:
                first[u] = x
    ranked = sorted(block, key=first.__getitem__)
    in_rank_order = itemgetter(*ranked)
    dist = [in_rank_order(rows[u]) for u in ranked]
    far = [mask_at_least(row, (target + 1) // 2) for row in dist]
    long = [mask_at_least(row, target) for row in dist]
    for a, da in enumerate(dist):
        if not long[a] >> (a + 1):
            continue
        for b in _bits(far[a] & -(2 << a)):
            db = dist[b]
            cs = far[a] & far[b] & -(2 << b)
            if da[b] < target:
                cs &= long[a] | long[b]
            for c in _bits(cs):
                dc = dist[c]
                ds = ((long[c] if da[b] >= target else 0) | (long[b] if da[c] >= target else 0)
                      | (long[a] if db[c] >= target else 0))
                for d in _bits(ds & far[a] & far[b] & far[c] & -(2 << c)):
                    s1, s2, s3 = da[b] + dc[d], da[c] + db[d], da[d] + db[c]
                    if 2 * max(s1, s2, s3) + min(s1, s2, s3) - s1 - s2 - s3 == target:
                        return tuple(first[ranked[i]] for i in (a, b, c, d))
    raise InternalError("no quadruple attains the block's own maximum")


def has_induced_c4(cx):
    """Whether the graph has an induced 4-cycle, from every 4-subset of its
    vertices in every cyclic order."""
    adjacent = {(e.tail, e.head) for e in cx.edges} | {(e.head, e.tail) for e in cx.edges}
    for quad in combinations(sorted(cx.vertices), 4):
        for a, b, c, d in (quad, (quad[0], quad[1], quad[3], quad[2]),
                           (quad[0], quad[2], quad[1], quad[3])):
            if ({(a, b), (b, c), (c, d), (d, a)} <= adjacent
                    and (a, c) not in adjacent and (b, d) not in adjacent):
                return True
    return False


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


class RecordingCache(dict):
    """A complex's cache that lists every key it stores, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def gamma_vector(ctx, gamma):
    """The int vector of the 1-chain gamma, one entry per edge of the
    filling context ``ctx``, in the complex's edge numbering."""
    index = ctx.complex.edge_index
    vec = [0] * len(index)
    for eid, c in gamma.coeffs.items():
        vec[index[eid]] = c
    return vec


def nonzeros(vec):
    """The {index: entry} dict of the nonzero entries of vec."""
    return {j: v for j, v in enumerate(vec) if v}


def dense(x, width):
    """The vector of length width whose nonzeros are the {index: entry} x."""
    vec = [0] * width
    for j, v in x.items():
        vec[j] = v
    return vec


def chain_from_vector(ctx, x, ring, den=1):
    """The 2-chain x / den of the int vector x, one entry per face."""
    if ring == RAT:
        return Chain(2, RAT, {f: Fraction(v, den) for f, v in zip(ctx.faces, x) if v})
    return Chain(2, INT, {f: v for f, v in zip(ctx.faces, x) if v})


def dense_verify_filling(ctx, vec, x, den, value):
    """Raise InternalError unless d2 x = den vec and |x|_1 = den value, x and
    vec full-length int vectors."""
    if mat_vec(dense_d2(ctx.complex), x) != [den * g for g in vec]:
        raise InternalError("witness boundary mismatch")
    if sum(abs(v) for v in x) * value.denominator != den * value.numerator:
        raise InternalError("witness norm mismatch")


def dense_minimize_on_line(big_m, den, z, integral):
    """Exact min of |x|_1 over x = M / den + t z, t rational or integral, for
    full-length int vectors M and z (z may be None): (X, den', value), X a
    full-length int vector.  The breakpoint -M_i / (den z_i) is keyed by the
    int -M_i * (lam / z_i), lam the lcm of the nonzero |z_i|, and the
    integral t is the better of the floor and the ceiling of the median."""
    if z is None or not any(z):
        return list(big_m), den, Fraction(sum(abs(m) for m in big_m), den)
    lam = lcm(*(w for w in z if w))
    weight = {}
    for m, w in zip(big_m, z):
        if w:
            p = -m * (lam // w)
            weight[p] = weight.get(p, 0) + abs(w)
    total = sum(weight.values())
    acc = 0
    for p in sorted(weight):
        acc += weight[p]
        if 2 * acc >= total:
            break
    if integral:
        step = [den * w for w in z]

        def norm_at(t):
            return sum(abs(m + t * w) for m, w in zip(big_m, step))

        best_t = min(sorted({p // (den * lam), -(-p // (den * lam))}),
                     key=lambda t: (norm_at(t), t))
        x = [m + best_t * w for m, w in zip(big_m, step)]
    else:
        x = [m * lam + p * w for m, w in zip(big_m, z)]
        den *= lam
    return x, den, Fraction(sum(abs(v) for v in x), den)


def dense_line_fill(ctx, vec, ring):
    """(certificate, x, den, value) of the integral cycle ``vec`` (one entry
    per edge) over ring at kernel rank <= 1, through full-length vectors: the
    dense particular solution of :func:`dense_rational_solve`, the line
    minimization of :func:`dense_minimize_on_line` along the package's kernel
    vector, and :func:`dense_verify_filling`; x and den are None when the
    value is INF."""
    nf = len(ctx.faces)
    assert len(ctx.lines) <= 1
    if not any(vec):
        x, den, val = [0] * nf, 1, Fraction(0) if ring == RAT else 0
    elif not nf:
        return filling.NO_FACES, None, None, INF
    else:
        particular = dense_rational_solve(dense_d2(ctx.complex), vec,
                                          snf=ctx.complex.smith_form_2())
        if particular is None:
            return filling.RATIONALLY_INFEASIBLE, None, None, INF
        x, den = particular
        if ring == INT:
            if any(v % den for v in x):
                return filling.INTEGRALLY_INFEASIBLE, None, None, INF
            x, den = [v // den for v in x], 1
        z = dense(ctx.lines[0][0], nf) if ctx.lines else None
        x, den, val = dense_minimize_on_line(x, den, z, integral=ring == INT)
    dense_verify_filling(ctx, vec, x, den, val)
    return filling.FEASIBLE_OPTIMAL, x, den, int(val) if ring == INT else val


def lp_route_filling_value(cx, gamma, ring):
    """Filling norm of the integral cycle ``gamma`` by the LP (over Q) or
    branch and bound (over Z), whatever the rank of the kernel of d2."""
    ctx = filling._context(cx)
    vec = gamma_vector(ctx, gamma)
    if ring == RAT:
        x, val = filling._lp_optimum(ctx, vec)
    else:
        mu = linalg.solve_integer(cx.smith_form_2(), vec)
        if mu is None:
            x = None
        else:
            x, val = filling._branch_and_bound(ctx, vec, nonzeros(mu))
            x = dense(x, len(ctx.faces))
    if x is None:
        return INF
    assert mat_vec(dense_d2(cx), x) == vec and sum(abs(v) for v in x) == val
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
    return x, norm_at(best_t)


def faces_meeting_edges(complex_):
    """{edge id: ids of the faces whose boundary chain has a nonzero
    coefficient on the edge, in face order}, read off the ``face_boundary``
    chains."""
    table = {e.id: [] for e in complex_.edges}
    for f in complex_.faces:
        for eid in face_boundary(complex_, f.id).coeffs:
            table[eid].append(f.id)
    return table


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
    meets = faces_meeting_edges(complex_)
    for fid in meets[edge]:
        for sign in (1, -1):
            mu = ((fid, sign),)
            running = face_boundary(complex_, fid).scale(sign)
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
            candidates.update(meets[eid])
        for fid in sorted(candidates - used):
            for sign in (1, -1):
                mu2 = mu + ((fid, sign),)
                key = frozenset(mu2)
                if key in seen:
                    continue
                running2 = running.add(face_boundary(complex_, fid).scale(sign))
                seen[key] = (mu2, running2)
                stack.append((used | {fid}, mu2, running2))
    out = [Chain(2, INT, {f: s for f, s in mu}) for mu, _ in seen.values()]
    out.sort(key=lambda c: (c.l1(), c.serialize()))
    return out, complete


def circuits_from_special_chains(complex_, chains, edge, max_length, rejected=None):
    """Circuits through ``edge`` of length <= max_length that boundaries of
    the chains induce, each as the boundary of the first chain inducing it.

    ``rejected``, a Counter when given, counts the chains whose boundary is
    nonzero with +-1 coefficients but no circuit ("not a circuit"), k > 1
    times a circuit ("multiple"), or a circuit longer than max_length ("too
    long")."""
    found = {}
    for mu in chains:
        gamma = boundary(complex_, mu)
        circ = circuit_from_chain(complex_, gamma)
        if rejected is not None and gamma.coeffs:
            k = abs(next(iter(gamma.coeffs.values())))
            uniform = all(abs(c) == k for c in gamma.coeffs.values())
            if circ is not None and circ.length > max_length:
                rejected["too long"] += 1
            elif circ is None and uniform and k == 1:
                rejected["not a circuit"] += 1
            elif uniform and k > 1 and circuit_from_chain(complex_, Chain(1, INT, {
                    e: c // k for e, c in gamma.coeffs.items()})) is not None:
                rejected["multiple"] += 1
        if circ is None or circ.length > max_length or not circ.contains_edge(edge):
            continue
        found.setdefault(circ.key, circ)
    return sorted(found.values())


def negate_ordinals(x):
    """The frozenset state x of signed-face ints 2g + (s > 0), every sign
    flipped."""
    return frozenset(o ^ 1 for o in x)


def representative_ordinals(x):
    """Of the frozenset states x and -x, the one whose least face has sign
    +1."""
    return x if min(x) & 1 else negate_ordinals(x)


def ordinal_order(x):
    """The (norm, serialization) sort key of the frozenset state x."""
    return len(x), tuple(sorted(x))


def frozenset_face_search(tables, g, max_norm, cap):
    """The per-face search of :func:`bitmask_face_search` with a state as the
    frozenset of its signed-face ints, the faces meeting a boundary's
    support collected in a set and tried in set order, and a circuit looked
    up by the frozenset of its edge indices: (states, circuits, cut), with
    ``circuits`` keyed by the circuit key.  It reads only the face
    boundaries, the edge-to-face lists and the circuits of ``tables``."""
    face_boundary, meets = tables.face_boundary, tables.meets
    edge_index = tables.complex.edge_index
    by_support = {frozenset(edge_index[e] for _, e in circ.walk): circ
                  for circ in tables.circuits.values()}
    start = frozenset((2 * g + 1,))
    states = {start}
    circuits = {}
    stack = [(start, face_boundary[g])]
    expanded = 0
    while stack:
        if expanded == cap:
            return states, circuits, True
        expanded += 1
        x, running = stack.pop()
        circ = by_support.get(frozenset(running))
        if circ is not None:
            sign, eid = circ.walk[0]
            c = sign * running[edge_index[eid]]
            first = x
            if min(x) & 1:
                first, c = negate_ordinals(x), -c
            least = ordinal_order(first)
            best = circuits.get(circ.key)
            if abs(c) == 1 and (best is None or least < best[0]):
                if c < 0:
                    circ = Circuit(tuple((-s, f) for s, f in reversed(circ.walk)), circ.key)
                circuits[circ.key] = (least, circ)
        if len(x) >= max_norm:
            continue
        used = {o >> 1 for o in x}
        candidates = set()
        for e in running:
            candidates.update(meets[e])
        for h in candidates - used:
            dh = face_boundary[h]
            for o, sign in ((2 * h + 1, 1), (2 * h, -1)):
                y = x | {o}
                if y in states:
                    continue
                states.add(y)
                running2 = dict(running)
                for e, c in dh.items():
                    v = running2.get(e, 0) + sign * c
                    if v:
                        running2[e] = v
                    else:
                        del running2[e]
                stack.append((y, running2))
    return states, circuits, False


def bit_order(x):
    """The (norm, serialization) sort key of the int state x: its number of
    set bits and their positions, ascending."""
    ordinals = [o for o in range(x.bit_length()) if x >> o & 1]
    return len(ordinals), tuple(ordinals)


def bitmask_face_search(tables, g, max_norm, cap):
    """Depth-first search of the states reachable from (g, +1), a state the
    int with bit 2g + (s > 0) set for each signed face (g, s), expanding at
    most ``cap`` states: (states, circuits, cut).  The special chains based
    at an edge are the states of these searches from the faces meeting it,
    and their negatives.

    A state's successors add one signed face that meets the support of its
    boundary and is not yet in it; states of norm max_norm are not expanded.
    ``states`` holds every state generated, each containing (g, +1).
    ``circuits`` maps the support mask of a circuit to (order, circuit),
    ``order`` the :func:`bit_order` key of the least state, over the expanded
    states and their negatives, whose boundary is +-1 times a circuit of
    ``tables.circuits``; the circuit runs along that state's boundary.
    ``cut`` is set when the search stopped at its cap with states left to
    expand.
    """
    signed, face_mask, by_support = tables.signed, tables.face_mask, tables.circuits
    odd, edge_index = tables.odd, tables.complex.edge_index
    start = 1 << 2 * g + 1
    states = {start}
    circuits = {}
    # a running boundary is copied before it is changed, so g's own can start
    stack = [(start, 1 << g, 1, tables.face_boundary[g],
              sum(b for _, _, b in signed[2 * g + 1]))]
    expanded = 0
    while stack:
        if expanded == cap:
            return states, circuits, True
        expanded += 1
        x, used, norm, running, support = stack.pop()
        circ = by_support.get(support) if by_support else None
        if circ is not None:
            # running is c times the circuit's cycle; the first of x and -x
            # has least face sign -1, and the circuit runs along its boundary
            sign, eid = circ.walk[0]
            c = sign * running[edge_index[eid]]
            if abs(c) == 1:
                first = x
                if x & -x & odd:
                    first, c = (x & odd) >> 1 | (x << 1 & odd), -c
                least = bit_order(first)
                best = circuits.get(support)
                if best is None or least < best[0]:
                    if c < 0:
                        circ = Circuit(tuple((-s, f) for s, f in reversed(circ.walk)),
                                       circ.key)
                    circuits[support] = (least, circ)
        if norm >= max_norm:
            continue
        candidates = 0
        for e in running:
            candidates |= face_mask[e]
        candidates &= ~used
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            h = low.bit_length() - 1
            for o in (2 * h + 1, 2 * h):
                y = x | 1 << o
                if y in states:
                    continue
                states.add(y)
                running2 = dict(running)
                support2 = support
                for e, c, b in signed[o]:
                    v = running2.get(e)
                    if v is None:
                        running2[e] = c
                        support2 |= b
                    elif v + c:
                        running2[e] = v + c
                    else:
                        del running2[e]
                        support2 ^= b
                stack.append((y, used | low, norm + 1, running2, support2))
    return states, circuits, False


def reference_coned_off(presentation, with_faces):
    """The coned-off Cayley graph or complex as the package built it before
    its one-scan builder: Cayley edges deduplicated through a set of
    representative pairs, the step table rebuilt from them, and separate face
    bookkeeping for relators and coset triangles."""
    _validated_presentation(presentation)
    table = group_closure(presentation)
    n = table.order
    element_vertices = tuple(f"g{i}" for i in range(n))
    vertices = list(element_vertices)

    # one undirected edge per orbit of (g, s) ~ (gs, s^-1)
    gen_pos = {name: i for i, name in enumerate(presentation.symmetric)}
    cayley_edges = {}
    edges = []
    seen_pairs = set()
    for g in range(n):
        for s in presentation.symmetric:
            h = table.mul_gen(g, s)
            rep = min((g, s), (h, presentation.inverses[s]),
                      key=lambda p: (p[0], gen_pos[p[1]]))
            if rep in seen_pairs:
                continue
            seen_pairs.add(rep)
            eid = f"c_g{rep[0]}_{rep[1]}"
            tail = element_vertices[rep[0]]
            head = element_vertices[table.mul_gen(rep[0], rep[1])]
            edges.append((eid, tail, head))
            cayley_edges[eid] = rep

    cone_vertices = {}
    cone_edges = {}
    coset_of = {}
    for pname, gens in presentation.subgroups:
        sub = _subgroup_elements(table, gens)
        cosets = left_cosets(table, sub)
        for key, members in sorted(cosets.items()):
            vid = f"v_{pname}_g{key}"
            vertices.append(vid)
            cone_vertices[(pname, key)] = vid
            for g in members:
                eid = f"k_g{g}_{pname}"
                edges.append((eid, element_vertices[g], vid))
                cone_edges[eid] = (g, pname)
                coset_of[(pname, g)] = key

    faces = []
    relator_faces = {}
    triangle_faces = {}
    if with_faces:
        edge_lookup = {}
        for eid, (g, s) in cayley_edges.items():
            h = table.mul_gen(g, s)
            edge_lookup[(g, s)] = (1, eid)
            edge_lookup[(h, presentation.inverses[s])] = (-1, eid)

        def trace(g, word):
            walk = []
            cur = g
            for s in word:
                walk.append(edge_lookup[(cur, s)])
                cur = table.mul_gen(cur, s)
            return walk if cur == g else None

        counters = {}
        seen_walks = set()
        for ri, word in enumerate(presentation.relators):
            if len(word) == 2 and presentation.inverses[word[0]] == word[1]:
                continue  # the s s^-1 relators are realized by edge identification
            for g in range(n):
                walk = trace(g, word)
                key = canonical_walk_key(walk)
                if key in seen_walks:
                    continue
                seen_walks.add(key)
                j = counters.setdefault(("r", ri), 0)
                counters[("r", ri)] = j + 1
                fid = f"r{ri}.{j}"
                faces.append((fid, [_token_step(t) for t in key]))
                relator_faces[fid] = ri
        for pname, gens in presentation.subgroups:
            for g in range(n):
                for s in gens:
                    h = table.mul_gen(g, s)
                    if h == g:
                        continue
                    key_id = coset_of[(pname, g)]
                    cone = cone_vertices[(pname, key_id)]
                    sign, eid = edge_lookup[(g, s)]
                    walk = [(sign, eid), (1, f"k_g{h}_{pname}"), (-1, f"k_g{g}_{pname}")]
                    key = canonical_walk_key(walk)
                    if key in seen_walks:
                        continue
                    seen_walks.add(key)
                    j = counters.setdefault(("t", pname), 0)
                    counters[("t", pname)] = j + 1
                    fid = f"t_{pname}.{j}"
                    faces.append((fid, [_token_step(t) for t in key]))
                    triangle_faces[fid] = pname
    cx = validate(vertices, edges, faces)
    return ConedOffComplex(cx, table, element_vertices, cone_vertices,
                           cayley_edges, cone_edges, relator_faces, triangle_faces)


def reference_fill_circuits(cx, k_max, rings):
    """{ring: (fills, unfillable)} as ``filling._fill_circuits`` gives it,
    each circuit of length <= k_max solved from its (edge index, sign) steps
    by ``filling._solve_vector`` in every ring still filling, one length at
    a time up to the first length holding an unfillable circuit in that
    ring.  No fill cache is read or written."""
    ctx = filling._context(cx)
    index = cx.edge_index
    going = {ring: [] for ring in rings}
    out = {}
    circuits = circuit_masks(cx, k_max).values() if k_max else ()
    for _, group in groupby(circuits, key=lambda circuit: circuit.length):
        pairs = {ring: [] for ring in going}
        for circuit in group:
            results = filling._solve_vector(ctx, [(index[e], s) for s, e in circuit.walk],
                                            list(going))
            for ring, result in zip(list(going), results):
                pairs[ring].append((circuit, result[3]))
        for ring, filled in pairs.items():
            unfillable = [circuit for circuit, value in filled if value is INF]
            if unfillable:
                out[ring] = (going.pop(ring), unfillable)
            else:
                going[ring] += filled
        if not going:
            break
    out.update((ring, (fills, [])) for ring, fills in going.items())
    return out
