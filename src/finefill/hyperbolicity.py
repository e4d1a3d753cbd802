"""Exact Gromov hyperbolicity of finite graphs via the four-point condition.

delta is half the largest gap between the two biggest of the three pairing
sums d(x,y)+d(z,w), maximized over vertex quadruples of the 1-skeleton.
Distances are unit-length BFS and all comparisons are on integer 2*delta;
graphs above a vertex cap are refused rather than sampled.  The work runs
on int distance rows indexed by vertex rank in ``sorted(vertices)`` order,
and sets of block positions are int bit masks built from whole rows at once.

The value is the maximum over the biconnected blocks with at least four
vertices (a block is isometric in the graph, and a quadruple whose nearest
points in every block collide has delta 0).  Within a block, the far-apart
pairs are scanned by decreasing distance and each pair meets only the pairs
before it (Cohen, Coudert and Lancin, "On computing the Gromov
hyperbolicity", ACM JEA 2015): a quadruple's largest pairing sum
d(a,b)+d(c,d) bounds its 2*delta by min(d(a,b), d(c,d)), so the scan stops
at the first pair no longer than the best 2*delta found.

The reported witness is the lexicographically least quadruple attaining the
maximum.  A quadruple whose four nearest points in a block B are distinct
has the delta of those points, since every pairing sum shifts by the same
four distances to B; so the least witness is found block by block, by a
lexicographic pass over the vertices of B ranked by the least vertex whose
nearest point in B they are.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import ge, itemgetter

from .errors import DisconnectedError, InternalError, TooLargeError

DEFAULT_VERTEX_CAP = 400


def all_pairs_distances(complex_):
    """BFS distance table ``{u: {v: d(u, v)}}`` over the 1-skeleton; unit
    edge lengths.

    The BFS runs on vertex ranks in ``sorted(vertices)`` order, one int row
    per source, so the table and each of its rows list their keys in that
    order.
    """
    def build():
        order, adj = _adjacency(complex_)
        n = len(order)
        dist = {}
        for src in range(n):
            row = [-1] * n
            row[src] = 0
            frontier = [src]
            level = 0
            while frontier:
                level += 1
                nxt = []
                for v in frontier:
                    for w in adj[v]:
                        if row[w] < 0:
                            row[w] = level
                            nxt.append(w)
                frontier = nxt
            if -1 in row:
                raise DisconnectedError("graph is not connected")
            dist[order[src]] = dict(zip(order, row))
        return dist
    return complex_.cached("apsp", build)


def _adjacency(complex_):
    """(order, adj) of the 1-skeleton, built once per complex: ``order`` the
    vertices sorted, ``adj`` the sorted neighbour rank lists; loops and
    parallel edges are dropped."""
    def build():
        order = sorted(complex_.vertices)
        rank = {v: i for i, v in enumerate(order)}
        adj = [set() for _ in order]
        for e in complex_.edges:
            t, h = rank[e.tail], rank[e.head]
            if t != h:
                adj[t].add(h)
                adj[h].add(t)
        return order, [sorted(nbrs) for nbrs in adj]
    return complex_.cached("adjacency", build)


@dataclass(frozen=True)
class DeltaReport:
    delta: Fraction
    witness: tuple      # attaining quadruple (sorted vertex ids) or None
    vertex_count: int
    diameter: int


def hyperbolicity_delta(complex_, vertex_cap=DEFAULT_VERTEX_CAP):
    """Exact four-point delta with the lexicographically least witness.

    Beyond ``vertex_cap`` vertices the call refuses (TooLargeError)
    instead of sampling.
    """
    n = len(complex_.vertices)
    if n > vertex_cap:
        raise TooLargeError(f"{n} vertices exceeds the cap {vertex_cap}")
    dist = all_pairs_distances(complex_)
    order, adj = _adjacency(complex_)
    rows = [list(d.values()) for d in dist.values()]
    diameter = max(map(max, rows), default=0)
    valued = [(_block_twice_delta(rows, adj, b), b) for b in _blocks(adj) if len(b) >= 4]
    best = max((value for value, _ in valued), default=0)
    if best:
        least = min(_least_witness(rows, b, best) for value, b in valued if value == best)
        witness = tuple(order[i] for i in least)
    else:
        witness = tuple(order[:4]) if n >= 4 else None
    return DeltaReport(Fraction(best, 2), witness, n, diameter)


def _blocks(adj):
    """Vertex lists of the biconnected components of a connected graph given
    by its adjacency lists (Hopcroft-Tarjan, iterative)."""
    if not adj:
        return []
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    disc[0] = 0
    found = 1
    stack = [0]
    work = [(0, iter(adj[0]))]
    blocks = []
    while work:
        v, nbrs = work[-1]
        for w in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = found
                found += 1
                stack.append(w)
                work.append((w, iter(adj[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:   # u separates v's subtree: pop one block
                    block = [u]
                    while block[-1] != v:
                        block.append(stack.pop())
                    blocks.append(block)
    return blocks


def _block_twice_delta(rows, adj, block):
    """Largest 2*delta over the quadruples of ``block``, by the pruned pair scan."""
    best = 0
    earlier = []
    for dab, a, b in sorted(_far_apart_pairs(rows, adj, block), reverse=True):
        if dab <= best:
            break
        ra, rb = rows[a], rows[b]
        for dcd, c, d in earlier:
            # exact for the quadruple's largest pairing, a lower bound otherwise
            gap = dab + dcd - max(ra[c] + rb[d], ra[d] + rb[c])
            if gap > best:
                best = gap
        earlier.append((dab, a, b))
    return best


def _far_apart_pairs(rows, adj, block):
    """(d(a,b), a, b) for the pairs of ``block``, a before b in block order,
    where neither end has a neighbour in the block farther from the other end.

    Some quadruple attains the block's delta with both pairs of its largest
    pairing far apart: moving an end one step away from its partner raises
    the largest sum by 1 and each other sum by at most 1.

    Bit j of ``apart[i]`` says that no block neighbour of ``block[i]`` is
    farther from ``block[j]`` than ``block[i]`` is.  Each vertex of a block
    of at least three vertices has two neighbours in it, so ``map(max, ...)``
    always takes positionwise maxima over at least two rows.
    """
    in_block = itemgetter(*block)
    local = {u: in_block(rows[u]) for u in block}
    apart = [_mask(map(ge, local[a], map(max, *[local[w] for w in adj[a] if w in local])))
             for a in block]
    pairs = []
    for i, a in enumerate(block):
        ra = rows[a]
        for j in _bits(apart[i] & -(2 << i)):      # -(2 << i): positions above i
            if apart[j] >> i & 1:
                b = block[j]
                pairs.append((ra[b], a, b))
    return pairs


def _least_witness(rows, block, target):
    """Least index quadruple whose nearest points in ``block`` are distinct
    and attain 2*delta = ``target``, the block's own maximum.

    A block vertex u stands for the least vertex ``first[u]`` whose nearest
    point in the block is u.  The pass runs over the block in that order,
    with sets of later positions as bit masks, and prunes with two facts:
    every distance in an attaining quadruple is at least target/2 (2*delta
    is at most twice each of the six distances), and both pairs of its
    largest pairing are at least target apart.
    """
    first = {u: u for u in block}       # a block vertex is its own nearest point
    in_block = itemgetter(*block)
    for x, row in enumerate(rows):
        if x not in first:              # outside the block: one nearest point
            near = in_block(row)
            u = block[near.index(min(near))]
            if x < first[u]:
                first[u] = x
    ranked = sorted(block, key=first.__getitem__)
    in_rank_order = itemgetter(*ranked)
    dist = [in_rank_order(rows[u]) for u in ranked]
    far = [_at_least(row, (target + 1) // 2) for row in dist]
    long = [_at_least(row, target) for row in dist]
    for a, da in enumerate(dist):
        if not long[a] >> (a + 1):      # a's long partner comes after a
            continue
        for b in _bits(far[a] & -(2 << a)):     # -(2 << a): positions above a
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


def _at_least(row, bound):
    """Bit mask of the positions of ``row`` holding at least ``bound``."""
    return _mask(map(bound.__le__, row))


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags):
    """Bit mask of the true positions of the bools ``flags``, position 0 lowest."""
    return int(bytes(flags).translate(_DIGITS)[::-1], 2)


def _bits(mask):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
