"""Exact Gromov hyperbolicity of finite graphs via the four-point condition.

delta is half the largest gap between the two biggest of the three pairing
sums d(x,y)+d(z,w), maximized over vertex quadruples of the 1-skeleton.
Distances are unit-length BFS and all comparisons are on integer 2*delta;
graphs above a vertex cap are refused rather than sampled.  One BFS per
complex fills int distance rows indexed by the complex's vertex ranks
(``TwoComplex.skeleton``).  Within a block, each row is packed into one
int, a fixed-width lane per block position with a guard bit on top
(:class:`_Lanes`), so a comparison of every entry of a row at once is one
big-int subtraction; its guard bits, compacted to one bit per position,
give sets of block positions as int bit masks.

The value is the maximum over the biconnected blocks with at least four
vertices (a block is isometric in the graph, and a quadruple whose nearest
points in every block collide has delta 0).  Within a block, the far-apart
pairs are scanned by decreasing distance and each pair meets only the pairs
before it (Cohen, Coudert and Lancin, "On computing the Gromov
hyperbolicity", ACM JEA 2015): a quadruple's largest pairing sum
d(a,b)+d(c,d) bounds its 2*delta by min(d(a,b), d(c,d)), so the scan stops
at the first pair no longer than the best 2*delta found.  It also stops once
the best reaches the block's upper bound: its diameter, except that a
clique has 2*delta = 0, and a block of diameter 2 has 2*delta = 2 exactly
when it has an induced 4-cycle (both pairs of the largest pairing at
distance 2, the other four distances 1), and at most 1 otherwise.

The reported witness is the lexicographically least quadruple attaining the
maximum.  A quadruple whose four nearest points in a block B are distinct
has the delta of those points, since every pairing sum shifts by the same
four distances to B; so the least witness is found block by block, by a
lexicographic pass over the vertices of B ranked by the least vertex whose
nearest point in B they are.
"""

import struct
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import DisconnectedError, InternalError, TooLargeError

DEFAULT_VERTEX_CAP = 400
_END = itemgetter(1)  # the end rank of a step of ``TwoComplex.skeleton``


def all_pairs_distances(complex_):
    """BFS distance table ``{u: {v: d(u, v)}}`` over the 1-skeleton; unit
    edge lengths.

    The table and each of its rows list their keys in ``sorted(vertices)``
    order; it is built from the complex's int distance rows.
    """
    def build():
        order = _adjacency(complex_)[0]
        return {u: dict(zip(order, row)) for u, row in zip(order, _distance_rows(complex_))}
    return complex_.cached("apsp", build)


def _distance_rows(complex_):
    """The int distance rows of the 1-skeleton, built once per complex: row
    i holds the distances from the vertex of rank i, by rank."""
    return complex_.cached("distance_rows", lambda: _bfs_rows(_adjacency(complex_)[1]))


def _bfs_rows(adj):
    """One BFS per source over the neighbour rank lists ``adj``."""
    rows = []
    for src in range(len(adj)):
        row = [-1] * len(adj)
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
        rows.append(row)
    return rows


def _adjacency(complex_):
    """(order, adj) of the 1-skeleton, built once per complex: ``order`` the
    complex's sorted vertices, ``adj`` the sorted end ranks of each vertex's
    steps; loops and parallel edges are dropped."""
    def build():
        order, _, steps = complex_.skeleton()
        adj = [set(map(_END, row)) for row in steps]
        for r, ends in enumerate(adj):
            ends.discard(r)  # a loop
        return order, list(map(sorted, adj))
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
    # the benchmark's tracer times the distances through this name; the
    # scan reads the int rows the table is built from
    all_pairs_distances(complex_)
    rows = _distance_rows(complex_)
    order, adj = _adjacency(complex_)
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


class _Lanes:
    """Rows of ``count`` ints in [0, top], each packed into one int with
    position j in the j-th lane of ``width`` bytes.

    The top bit of every lane is a guard bit, clear in a packed row since
    top < 2**(8 * width - 1), for the least width of 1, 2, 4 or 8 that
    allows it.  From a packed row with its guards set, subtracting a
    packed row plus ``ones``, or h * ``ones`` for 0 <= h <= top + 1, makes
    no lane borrow from the next, and a lane keeps its guard bit exactly
    when its difference is >= 0.  The guard bits are compacted to one bit
    per position by byte operations in C.
    """

    def __init__(self, top, count):
        code = next(c for c in "BHIQ" if top < 1 << 8 * struct.calcsize("<" + c) - 1)
        self.layout = struct.Struct(f"<{count}{code}")
        self.width = struct.calcsize("<" + code)
        self.count = count
        self.ones = self.pack([1] * count)
        self.guard = self.ones << 8 * self.width - 1

    def pack(self, row):
        return int.from_bytes(self.layout.pack(*row), "little")

    def compact(self, guards):
        """Bit mask of the lanes whose guard bit is set in ``guards``."""
        top_bytes = guards.to_bytes(self.count * self.width, "big")[::self.width]
        return int(top_bytes.translate(_GUARD_DIGITS), 2)

    def at_least(self, packed, bound):
        """Bit mask of the positions of the packed row holding at least ``bound``."""
        return self.compact(((packed | self.guard) - bound * self.ones) & self.guard)


_GUARD_DIGITS = bytes.maketrans(b"\0\x80", b"01")


def _block_twice_delta(rows, adj, block):
    """Largest 2*delta over the quadruples of ``block``, by the pruned pair
    scan, which stops once the best meets the block's upper bound."""
    pairs = sorted(_far_apart_pairs(rows, adj, block), reverse=True)
    bound = pairs[0][0]         # the diameter, as a farthest pair is far apart
    if bound == 1:              # a clique: every pairing sum is 2
        bound = 0
    elif bound == 2 and not _has_induced_c4(adj, block):
        bound = 1
    best = 0
    earlier = []
    for dab, a, b in pairs:
        if min(dab, bound) <= best:
            break
        ra, rb = rows[a], rows[b]
        for dcd, c, d in earlier:
            # exact for the quadruple's largest pairing, a lower bound otherwise
            gap = dab + dcd - max(ra[c] + rb[d], ra[d] + rb[c])
            if gap > best:
                best = gap
        earlier.append((dab, a, b))
    return best


def _has_induced_c4(adj, block):
    """Whether ``block`` has an induced 4-cycle: two non-adjacent vertices
    whose common neighbours include two non-adjacent ones."""
    position = {u: i for i, u in enumerate(block)}
    nbrs = [sum(1 << position[w] for w in adj[u] if w in position) for u in block]
    closed = [mask | 1 << i for i, mask in enumerate(nbrs)]
    for i, mask in enumerate(nbrs):
        for j in _bits(~closed[i] & (1 << len(block)) - (2 << i)):    # the positions above i
            common = mask & nbrs[j]
            if any(common & ~closed[c] for c in _bits(common)):
                return True
    return False


def _far_apart_pairs(rows, adj, block):
    """(d(a,b), a, b) for the pairs of ``block``, a before b in block order,
    where neither end has a neighbour in the block farther from the other
    end.

    Some quadruple attains the block's delta with both pairs of its largest
    pairing far apart: moving an end one step away from its partner raises
    the largest sum by 1 and each other sum by at most 1.

    Bit j of ``apart[i]`` says that no block neighbour w of ``block[i]`` is
    farther from ``block[j]`` than ``block[i]`` is: on packed rows, lane j
    of (row(w) | guard) - row(block[i]) - ones keeps its guard bit exactly
    when w is farther.
    """
    in_block = itemgetter(*block)
    local = [in_block(rows[u]) for u in block]
    lanes = _Lanes(max(map(max, local)), len(block))
    packed = dict(zip(block, map(lanes.pack, local)))
    guard = lanes.guard
    apart = []
    for a in block:
        step = packed[a] + lanes.ones
        farther = 0
        for w in adj[a]:
            if w in packed:
                farther |= (packed[w] | guard) - step
        apart.append(lanes.compact(guard & ~farther))
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
    lanes = _Lanes(max(map(max, dist)), len(ranked))
    packed = list(map(lanes.pack, dist))
    far = [lanes.at_least(row, (target + 1) // 2) for row in packed]
    long = [lanes.at_least(row, target) for row in packed]
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


def _bits(mask):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
