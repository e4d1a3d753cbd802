"""Cycles, circuits, and bounded enumeration.

A circuit is a simple closed combinatorial path: vertices distinct except
the closing return, edges pairwise distinct.  Circuits are deduplicated by
a canonical key (lexicographically least over rotations and the two
directions), so loops and parallel-edge bigons count once each.  The search
finds each circuit in both directions and keeps the first walk of each edge
set, which determines the circuit, so each key is computed once.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .complexes import Chain, INT, RAT, boundary, content_lines, format_ratio, parse_ratio
from .errors import (FormatError, NotACircuitError, NotACycleError,
                     UnknownEdgeError)


@dataclass(frozen=True)
class Circuit:
    walk: tuple  # ((sign, edge_id), ...) in traversal order
    key: tuple   # canonical token tuple, identifies the circuit

    @property
    def length(self):
        return len(self.walk)

    def edge_ids(self):
        return frozenset(e for _, e in self.walk)

    def contains_edge(self, eid):
        return any(e == eid for _, e in self.walk)

    def induced_cycle(self, ring=INT):
        return Chain(1, ring, {e: s for s, e in self.walk})

    def __lt__(self, other):
        return (self.length, self.key) < (other.length, other.key)


def _walk_tokens(walk):
    return tuple(("+" if s > 0 else "-") + e for s, e in walk)


def _reverse_walk(walk):
    return tuple((-s, e) for s, e in reversed(walk))


def canonical_walk_key(walk):
    """Least token tuple over all rotations of both directions; only the
    rotations starting at a least token can be least."""
    walk = tuple(walk)
    best = None
    for w in (walk, _reverse_walk(walk)):
        toks = _walk_tokens(w)
        least = min(toks, default=None)
        for r, tok in enumerate(toks):
            if tok == least:
                cand = toks[r:] + toks[:r]
                if best is None or cand < best:
                    best = cand
    return best


def make_circuit(walk):
    return Circuit(tuple(walk), canonical_walk_key(walk))


def is_cycle(complex_, chain):
    """True iff the 1-chain has zero boundary."""
    if chain.dimension != 1:
        raise NotACycleError("expected a 1-chain")
    return boundary(complex_, chain).is_zero()


def is_disjoint(a, b):
    """True iff no basis cell has nonzero coefficients in both chains."""
    small, large = (a.coeffs, b.coeffs) if len(a.coeffs) <= len(b.coeffs) else (b.coeffs, a.coeffs)
    return not any(c in large for c in small)


def circuit_from_chain(complex_, chain):
    """Reconstruct the circuit inducing ``chain``, or None if it is not one.

    A circuit-induced cycle has all coefficients +-1 and its signed edges
    trace a single closed walk with distinct vertices.
    """
    if chain.dimension != 1 or chain.is_zero():
        return None
    if any(abs(c) != 1 for c in chain.coeffs.values()):
        return None
    steps = {}
    for eid, c in sorted(chain.coeffs.items()):
        if eid not in complex_.edge_by_id:
            return None
        sign = 1 if c > 0 else -1
        start, end = complex_.edge_endpoints((sign, eid))
        steps.setdefault(start, []).append(((sign, eid), end))
    first = min(steps)
    walk = []
    seen_vertices = set()
    cur = first
    while True:
        if cur in seen_vertices:
            return None
        seen_vertices.add(cur)
        outs = steps.get(cur)
        if not outs or len(outs) > 1:
            return None
        step, nxt = outs[0]
        walk.append(step)
        cur = nxt
        if cur == first:
            break
        if len(walk) > len(chain.coeffs):
            return None
    if len(walk) != len(chain.coeffs):
        return None
    return make_circuit(walk)


def enumerate_circuits(complex_, anchor=None, max_length=1):
    """All circuits of length <= max_length, sorted by (length, key).

    With ``anchor`` set, only circuits containing that edge are returned
    (same list, filtered), matching the direct-search reading of fineness.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    if anchor is not None and anchor not in complex_.edge_by_id:
        raise UnknownEdgeError(f"unknown edge {anchor!r}")
    circuits = _all_circuits(complex_, max_length)
    if anchor is not None:
        circuits = [c for c in circuits if c.contains_edge(anchor)]
    return circuits


def _edge_bits(complex_):
    return {e.id: 1 << i for i, e in enumerate(complex_.edges)}


def _all_circuits(complex_, max_length):
    """Depth-first search on vertex ranks, with the used edges and the
    visited vertices as bit sets."""
    def build():
        vertices = sorted(complex_.vertex_set)
        rank = {v: i for i, v in enumerate(vertices)}
        bit = _edge_bits(complex_)
        # rank -> (signed edge, end rank, edge bit) of each step leaving it
        outs = [[(step, rank[complex_.edge_endpoints(step)[1]], bit[step[1]])
                 for step in complex_.incident(v)] for v in vertices]
        found = {}  # used-edge bits -> circuit
        for start in range(len(vertices)):
            # only circuits whose least vertex is the start; prevents
            # rediscovery from every vertex on the circuit
            stack = [(start, (), 0, 1 << start)]
            while stack:
                cur, walk, used, visited = stack.pop()
                for step, end, b in outs[cur]:
                    if used & b:
                        continue
                    if end == start:
                        if used | b not in found:
                            found[used | b] = make_circuit(walk + (step,))
                        continue
                    if len(walk) + 1 >= max_length or end < start or visited >> end & 1:
                        continue
                    stack.append((end, walk + (step,), used | b, visited | 1 << end))
        return tuple(sorted(found.values(), key=lambda c: (len(c.walk), c.key)))
    key = ("circuits", max_length)
    return list(complex_.cached(key, build))


def decompose_into_circuits(complex_, cycle):
    """Split an integral 1-cycle into circuit-induced cycles, norms adding.

    Greedy walk extraction: trace sign-respecting steps through the support
    and peel a circuit at the first repeated vertex.  The returned circuits
    satisfy sum(induced) == cycle and sum of lengths == l1(cycle).
    """
    if cycle.ring != INT:
        raise NotACycleError("decomposition is defined for integral cycles")
    if not is_cycle(complex_, cycle):
        raise NotACycleError("boundary is nonzero")
    remaining = dict(cycle.coeffs)
    out = []
    while remaining:
        start_eid = min(remaining)
        sign = 1 if remaining[start_eid] > 0 else -1
        start, _ = complex_.edge_endpoints((sign, start_eid))
        walk = []
        positions = {start: 0}
        cur = start
        while True:
            step = _least_outgoing(complex_, remaining, cur)
            walk.append(step)
            cur = complex_.edge_endpoints(step)[1]
            if cur in positions:
                circ_walk = walk[positions[cur]:]
                break
            positions[cur] = len(walk)
        circuit = make_circuit(circ_walk)
        out.append(circuit)
        for s, eid in circ_walk:
            remaining[eid] -= s
            if remaining[eid] == 0:
                del remaining[eid]
    return out


def _least_outgoing(complex_, remaining, vertex):
    # flow conservation of cycles guarantees an outgoing step exists
    for step in complex_.incident(vertex):
        sign, eid = step
        c = remaining.get(eid, 0)
        if c * sign > 0:
            return step
    raise NotACycleError(f"no continuation at vertex {vertex!r}")


def enumerate_cycles(complex_, max_norm, fills=None, above=None):
    """Every integral 1-cycle with l1-norm <= max_norm, exactly once, sorted
    by (norm, serialization); includes the zero cycle.

    Realized by summing sign-conformal multisets of signed circuits, those
    in which no edge cancels, so that a sum's norm is its total length.
    Complete because every cycle splits into circuits with additive norms
    (:func:`decompose_into_circuits`), and every part of such a split is
    again sign-conformal.

    ``filling.fv`` also passes ``fills``: a (circuit, filling value) pair
    for every circuit of length <= max_norm, sorted by length, every value
    finite.  From them come L(k), the largest fill of a circuit of length
    <= k, and U, its superadditive closure, which bounds the summed fills
    of any circuit multiset of total length <= r.  Then only the candidates
    come back, as their serializations (``Chain.serialize`` keys) in the
    same (norm, serialization) order: the cycles reached by a sum whose
    summed fill is >= L(norm).  A sum at norm u with summed fill s is not
    extended when s + U(r) < L(u + r) for every r >= 1 within max_norm, as
    no extension of it is a candidate.  ``filling.fv_value`` also passes
    ``above``, a value: then the candidates are the cycles reached by a sum
    whose summed fill exceeds it, at every norm alike.

    The search runs on ints.  Each signed circuit carries the bit masks of
    its positive and its negative edges, and so does each sum, exactly,
    since no edge of a sign-conformal sum cancels; a circuit conforms to a
    sum when neither mask of one meets the other mask of the opposite sign.
    The fill values are scaled by the lcm D of their denominators, which
    leaves every comparison of summed fills as it is.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    as_keys = fills is not None
    if fills is None:
        circuits = _all_circuits(complex_, max_norm) if max_norm >= 1 else []
        fills = [(circuit, 0) for circuit in circuits]
    den = lcm(*(value.denominator for _, value in fills))
    values = [value.numerator * (den // value.denominator) for _, value in fills]
    lower = [0] * (max_norm + 1)
    for (circuit, _), value in zip(fills, values):
        lower[circuit.length] = max(lower[circuit.length], value)
    upper = [0] * (max_norm + 1)
    for k in range(1, max_norm + 1):
        lower[k] = max(lower[k], lower[k - 1])
        upper[k] = max(lower[j] + upper[k - j] for j in range(1, k + 1))
    # target[u]: the least summed fill of a candidate at norm u
    if above is None:
        target = lower
    else:
        above = Fraction(above)
        target = [above.numerator * den // above.denominator + 1] * (max_norm + 1)
    # reach[u]: the least summed fill at norm u that some extension can
    # raise to the target of its norm
    reach = [min((target[u + r] - upper[r] for r in range(1, max_norm - u + 1)), default=0)
             for u in range(max_norm + 1)]
    bit = _edge_bits(complex_)
    signed = []  # (edge vector, positive edge bits, negative edge bits)
    for circuit, _ in fills:
        pos = sum(bit[e] for s, e in circuit.walk if s > 0)
        neg = sum(bit[e] for s, e in circuit.walk if s < 0)
        signed.append(([(e, s) for s, e in circuit.walk], pos, neg))
        signed.append(([(e, -s) for s, e in circuit.walk], neg, pos))
    lens = [circuit.length for circuit, _ in fills]
    found = {(): 0}  # serialization -> norm

    def extend(start, used, filled, acc, apos, aneg):
        for i in range(start, len(fills)):
            li = lens[i]
            if used + li > max_norm:
                break  # circuits come sorted by length
            for vec, vpos, vneg in signed[2 * i:2 * i + 2]:
                if vpos & aneg or vneg & apos:
                    continue
                nxt, norm, total = acc, used, filled
                npos, nneg = apos | vpos, aneg | vneg
                while norm + li <= max_norm:
                    nxt = dict(nxt)
                    for e, c in vec:
                        nxt[e] = nxt.get(e, 0) + c
                    norm += li
                    total += values[i]
                    if total >= target[norm]:
                        found.setdefault(tuple(sorted(nxt.items())), norm)
                    if norm < max_norm and total >= reach[norm]:
                        extend(i + 1, norm, total, nxt, npos, nneg)

    extend(0, 0, 0, {}, 0, 0)
    keys = sorted(found, key=lambda k: (found[k], k))
    return keys if as_keys else [Chain(1, INT, dict(key)) for key in keys]


# -- cy v1 text format --------------------------------------------------------

_CY_HEADER = "chain1 v1"


def parse_chain(text):
    lines = content_lines(text)
    if not lines:
        raise FormatError("empty chain file")
    head = lines[0].split()
    if len(head) != 3 or " ".join(head[:2]) != _CY_HEADER or head[2] not in (INT, RAT, "INT", "RAT"):
        raise FormatError(f"expected '{_CY_HEADER} <INT|RAT>' header")
    ring = INT if head[2] in (INT, "INT") else RAT
    acc = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"cannot parse chain line: {line!r}")
        coeff = parse_ratio(parts[0])
        if ring == INT and coeff.denominator != 1:
            raise FormatError(f"rational coefficient {parts[0]} in INT chain")
        acc[parts[1]] = acc.get(parts[1], 0) + (coeff.numerator if ring == INT else coeff)
    return Chain(1, ring, acc)


def write_chain(chain):
    tag = "INT" if chain.ring == INT else "RAT"
    out = [f"{_CY_HEADER} {tag}"]
    for cell, c in sorted(chain.coeffs.items()):
        out.append(f"{format_ratio(c)} {cell}")
    return "\n".join(out) + "\n"


def require_circuit(complex_, chain):
    """The Circuit inducing ``chain``, or NotACircuitError."""
    circ = circuit_from_chain(complex_, chain)
    if circ is None:
        raise NotACircuitError("chain is not induced by a circuit")
    return circ
