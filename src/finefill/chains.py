"""Cycles, circuits, and bounded enumeration.

A circuit is a simple closed combinatorial path: vertices distinct except
the closing return, edges pairwise distinct.  Circuits are deduplicated by
a canonical key (lexicographically least over rotations and the two
directions), so loops and parallel-edge bigons count once each.  The search
follows each circuit in one direction only, the one whose walk a search in
both directions would keep, so each circuit is closed and keyed once; its
edge set, which determines the circuit, is the cache key.  It drops every
path that is too far from its start to close within the length bound,
which cuts only subtrees holding no circuit, so the walks, keys and their
order stay those of the full search.
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

    def induced_cycle(self):
        return Chain(1, INT, {e: s for s, e in self.walk})

    def __lt__(self, other):
        return (self.length, self.key) < (other.length, other.key)


def _walk_tokens(walk):
    return tuple(("+" if s > 0 else "-") + e for s, e in walk)


def _reverse_walk(walk):
    return tuple((-s, e) for s, e in reversed(walk))


def canonical_walk_key(walk):
    """Least token tuple over all rotations of both directions."""
    walk = tuple(walk)
    return _least_rotation(_walk_tokens(walk), _walk_tokens(_reverse_walk(walk)))


def _least_rotation(toks, rtoks):
    """The least rotation of the token tuple of a walk or of the one of its
    reversal, None for the empty walk; only the rotations starting at the
    least token can be least."""
    if not toks:
        return None
    least = min(min(toks), min(rtoks))
    best = None
    for w in (toks, rtoks):
        for r, tok in enumerate(w):
            if tok == least:
                cand = w[r:] + w[:r]
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
    """The circuit inducing ``chain``, or None if it is not one.

    A chain with every coefficient +-1 on known edges is circuit-induced
    exactly when it is a cycle that :func:`decompose_into_circuits` splits
    into exactly one part (the zero chain has none); the walk starts at the
    tail of the chain's least edge.  The split itself refuses a chain that
    is not a cycle, so the boundary is not computed.
    """
    if chain.dimension != 1 or any(abs(c) != 1 or e not in complex_.edge_by_id
                                   for e, c in chain.coeffs.items()):
        return None
    try:
        parts = _split(complex_, chain.coeffs)
    except NotACycleError:
        return None
    return parts[0] if len(parts) == 1 else None


def enumerate_circuits(complex_, anchor=None, max_length=1):
    """All circuits of length <= max_length, sorted by (length, key).

    With ``anchor`` set, only circuits containing that edge are returned
    (same list, filtered), matching the direct-search reading of fineness.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    if anchor is not None and anchor not in complex_.edge_by_id:
        raise UnknownEdgeError(f"unknown edge {anchor!r}")
    circuits = list(circuit_masks(complex_, max_length).values())
    if anchor is not None:
        circuits = [c for c in circuits if c.contains_edge(anchor)]
    return circuits


def circuit_masks(complex_, max_length):
    """The circuits of length <= max_length keyed by their edge support
    masks (bit i for the edge at ``complex_.edge_index`` i), in (length, key)
    order; the one cached dict, not a copy."""
    return complex_.cached(("circuits", max_length), lambda: _all_circuits(complex_, max_length))


def _all_circuits(complex_, max_length):
    """Depth-first search on vertex ranks, with the used edges and the
    visited vertices as bit sets, for the circuits whose least vertex is
    the start, each in one direction.

    The steps leaving the start are its root steps, in ``skeleton()``
    order.  Of a circuit's two walks from the start, the one kept leaves by
    the later of its two root steps and returns along the earlier one, so
    under root step q only the edges of the root steps before q close a
    walk, and a loop closes at the root, (+1, e) first.  back[v] is then
    the BFS distance from v through vertices above the start to the end of
    a root step before q, plus the closing step, and a path of length l
    ending at v is pushed only when l + back[v] <= max_length: no closing
    walk can start from any other.  Each step's token and the token of its
    reversal are built once, and each circuit is keyed once, when it closes.
    """
    steps = complex_.skeleton()[2]
    # step number -> signed edge, its token and the token of its reversal
    table = [step for row in steps for step, _, _ in row]
    tokens = [("+" if s > 0 else "-") + e for s, e in table]
    rtokens = [("-" if s > 0 else "+") + e for s, e in table]
    # rank -> (step number, end rank, edge bit) of each step leaving it
    outs, n = [], 0
    for row in steps:
        outs.append([(n + k, end, 1 << i) for k, (_, end, i) in enumerate(row)])
        n += len(row)

    def circuit(walk):
        return Circuit(tuple(map(table.__getitem__, walk)),
                       _least_rotation(tuple(map(tokens.__getitem__, walk)),
                                       tuple(map(rtokens.__getitem__, reversed(walk)))))

    found = {}  # used-edge bits -> circuit
    for start, roots in enumerate(outs):
        # distances below max_length; max_length stands for every larger
        # one, for the vertices below the start and for no earlier root step
        back = [max_length] * len(outs)
        closing = 0  # the edge bits of the root steps before the current one
        for root, first, b in roots:
            if first == start:
                if b not in found:
                    found[b] = circuit((root,))
                continue
            if first < start:
                continue
            if back[first] < max_length:  # only after a root step that closes
                stack = [(first, (root,), b, 1 << start | 1 << first)]
                while stack:
                    cur, walk, used, visited = stack.pop()
                    room = max_length - len(walk) - 1  # the steps left after the next one
                    for step, end, bit in outs[cur]:
                        if end == start:
                            if bit & closing:
                                found[used | bit] = circuit(walk + (step,))
                        elif back[end] <= room and not visited >> end & 1:
                            # a used edge has both ends visited
                            stack.append((end, walk + (step,), used | bit, visited | 1 << end))
            closing |= b
            if back[first] > 1:
                # the end of this root step is one step from closing: lower
                # the distances it shortens
                back[first] = 1
                frontier = [first]
                for d in range(2, max_length):
                    nxt = []
                    for v in frontier:
                        for _, end, _ in outs[v]:
                            if end > start and back[end] > d:
                                back[end] = d
                                nxt.append(end)
                    if not nxt:
                        break
                    frontier = nxt
    return dict(sorted(found.items(), key=lambda mc: (len(mc[1].walk), mc[1].key)))


def as_integral(chain, refusal):
    """``chain`` over INT; NotACycleError(refusal) if a coefficient is not an integer."""
    if chain.ring != INT and any(c.denominator != 1 for c in chain.coeffs.values()):
        raise NotACycleError(refusal)
    return chain if chain.ring == INT else chain.to_ring(INT)


def decompose_into_circuits(complex_, cycle):
    """Split an integral 1-cycle into circuit-induced cycles, norms adding.

    Greedy walk extraction: trace sign-respecting steps through the support
    and peel a circuit at the first repeated vertex.  The returned circuits
    satisfy sum(induced) == cycle and sum of lengths == l1(cycle).  A RAT
    cycle with integer coefficients is taken over INT.
    """
    cycle = as_integral(cycle, "decomposition is defined for integral cycles")
    if not is_cycle(complex_, cycle):
        raise NotACycleError("boundary is nonzero")
    return _split(complex_, cycle.coeffs)


def _split(complex_, coeffs):
    """The circuits the greedy walk of :func:`decompose_into_circuits` peels
    off the integral 1-chain {edge id: coefficient} ``coeffs`` on known
    edges.  On a chain that is not a cycle the walk gets stuck and raises
    NotACycleError, since every circuit it peels off is a cycle."""
    order, rank, steps = complex_.skeleton()
    remaining = dict(coeffs)
    out = []
    while remaining:
        eid = min(remaining)
        cur = rank[complex_.edge_endpoints((1 if remaining[eid] > 0 else -1, eid))[0]]
        walk, positions = [], {cur: 0}
        while True:
            # flow conservation of cycles guarantees an outgoing step exists
            for step, end, _ in steps[cur]:
                if remaining.get(step[1], 0) * step[0] > 0:
                    break
            else:
                raise NotACycleError(f"no continuation at vertex {order[cur]!r}")
            walk.append(step)
            cur = end
            if cur in positions:
                circ_walk = walk[positions[cur]:]
                break
            positions[cur] = len(walk)
        out.append(make_circuit(circ_walk))
        for s, eid in circ_walk:
            remaining[eid] -= s
            if remaining[eid] == 0:
                del remaining[eid]
    return out


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
    come back, in the same (norm, serialization) order: the zero cycle,
    then the cycles reached by a sum of two or more circuits, or of one
    circuit taken two or more times, whose summed fill is >= L(norm), and
    > L(norm) where L(norm) = L(norm - 1).  A single circuit is left out:
    its only split is itself, so its fill is in ``fills`` already.  Each
    candidate comes as a triple (norm, serialization, bound): its l1-norm,
    its ``Chain.serialize`` key and the least summed fill of the sums kept
    for it (an int when every fill is integral).  Filling norms are
    subadditive, so that bound is at least the candidate's filling value.
    The triples depend on the circuits and the values of their fills only,
    not on the type of the values.  A sum at norm u is not extended when no
    extension of it within max_norm can be a candidate: its summed fill
    plus U(r) falls short at every norm u + r.  ``filling.fv_value`` also
    passes ``above``, a value: then the candidates after the zero cycle are
    the cycles reached by a sum whose summed fill exceeds it, at every norm
    alike.

    The search runs on ints.  Each signed circuit carries the bit masks of
    its positive and its negative edges, built in one pass over its walk,
    and so does each sum, exactly, since no edge of a sign-conformal sum
    cancels; a circuit conforms to a sum when neither mask of one meets the
    other mask of the opposite sign.  The fill values are scaled by the lcm
    D of their denominators, which leaves every comparison of summed fills
    as it is.  A sum's edge dict is built, from the circuit's walk, only
    when the sum is kept or extended.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    gated = fills is not None
    if fills is None:
        circuits = circuit_masks(complex_, max_norm).values() if max_norm >= 1 else []
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
    # target[u]: the least summed fill of a candidate at norm u; where
    # L(u) = L(u - 1), a sum of fill L(u) fills to at most FV(u - 1)
    if above is not None:
        above = Fraction(above)
        target = [above.numerator * den // above.denominator + 1] * (max_norm + 1)
    elif gated:
        target = lower[:1] + [low + (low == prev) for prev, low in zip(lower, lower[1:])]
    else:
        target = lower
    # reach[u]: the least summed fill at norm u that some extension can
    # raise to the target of its norm
    reach = [min((target[u + r] - upper[r] for r in range(1, max_norm - u + 1)), default=0)
             for u in range(max_norm + 1)]
    index = complex_.edge_index
    walks = [circuit.walk for circuit, _ in fills]
    masks = []  # (positive edge bits, negative edge bits) of each circuit
    for walk in walks:
        pos = neg = 0
        for s, e in walk:
            if s > 0:
                pos |= 1 << index[e]
            else:
                neg |= 1 << index[e]
        masks.append((pos, neg))
    # serialization -> [norm, least summed fill of a sum kept for it]
    found = {(): [0, 0]}

    def extend(start, used, filled, acc, apos, aneg):
        for i in range(start, len(fills)):
            walk = walks[i]
            li = len(walk)
            if used + li > max_norm:
                break  # circuits come sorted by length
            pos, neg = masks[i]
            for sign, vpos, vneg in ((1, pos, neg), (-1, neg, pos)):
                if vpos & aneg or vneg & apos:
                    continue
                nxt, norm, total, times = acc, used, filled, 0
                npos, nneg = apos | vpos, aneg | vneg
                while norm + li <= max_norm:
                    norm += li
                    total += values[i]
                    times += sign
                    # norm == li: this circuit alone, whose fill the caller has
                    kept = total >= target[norm] and (norm != li or not gated)
                    grown = norm < max_norm and total >= reach[norm]
                    if not (kept or grown):
                        continue
                    # the sum's edge dict, built only for a sum kept or extended
                    nxt = dict(nxt)
                    for s, e in walk:
                        nxt[e] = nxt.get(e, 0) + times * s
                    times = 0
                    if kept:
                        key = tuple(sorted(nxt.items()))
                        entry = found.get(key)
                        if entry is None:
                            found[key] = [norm, total]
                        elif total < entry[1]:
                            entry[1] = total
                    if grown:
                        extend(i + 1, norm, total, nxt, npos, nneg)

    extend(0, 0, 0, {}, 0, 0)
    keys = sorted(found, key=lambda k: (found[k][0], k))
    if not gated:
        return [Chain(1, INT, dict(key)) for key in keys]
    return [(found[key][0], key, found[key][1] if den == 1 else Fraction(found[key][1], den))
            for key in keys]


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
