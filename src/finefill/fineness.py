"""Special 2-chains and bounded-scale fineness certificates.

A special 2-chain based at an edge e is an ordered sequence of distinct
signed faces whose running boundaries chain together through shared edges,
starting at e.  Minimal fillings of circuits through e are special, and
there are finitely many special chains of each norm, so enumerating them
recovers every bounding circuit through e; that argument is implemented
here verbatim and cross-checked against direct graph search.

The search explores unordered chains (the extension condition only depends
on the running boundary, which is determined by the chain), so factorially
many orderings collapse to one state; an ordering witness is reconstructed
on demand.

One search expands each class {x, -x} once.  A state's successors depend
only on its set of signed faces, so the states based at e are
S(e) = union over the faces f meeting e of R(f, +1) and R(f, -1), where
R(f, s) is the set of states reachable from the single signed face (f, s).
Negating every sign maps successors to successors, so R(f, -1) = -R(f, +1)
and the search runs on classes, each keyed by its member whose least face
has sign +1.  It starts from a set of seed faces g, each the class of
(g, +1), and goes level by level in norm.  Each class carries a reach mask,
the seeds whose search reaches it: 1 << g for the seed g, and the OR of its
parents' masks for any other class.  Every parent has norm one less, so a
mask is final before its level is expanded.  S(e) is then the classes whose
mask meets the faces of e, each as x and -x.

Circuits are read off the list of circuits of length <= L that the FV bound
has already enumerated, by their support: a cycle supported on exactly the
edges of a circuit is a multiple of the circuit's cycle, so a +-1 boundary
is a circuit exactly when its support is the support of one.  x and -x
induce the same circuit, so it is found once per class.  Each circuit
carries the OR of the reach masks of the classes inducing it, and it is
listed at e when that OR meets the faces of e.  A record lists the circuit
list's own objects, the ones :func:`chains.enumerate_circuits` returns, so
both methods return the same circuits, each with its canonical walk.

The budget bounds |S(e)|: an edge is INCOMPLETE exactly when it has more
than ``budget`` states.  A search stops as soon as it has found more than
budget / 2 classes.  :func:`fineness_certificate` seeds every face; when
that search finishes, every edge is OK, and otherwise each edge is decided
by a search seeded with the faces meeting it, which finds |S(e)| / 2
classes or stops.  :func:`enumerate_special_chains` and
:func:`circuits_via_fillings` seed the faces of their one edge.  An
INCOMPLETE record lists the circuits of the classes found before the stop.

Inside the search a state is an int with bit 2g + (s > 0) set for each
signed face (g, s), faces numbered in id order.  A level maps each class to
its mask, except a last level after the first, which is a set.  A class's
running boundary, an {edge index: coefficient} dict, is recomputed from its
bits when it is expanded, and its successors are generated in ascending
face order, sign +1 before -1; a child's support mask, by which circuits
are looked up, is read off the parent's boundary.  Beyond its level, a
class is kept only as its mask, ORed into the reach of the circuit its
boundary is, if any.  Chain objects are built for output only.
"""

from dataclasses import dataclass

from .chains import circuit_masks, enumerate_circuits
from .complexes import Chain, INT, boundary, require_cells
from .errors import (BudgetExceededError, FillingInfiniteError,
                     FVInfiniteError, UnknownEdgeError)
# fv is not called here, but perfbench/spans.py wraps it under this name
from .filling import INF, filling_norm, fv, fv_value  # noqa: F401

DEFAULT_BUDGET = 10 ** 7

GRAPH_SEARCH = "GRAPH_SEARCH"
SPECIAL_CHAIN = "SPECIAL_CHAIN"


@dataclass(frozen=True)
class SpecialChainState:
    """Ordered signed-face sequence with its running partial boundaries."""

    base_edge: str
    steps: tuple     # ((face_id, sign), ...)
    partials: tuple  # partials[k] = boundary of the first k+1 steps

    def chain(self):
        return Chain(2, INT, {f: s for f, s in self.steps})

    def norm(self):
        return len(self.steps)

    def verify(self, complex_):
        """Check the chaining clauses on every prefix; True iff special."""
        require_cells(self.chain(), 2, complex_.face_by_id)
        faces = [f for f, _ in self.steps]
        if len(set(faces)) != len(faces) or len(self.partials) != len(self.steps):
            return False
        running = Chain(1, INT, {})
        for k, (fid, sign) in enumerate(self.steps):
            step = boundary(complex_, Chain(2, INT, {fid: sign}))
            probe = {self.base_edge} if k == 0 else set(running.coeffs)
            if probe.isdisjoint(step.coeffs):
                return False
            running = running.add(step)
            if running != self.partials[k]:
                return False
        return True


def enumerate_special_chains(complex_, edge, max_norm, budget=DEFAULT_BUDGET):
    """Every special 2-chain based at ``edge`` with norm <= max_norm.

    Distinct orderings of one chain are merged; output is sorted by
    (norm, serialization).  Refuses with BudgetExceededError rather than
    silently truncating when the state budget runs out.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    tables = _Tables(complex_)
    levels = []
    if not _search(tables, tables.faces_meeting(edge), max_norm, budget, levels)[0]:
        raise BudgetExceededError(
            f"special-chain search for edge {edge!r} exceeded {budget} states")
    states = sorted(_order(x) for level in levels for r in level
                    for x in (r, tables.negate(r)))
    return [tables.chain(o) for _, o in states]


class _Tables:
    """The int form of a complex that the special-chain search runs on.

    Edges are the complex's ``edge_index`` numbers.  Faces are numbered in
    id order and a signed face (g, s) is the int 2g + (s > 0), so sorting
    these ints sorts the (face id, sign) pairs of ``Chain.serialize``; a
    state sets the bit of each of its signed faces.  ``face_boundary[g]``
    is the {edge: coefficient} boundary of g, the complex's face column
    of g, ``face_mask[e]`` sets the bit g of each face g meeting edge e,
    and ``signed[2g + (s > 0)]`` lists the (edge, coefficient, edge bit)
    of s times the boundary of g.  ``circuits`` maps the edge support mask
    of every circuit of length <= max_length to the circuit, in (length,
    key) order, read as the search found them (``chains.circuit_masks``,
    in the same edge numbering); it is empty when max_length < 1, and the
    search then finds no circuits.
    """

    def __init__(self, complex_, max_length=0):
        self.complex = complex_
        faces, columns = complex_.faces, complex_.face_columns()
        by_id = sorted(range(len(faces)), key=lambda j: faces[j].id)
        self.face_ids = [faces[j].id for j in by_id]
        self.face_boundary = [dict(columns[j]) for j in by_id]
        self.meets = [[] for _ in complex_.edges]  # edge -> faces, ascending
        for g, df in enumerate(self.face_boundary):
            for e in df:
                self.meets[e].append(g)
        self.face_mask = [sum(1 << g for g in faces) for faces in self.meets]
        self.signed = [[(e, s * c, 1 << e) for e, c in df.items()]
                       for df in self.face_boundary for s in (-1, 1)]
        self.odd = int("10" * len(self.face_ids) or "0", 2)  # the bits of sign +1
        self.circuits = circuit_masks(complex_, max_length) if max_length >= 1 else {}

    def faces_meeting(self, edge):
        if edge not in self.complex.edge_index:
            raise UnknownEdgeError(f"unknown edge {edge!r}")
        return self.meets[self.complex.edge_index[edge]]

    def negate(self, x):
        """The state of the signed faces of x, every sign flipped."""
        return (x & self.odd) >> 1 | (x << 1 & self.odd)

    def chain(self, ordinals):
        """The 2-chain of the signed faces ``ordinals``."""
        return Chain(2, INT, {self.face_ids[o >> 1]: 1 if o & 1 else -1
                              for o in ordinals})


def _order(x):
    """The (norm, serialization) sort key of state x: its number of signed
    faces and their ints, ascending."""
    ordinals = []
    while x:
        low = x & -x
        ordinals.append(low.bit_length() - 1)
        x ^= low
    return len(ordinals), tuple(ordinals)


def _boundary(signed, x):
    """(running, used) of state x: its boundary as an {edge index:
    coefficient} dict, and the bit mask of its faces."""
    running = {}
    used = 0
    while x:
        low = x & -x
        x ^= low
        o = low.bit_length() - 1
        used |= 1 << (o >> 1)
        for e, c, _ in signed[o]:
            v = running.get(e, 0) + c
            if v:
                running[e] = v
            else:
                del running[e]
    return running, used


def _search(tables, seeds, max_norm, budget, levels=None):
    """Expand once each class {x, -x} of states of norm <= max_norm reachable
    from the faces ``seeds``, level by level in norm: (complete, reach).

    A class is keyed by its member whose least face has sign +1.  Level 1
    holds the class of (g, +1) for each seed g, with reach mask 1 << g;
    level n + 1 holds the successors of the members of level n's classes,
    each class with the OR of the masks of its parents.  Every parent has
    norm n, so a level's masks are final before it is expanded.  A level
    that is expanded maps each class to its mask, and a last level after
    the first is the set of its classes; when ``levels`` is a list, each
    level is appended to it.

    The search stops, with complete False, as soon as it has found more
    than budget / 2 classes, that is more than ``budget`` states.  ``reach``
    maps the edge support mask of each circuit of ``tables.circuits`` that
    the boundary of a class found before the stop is +-1 times to the OR
    of the reach masks of those classes.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    limit = budget // 2
    reach = {}  # circuit support -> OR of its classes' masks
    level = {}
    complete = True
    for g in seeds if max_norm >= 1 else ():
        if len(level) == limit:
            complete = False
            break
        o = 2 * g + 1
        level[1 << o] = 1 << g
        support = sum(b for _, _, b in tables.signed[o])
        if support in tables.circuits and _along({}, tables.signed[o], support):
            reach[support] = reach.get(support, 0) | 1 << g
    found, norm = len(level), 1
    while complete and norm < max_norm:
        norm += 1
        if levels is not None:
            levels.append(level)
        level, complete = _grow(tables, level, norm < max_norm, limit - found, reach)
        found += len(level)
    if levels is not None:
        levels.append(level)
    return complete, reach


def _grow(tables, level, keep, room, reach):
    """The next level after ``level``: (children, complete).

    ``children`` maps each class of the next level to its reach mask when
    ``keep`` is set, and is the set of those classes otherwise.  A class's
    boundary is recomputed from its bits, and its successors are generated
    in ascending face order, sign +1 before -1, each child's support read
    off its parent's boundary.  When a child's boundary is +-1 times a
    circuit, the mask of each parent that generates it is ORed into
    ``reach`` of the circuit's support, as in :func:`_search`.
    ``complete`` is False, and the level partial, when a child is found
    after ``room`` of them.
    """
    signed, face_mask, odd, by_support = (tables.signed, tables.face_mask, tables.odd,
                                          tables.circuits)
    children = {} if keep else set()
    hits = {}  # child whose boundary is +-1 times a circuit -> its support
    for x, mask in level.items():
        running, used = _boundary(signed, x)
        support = candidates = 0
        for e in running:
            support |= 1 << e
            candidates |= face_mask[e]
        candidates &= ~used
        least = (x & -x).bit_length() - 1 >> 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            h = low.bit_length() - 1
            for o in (2 * h + 1, 2 * h):
                z = x | 1 << o
                # z is its class's key unless its new face comes first with sign -1
                y = z if o & 1 or h > least else (z & odd) >> 1 | (z << 1 & odd)
                if y in children:
                    if keep:
                        children[y] |= mask
                    if y in hits:
                        reach[hits[y]] |= mask
                    continue
                if len(children) == room:
                    return children, False
                if keep:
                    children[y] = mask
                else:
                    children.add(y)
                if by_support:
                    child = support
                    for e, c, b in signed[o]:
                        v = running.get(e)
                        if v is None:
                            child |= b
                        elif v + c == 0:
                            child ^= b
                    if child in by_support and _along(running, signed[o], child):
                        hits[y] = child
                        reach[child] = reach.get(child, 0) | mask
    return children, True


def _along(running, step, support):
    """Whether the boundary ``running`` plus the signed face boundary
    ``step``, a cycle on exactly the edges of the bit mask ``support``, is
    +-1 times the circuit on them rather than a larger multiple: its
    coefficient on the least of those edges is +-1."""
    e0 = (support & -support).bit_length() - 1
    return abs(running.get(e0, 0) + sum(c for e, c, _ in step if e == e0)) == 1


def _circuits_through(tables, reach, want):
    """{edge index: circuits} for the edges of the bit mask ``want``: a
    circuit of ``reach``, as :func:`_search` returns it, is listed at each
    of its edges in ``want`` whose faces its mask there meets, each list in
    the (length, key) order of ``tables.circuits``."""
    out = {}
    for support, circ in tables.circuits.items():
        mask = reach.get(support)
        if mask is None:
            continue
        bits = support & want
        while bits:
            low = bits & -bits
            bits ^= low
            i = low.bit_length() - 1
            if mask & tables.face_mask[i]:
                out.setdefault(i, []).append(circ)
    return out


def find_special_ordering(complex_, chain2, base_edge):
    """A special ordering of the chain's signed faces, or None."""
    if base_edge not in complex_.edge_by_id:
        raise UnknownEdgeError(f"unknown edge {base_edge!r}")
    require_cells(chain2, 2, complex_.face_by_id)
    if any(abs(c) != 1 for c in chain2.coeffs.values()):
        return None  # repeated faces cannot form a distinct-face sequence
    steps = {f: boundary(complex_, Chain(2, INT, {f: s})) for f, s in chain2.coeffs.items()}
    dead = set()

    def extend(order, running, remaining):
        if not remaining:
            return order
        rem_key = frozenset(remaining)
        if rem_key in dead:
            return None
        probe = {base_edge} if not order else set(running.coeffs)
        for fid in sorted(remaining):
            step = steps[fid]
            if probe.isdisjoint(step.coeffs):
                continue
            got = extend(order + [(fid, chain2.coeffs[fid])], running.add(step),
                         remaining - {fid})
            if got is not None:
                return got
        dead.add(rem_key)
        return None

    order = extend([], Chain(1, INT, {}), frozenset(steps))
    if order is None:
        return None
    partials = []
    running = Chain(1, INT, {})
    for fid, _ in order:
        running = running.add(steps[fid])
        partials.append(running)
    state = SpecialChainState(base_edge, tuple(order), tuple(partials))
    if not state.verify(complex_):
        raise AssertionError("ordering search produced a non-special state")
    return state


def circuits_via_fillings(complex_, edge, max_length, budget=DEFAULT_BUDGET):
    """Circuits through ``edge`` of length <= max_length, recovered from
    boundaries of special 2-chains of norm <= FV_Z(max_length).

    Intentionally redundant with direct graph search: this is the
    executable form of the minimal-fillings-are-special argument, and on
    1-acyclic complexes it must reproduce the search exactly: it returns
    the circuit list's own objects, in the same order.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    tables = _Tables(complex_, max_length)
    seeds = tables.faces_meeting(edge)
    bound = _special_chain_bound(complex_, max_length)
    complete, reach = _search(tables, seeds, bound, budget)
    if not complete:
        raise BudgetExceededError(
            f"special-chain search for edge {edge!r} exceeded {budget} states")
    i = complex_.edge_index[edge]
    return _circuits_through(tables, reach, 1 << i).get(i, [])


def _special_chain_bound(complex_, max_length):
    """FV_Z(max_length): the norm bound of the special-chain method, as the
    value alone (:func:`filling.fv_value`), with no table or witness."""
    value = fv_value(complex_, max_length, INT)
    if value is INF:  # FV is monotone in the scale
        raise FVInfiniteError(
            f"FV_Z is infinite at scale <= {max_length}; the special-chain "
            "method does not apply")
    return int(value)


@dataclass(frozen=True)
class FinenessRecord:
    edge: str
    count: int
    circuits: tuple
    status: str  # OK | INCOMPLETE


@dataclass(frozen=True)
class FinenessCertificate:
    scale: int
    method: str
    records: tuple
    exact: bool

    def record(self, edge):
        for r in self.records:
            if r.edge == edge:
                return r
        raise UnknownEdgeError(f"no record for edge {edge!r}")


def fineness_certificate(complex_, scale, method, budget=DEFAULT_BUDGET):
    """Per-edge circuit lists at bounded scale, by direct search or via the
    special-chain argument.  GRAPH_SEARCH certificates are exact by
    construction; SPECIAL_CHAIN ones are exact unless a budget ran out, in
    which case the affected edges are marked INCOMPLETE."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if method not in (GRAPH_SEARCH, SPECIAL_CHAIN):
        raise ValueError(f"unknown method {method!r}")
    records = []
    exact = True
    if method == GRAPH_SEARCH:
        through = {e.id: [] for e in complex_.edges}
        for circ in enumerate_circuits(complex_, None, scale):
            for eid in circ.edge_ids():
                through[eid].append(circ)
        for e in complex_.edges:
            mine = tuple(through[e.id])
            records.append(FinenessRecord(e.id, len(mine), mine, "OK"))
    else:
        bound = _special_chain_bound(complex_, scale)
        tables = _Tables(complex_, scale)
        # one search from every face decides every edge OK when it finishes;
        # otherwise each edge is decided by a search from its own faces
        everywhere, reach = _search(tables, range(len(tables.face_ids)), bound, budget)
        if everywhere:
            through = _circuits_through(tables, reach, (1 << len(complex_.edges)) - 1)
        complete = everywhere
        for i, e in enumerate(complex_.edges):
            if not everywhere:
                complete, reach = _search(tables, tables.meets[i], bound, budget)
                through = _circuits_through(tables, reach, 1 << i)
                exact = exact and complete
            circuits = tuple(through.get(i, ()))
            records.append(FinenessRecord(e.id, len(circuits), circuits,
                                          "OK" if complete else "INCOMPLETE"))
    return FinenessCertificate(scale, method, tuple(records), exact)


@dataclass(frozen=True)
class MinimalFillingsReport:
    ok: bool
    fillings: tuple       # ((chain, SpecialChainState or None), ...)
    counterexample: object

    def orderings(self):
        return tuple(state for _, state in self.fillings if state is not None)


def check_minimal_fillings_special(complex_, circuit, base_edge):
    """Do all minimal integral fillings of the circuit admit special
    orderings based at ``base_edge``?

    Enumerates every integral 2-chain of norm equal to the circuit's
    integral filling norm whose boundary is the circuit, face by face
    under that constraint, then searches for a special ordering of each.
    The fineness argument rules a False out: a norm-minimal filling always
    admits an ordering whose running boundaries stay chained to the base
    edge.
    """
    if not circuit.contains_edge(base_edge):
        raise UnknownEdgeError(f"edge {base_edge!r} is not on the circuit")
    gamma = circuit.induced_cycle()
    res = filling_norm(complex_, gamma, INT)
    if res.value is INF:
        raise FillingInfiniteError("the circuit has no integral filling")
    fillings = tuple((mu, find_special_ordering(complex_, mu, base_edge))
                     for mu in _fillings_within(_Tables(complex_), gamma, int(res.value)))
    refuted = [mu for mu, state in fillings if state is None]
    return MinimalFillingsReport(not refuted, fillings, refuted[0] if refuted else None)


def _fillings_within(tables, gamma, norm):
    """Every integral 2-chain of norm <= ``norm`` bounding ``gamma``, sorted.

    Faces take their coefficients in id order.  Once the last face meeting
    an edge has its coefficient, a branch goes on only if gamma minus the
    boundary is 0 on that edge; an edge on no face is 0 in a gamma that
    bounds.
    """
    last = [faces[-1] if faces else -1 for faces in tables.meets]
    residual = [gamma.coeffs.get(eid, 0) for eid in tables.complex.edge_index]
    coeffs, out = [], []

    def extend(g, rem):
        if g == len(tables.face_ids):
            out.append(Chain(2, INT, {tables.face_ids[h]: c
                                      for h, c in enumerate(coeffs) if c}))
            return
        df = tables.face_boundary[g]
        for c in range(-rem, rem + 1):
            if all(residual[e] == c * b for e, b in df.items() if last[e] == g):
                for e, b in df.items():
                    residual[e] -= c * b
                coeffs.append(c)
                extend(g + 1, rem - abs(c))
                coeffs.pop()
                for e, b in df.items():
                    residual[e] += c * b

    extend(0, norm)
    return sorted(out, key=Chain.serialize)
