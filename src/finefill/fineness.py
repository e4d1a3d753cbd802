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

One search per face serves every edge.  A state's successors depend only on
its set of signed faces, so the states based at e are
S(e) = union over the faces f meeting e of R(f, +1) and R(f, -1), where
R(f, s) is the set of states reachable from the single signed face (f, s).
Negating every sign maps states to states, so R(f, -1) = -R(f, +1): each
face is searched once, from sign +1, and every state of R(f, +1) holds
(f, +1), so no two of them are negatives of each other.
:func:`fineness_certificate` runs each face's search once and shares it
among the edges of the face, keeping only its size and its circuits until
the last of those edges is done; :func:`enumerate_special_chains` and
:func:`circuits_via_fillings` search the faces of their one edge.

Circuits are read off the list of circuits of length <= L that the FV bound
has already enumerated, by their support: a cycle supported on exactly the
edges of a circuit is a multiple of the circuit's cycle, so a +-1 boundary
is a circuit exactly when its support is the support of one.  x and -x
induce the same circuit, so it is found once per state of one sign, from
the running boundary the search holds; of x and -x, the one whose least
face has sign -1 comes first, and the circuit runs along its boundary,
which is +-running.

The budget bounds |S(e)|: an edge is INCOMPLETE exactly when it has more
than ``budget`` states.  A face search that expands more than budget // 2
states proves that for every edge of the face; otherwise every search is
complete and |S(e)| is twice the number of classes {x, -x} among them,
which twice the sum of the search sizes bounds from above (when that bound
exceeds the budget, the edge's faces are searched again for the classes).
Inside the searches a state is a frozenset holding 2g + (s > 0) for each
signed face (g, s), faces numbered in id order, and a boundary is an
{edge index: coefficient} dict; Chain objects are built for output only.
"""

from dataclasses import dataclass

from .chains import Circuit, enumerate_circuits
from .complexes import Chain, INT
from .errors import (BudgetExceededError, FillingInfiniteError,
                     FVInfiniteError, UnknownEdgeError)
from .filling import INF, filling_norm, fv

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
        faces = [f for f, _ in self.steps]
        if len(set(faces)) != len(faces):
            return False
        running = Chain(1, INT, {})
        for k, (fid, sign) in enumerate(self.steps):
            df = complex_.face_boundary(fid)
            probe = {self.base_edge} if k == 0 else set(running.coeffs)
            if probe.isdisjoint(df.coeffs):
                return False
            running = running.add(df.scale(sign))
            if running != self.partials[k]:
                return False
        return True


def enumerate_special_chains(complex_, edge, max_norm, budget=DEFAULT_BUDGET):
    """Every special 2-chain based at ``edge`` with norm <= max_norm.

    Distinct orderings of one chain are merged; output is sorted by
    (norm, serialization).  Refuses with BudgetExceededError rather than
    silently truncating when the state budget runs out.
    """
    tables = _Tables(complex_)
    faces = tables.faces_meeting(edge)
    if max_norm < 1:
        return []
    cap = max(budget, 0)
    reps = _representatives(tables, faces, max_norm, cap)
    if reps is None or 2 * len(reps) > cap:
        raise BudgetExceededError(
            f"special-chain search for edge {edge!r} exceeded {budget} states")
    states = sorted(_order(x) for r in reps for x in (r, _negate(r)))
    return [tables.chain(o) for _, o in states]


class _Tables:
    """The int form of a complex that the special-chain search runs on.

    Faces are numbered in id order and a signed face (g, s) is the int
    2g + (s > 0), so sorting these ints sorts the (face id, sign) pairs of
    ``Chain.serialize``.  ``circuits`` maps the edge-index support of every
    circuit of length <= max_length to the circuit; it is empty when
    max_length < 1, and the search then finds no circuits.
    """

    def __init__(self, complex_, max_length=0):
        self.face_ids = sorted(f.id for f in complex_.faces)
        self.edge_index = {e.id: i for i, e in enumerate(complex_.edges)}
        self.face_boundary = [
            {self.edge_index[eid]: c
             for eid, c in complex_.face_boundary(fid).coeffs.items()}
            for fid in self.face_ids]
        self.meets = [[] for _ in complex_.edges]  # edge -> faces, ascending
        for g, df in enumerate(self.face_boundary):
            for e in df:
                self.meets[e].append(g)
        self.circuits = {
            frozenset(self.edge_index[eid] for _, eid in circ.walk): circ
            for circ in (enumerate_circuits(complex_, None, max_length)
                         if max_length >= 1 else ())}

    def faces_meeting(self, edge):
        if edge not in self.edge_index:
            raise UnknownEdgeError(f"unknown edge {edge!r}")
        return self.meets[self.edge_index[edge]]

    def chain(self, ordinals):
        """The 2-chain of the signed faces ``ordinals``."""
        return Chain(2, INT, {self.face_ids[o >> 1]: 1 if o & 1 else -1
                              for o in ordinals})


def _negate(x):
    return frozenset(o ^ 1 for o in x)


def _representative(x):
    """Of x and -x, the one whose least face has sign +1."""
    return x if min(x) & 1 else _negate(x)


def _order(x):
    """The (norm, serialization) sort key of state x."""
    return len(x), tuple(sorted(x))


def _search_face(tables, g, max_norm, cap):
    """Depth-first search of the states reachable from (g, +1), expanding
    at most ``cap`` states: (states, circuits, cut).

    A state's successors add one signed face that meets the support of its
    boundary and is not yet in it; states of norm max_norm are not expanded.
    ``states`` holds every state generated, each containing (g, +1).
    ``circuits`` maps a circuit key to (order, circuit), ``order`` the
    :func:`_order` key of the least state, over the expanded states and
    their negatives, whose boundary is +-1 times a circuit of
    ``tables.circuits``; the circuit runs along that state's boundary.
    ``cut`` is set when the search stopped at its cap with states left to
    expand.
    """
    face_boundary, meets, by_support = tables.face_boundary, tables.meets, tables.circuits
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
        circ = by_support.get(frozenset(running)) if by_support else None
        if circ is not None:
            # running is c times the circuit's cycle; the first of x and -x
            # has least face sign -1, and the circuit runs along its boundary
            sign, eid = circ.walk[0]
            c = sign * running[tables.edge_index[eid]]
            first = x
            if min(x) & 1:
                first, c = _negate(x), -c
            least = _order(first)
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


def _representatives(tables, faces, max_norm, budget):
    """The states based at an edge met by ``faces``, up to sign: each class
    {x, -x} by its member whose least face has sign +1.  None when a face
    search stops at its cap of budget // 2 expansions, which proves
    |S(edge)| >= 2 |R(f, +1)| > budget; the union is left partial once
    it already holds more than budget / 2 classes."""
    reps = set()
    for g in faces:
        states, _, cut = _search_face(tables, g, max_norm, budget // 2)
        if cut:
            return None
        reps.update(map(_representative, states))
        if 2 * len(reps) > budget:
            break
    return reps


def _edge_record(tables, edge, max_norm, budget, searches):
    """(complete, circuits) for ``edge``: whether S(edge) has at most
    ``budget`` states, and the circuits of ``tables.circuits`` through the
    edge that the boundaries of the searched states induce.

    ``searches`` maps a face to its (size, circuits, cut), searched here
    when missing; only the number of states of a face search is kept.  A
    cut search decides INCOMPLETE; otherwise |S(edge)| = 2 |union of
    representatives|, which is at most 2 x the sum of the sizes: when that
    sum does not settle the budget, the faces are searched again for the
    union.  Each circuit runs in the direction of the boundary of its least
    state in (norm, serialization) order, as :func:`_search_face` oriented
    it.
    """
    faces = tables.faces_meeting(edge)
    if max_norm < 1:
        return True, []
    budget = max(budget, 0)
    for g in faces:
        if g not in searches:
            states, circuits, cut = _search_face(tables, g, max_norm, budget // 2)
            searches[g] = (len(states), circuits, cut)
    mine = [searches[g] for g in faces]
    if any(cut for _, _, cut in mine):
        complete = False
    elif 2 * sum(size for size, _, _ in mine) <= budget:
        complete = True
    else:
        complete = 2 * len(_representatives(tables, faces, max_norm, budget)) <= budget
    least = {}
    for _, circuits, _ in mine:
        for key, (order, circ) in circuits.items():
            if key not in least or order < least[key][0]:
                least[key] = (order, circ)
    found = [circ for _, circ in least.values() if circ.contains_edge(edge)]
    return complete, sorted(found)


def find_special_ordering(complex_, chain2, base_edge):
    """A special ordering of the chain's signed faces, or None."""
    if any(abs(c) != 1 for c in chain2.coeffs.values()):
        return None  # repeated faces cannot form a distinct-face sequence
    if base_edge not in complex_.edge_by_id:
        raise UnknownEdgeError(f"unknown edge {base_edge!r}")
    entries = sorted(chain2.coeffs.items())
    dead = set()

    def extend(order, running, remaining):
        if not remaining:
            return order
        rem_key = frozenset(remaining)
        if rem_key in dead:
            return None
        probe = {base_edge} if not order else set(running.coeffs)
        for fid in sorted(remaining):
            df = complex_.face_boundary(fid)
            if probe.isdisjoint(df.coeffs):
                continue
            sign = chain2.coeffs[fid]
            got = extend(order + [(fid, sign)], running.add(df.scale(sign)),
                         remaining - {fid})
            if got is not None:
                return got
        dead.add(rem_key)
        return None

    order = extend([], Chain(1, INT, {}), frozenset(f for f, _ in entries))
    if order is None:
        return None
    partials = []
    running = Chain(1, INT, {})
    for fid, sign in order:
        running = running.add(complex_.face_boundary(fid).scale(sign))
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
    1-acyclic complexes it must reproduce the search exactly.
    """
    bound = _special_chain_bound(complex_, max_length)
    complete, circuits = _edge_record(_Tables(complex_, max_length), edge, bound,
                                      budget, {})
    if not complete:
        raise BudgetExceededError(
            f"special-chain search for edge {edge!r} exceeded {budget} states")
    return circuits


def _special_chain_bound(complex_, max_length):
    """FV_Z(max_length): the norm bound of the special-chain method."""
    table = fv(complex_, max_length, INT)
    if table.value(max_length) is INF:  # FV is monotone in the scale
        raise FVInfiniteError(
            f"FV_Z is infinite at scale <= {max_length}; the special-chain "
            "method does not apply")
    return int(table.value(max_length))


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
        # a face is searched for the first edge it meets; the size and the
        # circuits kept of its search are dropped after the last one
        last = {g: i for i, faces in enumerate(tables.meets) for g in faces}
        searches = {}
        for i, e in enumerate(complex_.edges):
            complete, circuits = _edge_record(tables, e.id, bound, budget, searches)
            for g in tables.meets[i]:
                if last[g] == i:
                    searches.pop(g, None)
            status = "OK" if complete else "INCOMPLETE"
            if not complete:
                exact = False
            records.append(FinenessRecord(e.id, len(circuits), tuple(circuits),
                                          status))
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
    residual = [gamma.coeffs.get(eid, 0) for eid in tables.edge_index]
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
