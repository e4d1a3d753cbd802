"""Derived complexes: circuit-filling complexes and coned-off Cayley data.

Groups are finite permutation groups given by generators; everything is
enumerated deterministically (breadth-first closure in declaration order,
cosets keyed by least element id) so constructions serialize identically
across runs.
"""

from collections import defaultdict
from dataclasses import dataclass
from itertools import count

from .chains import canonical_walk_key, enumerate_circuits, make_circuit
from .complexes import TwoComplex, content_lines, parse_int, validate, write_complex
from .errors import (CapExceededError, FormatError, HasFacesError,
                     RelatorFailsError, ValidationError)

DEFAULT_GROUP_CAP = 20000


def omega_n(graph, n):
    """Attach one face to every circuit of length <= n of a graph.

    The 1-skeleton is unchanged; faces are named w0, w1, ... in canonical
    circuit order and their attaching walks are the canonical circuit walks.
    """
    if not graph.is_graph():
        raise HasFacesError("omega_n expects a complex with no faces")
    if n < 1:
        raise ValueError("n must be >= 1")

    def build():
        circuits = enumerate_circuits(graph, None, n)
        used = set(graph.vertices) | {e.id for e in graph.edges}
        prefix = "w"
        while any(f"{prefix}{i}" in used for i in range(len(circuits))):
            prefix = "_" + prefix
        faces = []
        for i, c in enumerate(circuits):
            walk = [_token_step(tok) for tok in c.key]
            faces.append((f"{prefix}{i}", walk))
        return validate(graph.vertices,
                        [(e.id, e.tail, e.head) for e in graph.edges], faces)

    return graph.cached(("omega", n), build)


def _token_step(tok):
    return (1 if tok[0] == "+" else -1, tok[1:])


def face_circuit(face):
    """The circuit a face of an omega complex was attached along."""
    return make_circuit(face.walk)


# -- finite permutation groups ------------------------------------------------

@dataclass(frozen=True)
class FiniteGroupPresentation:
    degree: int
    generators: tuple      # (name, perm) in declaration order; perm is a tuple
    symmetric: tuple       # names in S, declaration order
    inverses: dict         # name in S -> name of its inverse (also in S)
    subgroups: tuple       # (name, (gen names...))
    relators: tuple        # tuples of generator names

    def generator(self, name):
        for n, p in self.generators:
            if n == name:
                return p
        raise KeyError(name)


def identity_perm(degree):
    return tuple(range(degree))


def compose(a, b):
    """Apply a, then b; words read left to right."""
    return tuple(b[a[i]] for i in range(len(a)))


def parse_cycles(text, degree):
    """Cycle notation like '(1 2 3)(4 5)'; '()' is the identity."""
    perm = list(range(degree))
    body = text.strip()
    if body in ("()", ""):
        return tuple(perm)
    if not body.startswith("(") or not body.endswith(")"):
        raise FormatError(f"bad cycle notation {text!r}")
    seen = set()  # the points of the cycles read so far: a point moves once
    for part in body[1:-1].split(")("):
        pts = [parse_int(t) for t in part.split()]
        if not pts:
            continue
        if any(p < 1 or p > degree for p in pts):
            raise FormatError(f"point out of range in {text!r}")
        if len(set(pts)) != len(pts) or not seen.isdisjoint(pts):
            raise FormatError(f"repeated point in {text!r}")
        seen.update(pts)
        for i, p in enumerate(pts):
            perm[p - 1] = pts[(i + 1) % len(pts)] - 1
    return tuple(perm)


def cycle_notation(perm):
    seen = set()
    parts = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) or "()"


@dataclass(frozen=True)
class GroupTable:
    presentation: FiniteGroupPresentation
    elements: tuple        # element id -> permutation; id 0 is the identity
    index: dict            # permutation -> id

    @property
    def order(self):
        return len(self.elements)

    def mul(self, i, j):
        return self.index[compose(self.elements[i], self.elements[j])]

    def mul_gen(self, i, gen_name):
        return self.index[compose(self.elements[i], self.presentation.generator(gen_name))]


def _closure(degree, gens, cap):
    """The elements that the permutations ``gens`` generate, breadth first
    from the identity in generator order: (elements, element -> position).
    Refuses to grow past ``cap``."""
    ident = identity_perm(degree)
    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for p in gens:
                h = compose(g, p)
                if h not in index:
                    if len(elements) >= cap:
                        raise CapExceededError(f"group closure exceeds cap {cap}")
                    index[h] = len(elements)
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    return elements, index


def group_closure(presentation, cap=DEFAULT_GROUP_CAP):
    """Breadth-first closure from the identity, in generator order.

    Element ids are assigned in discovery order, relators are verified to
    evaluate to the identity, and the closure refuses to grow past ``cap``.
    """
    elements, index = _closure(presentation.degree,
                               [p for _, p in presentation.generators], cap)
    ident = elements[0]
    for word in presentation.relators:
        val = ident
        for name in word:
            val = compose(val, presentation.generator(name))
        if val != ident:
            raise RelatorFailsError(
                f"relator {' '.join(word)} evaluates to {cycle_notation(val)}")
    return GroupTable(presentation, tuple(elements), index)


def _subgroup_elements(table, gen_names):
    gens = [table.presentation.generator(n) for n in gen_names]
    elements, _ = _closure(table.presentation.degree, gens, table.order)
    return sorted(table.index[p] for p in elements)


def left_cosets(table, sub_ids):
    """Left cosets of the subgroup, each as a sorted id tuple, keyed by
    least element id; enumerated by right multiplication."""
    assigned = {}
    cosets = {}
    for g in range(table.order):
        if g in assigned:
            continue
        coset = sorted(table.mul(g, p) for p in sub_ids)
        key = coset[0]
        cosets[key] = tuple(coset)
        for h in coset:
            assigned[h] = key
    return cosets


@dataclass(frozen=True)
class ConedOffComplex:
    complex: TwoComplex
    table: GroupTable
    element_vertices: tuple   # vertex ids, indexed by element id
    cone_vertices: dict       # (subgroup name, coset key id) -> vertex id
    cayley_edges: dict        # edge id -> (element id, generator name)
    cone_edges: dict          # edge id -> (element id, subgroup name)
    relator_faces: dict       # face id -> relator index
    triangle_faces: dict      # face id -> subgroup name


def _validated_presentation(presentation):
    names = [n for n, _ in presentation.generators]
    if len(set(names)) != len(names):
        raise ValidationError([("DUPLICATE_ID", "repeated generator name")])
    problems = []
    ident = identity_perm(presentation.degree)
    for s in presentation.symmetric:
        if s not in names:
            problems.append(("DANGLING_REFERENCE", f"sgen {s!r} is not a generator"))
            continue
        inv = presentation.inverses.get(s)
        if inv not in presentation.symmetric:
            problems.append(("DANGLING_REFERENCE", f"inverse of {s!r} not in S"))
            continue
        if presentation.inverses.get(inv) != s:
            problems.append(("RELATOR_FAILS", f"the inverse of {inv!r} is not {s!r}"))
        if compose(presentation.generator(s), presentation.generator(inv)) != ident:
            problems.append(("RELATOR_FAILS", f"{inv!r} is not the inverse of {s!r}"))
        if presentation.generator(s) == ident:
            problems.append(("RELATOR_FAILS", "identity element in S"))
    for pname, gens in presentation.subgroups:
        for g in gens:
            if g not in presentation.symmetric:
                problems.append(("DANGLING_REFERENCE",
                                 f"subgroup {pname!r} generator {g!r} not in S"))
    for word in presentation.relators:
        for g in word:
            if g not in presentation.symmetric:
                problems.append(("DANGLING_REFERENCE", f"relator letter {g!r} not in S"))
    if problems:
        raise ValidationError(problems)


def coned_off_cayley_graph(presentation):
    return _coned_off(presentation, with_faces=False)


def coned_off_cayley_complex(presentation):
    return _coned_off(presentation, with_faces=True)


def _coned_off(presentation, with_faces):
    """The coned-off Cayley graph and, ``with_faces``, its relator faces and coset
    triangles: one face per canonical walk, numbered per relator or subgroup."""
    _validated_presentation(presentation)
    table = group_closure(presentation)
    n = table.order
    element_vertices = tuple(f"g{i}" for i in range(n))
    vertices = list(element_vertices)

    # one undirected edge per orbit {(g, s), (gs, s^-1)}, added at its pair
    # with the lesser element (gs != g, as s is not the identity), which the
    # scan reaches first; steps[(g, s)] is (signed step, gs)
    cayley_edges = {}
    edges = []
    steps = {}
    for g in range(n):
        for s in presentation.symmetric:
            h = table.mul_gen(g, s)
            if h < g:
                continue
            eid = f"c_g{g}_{s}"
            edges.append((eid, element_vertices[g], element_vertices[h]))
            cayley_edges[eid] = (g, s)
            steps[(g, s)] = ((1, eid), h)
            steps[(h, presentation.inverses[s])] = ((-1, eid), g)

    cone_vertices = {}
    cone_edges = {}
    for pname, gens in presentation.subgroups:
        cosets = left_cosets(table, _subgroup_elements(table, gens))
        for key, members in sorted(cosets.items()):
            vid = f"v_{pname}_g{key}"
            vertices.append(vid)
            cone_vertices[(pname, key)] = vid
            for g in members:
                eid = f"k_g{g}_{pname}"
                edges.append((eid, element_vertices[g], vid))
                cone_edges[eid] = (g, pname)

    faces = []
    relator_faces = {}
    triangle_faces = {}
    seen_walks = set()
    numbers = defaultdict(count)

    def add_face(walk, prefix, record, label):
        key = canonical_walk_key(walk)
        if key not in seen_walks:
            seen_walks.add(key)
            fid = f"{prefix}.{next(numbers[prefix])}"
            faces.append((fid, [_token_step(t) for t in key]))
            record[fid] = label

    if with_faces:
        # group_closure has checked that every relator closes up
        for ri, word in enumerate(presentation.relators):
            if len(word) == 2 and presentation.inverses[word[0]] == word[1]:
                continue  # the s s^-1 relators are realized by edge identification
            for g in range(n):
                walk, cur = [], g
                for s in word:
                    step, cur = steps[(cur, s)]
                    walk.append(step)
                add_face(walk, f"r{ri}", relator_faces, ri)
        for pname, gens in presentation.subgroups:
            for g in range(n):
                for s in gens:
                    step, h = steps[(g, s)]
                    add_face([step, (1, f"k_g{h}_{pname}"), (-1, f"k_g{g}_{pname}")],
                             f"t_{pname}", triangle_faces, pname)
    cx = validate(vertices, edges, faces)
    return ConedOffComplex(cx, table, element_vertices, cone_vertices,
                           cayley_edges, cone_edges, relator_faces, triangle_faces)


def write_coned_off(coned):
    """Serialize the underlying complex with labelling comments."""
    comments = []
    for (pname, key), vid in sorted(coned.cone_vertices.items()):
        comments.append(f"cone {vid} coset g{key} of {pname}")
    for fid, ri in sorted(coned.relator_faces.items()):
        comments.append(f"relator-face {fid} relator {ri}")
    for fid, pname in sorted(coned.triangle_faces.items()):
        comments.append(f"triangle-face {fid} subgroup {pname}")
    return write_complex(coned.complex, comments=comments)


# -- grp v1 text format --------------------------------------------------------

_GRP_HEADER = "group v1"


def parse_group(text):
    lines = content_lines(text)
    if not lines or lines[0] != _GRP_HEADER:
        raise FormatError(f"expected '{_GRP_HEADER}' header")
    degree = None
    generators = []
    symmetric = []
    inverses = {}
    subgroups = []
    relators = []
    for line in lines[1:]:
        parts = line.split()
        kind = parts[0]
        if kind == "degree" and len(parts) == 2:
            degree = parse_int(parts[1])
        elif kind == "gen" and len(parts) >= 2:
            if degree is None:
                raise FormatError("degree must come before gen lines")
            name = parts[1]
            notation = line.split(None, 2)[2] if len(parts) > 2 else "()"
            generators.append((name, parse_cycles(notation, degree)))
        elif kind == "sgen" and len(parts) == 3:
            a, b = parts[1], parts[2]
            for name in (a, b) if a != b else (a,):
                if name not in symmetric:
                    symmetric.append(name)
            inverses[a] = b
            inverses[b] = a
        elif kind == "subgroup" and len(parts) >= 3:
            subgroups.append((parts[1], tuple(parts[2:])))
        elif kind == "relator" and len(parts) >= 2:
            relators.append(tuple(parts[1:]))
        else:
            raise FormatError(f"cannot parse group line: {line!r}")
    if degree is None:
        raise FormatError("missing degree")
    return FiniteGroupPresentation(degree, tuple(generators), tuple(symmetric),
                                   inverses, tuple(subgroups), tuple(relators))


def write_group(p):
    out = [_GRP_HEADER, f"degree {p.degree}"]
    for name, perm in p.generators:
        out.append(f"gen {name} {cycle_notation(perm)}")
    done = set()
    for s in p.symmetric:
        inv = p.inverses[s]
        if (inv, s) in done:
            continue
        done.add((s, inv))
        out.append(f"sgen {s} {inv}")
    for pname, gens in p.subgroups:
        out.append(f"subgroup {pname} {' '.join(gens)}")
    for word in p.relators:
        out.append(f"relator {' '.join(word)}")
    return "\n".join(out) + "\n"
