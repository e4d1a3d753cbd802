"""Finite combinatorial 2-complexes with fixed orientations.

A complex is built once through :func:`validate` (or :func:`parse_complex`)
and never mutated afterwards: every edge is oriented tail-to-head and every
face by its stored attaching walk, so boundary maps, norms and homology are
well defined functions of the input order.  Graphs are complexes with no
faces.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FormatError, UnknownCellError, ValidationError
from . import linalg

INT = "Z"
RAT = "Q"

# cx v1 text format keywords
_CX_HEADER = "complex v1"


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Face:
    id: str
    walk: tuple  # tuple of (sign, edge_id) with sign in {+1, -1}


@dataclass(frozen=True)
class Chain:
    """Sparse signed combination of cells of one dimension.

    Zero coefficients are never stored; INT chains hold ints, RAT chains
    hold Fractions.
    """

    dimension: int
    ring: str
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        require_ring(self.ring)
        exact = int if self.ring == INT else Fraction
        clean = {}
        for cell, c in self.coeffs.items():
            if type(c) is not exact:  # a stored type skips the checks
                if isinstance(c, float):
                    raise ValueError(f"float coefficient {c!r}: chains are exact")
                if exact is int and c != int(c):
                    raise ValueError(f"non-integer coefficient {c} in INT chain")
                c = exact(c)
            if c:
                clean[cell] = c
        object.__setattr__(self, "coeffs", clean)

    def l1(self):
        return sum(abs(c) for c in self.coeffs.values()) if self.coeffs else (
            0 if self.ring == INT else Fraction(0))

    def is_zero(self):
        return not self.coeffs

    def add(self, other):
        out = dict(self.coeffs)
        for cell, c in other.coeffs.items():
            out[cell] = out.get(cell, 0) + c
        return Chain(self.dimension, self.ring, out)

    def scale(self, r):
        if r == 0:
            return Chain(self.dimension, self.ring, {})
        return Chain(self.dimension, self.ring, {c: v * r for c, v in self.coeffs.items()})

    def neg(self):
        return self.scale(-1)

    def to_ring(self, ring):
        return Chain(self.dimension, ring, dict(self.coeffs))

    def serialize(self):
        """Canonical hashable form, used for dedup and deterministic sorts."""
        return tuple(sorted(self.coeffs.items()))


def l1_norm(chain):
    """Sum of absolute values of the coefficients."""
    return chain.l1()


@dataclass(frozen=True)
class H1Report:
    betti1: int
    torsion: tuple  # invariant factors > 1, ascending

    @property
    def trivial(self):
        return self.betti1 == 0 and not self.torsion


class TwoComplex:
    """Validated immutable 2-complex; construct via :func:`validate`.

    It owns the one int form that every module reads: ``edge_index`` numbers
    the edges in ``edges`` order, :meth:`skeleton` ranks the vertices in
    sorted order and lists the steps leaving each, and the one d2, sparse
    (:meth:`face_columns`), its Smith form and the other derived tables
    are built once and cached with the complex.
    """

    def __init__(self, vertices, edges, faces, _token=None):
        if _token is not _BUILD_TOKEN:
            raise TypeError("use validate() or parse_complex() to build a TwoComplex")
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        self.edge_by_id = {e.id: e for e in self.edges}
        self.edge_index = {eid: i for i, eid in enumerate(self.edge_by_id)}
        self.face_by_id = {f.id: f for f in self.faces}
        self._cache = {}

    # -- structural helpers -------------------------------------------------

    def is_graph(self):
        return not self.faces

    def edge_endpoints(self, signed_edge):
        """(start, end) of a signed edge traversal."""
        sign, eid = signed_edge
        e = self.edge_by_id[eid]
        return (e.tail, e.head) if sign > 0 else (e.head, e.tail)

    def skeleton(self):
        """(order, rank, steps) of the 1-skeleton: ``order`` the sorted
        vertices, ``rank`` its inverse, ``steps[r]`` the (signed edge, end
        rank, edge index) of each step leaving the vertex of rank r, by edge
        id and +1 before -1, so a loop appears twice, other edges once."""
        def build():
            order = sorted(self.vertices)
            rank = dict(zip(order, range(len(order))))
            steps = [[] for _ in order]
            for eid in sorted(self.edge_index):
                e, i = self.edge_by_id[eid], self.edge_index[eid]
                t, h = rank[e.tail], rank[e.head]
                steps[t].append(((1, eid), h, i))
                steps[h].append(((-1, eid), t, i))
            return order, rank, steps
        return self.cached("skeleton", build)

    # -- boundary maps -------------------------------------------------------

    def face_columns(self):
        """d2 as sparse columns: the (edge index, coefficient) nonzeros of
        each face's boundary, the signs of its walk summed per edge, faces
        in ``faces`` order, edges ascending."""
        def build():
            index = self.edge_index
            columns = []
            for f in self.faces:
                acc = {}
                for sign, eid in f.walk:
                    i = index[eid]
                    acc[i] = acc.get(i, 0) + sign
                columns.append(sorted((i, c) for i, c in acc.items() if c))
            return columns
        return self.cached("d2_columns", build)

    def smith_form_2(self):
        """Smith normal form (u, d, v) of d2, shared by homology and fillings."""
        return self.cached("snf2", lambda: linalg.smith_normal_form(self.face_columns(),
                                                                    len(self.edges)))

    def cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __eq__(self, other):
        return (isinstance(other, TwoComplex) and self.vertices == other.vertices
                and self.edges == other.edges and self.faces == other.faces)

    def __repr__(self):
        return (f"TwoComplex({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, {len(self.faces)} faces)")


_BUILD_TOKEN = object()


def validate(vertices, edges, faces=()):
    """Check a raw description and return an immutable TwoComplex.

    ``vertices``: iterable of ids.  ``edges``: iterable of (id, tail, head).
    ``faces``: iterable of (id, walk) where walk is a nonempty sequence of
    (sign, edge_id).  All violations are collected into one ValidationError.
    """
    violations = []
    vlist, elist, flist = [], [], []
    seen = set()
    for v in vertices:
        if v in seen:
            violations.append(("DUPLICATE_ID", f"duplicate id {v!r}"))
        seen.add(v)
        vlist.append(str(v))
    vset = set(vlist)
    for eid, tail, head in edges:
        if eid in seen:
            violations.append(("DUPLICATE_ID", f"duplicate id {eid!r}"))
        seen.add(eid)
        if tail not in vset:
            violations.append(("DANGLING_REFERENCE", f"edge {eid!r}: unknown tail {tail!r}"))
        if head not in vset:
            violations.append(("DANGLING_REFERENCE", f"edge {eid!r}: unknown head {head!r}"))
        elist.append(Edge(str(eid), str(tail), str(head)))
    eids = {e.id: e for e in elist}
    for fid, walk in faces:
        if fid in seen:
            violations.append(("DUPLICATE_ID", f"duplicate id {fid!r}"))
        seen.add(fid)
        walk = tuple((int(s), str(e)) for s, e in walk)
        if not walk:
            violations.append(("WALK_NOT_CLOSED", f"face {fid!r}: empty walk"))
            continue
        ok = True
        for s, eid in walk:
            if s not in (1, -1):
                violations.append(("DANGLING_REFERENCE", f"face {fid!r}: bad sign {s}"))
                ok = False
            if eid not in eids:
                violations.append(("DANGLING_REFERENCE", f"face {fid!r}: unknown edge {eid!r}"))
                ok = False
        if not ok:
            continue
        ends = []
        for s, eid in walk:
            e = eids[eid]
            ends.append((e.tail, e.head) if s > 0 else (e.head, e.tail))
        for i in range(len(walk) - 1):
            if ends[i][1] != ends[i + 1][0]:
                violations.append(("WALK_DISCONTINUOUS",
                                   f"face {fid!r}: step {i} ends at {ends[i][1]!r} "
                                   f"but step {i + 1} starts at {ends[i + 1][0]!r}"))
        if ends and ends[-1][1] != ends[0][0]:
            violations.append(("WALK_NOT_CLOSED",
                               f"face {fid!r}: walk ends at {ends[-1][1]!r}, "
                               f"started at {ends[0][0]!r}"))
        flist.append(Face(str(fid), walk))
    if violations:
        raise ValidationError(violations)
    return TwoComplex(vlist, elist, flist, _token=_BUILD_TOKEN)


def require_ring(ring):
    """ValueError unless ``ring`` is INT or RAT."""
    if ring not in (INT, RAT):
        raise ValueError(f"unknown ring {ring!r}")


def require_cells(chain, dimension, cells):
    """UnknownCellError unless ``chain`` has ``dimension`` (1 or 2) and
    every cell of it is in ``cells``."""
    if chain.dimension != dimension:
        raise UnknownCellError(f"expected a {dimension}-chain, got dimension {chain.dimension}")
    for cell in chain.coeffs:
        if cell not in cells:
            raise UnknownCellError(f"unknown {'edge' if dimension == 1 else 'face'} {cell!r}")


def boundary(complex_, chain):
    """Cellular boundary of a chain of dimension 1 or 2, d2 read off the face columns."""
    if chain.dimension == 2:
        require_cells(chain, 2, complex_.face_by_id)
        acc = {}
        for f, column in zip(complex_.faces, complex_.face_columns()):
            c = chain.coeffs.get(f.id)
            if c:
                for i, d in column:
                    eid = complex_.edges[i].id
                    acc[eid] = acc.get(eid, 0) + c * d
        return Chain(1, chain.ring, acc)
    if chain.dimension == 1:
        require_cells(chain, 1, complex_.edge_by_id)
        acc = {}
        for eid, c in chain.coeffs.items():
            e = complex_.edge_by_id[eid]
            acc[e.head] = acc.get(e.head, 0) + c
            acc[e.tail] = acc.get(e.tail, 0) - c
        return Chain(0, chain.ring, acc)
    raise UnknownCellError(f"no boundary for dimension {chain.dimension}")


def rank_d1(complex_):
    """Rank of d1: the number of vertices less the number of connected
    components, counted as the edges that join two components of a
    union-find."""
    parent = {v: v for v in complex_.vertices}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rank = 0
    for e in complex_.edges:
        a, b = root(e.tail), root(e.head)
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def homology_h1(complex_):
    """Betti number and invariant factors of H1 over the integers: the rank
    of d1 from the connected components, that of d2 and the torsion from
    the Smith form of d2."""
    def build():
        n_edges = len(complex_.edges)
        if n_edges == 0:
            return H1Report(0, ())
        cycles = n_edges - rank_d1(complex_)
        factors = complex_.smith_form_2()[1] if complex_.faces else []
        return H1Report(cycles - len(factors), tuple(f for f in factors if f > 1))
    return complex_.cached("h1", build)


MIDPOINT = "MIDPOINT"
BARYCENTRIC = "BARYCENTRIC"


@dataclass(frozen=True)
class SubdivisionResult:
    complex: TwoComplex
    mode: str
    provenance: dict  # new cell id -> (dim, originating cell id)
    _half_edges: dict  # original edge id -> (first half id, second half id)

    def map_chain1(self, chain):
        """Push a 1-chain forward: each original edge maps to its two halves."""
        require_cells(chain, 1, self._half_edges)
        acc = {}
        for eid, c in chain.coeffs.items():
            a, b = self._half_edges[eid]
            acc[a] = acc.get(a, 0) + c
            acc[b] = acc.get(b, 0) + c
        return Chain(1, chain.ring, acc)


def subdivide(complex_, mode):
    """MIDPOINT splits every edge; BARYCENTRIC also stars every face.

    A face whose walk has length L becomes 2L triangles.  Barycenter spokes
    are created per traversal step, so repeated-edge walks subdivide into
    embedded triangles.
    """
    if mode not in (MIDPOINT, BARYCENTRIC):
        raise ValueError(f"unknown subdivision mode {mode!r}")
    vertices = list(complex_.vertices)
    edges = []
    provenance = {v: (0, v) for v in complex_.vertices}
    halves = {}
    for e in complex_.edges:
        mid = f"{e.id}:m"
        vertices.append(mid)
        provenance[mid] = (1, e.id)
        a, b = f"{e.id}:0", f"{e.id}:1"
        edges.append((a, e.tail, mid))
        edges.append((b, mid, e.head))
        provenance[a] = (1, e.id)
        provenance[b] = (1, e.id)
        halves[e.id] = (a, b)

    def split_step(sign, eid):
        a, b = halves[eid]
        return [(1, a), (1, b)] if sign > 0 else [(-1, b), (-1, a)]

    faces = []
    if mode == MIDPOINT:
        for f in complex_.faces:
            walk = []
            for step in f.walk:
                walk.extend(split_step(*step))
            faces.append((f.id, walk))
            provenance[f.id] = (2, f.id)
    else:
        for f in complex_.faces:
            bary = f"{f.id}:b"
            vertices.append(bary)
            provenance[bary] = (2, f.id)
            n = len(f.walk)
            corner_spokes, mid_spokes = [], []
            for i, step in enumerate(f.walk):
                start, _end = complex_.edge_endpoints(step)
                s = f"{f.id}:s{i}"
                t = f"{f.id}:t{i}"
                edges.append((s, bary, start))
                edges.append((t, bary, f"{step[1]}:m"))
                provenance[s] = (2, f.id)
                provenance[t] = (2, f.id)
                corner_spokes.append(s)
                mid_spokes.append(t)
            for i, step in enumerate(f.walk):
                first, second = split_step(*step)
                nxt = (i + 1) % n
                faces.append((f"{f.id}:A{i}",
                              [first, (-1, mid_spokes[i]), (1, corner_spokes[i])]))
                faces.append((f"{f.id}:B{i}",
                              [second, (-1, corner_spokes[nxt]), (1, mid_spokes[i])]))
                provenance[f"{f.id}:A{i}"] = (2, f.id)
                provenance[f"{f.id}:B{i}"] = (2, f.id)
    sub = validate(vertices, edges, faces)
    return SubdivisionResult(sub, mode, provenance, halves)


# -- cx v1 text format -------------------------------------------------------

def parse_complex(text):
    """Parse the 'cx v1' line format and validate the result."""
    vertices, edges, faces = [], [], []
    lines = content_lines(text)
    if not lines or lines[0] != _CX_HEADER:
        raise FormatError(f"expected '{_CX_HEADER}' header")
    for line in lines[1:]:
        parts = line.split()
        kind = parts[0]
        if kind == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif kind == "edge" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
        elif kind == "face" and len(parts) >= 3:
            walk = []
            for tok in parts[2:]:
                if tok.startswith("+"):
                    walk.append((1, tok[1:]))
                elif tok.startswith("-"):
                    walk.append((-1, tok[1:]))
                else:
                    raise FormatError(f"face {parts[1]!r}: signed edge expected, got {tok!r}")
            faces.append((parts[1], walk))
        else:
            raise FormatError(f"cannot parse line: {line!r}")
    return validate(vertices, edges, faces)


def write_complex(complex_, comments=()):
    """Serialize in 'cx v1'; cells keep their stored order."""
    out = [_CX_HEADER]
    for c in comments:
        out.append(f"# {c}")
    for v in complex_.vertices:
        out.append(f"vertex {v}")
    for e in complex_.edges:
        out.append(f"edge {e.id} {e.tail} {e.head}")
    for f in complex_.faces:
        toks = " ".join(("+" if s > 0 else "-") + eid for s, eid in f.walk)
        out.append(f"face {f.id} {toks}")
    return "\n".join(out) + "\n"


def content_lines(text):
    """The non-blank lines of ``text`` with '#' comments and outer spaces removed."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def format_ratio(value):
    """Exact rational as 'p/q', integers as plain 'p'."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_int(token):
    """An int token of a text format; FormatError when it does not parse."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"not a number: {token!r}") from None


def parse_ratio(token):
    token = token.strip()
    p, slash, q = token.partition("/")
    try:
        p, q = int(p), int(q) if slash else 1
    except ValueError:
        raise FormatError(f"not a number: {token!r}") from None
    if q == 0:
        raise FormatError(f"zero denominator in {token!r}")
    return Fraction(p, q)
