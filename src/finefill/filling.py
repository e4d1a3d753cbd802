"""Exact filling norms and homological Dehn functions over Z and Q.

The rational problem is an l1-minimization min |mu|_1 with d2(mu) = gamma;
the integral problem additionally restricts mu to integer chains.  Both are
solved exactly:

* both rings take one rational particular solution X / D off the one
  Smith normal form of d2, built the first time a query needs it and then
  cached with the complex, where it also gives the homology and the kernel
  of d2; a cycle with none bounds nothing even over Q, and over Z a cycle
  bounds exactly when D divides every entry of X.  At kernel rank <= 1,
  on a complex small enough for its circuit fills to pay for the table, a
  circuit takes X as one sum over its walk of per-edge ints, each packing
  the particular solution of its edge's unit vector and that solution's
  boundary defect in fixed-width lanes (:class:`_PackedSolutions`): defect
  lanes that sum to 0 prove d2 X = D gamma, and any other circuit bounds
  nothing over Q and is solved as every other cycle is;
* the rank of that kernel alone picks the route: at rank 0 or 1 the
  solution set is a point or a line and the optimum is one weighted-median
  step (:func:`_line_step`), which returns the move along the line and the
  minimizer's whole l1-norm.  It runs on supports: the cycle comes as its
  (edge index, coefficient) nonzeros, X as its nonzeros, and the line as
  the nonzeros of its kernel vector z (:attr:`_FillingContext.lines`), so
  the solve, the minimization and the int re-check of the witness cost
  the supports of gamma, X and z;
* otherwise the rational optimum comes from a two-phase exact simplex in
  split-variable form, and the integral optimum from branch and bound
  seeded with a normal-form particular solution, moved along a kernel line
  wherever that step lowers its norm, with the simplex bound below every
  node.  A node's LP carries box rows only for the faces branched on
  above it, so the root LP is the rational one.

INFINITE is a real value here (the infimum of an empty set), not an error.
"""

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, groupby
from math import ceil, floor, lcm

from . import linalg, simplex
from .chains import as_integral, circuit_masks, enumerate_cycles, is_cycle, require_circuit
from .complexes import Chain, INT, RAT, format_ratio, require_ring
from .constructions import face_circuit, omega_n
from .errors import HasFacesError, InternalError, NotACycleError


class Infinite:
    """The value of an empty infimum; compares above every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, Infinite)

    def __hash__(self):
        return hash("finefill-INF")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinite)

    def __gt__(self, other):
        return not isinstance(other, Infinite)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INF = Infinite()


def format_value(v):
    return "inf" if v is INF else format_ratio(v)


FEASIBLE_OPTIMAL = "FEASIBLE_OPTIMAL"
INTEGRALLY_INFEASIBLE = "INTEGRALLY_INFEASIBLE"  # a boundary over Q, not over Z
RATIONALLY_INFEASIBLE = "RATIONALLY_INFEASIBLE"  # not a boundary even over Q
NO_FACES = "NO_FACES"


@dataclass(frozen=True)
class FillingResult:
    value: object            # Fraction/int or INF
    witness: object          # Chain of dimension 2, or None when INF
    ring: str
    certificate: str

    def __post_init__(self):
        if (self.value is INF) != (self.witness is None):
            raise InternalError("witness must be present exactly when the value is finite")


def _verify_filling(ctx, terms, x, den, value):
    """Re-check a finite result x / den of value in ints, over the face
    columns of x ({face index: entry}, its nonzeros): d2 x = den gamma,
    gamma the (edge index, coefficient) ``terms``, and |x|_1 = den value."""
    image = ctx.image(x)
    for i, g in terms:
        image[i] -= den * g
    if any(image):
        raise InternalError("witness boundary mismatch")
    if sum(map(abs, x.values())) * value.denominator != den * value.numerator:
        raise InternalError("witness norm mismatch")


class _FillingContext:
    """Per-complex solver state: the complex's face columns, what is read
    off the Smith form of d2 (the rational solver and the kernel's lines),
    the value cache, the fill values of :func:`_fill_circuits` and
    :func:`_cycle_fill` for each ring, and the candidates of :func:`fv`
    for each length bound and set of circuit fill values."""

    def __init__(self, complex_):
        self.complex = complex_
        self.faces = [f.id for f in complex_.faces]
        self.columns = complex_.face_columns()
        self.value_cache = {}
        # ring -> fill values: a circuit's under its edge mask, another
        # cycle's under its serialization and that of its negation
        self.fills = {INT: {}, RAT: {}}
        # (norm bound, circuit fill values) -> fv's entries (norm,
        # serialization, bound, position in the fill list or None): the
        # circuit peaks merged with the candidates, which carry None; both
        # rings share them where their fills agree
        self.candidates = {}
        self.table = None  # :meth:`packed`'s table; False when the complex has none

    @cached_property
    def rat(self):
        return linalg.RationalSolver(self.complex.smith_form_2())

    @cached_property
    def lines(self):
        """The line of each kernel basis vector z of d2, as :func:`_line_step`
        reads it: (z, the lcm of its |entries|, the sum of its |entries|), z
        a dict {face index: entry} of its nonzeros in ascending face order.
        Built once, after checking that d2 maps every z to 0."""
        lines = [(z, lcm(*z.values()), sum(map(abs, z.values())))
                 for z in linalg.integer_kernel_basis(self.complex.smith_form_2())]
        if any(any(self.image(z)) for z, _, _ in lines):
            raise InternalError("kernel vector with a nonzero boundary")
        return lines

    def packed(self, fills):
        """The :class:`_PackedSolutions` of the complex for a call about to
        fill ``fills`` circuits, or None.  The table is built once, by the
        first call it pays for: the d2 kernel has rank <= 1, an entry has at
        most ``_ENTRY_LANES`` lanes and the table at most
        ``_LANES_PER_FILL`` lanes (edges x (faces + edges)) for each of the
        ``fills``.  There is none either when a lane would need more than 8
        bytes."""
        if self.table is None:
            nf, ne = len(self.faces), len(self.complex.edges)
            if not nf or len(self.lines) > 1 or nf + ne > _ENTRY_LANES:
                self.table = False
            elif ne * (nf + ne) <= _LANES_PER_FILL * fills:
                self.table = self._pack() or False
        return self.table or None

    def _pack(self):
        """The :class:`_PackedSolutions` of the complex, or None when a lane
        would need more than 8 bytes."""
        u, d, v = self.complex.smith_form_2()
        nf, den = len(self.faces), d[-1] if d else 1
        rows = []  # i < rank -> {lane: entry} of (D / d_i) v_i, then minus its image
        for di, vi in zip(d, v):
            row = {}
            for j, x in vi.items():
                x *= den // di
                row[j] = x
                for i, c in self.columns[j]:
                    row[nf + i] = row.get(nf + i, 0) - c * x
            rows.append(row)
        # lane k of e's entry is the sum over i of u[i][e] rows[i][k], plus D
        # in e's own edge lane: a bound on the sum of its |entries| over all e
        top = sum(sum(map(abs, ui.values())) * max(map(abs, row.values()))
                  for ui, row in zip(u, rows)) + den
        code = next((c for c in "bhiq" if top < 1 << 8 * struct.calcsize(c) - 1), None)
        return code and _PackedSolutions(self, u, rows, den, code)

    def image(self, x):
        """d2 x, one int per edge, summed over the face columns of the dict
        {face index: entry} x."""
        image = [0] * len(self.complex.edges)
        columns = self.columns
        for j, xj in x.items():
            for i, c in columns[j]:
                image[i] += c * xj
        return image

    def terms(self, items):
        """The (edge index, coefficient) pairs of (edge id, coefficient) items."""
        index = self.complex.edge_index
        return [(index[e], c) for e, c in items]

    def chain(self, x, ring, den=1):
        """The 2-chain x / den, x a dict {face index: entry}."""
        faces = self.faces
        if ring == RAT:
            return Chain(2, RAT, {faces[j]: Fraction(x[j], den) for j in sorted(x)})
        return Chain(2, INT, {faces[j]: x[j] for j in sorted(x)})


class _PackedSolutions:
    """The normal-form particular solution of each edge's unit vector and
    its boundary defect, packed into one int per edge, so that a circuit is
    filled from one sum of these ints over its walk (:meth:`fill`).

    For edge index e, M_e = sum over i < rank of u[i][e] (D / d_i) v_i is
    the X that ``RationalSolver.solve`` would give e's unit vector, and its
    defect is D 1_e - d2 M_e.  The entry of e is sum over lanes k of
    row_e[k] 2**(8 width k), with M_e's entry at face index j in lane j and
    the defect's at edge index i in lane nf + i; it is the sum over i <
    rank of u[i][e] times the packed row of (D / d_i) v_i, whose defect is
    -d2 (D / d_i) v_i, plus D in e's own edge lane.  The width is the least
    of 1, 2, 4 and 8 bytes whose lanes hold a bound on the sum over all
    edges of |row_e[k]|, for each k, below the sign bit, so a sum of entries
    with coefficients +-1, each edge at most once, packs the lane sums
    without overflow.  The bias puts 2**(8 width - 1) in each face lane: a
    sum plus the bias holds every face lane in [0, 2**(8 width)), and above
    them the defect lanes, whose packed value is 0 exactly when all of them
    are.

    Every entry is decoded once and checked in ints (:meth:`check`), so
    the lane sums X and defect of a circuit gamma satisfy d2 X + defect = D
    gamma: when the defect lanes sum to 0, d2 X = D gamma, and X / D is the
    normal-form particular solution that ``solve`` gives gamma.  A
    circuit's value is computed from these checked lane sums and is not
    re-verified (:meth:`fill`), where a solve re-checks its witness.  Kernel
    rank 2 or more has no table: its optimum is an LP or branch and bound,
    whose cost the particular solution does not decide.
    """

    def __init__(self, ctx, u, rows, den, code):
        nf, ne, width = len(ctx.faces), len(u), struct.calcsize(code)
        self.layout = struct.Struct(f"<{nf + ne}{code}")
        self.faces = struct.Struct(f"<{nf}{code}")
        self.bits = 8 * width * nf
        # the sign bit of every lane, and of the face lanes alone
        self.signs = int.from_bytes(self.layout.pack(*[-1 << 8 * width - 1] * (nf + ne)), "little")
        self.bias = self.signs & (1 << self.bits) - 1
        self.den = den
        self.line = ctx.lines[0] if ctx.lines else None
        if self.line:
            # supp(z) as a mask over the face lanes, and z's entries on it
            self.support = [j in self.line[0] for j in range(nf)]
            self.z = [self.line[0][j] for j in sorted(self.line[0])]
        self.entries = [den << 8 * width * (nf + e) for e in range(ne)]
        for ui, row in zip(u, rows):
            solution = sum(x << 8 * width * k for k, x in row.items())
            for e, c in ui.items():
                self.entries[e] += c * solution
        self.check(ctx.columns)
        self.by_id = {eid: self.entries[e] for eid, e in ctx.complex.edge_index.items()}

    def decode(self, total, layout, signs):
        """The lanes of ``layout`` in the packed int ``total``, each lane
        shifted to [0, 2**(8 width)) by its sign bit in ``signs``."""
        return layout.unpack(((total + signs) ^ signs).to_bytes(layout.size, "little"))

    def check(self, columns):
        """Decode every entry e and check d2 M_e + defect = D 1_e in ints,
        d2 given as its face ``columns``."""
        nf = len(columns)
        for e, entry in enumerate(self.entries):
            lanes = self.decode(entry, self.layout, self.signs)
            defect = list(lanes[nf:])
            defect[e] -= self.den
            for j, x in compress(enumerate(lanes), lanes[:nf]):
                for i, c in columns[j]:
                    defect[i] += c * x
            if any(defect):
                raise InternalError("witness boundary mismatch")

    def total(self, walk):
        """The sum of the entries of the (sign, edge id) steps ``walk``,
        each signed as its step."""
        entry, total = self.by_id, 0
        for s, e in walk:
            total = total + entry[e] if s > 0 else total - entry[e]
        return total

    def fill(self, walk, rings):
        """The value of the circuit with the (sign, edge id) steps ``walk``
        over each ring of ``rings``, or None when its defect lanes do not
        sum to 0, that is when it bounds nothing over Q: the value of
        :func:`_minimize_on_line` on the particular solution X / D, with no
        minimizer built."""
        total = self.total(walk)
        if total + self.bias >> self.bits:
            return None
        x = self.decode(total, self.faces, self.bias)
        pairs = ()
        if self.line is not None:
            # the nonzero entries of X on supp(z), each with its z_j
            on = list(compress(x, self.support))
            pairs = list(compress(zip(on, self.z), on))
        norm, values = sum(map(abs, x)), []
        for ring in rings:
            n, p, den = norm, pairs, self.den
            if ring == INT and den > 1:
                # as in :func:`_optimum`: X / D is the integral solution if there is one
                if any(v % den for v in filter(None, x)):
                    values.append(INF)
                    continue
                n, p, den = norm // den, [(v // den, w) for v, w in pairs], 1
            if self.line is not None:
                n, _, scale = _line_step(n, p, self.line, den, ring == INT)
                den *= scale
            values.append(n if ring == INT else Fraction(n, den))
        return values


# When a packed table pays (:meth:`_FillingContext.packed`), as timed by
# ``tools/packed_table_costs.py`` against one solve per circuit (2-vCPU
# Xeon): a build costs 9-13 us per edge at 56-86 lanes an entry, 23-51 us
# at 360-900 lanes and 115-220 us at 2,160-3,330.  At kernel rank 1 in one
# ring a packed fill saves 8-11 us per circuit at 60-86 lanes, 1-12 us at
# 360-820 and loses 7-17 us at 2,160-3,260, so a table pays from about
# lanes / 60 circuits per edge up to some 800-1,000 lanes; at rank 0 or
# over both rings it pays sooner.
_LANES_PER_FILL = 60
_ENTRY_LANES = 1024


def _context(complex_):
    return complex_.cached("filling_ctx", lambda: _FillingContext(complex_))


def filling_norm(complex_, gamma, ring):
    """The least l1-norm of a 2-chain whose boundary is ``gamma``.

    ``gamma`` must be an integral 1-cycle of the complex.
    """
    require_ring(ring)
    if gamma.dimension != 1:
        raise NotACycleError("expected a 1-chain")
    gamma = as_integral(gamma, "fillings are computed for integral cycles")
    ctx = _context(complex_)
    key = (ring, gamma.serialize())
    if key not in ctx.value_cache:  # a cached gamma was checked when it was filled
        if not is_cycle(complex_, gamma):
            raise NotACycleError("boundary is nonzero")
        terms = ctx.terms(gamma.coeffs.items())
        [(certificate, x, den, val)] = _solve_vector(ctx, terms, (ring,))
        witness = None if val is INF else ctx.chain(x, ring, den)
        ctx.value_cache[key] = FillingResult(val, witness, ring, certificate)
    return ctx.value_cache[key]


def _solve_vector(ctx, terms, rings):
    """(certificate, x, den, value) of the integral cycle with the (edge
    index, coefficient) nonzeros ``terms`` over each ring of ``rings``, in
    order, all from one particular solution: x is an int vector as a dict
    {face index: entry} of its nonzeros, over one denominator den, and both
    are None when the value is INF.  Every route ends in such an x, and the
    witness x / den is re-checked in each ring before it is returned; the
    LP and branch and bound convert their dense optimum once."""
    if not terms:
        _verify_filling(ctx, terms, {}, 1, 0)
        return [(FEASIBLE_OPTIMAL, {}, 1, Fraction(0) if ring == RAT else 0) for ring in rings]
    if not ctx.faces:
        return [(NO_FACES, None, None, INF)] * len(rings)
    particular = ctx.rat.solve(terms)
    if particular is None:
        return [(RATIONALLY_INFEASIBLE, None, None, INF)] * len(rings)
    return [_optimum(ctx, terms, ring, *particular) for ring in rings]


def _optimum(ctx, terms, ring, x, den):
    """:func:`_solve_vector` over one ring from the particular solution
    x / den, which it leaves as it is."""
    if ring == INT and den > 1:
        # v is unimodular, so x / den is integral exactly when gamma is
        # an integral boundary, and then it is the normal-form solution
        if any(v % den for v in x.values()):
            return INTEGRALLY_INFEASIBLE, None, None, INF
        x, den = {j: v // den for j, v in x.items()}, 1
    lines = ctx.lines
    if len(lines) <= 1:
        # another particular solution shifts every breakpoint of the
        # line by the same amount, so the minimizer found is the same
        x, den, val = _minimize_on_line(x, den, lines[0] if lines else None,
                                        integral=ring == INT)
    else:
        vec = [0] * len(ctx.complex.edges)
        for i, c in terms:
            vec[i] = c
        if ring == RAT:
            q, val = _lp_optimum(ctx, vec)
            den = lcm(*(v.denominator for v in q))
            x = {j: v.numerator * (den // v.denominator) for j, v in enumerate(q) if v}
        else:
            x, val = _branch_and_bound(ctx, vec, x)
    _verify_filling(ctx, terms, x, den, val)
    return FEASIBLE_OPTIMAL, x, den, int(val) if ring == INT else val


def _minimize_on_line(x, den, line, integral):
    """Exact min of |y|_1 over y = X / den + t z, t rational or integral,
    for X an int vector given as a dict {face index: entry} of its nonzeros
    and z the int kernel vector of ``line`` (one of
    :attr:`_FillingContext.lines`, or None for no line): (Y, den', value),
    the minimizer y = Y / den' as the dict of its nonzeros and its norm,
    the one Fraction.  The move along the line and the norm are
    :func:`_line_step`'s, which reads supp(X) only; z is added in only when
    the step is not 0.
    """
    norm = sum(map(abs, x.values()))
    if line is not None:
        zs = line[0]
        norm, step, scale = _line_step(norm, [(v, zs[j]) for j, v in x.items() if j in zs],
                                       line, den, integral)
        if scale > 1:
            x = {j: v * scale for j, v in x.items()}
            den *= scale
        if step:
            x = _shifted(x, step, zs)
    return x, den, Fraction(norm, den)


def _shifted(x, step, z):
    """x + step z as the dict of its nonzeros, x and z dicts {face index: entry}."""
    return {j: v for j in {**x, **z} if (v := x.get(j, 0) + step * z.get(j, 0))}


def _line_step(norm, pairs, line, den, integral):
    """The one weighted-median step on the line y = X / den + t z of
    ``line`` (one of :attr:`_FillingContext.lines`), for X an int vector of
    l1-norm ``norm`` and ``pairs`` the (X_j, z_j) of some entries j of
    supp(z), every other entry of supp(z) having X_j = 0: (norm', step,
    scale), the minimizer y = (scale X + step z) / (scale den) and norm' its
    l1-norm times scale den, with scale 1 when ``integral``.

    The scan runs on ints: the breakpoint -X_j / (den z_j) of entry j is
    keyed by the int -X_j * (lam / z_j), lam the lcm of the nonzero |z_j|,
    which orders the breakpoints as their values do.  The entries of supp(z)
    not in ``pairs`` have the breakpoint 0, so they enter the weighted
    median as one weight, ``rest``.  The step moves the entries of supp(z)
    only, so the others keep their part of ``norm``, ``off``.
    """
    _, lam, total = line
    weight = {}  # den * lam * breakpoint -> total |z| of the entries that vanish there
    rest, off = total, norm
    for v, w in pairs:
        p = -v * (lam // w)
        weight[p] = weight.get(p, 0) + abs(w)
        rest -= abs(w)
        off -= abs(v)
    if rest:
        weight[0] = weight.get(0, 0) + rest
    acc = 0
    for p in sorted(weight):  # the weighted median p / (den * lam)
        acc += weight[p]
        if 2 * acc >= total:
            break
    if integral:
        # t = step / den the integer at or below the median, or the one
        # above it when that moves the norm less
        step = p // (den * lam) * den
        moved = sum(abs(v + step * w) for v, w in pairs) + abs(step) * rest
        if p % (den * lam):
            above = sum(abs(v + (step + den) * w) for v, w in pairs) + abs(step + den) * rest
            if above < moved:
                return off + above, step + den, 1
        return off + moved, step, 1
    scale = lam if p else 1
    return off * scale + sum(abs(v * scale + p * w) for v, w in pairs) + abs(p) * rest, p, scale


def _lp_optimum(ctx, vec, bounds=None):
    """Split-variable LP: min sum(p+n), d2 (p - n) = vec, with the box
    lb <= p_j - n_j <= ub for each face index j in ``bounds`` ({j: (lb, ub)})."""
    nf = len(ctx.faces)
    a_eq = [[0] * (2 * nf) for _ in vec]
    for j, column in enumerate(ctx.columns):
        for i, c in column:
            a_eq[i][j], a_eq[i][nf + j] = c, -c
    b_eq = list(vec)
    a_ub, b_ub = [], []
    if bounds:
        for j in sorted(bounds):
            lb, ub = bounds[j]
            row = [0] * (2 * nf)
            row[j], row[nf + j] = 1, -1
            a_ub.append(row)
            b_ub.append(ub)
            a_ub.append([-v for v in row])
            b_ub.append(-lb)
    status, x, val = simplex.solve_lp([1] * (2 * nf), a_eq, b_eq, a_ub, b_ub)
    if status != simplex.OPTIMAL:
        return None, None
    return [x[j] - x[nf + j] for j in range(nf)], val


def _reduce_by_kernel(mu, lines):
    """Greedily shrink |mu|_1 by integer multiples of the kernel vectors of
    ``lines``, mu and the result dicts {face index: entry} of nonzeros: mu
    moves along a line only when :func:`_line_step` says its norm drops."""
    norm = sum(map(abs, mu.values()))
    improved = True
    while improved:
        improved = False
        for line in lines:
            zs = line[0]
            moved, step, _ = _line_step(norm, [(v, zs[j]) for j, v in mu.items() if j in zs],
                                        line, 1, True)
            if moved < norm:
                mu, norm, improved = _shifted(mu, step, zs), moved, True
    return mu


def _branch_and_bound(ctx, vec, mu_int):
    """Exact integral optimum (x, value), x a dict {face index: entry} of
    nonzeros; the LP relaxation bounds each node from below.

    Branches on the face variable with the largest fractional part (ties by
    canonical face order), depth first, lower branch first.  The initial
    incumbent comes from the normal-form solution reduced by kernel moves,
    whose norm also bounds every variable's search box.

    A node's bounds map the faces branched on above it to their boxes, and
    its LP gets box rows for those faces only.  The other boxes need no
    rows: an LP optimum below the incumbent norm already lies inside them.
    """
    nf = len(ctx.faces)
    incumbent = _reduce_by_kernel(mu_int, ctx.lines)
    inc_val = sum(map(abs, incumbent.values()))
    box = inc_val
    stack = [{}]
    while stack:
        bounds = stack.pop()
        x, val = _lp_optimum(ctx, vec, bounds)
        if x is None or val >= inc_val or ceil(val) >= inc_val:
            continue
        frac_face = None
        frac_part = None
        for j in range(nf):
            fp = x[j] - floor(x[j])
            if fp != 0 and (frac_part is None or fp > frac_part):
                frac_part = fp
                frac_face = j
        if frac_face is None:
            cand = {j: int(v) for j, v in enumerate(x) if v}
            cand_val = sum(map(abs, cand.values()))
            if cand_val < inc_val:
                incumbent, inc_val = cand, cand_val
            continue
        lo, hi = bounds.get(frac_face, (-box, box))
        down = dict(bounds)
        down[frac_face] = (lo, floor(x[frac_face]))
        up = dict(bounds)
        up[frac_face] = (ceil(x[frac_face]), hi)
        stack.append(up)
        stack.append(down)
    return incumbent, inc_val


# -- the homological Dehn function --------------------------------------------

@dataclass(frozen=True)
class FVTable:
    ring: str
    k_max: int
    values: tuple    # index k -> value (Fraction/int or INF)
    witnesses: tuple # index k -> witness cycle (Chain) or None

    def value(self, k):
        return self.values[k]

    def witness(self, k):
        return self.witnesses[k]

    def rows(self):
        return [(k, self.values[k]) for k in range(self.k_max + 1)]


def fv(complex_, k_max, ring):
    """sup of filling norms over integral cycles of norm <= k, for each k,
    each value witnessed by the first cycle attaining it in (norm,
    serialization) order (the zero cycle while the value is 0).

    Every cycle is a sign-conformal sum of circuits whose lengths add up to
    its norm, and filling norms are subadditive, so a cycle fills to at
    most the summed fills of such a split.  With L(k) the largest fill of a
    circuit of length <= k and U the superadditive closure of L, this gives
    L <= FV <= U.  Each circuit is filled once (:func:`_fill_circuits`),
    and the other cycles filled are the candidates of ``enumerate_cycles``:
    sums of two or more circuits, a circuit possibly repeated, whose summed
    fill is >= L(norm), and > L(norm - 1) where L(norm) = L(norm - 1).  Any
    other such sum fills to less than L(norm) <= FV(norm), so it is never
    the first to attain a value, or to at most L(norm - 1) <= FV(norm - 1),
    so it never raises the running maximum.  Of the single circuits, whose fills are known,
    only one per length is merged in, in (norm, serialization) order: the
    least serialization, over both signs, of a circuit of largest fill at
    that length (:func:`_circuit_peaks`).  Another circuit of that length
    fills to less, so it is never the first to attain FV, or ties it and
    comes later.  The running maximum over these cycles therefore has the
    values and witnesses of the one over all cycles.  Only a fill above the
    running maximum changes it, so a candidate is filled only when the
    bound it comes with, the least summed fill of its splits found, exceeds
    the running maximum.  A cycle and its negation fill alike, so one of
    each pair is solved (:func:`_cycle_fill`).  The candidates and the peaks
    depend on the circuits' fill values only, so the merged list is kept on
    the complex under (the norm bound, those values), and a table in the
    other ring whose circuits fill alike (ints and Fractions compare and
    hash equal) reuses it; a peak's value is read off the table's own fill
    list.  Circuits and candidates are solved from their edge vectors, with
    no Chain built for them and no witness kept; only a new running
    maximum, the witness, becomes a Chain.

    A cycle is unfillable only if some circuit of its split is, so the
    table turns INFINITE at the length l of the shortest unfillable circuit
    and stays there.  The unfillable cycles of norm l are the induced
    cycles of those circuits, either sign, and the least of them in
    serialization order is the witness.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")

    def build():
        fills, unfillable = _fill_circuits(complex_, k_max, (ring,))[ring]
        finite_max = unfillable[0].length - 1 if unfillable else k_max
        ctx = _context(complex_)
        shared = (finite_max, tuple(value for _, value in fills))
        entries = ctx.candidates.get(shared)
        if entries is None:
            entries = ctx.candidates[shared] = sorted(
                [(norm, key, bound, None)
                 for norm, key, bound in enumerate_cycles(complex_, finite_max, fills)]
                + [(length, key, fills[i][1], i) for length, key, i in _circuit_peaks(fills)],
                key=lambda entry: entry[:2])
        # the entries come sorted by norm: a running maximum read off before
        # the first entry of norm k is FV(k - 1)
        top = (0 if ring == INT else Fraction(0), Chain(1, INT, {}))
        rows = []  # index k -> (value, witness)
        for norm, key, bound, i in entries:
            rows.extend([top] * (norm - len(rows)))
            if bound > top[0]:
                value = _cycle_fill(ctx, key, ring) if i is None else fills[i][1]
                if value > top[0]:
                    top = (value, Chain(1, INT, dict(key)))
        rows.extend([top] * (finite_max + 1 - len(rows)))
        if unfillable:
            witness = min((cycle for circuit in unfillable
                           for cycle in (circuit.induced_cycle(), circuit.induced_cycle().neg())),
                          key=Chain.serialize)
            rows.extend([(INF, witness)] * (k_max - finite_max))
        values, witnesses = zip(*rows)
        return FVTable(ring, k_max, values, witnesses)

    return complex_.cached(("fv", ring, k_max), build)


def _circuit_peaks(fills):
    """(length, serialization, position) for each length of the circuits
    of ``fills``, a list of (circuit, value) sorted by length: the position
    in ``fills`` of a circuit of largest fill at that length, and the least
    serialization, over both signs, of such a circuit, which the circuit at
    that position induces with one sign."""
    peaks = []
    for length, group in groupby(enumerate(fills), key=lambda item: item[1][0].length):
        group = list(group)
        top = max(value for _, (_, value) in group)
        least = None
        for i, (circuit, value) in group:
            if value == top:
                # the lesser sign is the one with -1 on the least edge
                key = sorted([(e, s) for s, e in circuit.walk])
                if key[0][1] > 0:
                    key = [(e, -c) for e, c in key]
                if least is None or key < least:
                    least, position = key, i
        peaks.append((length, tuple(least), position))
    return peaks


def fv_value(complex_, k, ring):
    """FV(k) alone, the value of ``fv(complex_, k, ring).value(k)``.

    It is INFINITE exactly when a circuit of length <= k is unfillable.
    Otherwise let T be the largest fill of such a circuit.  A cycle of norm
    <= k fills to at most the summed fills of a split into circuits, so
    only a cycle with a split summing above T can fill above T; no single
    circuit has one, and the others are the candidates of
    ``enumerate_cycles`` with ``above`` T.  FV(k) is the largest of T and
    their fills.  As in :func:`fv`, a candidate is filled only when its
    bound exceeds the running maximum.
    """
    if k < 0:
        raise ValueError("k must be >= 0")

    def build():
        fills, unfillable = _fill_circuits(complex_, k, (ring,))[ring]
        if unfillable:
            return INF
        ctx = _context(complex_)
        top = max((value for _, value in fills), default=0 if ring == INT else Fraction(0))
        for _, key, bound in enumerate_cycles(complex_, k, fills, above=top):
            if bound > top:
                top = max(top, _cycle_fill(ctx, key, ring))
        return top

    return complex_.cached(("fv_value", ring, k), build)


def _cycle_fill(ctx, key, ring):
    """The value over ring of the cycle with serialization ``key``, solved
    from its edge vector the first time any call on this complex asks for
    it over ring, and stored under the key and that of its negation, which
    fills alike, so that a lookup is one probe."""
    filled = ctx.fills[ring]
    value = filled.get(key)
    if value is None:
        [result] = _solve_vector(ctx, ctx.terms(key), (ring,))
        value = filled[key] = filled[tuple((e, -c) for e, c in key)] = result[3]
    return value


def _fill_circuits(complex_, k_max, rings):
    """{ring: (fills, unfillable)} for the circuits of length <= k_max and
    each ring of ``rings``, filled one length at a time up to the first
    length holding an unfillable one in that ring.

    ``fills`` pairs each circuit of the lengths before that one with its
    value, and ``unfillable`` lists the unfillable circuits of that length,
    empty when there is none.  A circuit is filled once for every ring
    still filling that lacks its value on this complex, by any call, and
    one particular solution serves them all.  At kernel rank <= 1, once
    the circuits this call fills pay for a packed table
    (:meth:`_FillingContext.packed`), it is the sum of the packed entries
    of the circuit's signed steps (:meth:`_PackedSolutions.fill`): when the
    sum's defect lanes are all 0, d2 X = D gamma holds exactly, since every
    entry was checked once in ints and no lane overflows, so each ring's
    value is read off the face lanes, by the divisibility test over Z and
    one weighted median on the line, with no witness built and no
    per-circuit re-check.  A sum with a defect bounds nothing over Q, and
    that circuit, like every circuit with no table and every circuit at
    kernel rank >= 2, where the optimum is an LP or branch and bound
    whatever the particular solution costs, is solved from the (edge
    index, sign) steps of its walk (:func:`_solve_vector`), each ring
    re-checking its own witness.  Only the values are kept, in each ring's
    fill cache under the circuit's edge mask of ``circuit_masks``, which
    both directions share.
    """
    for ring in rings:
        require_ring(ring)
    ctx = _context(complex_)
    index = complex_.edge_index
    going = {ring: [] for ring in rings}  # the rings still filling -> their fills
    out = {}
    circuits = circuit_masks(complex_, k_max).items() if k_max else ()
    todo = sum(any(mask not in ctx.fills[ring] for ring in rings) for mask, _ in circuits)
    packed = ctx.packed(todo) if todo else None
    for _, group in groupby(circuits, key=lambda mc: mc[1].length):
        group = list(group)
        for mask, circuit in group:
            missing = [ring for ring in going if mask not in ctx.fills[ring]]
            if missing:
                values = packed.fill(circuit.walk, missing) if packed else None
                if values is None:
                    values = [result[3] for result in _solve_vector(
                        ctx, [(index[e], s) for s, e in circuit.walk], missing)]
                for ring, value in zip(missing, values):
                    ctx.fills[ring][mask] = value
        for ring in list(going):
            filled = ctx.fills[ring]
            pairs = [(circuit, filled[mask]) for mask, circuit in group]
            unfillable = [circuit for circuit, value in pairs if value is INF]
            if unfillable:
                out[ring] = (going.pop(ring), unfillable)
            else:
                going[ring] += pairs
        if not going:
            break
    out.update((ring, (fills, [])) for ring, fills in going.items())
    return out


def superadditive_closure(values):
    """Least superadditive majorant of f given as [f(1), ..., f(n)].

    Dynamic program over split points; exact for rational inputs.
    """
    vals = [Fraction(v) for v in values]
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    n = len(vals)
    closed = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        best = vals[m - 1]
        for j in range(1, m):
            cand = closed[j] + closed[m - j]
            if cand > best:
                best = cand
        closed[m] = best
    return closed[1:]


@dataclass(frozen=True)
class WeakAreaResult:
    n_bound: int
    value: object       # int or INF
    expression: tuple   # ((sign, Circuit), ...) summing to the input cycle


def weak_area(graph, gamma, n_bound):
    """Least number of signed circuits of length <= N whose classes sum to
    the class of the circuit ``gamma`` in a graph.

    In a graph the first homology group is the cycle group, so this is the
    integral filling norm computed in the circuit-filling complex whose
    faces are exactly the circuits of length <= N.
    """
    if not graph.is_graph():
        raise HasFacesError("weak area is defined for graphs")
    if isinstance(gamma, Chain):
        require_circuit(graph, gamma)
        cycle = gamma
    else:
        cycle = gamma.induced_cycle()
    omega = omega_n(graph, n_bound)
    res = filling_norm(omega, cycle, INT)
    if res.value is INF:
        return WeakAreaResult(n_bound, INF, ())
    expr = []
    for fid, c in sorted(res.witness.coeffs.items()):
        circ = face_circuit(omega.face_by_id[fid])
        sign = 1 if c > 0 else -1
        expr.extend((sign, circ) for _ in range(abs(c)))
    return WeakAreaResult(n_bound, int(res.value), tuple(expr))


def linearity_report(complex_, k_max):
    """Rows (k, FV_Z(k), FV_Q(k), ratio FV_Z/FV_Q or None) for k = 1..k_max.

    Purely empirical: the table reports exact values side by side and
    leaves the ratio undefined when FV_Q is zero or either side infinite.
    The two tables are :func:`fv`'s, with the ring work done once: the
    circuits are filled in both rings together, one particular solution
    each (:func:`_fill_circuits`), and the second table reuses the first
    one's candidates when the two rings' circuit fills agree.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _fill_circuits(complex_, k_max, (INT, RAT))
    tz = fv(complex_, k_max, INT)
    tq = fv(complex_, k_max, RAT)
    rows = []
    for k in range(1, k_max + 1):
        vz, vq = tz.value(k), tq.value(k)
        if vz is INF or vq is INF or vq == 0:
            ratio = None
        else:
            ratio = Fraction(vz) / Fraction(vq)
        rows.append((k, vz, vq, ratio))
    return rows
