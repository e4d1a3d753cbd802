"""Exact filling norms and homological Dehn functions over Z and Q.

The rational problem is an l1-minimization min |mu|_1 with d2(mu) = gamma;
the integral problem additionally restricts mu to integer chains.  Both are
solved exactly:

* both rings take one rational particular solution X / D off the one
  Smith normal form of d2, built the first time a query needs it and then
  cached with the complex, where it also gives the homology and the kernel
  of d2; a cycle with none bounds nothing even over Q, and over Z a cycle
  bounds exactly when D divides every entry of X;
* the rank of that kernel alone picks the route: at rank 0 or 1 the
  solution set is a point or a line and the optimum is a weighted-median
  computation.  It runs on supports: the cycle comes as its (edge index,
  coefficient) nonzeros, X as its nonzeros, and the line as the nonzeros
  of its kernel vector z, so the solve, the minimization and the int
  re-check of the witness cost the supports of gamma, X and z;
* otherwise the rational optimum comes from a two-phase exact simplex in
  split-variable form, and the integral optimum from branch and bound
  seeded with a normal-form particular solution, with the simplex bound
  below every node.  A node's LP carries box rows only for the faces
  branched on above it, so the root LP is the rational one.

INFINITE is a real value here (the infimum of an empty set), not an error.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
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


def _line(z):
    """The line of the kernel vector z, a dict {face index: entry} of its
    nonzeros, as :func:`_minimize_on_line` reads it: (z, the lcm of its
    |entries|, the sum of its |entries|)."""
    return z, lcm(*z.values()), sum(map(abs, z.values()))


class _FillingContext:
    """Per-complex solver state: the complex's face columns, what is read
    off the Smith form of d2 (the rational solver, the kernel and its
    lines), the value cache, the fill values of :func:`_fill_circuits` and
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

    @cached_property
    def rat(self):
        return linalg.RationalSolver(self.complex.smith_form_2())

    @cached_property
    def kernel(self):
        """The kernel basis vectors, each a dict {face index: entry} of its
        nonzeros in ascending face order."""
        return linalg.integer_kernel_basis(self.complex.smith_form_2())

    @cached_property
    def lines(self):
        """The :func:`_line` of each kernel basis vector, built once after
        checking that d2 maps every one of them to 0."""
        lines = [_line(z) for z in self.kernel]
        if any(any(self.image(zs)) for zs, _, _ in lines):
            raise InternalError("kernel vector with a nonzero boundary")
        return lines

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
        ctx.value_cache[key] = _solve(ctx, gamma, ring)
    return ctx.value_cache[key]


def _solve(ctx, gamma, ring):
    """The FillingResult of gamma over ring, its witness the 2-chain x / den
    of :func:`_solve_vector`, built from the nonzeros of x."""
    [(certificate, x, den, val)] = _solve_vector(ctx, ctx.terms(gamma.coeffs.items()), (ring,))
    if val is INF:
        return FillingResult(INF, None, ring, certificate)
    return FillingResult(val, ctx.chain(x, ring, den), ring, certificate)


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
    and z the int kernel vector of ``line`` (:func:`_line`, or None for no
    line): (Y, den', value), the minimizer y = Y / den' as the dict of its
    nonzeros and its norm, the one Fraction.

    The scan runs on ints: the breakpoint -X_i / (den z_i) of entry i is
    keyed by the int -X_i * (lam / z_i), lam the lcm of the nonzero |z_i|,
    which orders the breakpoints as their values do.  Every entry of
    supp(z) off supp(X) has the breakpoint 0, so they enter the weighted
    median as one weight, and the choice of t reads supp(X) only; z is
    added in only when t is not 0.
    """
    if line is None:
        return x, den, Fraction(sum(map(abs, x.values())), den)
    zs, lam, total = line
    weight = {}  # den * lam * breakpoint -> total |z| of the entries that vanish there
    rest = total  # the |z| of the entries off supp(X)
    for j, v in x.items():
        w = zs.get(j)
        if w:
            p = -v * (lam // w)
            weight[p] = weight.get(p, 0) + abs(w)
            rest -= abs(w)
    if rest:
        weight[0] = weight.get(0, 0) + rest
    acc = 0
    for p in sorted(weight):  # the weighted median p / (den * lam)
        acc += weight[p]
        if 2 * acc >= total:
            break
    if integral:
        # the norm at t, less the entries off supp(z), which do not move
        def moved_norm(t):
            return sum(abs(v + t * den * zs[j]) for j, v in x.items() if j in zs) + (
                abs(t) * den * rest)

        step = min(sorted({p // (den * lam), -(-p // (den * lam))}),
                   key=lambda t: (moved_norm(t), t)) * den
    else:
        step = p
        if p:
            x = {j: v * lam for j, v in x.items()}
            den *= lam
    if step:
        y = dict(x)
        for j, w in zs.items():
            y[j] = y.get(j, 0) + step * w
        x = {j: v for j, v in y.items() if v}
    return x, den, Fraction(sum(map(abs, x.values())), den)


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
    ``lines``, mu and the result dicts {face index: entry} of nonzeros."""
    improved = True
    while improved:
        improved = False
        for line in lines:
            x, _, val = _minimize_on_line(mu, 1, line, integral=True)
            if val < sum(map(abs, mu.values())):
                mu = x
                improved = True
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
    empty when there is none.  A circuit is solved from the (edge index,
    sign) steps of its walk once for every ring still filling that lacks
    its value on this complex, by any call: one particular solution serves
    them all (:func:`_solve_vector`), and each ring re-checks its own
    witness.  Only the values are kept, in each ring's fill cache under the
    circuit's edge mask of ``circuit_masks``, which both directions share.
    """
    for ring in rings:
        require_ring(ring)
    ctx = _context(complex_)
    index = complex_.edge_index
    going = {ring: [] for ring in rings}  # the rings still filling -> their fills
    out = {}
    circuits = circuit_masks(complex_, k_max).items() if k_max else ()
    for _, group in groupby(circuits, key=lambda mc: mc[1].length):
        group = list(group)
        for mask, circuit in group:
            missing = [ring for ring in going if mask not in ctx.fills[ring]]
            if missing:
                results = _solve_vector(ctx, [(index[e], s) for s, e in circuit.walk], missing)
                for ring, result in zip(missing, results):
                    ctx.fills[ring][mask] = result[3]
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
