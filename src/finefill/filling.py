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
  computation;
* otherwise the rational optimum comes from a two-phase exact simplex in
  split-variable form, and the integral optimum from branch and bound
  seeded with a normal-form particular solution, with the simplex bound
  below every node.  A node's LP carries box rows only for the faces
  branched on above it, so the root LP is the rational one.

INFINITE is a real value here (the infimum of an empty set), not an error.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import ceil, floor, lcm
from operator import attrgetter

from . import linalg, simplex
from .chains import enumerate_circuits, enumerate_cycles, is_cycle, require_circuit
from .complexes import Chain, INT, RAT, format_ratio
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


def _verify_filling(ctx, vec, x, den, value):
    """Re-check a finite result x / den of value in ints: d2 x = den gamma
    (``vec``) and |x|_1 = den value."""
    image = [0] * len(vec)
    for xj, column in zip(x, ctx.columns):
        if xj:
            for i, c in column:
                image[i] += c * xj
    if image != [den * g for g in vec]:
        raise InternalError("witness boundary mismatch")
    if sum(abs(v) for v in x) * value.denominator != den * value.numerator:
        raise InternalError("witness norm mismatch")


class _FillingContext:
    """Per-complex solver state: boundary matrix and its face columns, the
    Smith form of d2 and what is read off it, and the value cache."""

    def __init__(self, complex_):
        self.complex = complex_
        self.faces = [f.id for f in complex_.faces]
        self.edges = [e.id for e in complex_.edges]
        self.edge_pos = {e: i for i, e in enumerate(self.edges)}
        self.d2 = complex_.boundary_matrix_2()
        self.columns = linalg.sparse_columns(self.d2)
        self._rat = None
        self._ker = None
        self.value_cache = {}

    @property
    def rat(self):
        if self._rat is None:
            self._rat = linalg.RationalSolver(self.d2, snf=self.snf)
        return self._rat

    @property
    def snf(self):
        return self.complex.smith_form_2()

    @property
    def kernel(self):
        if self._ker is None:
            self._ker = linalg.integer_kernel_basis(self.d2, snf=self.snf)
        return self._ker

    def gamma_vector(self, gamma):
        return self.edge_vector(gamma.coeffs.items())

    def edge_vector(self, terms):
        """The vector, one entry per edge, of (edge id, coefficient) terms."""
        vec = [0] * len(self.edges)
        for eid, c in terms:
            vec[self.edge_pos[eid]] = c
        return vec

    def chain_from_vector(self, x, ring, den=1):
        """The 2-chain x / den."""
        if ring == RAT:
            return Chain(2, RAT, {f: Fraction(v, den) for f, v in zip(self.faces, x) if v})
        return Chain(2, INT, {f: v for f, v in zip(self.faces, x) if v})


def _context(complex_):
    return complex_.cached("filling_ctx", lambda: _FillingContext(complex_))


def filling_norm(complex_, gamma, ring):
    """The least l1-norm of a 2-chain whose boundary is ``gamma``.

    ``gamma`` must be an integral 1-cycle of the complex.
    """
    if gamma.dimension != 1:
        raise NotACycleError("expected a 1-chain")
    if gamma.ring != INT:
        if any(Fraction(c).denominator != 1 for c in gamma.coeffs.values()):
            raise NotACycleError("fillings are computed for integral cycles")
        gamma = gamma.to_ring(INT)
    ctx = _context(complex_)
    key = (ring, gamma.serialize())
    if key not in ctx.value_cache:  # a cached gamma was checked when it was filled
        if not is_cycle(complex_, gamma):
            raise NotACycleError("boundary is nonzero")
        ctx.value_cache[key] = _solve(ctx, gamma, ring)
    return ctx.value_cache[key]


def _solve(ctx, gamma, ring):
    """The FillingResult of gamma over ring, its witness the 2-chain x / den
    of :func:`_solve_vector`."""
    certificate, x, den, val = _solve_vector(ctx, ctx.gamma_vector(gamma), ring)
    if val is INF:
        return FillingResult(INF, None, ring, certificate)
    return FillingResult(val, ctx.chain_from_vector(x, ring, den), ring, certificate)


def _solve_vector(ctx, vec, ring):
    """(certificate, x, den, value) of the integral cycle ``vec`` (one entry
    per edge) over ring; x and den are None when the value is INF.  Every
    route ends in an int vector x over one denominator den, and the witness
    x / den is re-checked before it is returned."""
    nf = len(ctx.faces)
    if not any(vec):
        x, den, val = [0] * nf, 1, Fraction(0) if ring == RAT else 0
    elif not nf:
        return NO_FACES, None, None, INF
    else:
        particular = ctx.rat.solve(vec)
        if particular is None:
            return RATIONALLY_INFEASIBLE, None, None, INF
        x, den = particular
        if ring == INT:
            # v is unimodular, so x / den is integral exactly when gamma is
            # an integral boundary, and then it is the normal-form solution
            if any(v % den for v in x):
                return INTEGRALLY_INFEASIBLE, None, None, INF
            x, den = [v // den for v in x], 1
        kernel_rank = nf - ctx.rat.rank
        if kernel_rank <= 1:
            # another particular solution shifts every breakpoint of the
            # line by the same amount, so the minimizer found is the same
            z = ctx.kernel[0] if kernel_rank else None
            x, den, val = _minimize_on_line(x, den, z, integral=ring == INT)
        elif ring == RAT:
            q, val = _lp_optimum(ctx, vec)
            den = lcm(*(v.denominator for v in q))
            x = [v.numerator * (den // v.denominator) for v in q]
        else:
            x, val = _branch_and_bound(ctx, vec, x)
    _verify_filling(ctx, vec, x, den, val)
    return FEASIBLE_OPTIMAL, x, den, int(val) if ring == INT else val


def _minimize_on_line(big_m, den, z, integral):
    """Exact min of |x|_1 over x = M / den + t z, t rational or integral,
    for an int vector M and an int vector z (which may be None): (X, den',
    value), the minimizer x = X / den' and its norm, the one Fraction.

    The scan runs on ints: the breakpoint -M_i / (den z_i) of entry i is
    keyed by the int -M_i * (lam / z_i), lam the lcm of the nonzero |z_i|,
    which orders the breakpoints as their values do.
    """
    if z is None or not any(z):
        return big_m, den, Fraction(sum(abs(m) for m in big_m), den)
    lam = lcm(*(w for w in z if w))
    weight = {}  # den * lam * breakpoint -> total |z| of the entries that vanish there
    for m, w in zip(big_m, z):
        if w:
            p = -m * (lam // w)
            weight[p] = weight.get(p, 0) + abs(w)
    total = sum(weight.values())
    acc = 0
    for p in sorted(weight):  # the weighted median p / (den * lam)
        acc += weight[p]
        if 2 * acc >= total:
            break
    if integral:
        step = [den * w for w in z]

        def norm_at(t):
            return sum(abs(m + t * w) for m, w in zip(big_m, step))

        best_t = min(sorted({p // (den * lam), -(-p // (den * lam))}),
                     key=lambda t: (norm_at(t), t))
        x = [m + best_t * w for m, w in zip(big_m, step)]
    else:
        x = [m * lam + p * w for m, w in zip(big_m, z)]
        den *= lam
    return x, den, Fraction(sum(abs(v) for v in x), den)


def _lp_optimum(ctx, vec, bounds=None):
    """Split-variable LP: min sum(p+n), d2 (p - n) = vec, with the box
    lb <= p_j - n_j <= ub for each face index j in ``bounds`` ({j: (lb, ub)})."""
    nf = len(ctx.faces)
    a_eq = [row + [-v for v in row] for row in ctx.d2]
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


def _reduce_by_kernel(mu, kernel):
    """Greedily shrink |mu|_1 by integer multiples of kernel vectors."""
    improved = True
    while improved:
        improved = False
        for z in kernel:
            x, _, val = _minimize_on_line(mu, 1, z, integral=True)
            if val < sum(abs(v) for v in mu):
                mu = x
                improved = True
    return mu


def _branch_and_bound(ctx, vec, mu_int):
    """Exact integral optimum; LP relaxation bounds each node from below.

    Branches on the face variable with the largest fractional part (ties by
    canonical face order), depth first, lower branch first.  The initial
    incumbent comes from the normal-form solution reduced by kernel moves,
    whose norm also bounds every variable's search box.

    A node's bounds map the faces branched on above it to their boxes, and
    its LP gets box rows for those faces only.  The other boxes need no
    rows: an LP optimum below the incumbent norm already lies inside them.
    """
    nf = len(ctx.faces)
    incumbent = _reduce_by_kernel(mu_int, ctx.kernel)
    inc_val = sum(abs(v) for v in incumbent)
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
            cand = [int(v) for v in x]
            cand_val = sum(abs(v) for v in cand)
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
    L <= FV <= U.  Each circuit is filled once, and the other cycles filled
    are the candidates of ``enumerate_cycles``: those with a split whose
    summed fill is >= L(norm).  Any other cycle fills to less than
    L(norm) <= FV(norm), so it is never the first to attain a value, while
    ties stay in; the running maximum over the candidates in (norm,
    serialization) order therefore has the values and witnesses of the one
    over all cycles.  A cycle and its negation fill alike, so one of each
    pair is solved.  Circuits and candidates are solved from their edge
    vectors, with no Chain built for them and no witness kept; candidates
    come as serializations, and only a new running maximum, the witness,
    becomes a Chain.

    A cycle is unfillable only if some circuit of its split is, so the
    table turns INFINITE at the length l of the shortest unfillable circuit
    and stays there.  The unfillable cycles of norm l are the induced
    cycles of those circuits, either sign, and the least of them in
    serialization order is the witness.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")

    def build():
        fill, fills, unfillable = _fill_circuits(complex_, k_max, ring)
        finite_max = unfillable[0].length - 1 if unfillable else k_max
        # candidates come sorted by norm, so a running maximum read off
        # before the first candidate of norm k is FV(k - 1)
        top = (0 if ring == INT else Fraction(0), Chain(1, INT, {}))
        rows = []  # index k -> (value, witness)
        for key in enumerate_cycles(complex_, finite_max, fills):
            norm = sum(abs(c) for _, c in key)
            if norm == 0:
                continue
            rows.extend([top] * (norm - len(rows)))
            value = fill(key)
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


def fv_value(complex_, k, ring):
    """FV(k) alone, the value of ``fv(complex_, k, ring).value(k)``.

    It is INFINITE exactly when a circuit of length <= k is unfillable.
    Otherwise let T be the largest fill of such a circuit.  A cycle of norm
    <= k fills to at most the summed fills of a split into circuits, so
    only a cycle with a split summing above T can fill above T; those are
    the candidates of ``enumerate_cycles`` with ``above`` T, and FV(k) is
    the largest of T and their fills.
    """
    if k < 0:
        raise ValueError("k must be >= 0")

    def build():
        fill, fills, unfillable = _fill_circuits(complex_, k, ring)
        if unfillable:
            return INF
        top = max((value for _, value in fills), default=0 if ring == INT else Fraction(0))
        for key in enumerate_cycles(complex_, k, fills, above=top):
            if key:
                top = max(top, fill(key))
        return top

    return complex_.cached(("fv_value", ring, k), build)


def _fill_circuits(complex_, k_max, ring):
    """(fill, fills, unfillable) for the circuits of length <= k_max, filled
    one length at a time up to the first length holding an unfillable one.

    ``fill`` maps a cycle's serialization to its value, solved from its
    edge vector when neither it nor its negation has been filled.
    ``fills`` pairs each circuit of the lengths before that one with its
    value, and ``unfillable`` lists the unfillable circuits of that length,
    empty when there is none.
    """
    ctx = _context(complex_)
    filled = {}  # serialization -> fill value

    def fill(key):
        value = filled.get(key)
        if value is None:
            value = filled.get(tuple((e, -c) for e, c in key))
        if value is None:
            value = filled[key] = _solve_vector(ctx, ctx.edge_vector(key), ring)[3]
        return value

    circuits = enumerate_circuits(complex_, None, k_max) if k_max else []
    fills = []
    for _, group in groupby(circuits, key=attrgetter("length")):
        group = [(circuit, fill(tuple(sorted((e, s) for s, e in circuit.walk))))
                 for circuit in group]
        unfillable = [circuit for circuit, value in group if value is INF]
        if unfillable:
            return fill, fills, unfillable
        fills += group
    return fill, fills, []


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
        circuit = require_circuit(graph, gamma)
        cycle = gamma
    else:
        circuit = gamma
        cycle = circuit.induced_cycle()
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
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
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
