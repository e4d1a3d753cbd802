"""Exact filling norms and homological Dehn functions over Z and Q.

The rational problem is an l1-minimization min |mu|_1 with d2(mu) = gamma;
the integral problem additionally restricts mu to integer chains.  Both are
solved exactly:

* both rings read infeasibility and a particular solution off the one
  Smith normal form of d2, built the first time a query needs it and then
  cached with the complex, where it also gives the homology and the kernel
  of d2; over Z it also tells a cycle that is not even a rational boundary;
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
from math import ceil, floor

from . import linalg, simplex
from .chains import decompose_into_circuits, enumerate_cycles, is_cycle, require_circuit
from .complexes import Chain, INT, RAT, boundary, format_ratio
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


def _verify_filling(complex_, gamma, result):
    if result.value is INF:
        return result
    mu = result.witness
    if boundary(complex_, mu).to_ring(RAT) != gamma.to_ring(RAT):
        raise InternalError("witness boundary mismatch")
    if Fraction(mu.l1()) != Fraction(result.value):
        raise InternalError("witness norm mismatch")
    return result


class _FillingContext:
    """Per-complex solver state: boundary matrix, the Smith form of d2 and
    what is read off it, and the value cache."""

    def __init__(self, complex_):
        self.complex = complex_
        self.faces = [f.id for f in complex_.faces]
        self.edges = [e.id for e in complex_.edges]
        self.edge_pos = {e: i for i, e in enumerate(self.edges)}
        self.d2 = complex_.boundary_matrix_2()
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
        vec = [0] * len(self.edges)
        for eid, c in gamma.coeffs.items():
            vec[self.edge_pos[eid]] = c
        return vec

    def chain_from_vector(self, x, ring):
        return Chain(2, ring, {self.faces[i]: x[i] for i in range(len(self.faces)) if x[i]})


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
    if not is_cycle(complex_, gamma):
        raise NotACycleError("boundary is nonzero")
    ctx = _context(complex_)
    key = (ring, gamma.serialize())
    if key not in ctx.value_cache:
        result = _verify_filling(complex_, gamma, _solve(ctx, gamma, ring))
        ctx.value_cache[key] = result
        neg_key = (ring, gamma.neg().serialize())
        if neg_key not in ctx.value_cache:
            neg = FillingResult(result.value,
                                result.witness.neg() if result.witness else None,
                                ring, result.certificate)
            ctx.value_cache[neg_key] = neg
    return ctx.value_cache[key]


def _solve(ctx, gamma, ring):
    zero = 0 if ring == INT else Fraction(0)
    if gamma.is_zero():
        return FillingResult(zero, Chain(2, ring, {}), ring, FEASIBLE_OPTIMAL)
    if not ctx.faces:
        return FillingResult(INF, None, ring, NO_FACES)
    vec = ctx.gamma_vector(gamma)
    u, d, _ = ctx.snf
    rank = linalg.snf_rank(d)
    ker_dim = len(ctx.faces) - rank
    if ring == RAT:
        mu_rat = ctx.rat.solve(vec)
        if mu_rat is None:
            return FillingResult(INF, None, ring, RATIONALLY_INFEASIBLE)
        if ker_dim <= 1:
            # another particular solution shifts every breakpoint of the line
            # by the same amount, so the minimizer found is the same point
            x, val = _minimize_on_line(mu_rat, ctx.kernel[0] if ker_dim else None,
                                       integral=False)
        else:
            x, val = _lp_optimum(ctx, vec)
        return FillingResult(val, ctx.chain_from_vector(x, RAT), RAT, FEASIBLE_OPTIMAL)
    mu_int = linalg.solve_integer(ctx.d2, vec, snf=ctx.snf)
    if mu_int is None:
        # u is unimodular, so u.gamma vanishes from the rank on exactly when
        # gamma is a rational boundary
        if any(linalg.mat_vec(u, vec)[rank:]):
            return FillingResult(INF, None, INT, RATIONALLY_INFEASIBLE)
        return FillingResult(INF, None, INT, INTEGRALLY_INFEASIBLE)
    if ker_dim <= 1:
        x, val = _minimize_on_line(mu_int, ctx.kernel[0] if ker_dim else None,
                                   integral=True)
    else:
        x, val = _branch_and_bound(ctx, vec, mu_int)
    x = [int(v) for v in x]
    return FillingResult(int(val), ctx.chain_from_vector(x, INT), INT, FEASIBLE_OPTIMAL)


def _minimize_on_line(mu, z, integral):
    """Exact min of |mu + t z|_1 over rational or integral t (z may be None)."""
    if z is None or all(v == 0 for v in z):
        val = sum(abs(Fraction(v)) for v in mu)
        return list(mu), val

    def norm_at(t):
        return Fraction(sum(abs(m + t * w) for m, w in zip(mu, z)))

    weight = {}  # breakpoint -> total |w| of the entries that vanish there
    for m, w in zip(mu, z):
        if w != 0:
            p = Fraction(-m, w)
            weight[p] = weight.get(p, 0) + abs(w)
    points = sorted(weight)
    total = sum(abs(w) for w in z)
    acc = 0
    t_star = points[-1]
    for p in points:
        acc += weight[p]
        if 2 * acc >= total:
            t_star = p
            break
    if integral:
        # an int t keeps the sums in ints when mu and z are ints
        best_t = min(sorted({floor(t_star), ceil(t_star)}), key=lambda t: (norm_at(t), t))
        x = [int(m + best_t * w) for m, w in zip(mu, z)]
    else:
        best_t = t_star
        x = [m + best_t * w for m, w in zip(mu, z)]
    return x, norm_at(best_t)


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
    mu = list(mu)
    improved = True
    while improved:
        improved = False
        for z in kernel:
            x, val = _minimize_on_line(mu, z, integral=True)
            if val < sum(abs(v) for v in mu):
                mu = [int(v) for v in x]
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
    """sup of filling norms over integral cycles of norm <= k, for each k.

    The cycle set comes from circuit-multiset enumeration; the table turns
    INFINITE at the first unfillable cycle and stays there (it is monotone).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")

    def build():
        # cycles come sorted by norm, so a running maximum read off before
        # the first cycle of norm k is FV(k - 1), witnessed by the first
        # cycle that reached it; INF exceeds every value and ends the table
        top = (0 if ring == INT else Fraction(0), Chain(1, INT, {}))
        rows = []  # index k -> (value, witness)
        for cycle in enumerate_cycles(complex_, k_max):
            norm = cycle.l1()
            if norm == 0:
                continue
            rows.extend([top] * (norm - len(rows)))
            res = filling_norm(complex_, cycle, ring)
            if res.value > top[0]:
                top = (res.value, cycle)
            if top[0] is INF:
                break
        rows.extend([top] * (k_max + 1 - len(rows)))
        values, witnesses = zip(*rows)
        return FVTable(ring, k_max, values, witnesses)

    return complex_.cached(("fv", ring, k_max), build)


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
