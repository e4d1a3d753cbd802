"""Answer checker for benchmark queries, independent of the finefill package.

It reads a query's stdout and judges it against the complex the benchmark
generated: fill witnesses are re-verified (boundary equals the cycle, l1-norm
equals the value), weak-area terms must be short circuits summing to the
cycle, FV and linearity tables must have their shape and monotonicity, every
fineness circuit must be a closed walk of length <= L through its edge, and
a delta witness must attain delta under the benchmark's own BFS.

Optimality is not re-derived here; for the default seed the golden stdout
digests cover it.  Every fill and weak-area cycle the generators make is a
sum of face (or short circuit) boundaries, so ``inf`` is wrong for them.
"""

from collections import deque
from fractions import Fraction

from inputs import walk_cycle


def check(query, stdout):
    """None when ``stdout`` is a correct answer to ``query``, else the reason."""
    lines = stdout.splitlines()
    try:
        return _CHECKS[query.kind](query, lines)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as err:
        return f"unreadable output: {err!r}"


def _value(token):
    return None if token == "inf" else Fraction(token)


def _walk(text):
    return [(1 if tok[0] == "+" else -1, tok[1:]) for tok in text.split(",")]


def _circuit_problem(cx, walk, max_len, edge=None):
    """Why ``walk`` is not a circuit of length <= max_len (through ``edge``)."""
    if not walk or len(walk) > max_len:
        return f"circuit length {len(walk)} outside 1..{max_len}"
    if edge is not None and all(e != edge for _, e in walk):
        return f"circuit misses its edge {edge}"
    if len({e for _, e in walk}) != len(walk):
        return "circuit repeats an edge"
    ends = [cx.ends(s, e) for s, e in walk]
    if any(ends[i][1] != ends[(i + 1) % len(ends)][0] for i in range(len(ends))):
        return "circuit is not a closed walk"
    if len({start for start, _ in ends}) != len(ends):
        return "circuit repeats a vertex"
    return None


def _check_fill(q, lines):
    tag, token = lines[0].split("\t")
    if tag != "value":
        return "missing value line"
    value = _value(token)
    if value is None:
        return "inf for a cycle the faces fill"
    integral = q.argv[q.argv.index("--ring") + 1] == "z"
    boundary, norm = {}, 0
    for line in lines[1:]:
        tag, coeff, face = line.split("\t")
        c = Fraction(coeff)
        if tag != "witness" or face not in q.cx.faces or not c:
            return f"bad witness line {line!r}"
        if integral and c.denominator != 1:
            return f"fractional coefficient {coeff} in an integral witness"
        norm += abs(c)
        walk_cycle(q.cx.faces[face], c, boundary)
    if boundary != q.cycle:
        return "witness boundary differs from the cycle"
    if norm != value:
        return f"witness norm {norm} differs from the value {value}"
    return None


def _check_weakarea(q, lines):
    tag, token = lines[0].split("\t")
    value = _value(token)
    if tag != "value" or value is None:
        return "missing or infinite value"
    total = {}
    for line in lines[1:]:
        tag, sign, tokens = line.split("\t")
        walk = _walk(tokens)
        problem = _circuit_problem(q.cx, walk, q.param)
        if tag != "term" or sign not in ("+", "-") or problem:
            return f"bad term {line!r}: {problem}"
        walk_cycle(walk, 1 if sign == "+" else -1, total)
    if total != q.cycle:
        return "terms do not sum to the cycle"
    if len(lines) - 1 != value:
        return f"{len(lines) - 1} terms for the value {value}"
    return None


def _monotone(values):
    finite = [v for v in values if v is not None]
    first_inf = next((i for i, v in enumerate(values) if v is None), len(values))
    return finite == sorted(finite) and all(v is None for v in values[first_inf:])


def _check_fv(q, lines):
    if lines[0] != "k\tvalue" or len(lines) != q.param + 2:
        return "table has the wrong shape"
    rows = [line.split("\t") for line in lines[1:]]
    if [int(k) for k, _ in rows] != list(range(q.param + 1)):
        return "k column is not 0..kmax"
    values = [_value(v) for _, v in rows]
    if values[0] != 0 or not _monotone(values):
        return "table does not start at 0 or is not monotone"
    return None


def _check_linearity(q, lines):
    if lines[0] != "k\tfv_z\tfv_q\tratio" or len(lines) != q.param + 1:
        return "table has the wrong shape"
    rows = [line.split("\t") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(1, q.param + 1)):
        return "k column is not 1..kmax"
    zs = [_value(r[1]) for r in rows]
    qs = [_value(r[2]) for r in rows]
    if not (_monotone(zs) and _monotone(qs)):
        return "a column is not monotone"
    for z, r, (_, _, _, ratio) in zip(zs, qs, rows):
        if z is not None and (r is None or r > z):
            return "FV_Q exceeds FV_Z"
        want = "-" if z is None or r is None or r == 0 else z / r
        if (ratio if want == "-" else Fraction(ratio)) != want:
            return f"ratio {ratio} is not FV_Z/FV_Q"
    return None


def _check_fine(q, lines):
    edges, i = [], 0
    while i < len(lines):
        edge, method, scale, count, status = lines[i].split("\t")
        if method != "SPECIAL_CHAIN" or int(scale) != q.param or status != "OK":
            return f"bad record {lines[i]!r}"
        edges.append(edge)
        circuits = lines[i + 1:i + 1 + int(count)]
        if len(circuits) != int(count):
            return f"record for {edge} lists fewer circuits than its count"
        for line in circuits:
            tag, tokens = line.split("\t")
            if tag != "circuit":
                return f"edge {edge}: {line!r} is not a circuit line"
            problem = _circuit_problem(q.cx, _walk(tokens), q.param, edge)
            if problem:
                return f"edge {edge}: {problem}"
        i += 1 + int(count)
    if edges != list(q.cx.edges):
        return "records do not cover the edges in order"
    return None


def _distances(cx, source):
    adj = {}
    for t, h in cx.edges.values():
        adj.setdefault(t, []).append(h)
        adj.setdefault(h, []).append(t)
    dist = {source: 0}
    todo = deque([source])
    while todo:
        v = todo.popleft()
        for w in adj.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                todo.append(w)
    return dist


def _check_delta(q, lines):
    tag, token, witness = lines[0].split("\t")
    if tag != "delta" or len(lines) != 1:
        return "missing delta line"
    a, b, c, d = witness.split(",")
    dist = {v: _distances(q.cx, v) for v in (a, b, c)}
    sums = sorted((dist[a][b] + dist[c][d], dist[a][c] + dist[b][d],
                   dist[a][d] + dist[b][c]))
    if Fraction(sums[2] - sums[1], 2) != Fraction(token):
        return f"witness {witness} does not attain delta {token}"
    return None


_CHECKS = {
    "fill": _check_fill,
    "weakarea": _check_weakarea,
    "fv": _check_fv,
    "linearity": _check_linearity,
    "fine": _check_fine,
    "delta": _check_delta,
}
