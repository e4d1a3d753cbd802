"""A fixed reference loop that measures how fast the host runs Python right now.

The benchmark's hosts are shared, and the speed of one core drifts by 20-50%
in phases of seconds to minutes, in CPU time as much as in wall time.  Every
timed interval of ``run.py`` is therefore bracketed by runs of :func:`probe`,
and reported as

    seconds measured * REF_S / (median probe time around the interval)

that is, as seconds on a host on which one probe takes ``REF_S``.  A change
to finefill cannot change the probe, which lives here and touches nothing of
the package, so a faster program still reads faster; only the host's drift
cancels.  The probe mixes the interpreter work finefill does: Fraction row
operations (simplex, linalg), breadth-first search and a quadruple scan on
integer distances (hyperbolicity), and sets and dicts of tuples (chains,
fineness).
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from statistics import median
from time import perf_counter

# A probe's median time on a 2.1 GHz Intel Xeon core (CPython 3) in a quiet
# phase; it only fixes the scale of the reported times.
REF_S = 0.0012

_N = 14
_ADJ = {v: [(v + 1) % _N, (v - 1) % _N, (v + 5) % _N, (v - 5) % _N] for v in range(_N)}
_ROWS = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 4) for j in range(7)]
         for i in range(6)]


def probe():
    """The reference work; returns a checksum so none of it is optimised away."""
    rows = [list(r) for r in _ROWS]
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(len(rows)):
            if i != k and rows[i][k]:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    dist = {}
    for src in _ADJ:
        d, todo = {src: 0}, deque([src])
        while todo:
            v = todo.popleft()
            for w in _ADJ[v]:
                if w not in d:
                    d[w] = d[v] + 1
                    todo.append(w)
        dist[src] = d
    best = 0
    for a, b, c, e in combinations(range(_N), 4):
        s = sorted((dist[a][b] + dist[c][e], dist[a][c] + dist[b][e], dist[a][e] + dist[b][c]))
        best = max(best, s[2] - s[1])
    seen = set()
    for a, b in combinations(range(_N), 2):
        seen.add(tuple(sorted((dist[a][b], a % 5, b % 3))))
    return best + len(seen) + sum(r[-1] for r in rows).numerator


def time_probe():
    t0 = perf_counter()
    probe()
    return perf_counter() - t0


def scale(probe_times):
    """Factor that turns seconds measured next to these probes into reference seconds."""
    return REF_S / median(probe_times)
