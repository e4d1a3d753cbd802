"""Command line entry point.

TSV goes to stdout, diagnostics to stderr.  Exit codes: 0 success
(mathematically infinite answers are data), 1 input or validation error,
2 search budget exceeded (INCOMPLETE), 3 internal invariant violation.
Exact rationals print as p/q, integers bare, INFINITE as ``inf``; the
``delta`` line is the one place the value always carries a denominator.
"""

import argparse
import functools
import os
import random
import sys
from fractions import Fraction

from . import chains, complexes, constructions, fineness, filling, hyperbolicity
from .complexes import BARYCENTRIC, INT, MIDPOINT, RAT
from .errors import BudgetExceededError, FinefillError, FormatError, InternalError

BUDGET_ENV = "FINEFILL_BUDGET"


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    sink = sys.stdout
    try:
        if args.output:
            sink = open(args.output, "w", encoding="utf-8")
        code = args.func(args, sink)
    except BudgetExceededError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 2
    except (InternalError, AssertionError) as err:
        print(f"error[INTERNAL]: {err}", file=sys.stderr)
        return 3
    except FinefillError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if sink is not sys.stdout:
            sink.close()
    return code or 0


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused by later ones
    (parsing leaves it unchanged; building it costs more than many queries)."""
    parser = argparse.ArgumentParser(
        prog="finefill",
        description="Exact filling norms, Dehn functions, and fineness "
                    "certificates for finite 2-complexes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--jobs", type=int, default=1, metavar="J",
                       help="worker cap; outputs are identical for every J")
        p.add_argument("--budget", type=int, default=None,
                       help=f"search state budget (default {fineness.DEFAULT_BUDGET}, "
                            f"or ${BUDGET_ENV})")
        p.add_argument("--output", default=None, metavar="FILE",
                       help="write the TSV/text to FILE instead of stdout")
        return p

    p = add("validate", _cmd_validate, "check a complex file")
    p.add_argument("complex")

    p = add("h1", _cmd_h1, "first integral homology")
    p.add_argument("complex")

    p = add("fill", _cmd_fill, "filling norm of a cycle")
    p.add_argument("--ring", choices=["z", "q"], required=True)
    p.add_argument("--cycle", required=True)
    p.add_argument("complex")

    p = add("fv", _cmd_fv, "homological Dehn function table")
    p.add_argument("--ring", choices=["z", "q"], required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("complex")

    p = add("linearity", _cmd_linearity, "FV_Z / FV_Q side-by-side report")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("complex")

    p = add("decompose", _cmd_decompose, "split a cycle into circuit cycles")
    p.add_argument("--cycle", required=True)
    p.add_argument("complex")

    p = add("circuits", _cmd_circuits, "enumerate circuits of bounded length")
    p.add_argument("--edge", default=None)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("complex")

    p = add("fine", _cmd_fine, "bounded-scale fineness certificate")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--method", choices=["graph", "special"], required=True)
    p.add_argument("complex")

    p = add("special", _cmd_special, "enumerate special 2-chains at an edge")
    p.add_argument("--edge", required=True)
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("complex")

    p = add("subdivide", _cmd_subdivide, "midpoint or barycentric subdivision")
    p.add_argument("--mode", choices=["mid", "bary"], required=True)
    p.add_argument("complex")

    p = add("omega", _cmd_omega, "attach faces to all circuits of length <= n")
    p.add_argument("--n", type=int, default=None,
                   help="circuit length bound (default: vertex count)")
    p.add_argument("graph")

    p = add("weakarea", _cmd_weakarea, "least signed-circuit expression size")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--cycle", required=True)
    p.add_argument("graph")

    p = add("coneoff", _cmd_coneoff, "coned-off Cayley graph or complex")
    p.add_argument("--graph-only", action="store_true")
    p.add_argument("group")

    p = add("delta", _cmd_delta, "four-point hyperbolicity constant")
    p.add_argument("--cap", type=int, default=hyperbolicity.DEFAULT_VERTEX_CAP)
    p.add_argument("graph")

    p = add("sadd", _cmd_sadd, "superadditive closure of a value table")
    p.add_argument("table")

    p = add("corpus", _cmd_corpus, "run the property suite over a directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("directory")

    return parser


def _budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise FormatError(f"${BUDGET_ENV} is not an integer: {env!r}") from None
    return fineness.DEFAULT_BUDGET


def _load_complex(path):
    with open(path, encoding="utf-8") as fh:
        return complexes.parse_complex(fh.read())


def _load_chain(path):
    with open(path, encoding="utf-8") as fh:
        return chains.parse_chain(fh.read())


def _load_group(path):
    with open(path, encoding="utf-8") as fh:
        return constructions.parse_group(fh.read())


def _ring(tag):
    return INT if tag == "z" else RAT


def _walk_tokens(walk):
    return ",".join(("+" if s > 0 else "-") + e for s, e in walk)


# -- subcommands ----------------------------------------------------------------

def _cmd_validate(args, out):
    cx = _load_complex(args.complex)
    print(f"valid\t{len(cx.vertices)}\t{len(cx.edges)}\t{len(cx.faces)}", file=out)


def _cmd_h1(args, out):
    cx = _load_complex(args.complex)
    rep = complexes.homology_h1(cx)
    print(f"betti1\t{rep.betti1}", file=out)
    for t in rep.torsion:
        print(f"torsion\t{t}", file=out)


def _cmd_fill(args, out):
    cx = _load_complex(args.complex)
    gamma = _load_chain(args.cycle)
    res = filling.filling_norm(cx, gamma, _ring(args.ring))
    print(f"value\t{filling.format_value(res.value)}", file=out)
    if res.witness is not None:
        for fid, c in sorted(res.witness.coeffs.items()):
            print(f"witness\t{complexes.format_ratio(c)}\t{fid}", file=out)


def _cmd_fv(args, out):
    cx = _load_complex(args.complex)
    table = filling.fv(cx, args.kmax, _ring(args.ring))
    print("k\tvalue", file=out)
    for k, v in table.rows():
        print(f"{k}\t{filling.format_value(v)}", file=out)


def _cmd_linearity(args, out):
    cx = _load_complex(args.complex)
    rows = filling.linearity_report(cx, args.kmax)
    print("k\tfv_z\tfv_q\tratio", file=out)
    for k, vz, vq, ratio in rows:
        r = "-" if ratio is None else complexes.format_ratio(ratio)
        print(f"{k}\t{filling.format_value(vz)}\t{filling.format_value(vq)}\t{r}", file=out)


def _cmd_decompose(args, out):
    cx = _load_complex(args.complex)
    for circ in chains.decompose_into_circuits(cx, _load_chain(args.cycle)):
        print(f"circuit\t{circ.length}\t{_walk_tokens(circ.walk)}", file=out)


def _cmd_circuits(args, out):
    cx = _load_complex(args.complex)
    found = chains.enumerate_circuits(cx, args.edge, args.length)
    print(f"count\t{len(found)}", file=out)
    for c in found:
        print(f"circuit\t{c.length}\t{','.join(c.key)}", file=out)


def _cmd_fine(args, out):
    cx = _load_complex(args.complex)
    method = fineness.GRAPH_SEARCH if args.method == "graph" else fineness.SPECIAL_CHAIN
    cert = fineness.fineness_certificate(cx, args.length, method, budget=_budget(args))
    lines = {}  # circuit key -> its line, built once however many edges list it
    text = []
    for rec in cert.records:
        text.append(f"{rec.edge}\t{cert.method}\t{cert.scale}\t{rec.count}\t{rec.status}\n")
        for c in rec.circuits:
            line = lines.get(c.key)
            if line is None:
                line = lines[c.key] = f"circuit\t{','.join(c.key)}\n"
            text.append(line)
    out.write("".join(text))
    if not cert.exact:
        print("warning: budget exhausted; INCOMPLETE records are partial",
              file=sys.stderr)
        return 2
    return 0


def _cmd_special(args, out):
    cx = _load_complex(args.complex)
    found = fineness.enumerate_special_chains(cx, args.edge, args.norm,
                                              budget=_budget(args))
    for ch in found:
        toks = ",".join(("+" if c > 0 else "-") + f for f, c in sorted(ch.coeffs.items()))
        print(f"chain2\t{int(ch.l1())}\t{toks}", file=out)


def _cmd_subdivide(args, out):
    cx = _load_complex(args.complex)
    mode = MIDPOINT if args.mode == "mid" else BARYCENTRIC
    result = complexes.subdivide(cx, mode)
    comments = [f"provenance {new} {dim} {old}"
                for new, (dim, old) in sorted(result.provenance.items())]
    out.write(complexes.write_complex(result.complex, comments=comments))


def _cmd_omega(args, out):
    graph = _load_complex(args.graph)
    n = args.n if args.n is not None else max(1, len(graph.vertices))
    om = constructions.omega_n(graph, n)
    comments = [f"omega n={n}"]
    comments.extend(f"circuit {f.id} {_walk_tokens(f.walk)}" for f in om.faces)
    out.write(complexes.write_complex(om, comments=comments))


def _cmd_weakarea(args, out):
    graph = _load_complex(args.graph)
    gamma = _load_chain(args.cycle)
    res = filling.weak_area(graph, gamma, args.N)
    print(f"value\t{filling.format_value(res.value)}", file=out)
    for sign, circ in res.expression:
        print(f"term\t{'+' if sign > 0 else '-'}\t{','.join(circ.key)}", file=out)


def _cmd_coneoff(args, out):
    pres = _load_group(args.group)
    if args.graph_only:
        coned = constructions.coned_off_cayley_graph(pres)
    else:
        coned = constructions.coned_off_cayley_complex(pres)
    out.write(constructions.write_coned_off(coned))


def _cmd_delta(args, out):
    graph = _load_complex(args.graph)
    rep = hyperbolicity.hyperbolicity_delta(graph, vertex_cap=args.cap)
    frac = Fraction(rep.delta)
    wit = ",".join(rep.witness) if rep.witness else "-"
    print(f"delta\t{frac.numerator}/{frac.denominator}\t{wit}", file=out)


def _cmd_sadd(args, out):
    with open(args.table, encoding="utf-8") as fh:
        lines = complexes.content_lines(fh.read())
    values = []
    for line in lines:
        parts = line.split()
        if parts[0] in ("n", "k"):
            continue  # header
        if len(parts) != 2:
            raise FormatError(f"cannot parse table line: {line!r}")
        n = complexes.parse_int(parts[0])
        if n != len(values) + 1:
            raise FormatError("table rows must be n = 1, 2, ... in order")
        values.append(complexes.parse_ratio(parts[1]))
    closed = filling.superadditive_closure(values)
    print("n\tvalue", file=out)
    for i, v in enumerate(closed):
        print(f"{i + 1}\t{complexes.format_ratio(v)}", file=out)


# -- corpus property runner -------------------------------------------------------

def _cmd_corpus(args, out):
    rng = random.Random(args.seed)
    files = sorted(f for f in os.listdir(args.directory) if f.endswith(".cx"))
    if not files:
        raise FormatError(f"no .cx files in {args.directory!r}")
    failures = 0
    for name in files:
        path = os.path.join(args.directory, name)
        try:
            cx = _load_complex(path)
        except (FinefillError, OSError, ValueError) as err:
            print(f"{name}\tvalidate\tfail", file=out)
            print(f"{name}: {err}", file=sys.stderr)
            failures += 1
            continue
        print(f"{name}\tvalidate\tpass", file=out)
        for check, fn in _corpus_checks(cx, rng, args.trials):
            try:
                ok = fn()
            except FinefillError as err:
                ok = False
                print(f"{name}: {check}: {err}", file=sys.stderr)
            print(f"{name}\t{check}\t{'pass' if ok else 'fail'}", file=out)
            if not ok:
                failures += 1
    return 3 if failures else 0


def _corpus_checks(cx, rng, trials):
    checks = [("boundary-squared", lambda: _check_dd_zero(cx))]
    if len(cx.edges) <= 40:
        checks.append(("h1-subdivision", lambda: _check_h1_subdivision(cx)))
    checks.append(("decompose", lambda: _check_decompose(cx, rng, trials)))
    if len(cx.edges) <= 8:
        checks.append(("cycles-bruteforce", lambda: _check_cycles_bruteforce(cx)))
        checks.append(("circuit-split", lambda: _check_circuit_split(cx)))
    checks.append(("anchored-filter", lambda: _check_anchored(cx)))
    if cx.faces and len(cx.edges) <= 16:
        checks.append(("fv-rings", lambda: _check_fv_rings(cx)))
    return checks


def _check_dd_zero(cx):
    for f in cx.faces:
        mu = complexes.Chain(2, INT, {f.id: 1})
        if not complexes.boundary(cx, complexes.boundary(cx, mu)).is_zero():
            return False
    return True


def _check_h1_subdivision(cx):
    h = complexes.homology_h1(cx)
    for mode in (MIDPOINT, BARYCENTRIC):
        sub = complexes.subdivide(cx, mode).complex
        if complexes.homology_h1(sub) != h:
            return False
    return True


def _random_cycle(cx, rng, circuits):
    acc = complexes.Chain(1, INT, {})
    for _ in range(rng.randint(1, 3)):
        c = rng.choice(circuits)
        acc = acc.add(c.induced_cycle().scale(rng.choice([-2, -1, 1, 2])))
    return acc


def _check_decompose(cx, rng, trials):
    circuits = chains.enumerate_circuits(cx, None, min(len(cx.edges), 8)) if cx.edges else []
    if not circuits:
        return chains.decompose_into_circuits(cx, complexes.Chain(1, INT, {})) == []
    for _ in range(trials):
        gamma = _random_cycle(cx, rng, circuits)
        parts = chains.decompose_into_circuits(cx, gamma)
        total = complexes.Chain(1, INT, {})
        norms = 0
        for p in parts:
            total = total.add(p.induced_cycle())
            norms += p.length
        if total != gamma or norms != gamma.l1():
            return False
    return True


def _check_cycles_bruteforce(cx):
    k = 4
    got = {c.serialize() for c in chains.enumerate_cycles(cx, k)}
    want = set()
    eids = [e.id for e in cx.edges]

    def rec(i, rem, acc):
        if i == len(eids):
            ch = complexes.Chain(1, INT, dict(acc))
            if chains.is_cycle(cx, ch):
                want.add(ch.serialize())
            return
        for c in range(-rem, rem + 1):
            if c:
                acc[eids[i]] = c
            rec(i + 1, rem - abs(c), acc)
            acc.pop(eids[i], None)

    rec(0, k, {})
    return got == want


def _check_circuit_split(cx):
    from itertools import combinations
    for circ in chains.enumerate_circuits(cx, None, len(cx.edges)):
        gamma = circ.induced_cycle()
        support = sorted(gamma.coeffs)
        for r in range(1, len(support)):
            for part in combinations(support, r):
                alpha = complexes.Chain(1, INT, {e: gamma.coeffs[e] for e in part})
                beta = gamma.add(alpha.neg())
                if alpha.is_zero() or beta.is_zero():
                    continue
                if chains.is_cycle(cx, alpha) and chains.is_cycle(cx, beta):
                    return False
    return True


def _check_anchored(cx):
    scale = min(len(cx.edges), 6) if cx.edges else 1
    allc = chains.enumerate_circuits(cx, None, scale)
    for e in cx.edges:
        got = chains.enumerate_circuits(cx, e.id, scale)
        want = [c for c in allc if c.contains_edge(e.id)]
        if [c.key for c in got] != [c.key for c in want]:
            return False
    return True


def _check_fv_rings(cx):
    kmax = 4
    tz = filling.fv(cx, kmax, INT)
    tq = filling.fv(cx, kmax, RAT)
    prev_z, prev_q = 0, Fraction(0)
    for k in range(kmax + 1):
        vz, vq = tz.value(k), tq.value(k)
        if not (vq <= vz and prev_z <= vz and prev_q <= vq):
            return False
        prev_z, prev_q = vz, vq
    return True


if __name__ == "__main__":
    sys.exit(main())
