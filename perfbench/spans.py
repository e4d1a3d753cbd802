"""Traced runs: spans and counters recorded around the package's public calls.

A :class:`Tracer` replaces each traced function on every module attribute a
caller resolves it through (``finefill.filling.enumerate_cycles``,
``finefill.fineness.fv``, ``linalg.RationalSolver.solve``, ...) with one
wrapper that appends a span ``[name, start, end, parent]`` to an in-memory
list.  Spans are turned into per-layer metrics once per query set by
:func:`layer_metrics`; nothing is written while queries run.
"""

import importlib
from collections import Counter
from math import comb
from time import perf_counter

QUERY = "cli.main"

# span name -> (defining module, attribute path, modules whose attribute is replaced)
TARGETS = {
    "complexes.parse_complex": ("complexes", "parse_complex", ("complexes",)),
    "filling.filling_norm": ("filling", "filling_norm", ("filling", "fineness")),
    "filling.fv": ("filling", "fv", ("filling", "fineness")),
    "filling.weak_area": ("filling", "weak_area", ("filling",)),
    "filling.linearity_report": ("filling", "linearity_report", ("filling",)),
    "chains.enumerate_cycles": ("chains", "enumerate_cycles", ("chains", "filling")),
    "chains.enumerate_circuits": ("chains", "enumerate_circuits",
                                  ("chains", "constructions", "fineness")),
    "constructions.omega_n": ("constructions", "omega_n", ("constructions", "filling")),
    "linalg.smith_normal_form": ("linalg", "smith_normal_form", ("linalg",)),
    "linalg.solve_integer": ("linalg", "solve_integer", ("linalg",)),
    "linalg.rational_factor": ("linalg", "RationalSolver.__init__", ()),
    "linalg.rational_solve": ("linalg", "RationalSolver.solve", ()),
    "simplex.solve_lp": ("simplex", "solve_lp", ("simplex",)),
    "fineness.fineness_certificate": ("fineness", "fineness_certificate", ("fineness",)),
    "hyperbolicity.all_pairs_distances": ("hyperbolicity", "all_pairs_distances",
                                          ("hyperbolicity",)),
    "hyperbolicity.hyperbolicity_delta": ("hyperbolicity", "hyperbolicity_delta",
                                          ("hyperbolicity",)),
}

SOLVES = ("linalg.solve_integer", "linalg.rational_solve", "simplex.solve_lp")


def _lp_counts(counters, args, kwargs, _result):
    c, a_eq = args[0], args[1]
    a_ub = (args[3] if len(args) > 3 else kwargs.get("a_ub")) or []
    rows = len(a_eq) + len(a_ub)
    counters["simplex.lp_rows"] += rows
    counters["simplex.lp_bound_rows"] += len(a_ub)
    # the tableau solve_lp builds: one slack per bound row, one artificial per row
    counters["simplex.tableau_cells"] += rows * (len(c) + len(a_ub) + rows + 1)
    if a_ub:
        counters["filling.bb_nodes"] += 1


# span name -> function(counters, args, kwargs, result) adding result-derived counts
COUNTS = {
    "simplex.solve_lp": _lp_counts,
    "chains.enumerate_cycles": lambda k, a, kw, r: k.update({"chains.cycles": len(r)}),
    "chains.enumerate_circuits": lambda k, a, kw, r: k.update({"chains.circuits": len(r)}),
    "constructions.omega_n": lambda k, a, kw, r: k.update(
        {"constructions.omega_faces": len(r.faces)}),
    "fineness.fineness_certificate": lambda k, a, kw, r: k.update(
        {"fineness.circuits_found": sum(rec.count for rec in r.records)}),
    "hyperbolicity.hyperbolicity_delta": lambda k, a, kw, r: k.update(
        {"hyperbolicity.quadruples": comb(r.vertex_count, 4)}),
}


class Tracer:
    """Spans and counters of one query set; install() before, uninstall() after."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._saved = []

    def span(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if count is not None:
                count(counters, args, kwargs, result)
            return result
        return traced

    def install(self):
        for name, (home, attr, users) in TARGETS.items():
            owner = importlib.import_module(f"finefill.{home}")
            if "." in attr:  # a method: replaced on its class only
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                places = [owner]
            else:
                places = [importlib.import_module(f"finefill.{m}") for m in users]
            wrapper = self.span(name, getattr(owner, attr))
            for place in places:
                self._saved.append((place, attr, getattr(place, attr)))
                setattr(place, attr, wrapper)

    def uninstall(self):
        for place, attr, original in reversed(self._saved):
            setattr(place, attr, original)
        self._saved.clear()


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced query set.

    A span's self time is its duration minus its children's; one thread runs
    the queries, so children never overlap.
    """
    inclusive, own, calls = Counter(), Counter(), Counter()
    for name, start, end, parent in spans:
        d = end - start
        inclusive[name] += d
        own[name] += d
        calls[name] += 1
        if parent >= 0:
            own[spans[parent][0]] -= d
    # filling_norm calls whose subtree reaches a solver, and those reaching the LP
    solved, lp_route = set(), set()
    for name, _, _, parent in spans:
        if name in SOLVES:
            while parent >= 0 and spans[parent][0] != "filling.filling_norm":
                parent = spans[parent][3]
            if parent >= 0:
                solved.add(parent)
                if name == "simplex.solve_lp":
                    lp_route.add(parent)
    fill_calls = calls["filling.filling_norm"]

    def layer_self(layer):
        return sum(v for name, v in own.items() if name.startswith(layer + "."))

    return {
        "simplex.lp_calls": calls["simplex.solve_lp"],
        "simplex.lp_s": inclusive["simplex.solve_lp"],
        "simplex.lp_rows": counters["simplex.lp_rows"],
        "simplex.lp_bound_rows": counters["simplex.lp_bound_rows"],
        "simplex.tableau_cells": counters["simplex.tableau_cells"],
        "filling.fill_calls": fill_calls,
        "filling.fill_s": inclusive["filling.filling_norm"],
        "filling.self_s": layer_self("filling"),
        "filling.solved_frac": len(solved) / fill_calls if fill_calls else 0.0,
        "filling.lp_route_frac": len(lp_route) / fill_calls if fill_calls else 0.0,
        "filling.bb_nodes": counters["filling.bb_nodes"],
        "filling.fv_s": inclusive["filling.fv"],
        "filling.weak_area_s": inclusive["filling.weak_area"],
        "chains.enumerate_cycles_s": inclusive["chains.enumerate_cycles"],
        "chains.cycles": counters["chains.cycles"],
        "chains.enumerate_circuits_s": inclusive["chains.enumerate_circuits"],
        "chains.circuits": counters["chains.circuits"],
        "linalg.snf_calls": calls["linalg.smith_normal_form"],
        "linalg.snf_s": inclusive["linalg.smith_normal_form"],
        "linalg.solve_integer_calls": calls["linalg.solve_integer"],
        "linalg.solve_integer_s": inclusive["linalg.solve_integer"],
        "linalg.rational_factor_s": inclusive["linalg.rational_factor"],
        "linalg.rational_solve_calls": calls["linalg.rational_solve"],
        "linalg.rational_solve_s": inclusive["linalg.rational_solve"],
        "constructions.omega_s": inclusive["constructions.omega_n"],
        "constructions.omega_faces": counters["constructions.omega_faces"],
        "fineness.certificate_s": inclusive["fineness.fineness_certificate"],
        "fineness.self_s": layer_self("fineness"),
        "fineness.circuits_found": counters["fineness.circuits_found"],
        "hyperbolicity.apsp_s": inclusive["hyperbolicity.all_pairs_distances"],
        "hyperbolicity.delta_s": inclusive["hyperbolicity.hyperbolicity_delta"],
        "hyperbolicity.scan_s": own["hyperbolicity.hyperbolicity_delta"],
        "hyperbolicity.quadruples": counters["hyperbolicity.quadruples"],
        "complexes.parse_calls": calls["complexes.parse_complex"],
        "complexes.parse_s": inclusive["complexes.parse_complex"],
        "cli.self_s": own[QUERY],
    }
