"""Replay seeded sets of finefill CLI queries and report their metrics.

    python3 perfbench/run.py --workload fill-lp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-golden

Run it from the root of a finefill checkout; it imports the package from
``src/`` there and exits 1 without a result when there is none.

Each query is one in-process ``finefill.cli.main(argv)`` call that parses
its own input files, so per-complex caches start cold on every query, as in
a user's invocation.  One client on one thread runs a closed loop: the next
query starts when the previous one returns.  The workload's query set is
replayed in rounds until ``--seconds`` are used, and at least MIN_ROUNDS
times.  Before each query the garbage collector runs and then the reference
loop of ``probe.py``, both untimed; every query time is scaled by the probes
around it into reference seconds, which cancels the shared host's drift in
speed (the unscaled round time is printed too).  ``wall_s`` is the mean
time of a round's queries; ``query_p50_ms`` and ``query_tail_ms`` are the
median and the value with ten queries beyond it of the queries' mean times.
``setup_s`` is the median of SETUP_REPEATS set-ups, each scaled by the
probes just before and after it.  Every answer is checked (``check.py``) in
the first round, later rounds must reproduce its stdout byte for byte, and
with the default seed the stdout must match the digests in ``golden.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics: untraced and traced rounds alternate, the traced ones
record spans (``spans.py``), and ``trace.overhead_s`` is the difference of
their mean round times in reference seconds.  Every metric is printed with
its unit, and the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from statistics import fmean, median
from time import perf_counter

import check
import inputs
import probe
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 11
MIN_ROUNDS = 3
TAIL_BEYOND = 10
PROBE_WINDOW = 8      # probes on each side of a query that set its scale
SETUP_PROBES = 9      # probes before and after each set-up


def fresh_cli():
    """Import finefill.cli from scratch, so each set-up pays for the imports."""
    for name in [m for m in sys.modules if m == "finefill" or m.startswith("finefill.")]:
        del sys.modules[name]
    return importlib.import_module("finefill.cli")


@contextmanager
def prepared(workload, seed):
    """Set up SETUP_REPEATS times in a scratch directory of the checkout and
    work inside it: yields (cli module, queries, median set-up seconds),
    each set-up scaled by the probes run just before and after it."""
    workdir = os.path.join(ROOT, f".perfbench_work-{os.getpid()}")
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            gc.collect()  # frees the package copies earlier set-ups imported
            before = [probe.time_probe() for _ in range(SETUP_PROBES)]
            t0 = perf_counter()
            cli = fresh_cli()
            files, queries = inputs.build(workload, seed)
            inputs.write(files, workdir)
            elapsed = perf_counter() - t0
            after = [probe.time_probe() for _ in range(SETUP_PROBES)]
            times.append(elapsed * probe.scale(before + after))
        os.chdir(workdir)
        yield cli, queries, median(times)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def run_round(main, queries):
    """Run every query once, each after one probe: (seconds per query, probe
    seconds per query, (exit code, stdout) per query)."""
    times, probes, outputs = [], [], []
    for q in queries:
        gc.collect()  # untimed: no query pays for the garbage of the ones before
        probes.append(probe.time_probe())
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(q.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = f"exit {exc.code}: {err.getvalue().strip()}"
        except Exception as exc:  # any crash is a failed query, not a benchmark crash
            traceback.print_exc()
            code = f"raised {exc!r}"
        times.append(perf_counter() - t0)
        outputs.append((code, out.getvalue()))
    return times, probes, outputs


def scaled(times, probes):
    """Each time in reference seconds, scaled by the median of the probes
    within PROBE_WINDOW places of it (the run's queries in order)."""
    return [t * probe.scale(probes[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1])
            for j, t in enumerate(times)]


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


class Judge:
    """Counts failed queries: checked answers in round one, identical stdout after."""

    def __init__(self, queries, golden=None):
        self.queries = queries
        self.golden = golden
        self.reference = [None] * len(queries)
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def judge(self, outputs):
        for i, (code, stdout) in enumerate(outputs):
            key = (code, digest(stdout))
            if self.reference[i] is None:
                reason = f"exit code {code}" if code != 0 else check.check(self.queries[i], stdout)
                if reason is None and self.golden is not None and self.golden[i] != key[1]:
                    reason = "stdout differs from its golden digest"
                self.reference[i] = (key, reason)
            ref, reason = self.reference[i]
            if reason is None and key != ref:
                reason = "stdout differs from the first round"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(i, reason)


def _keep_going(rounds, started, seconds, minimum):
    elapsed = perf_counter() - started
    return rounds < minimum or elapsed + elapsed / rounds <= seconds


def measure(cli, queries, judge, seconds):
    """End-to-end metrics, tracing off, in reference seconds (``probe.py``)."""
    times, probes = [], []
    rounds = 0
    started = perf_counter()
    while not rounds or _keep_going(rounds, started, seconds, MIN_ROUNDS):
        t, p, outputs = run_round(cli.main, queries)
        judge.judge(outputs)
        times += t
        probes += p
        rounds += 1
    ref = scaled(times, probes)
    n = len(queries)
    walls = [sum(ref[r * n:(r + 1) * n]) for r in range(rounds)]
    # Every time is a mean over the run's rounds; the tail is the query with
    # TAIL_BEYOND queries above it.
    ranked = sorted(fmean(ref[i::n]) for i in range(n))
    return {
        "wall_s": fmean(walls),
        "query_p50_ms": 1000 * median(ranked),
        "query_tail_ms": 1000 * ranked[-TAIL_BEYOND - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_wall_s": sum(times) / rounds,
    }, rounds


def measure_layers(cli, queries, judge, seconds):
    """Per-layer metrics: untraced and traced rounds alternate.  Layer times
    are as measured; trace.overhead_s is in reference seconds, as wall_s."""
    tracer = spans.Tracer()
    traced_main = tracer.span(spans.QUERY, cli.main)
    plain, traced, layers = [], [], []
    started = perf_counter()
    while not plain or _keep_going(2 * len(plain), started, seconds, 2 * MIN_ROUNDS):
        t, p, outputs = run_round(cli.main, queries)
        judge.judge(outputs)
        plain.append(sum(scaled(t, p)))
        tracer.spans.clear()
        tracer.counters.clear()
        tracer.install()
        try:
            t, p, outputs = run_round(traced_main, queries)
        finally:
            tracer.uninstall()
        judge.judge(outputs)
        traced.append(sum(scaled(t, p)))
        layers.append(spans.layer_metrics(tracer.spans, tracer.counters))
    metrics = {name: median(r[name] for r in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = fmean(traced) - fmean(plain)
    return metrics, 2 * len(plain)


def run(workload, seed, seconds, trace):
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    golden = _load(GOLDEN)[workload] if seed == DEFAULT_SEED else None
    with prepared(workload, seed) as (cli, queries, setup_s):
        judge = Judge(queries, golden)
        if trace:
            values, rounds = measure_layers(cli, queries, judge, seconds)
        else:
            values, rounds = measure(cli, queries, judge, seconds)
    values["setup_s"] = setup_s
    values["failed_frac"] = judge.failed / judge.attempted
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{workload} seed {seed}: {len(queries)} queries x {rounds} rounds, "
          f"{judge.attempted} attempted, {judge.failed} failed")
    for i, reason in sorted(judge.reasons.items()):
        print(f"  FAILED {queries[i].name} {' '.join(queries[i].argv)}: {reason}")
    for name, m in result.items():
        print(f"  {name:32} {m['value']:.6g} {m['unit']}")
    if not trace:
        pct = 100 * (len(queries) - TAIL_BEYOND) / len(queries)
        print(f"  query_tail_ms is p{pct:.1f} of {len(queries)} queries "
              f"({TAIL_BEYOND} beyond it); failed_frac {values['failed_frac']:.6g}")
        print(f"  times are reference seconds (probe.py); unscaled wall_s "
              f"{values['raw_wall_s']:.6g} s")
    print(json.dumps({"correct": judge.failed == 0, "attempted": judge.attempted,
                      "failed": judge.failed, "metrics": result}))
    return 0


def write_golden():
    """Record the stdout digests of the default seed after checking every answer."""
    golden = {}
    for workload in inputs.WORKLOADS:
        with prepared(workload, DEFAULT_SEED) as (cli, queries, _):
            _, _, outputs = run_round(cli.main, queries)
        judge = Judge(queries)
        judge.judge(outputs)
        if judge.failed:
            print(f"{workload}: {judge.reasons}", file=sys.stderr)
            return 1
        golden[workload] = [digest(stdout) for _, stdout in outputs]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record golden.json from the default seed and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "finefill", "cli.py")):
        print(f"error: no finefill sources under {ROOT}/src", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
