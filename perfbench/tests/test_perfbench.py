"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import check  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# one cheap query per workload, and the layer its traced run must show
SMALL = {
    "fill-lp": ("fill-z:W5/omega4", "simplex.lp_calls"),
    "fv-table": ("linearity:bigon''/k5", "chains.cycles"),
    "fine-special": ("fine:tetra/L5", "fineness.circuits_found"),
    "delta-scan": ("delta:C30", "hyperbolicity.quadruples"),
}


def _prepare(workload, seed, directory, monkeypatch):
    files, queries = inputs.build(workload, seed)
    inputs.write(files, str(directory))
    monkeypatch.chdir(directory)
    return run.fresh_cli(), queries


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    files, queries = inputs.build(workload, 7)
    again_files, again_queries = inputs.build(workload, 7)
    assert files == again_files
    assert [q.argv for q in queries] == [q.argv for q in again_queries]
    assert inputs.build(workload, 8)[0] != files


def test_checker_fails_a_witness_with_one_flipped_coefficient(tmp_path, monkeypatch):
    cli, queries = _prepare("fill-lp", 3, tmp_path, monkeypatch)
    query = next(q for q in queries if q.name == "fill-z:W5/omega4")
    _, _, [(code, stdout)] = run.run_round(cli.main, [query])
    assert code == 0 and check.check(query, stdout) is None
    lines = stdout.splitlines()
    tag, coeff, face = lines[1].split("\t")
    lines[1] = "\t".join((tag, str(-int(coeff)), face))
    judge = run.Judge([query])
    judge.judge([(0, "\n".join(lines) + "\n")])
    assert (judge.attempted, judge.failed) == (1, 1)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_stdout_matches_untraced(workload, tmp_path, monkeypatch):
    cli, queries = _prepare(workload, 3, tmp_path, monkeypatch)
    name, counter = SMALL[workload]
    query = [next(q for q in queries if q.name == name)]
    judge = run.Judge(query)
    _, _, plain = run.run_round(cli.main, query)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, _, traced = run.run_round(tracer.span(spans.QUERY, cli.main), query)
    finally:
        tracer.uninstall()
    judge.judge(plain)
    judge.judge(traced)
    assert traced == plain
    assert judge.failed == 0
    layers = spans.layer_metrics(tracer.spans, tracer.counters)
    assert layers[counter] > 0
    assert layers["complexes.parse_calls"] == 1
    if workload in ("fv-table", "delta-scan"):
        assert layers["simplex.lp_calls"] == 0


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "better"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(reversed(parent)), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"


def test_times_are_scaled_by_the_probes_around_them():
    import probe
    slow = 2 * probe.REF_S
    probes = [probe.REF_S] * 20 + [slow] * 20
    scaled = run.scaled([1.0] * 40, probes)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5
    assert probe.probe() == probe.probe()
