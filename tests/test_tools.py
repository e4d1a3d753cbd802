import importlib.util
import json
import os
import sys

from finefill import INT, RAT, filling, hyperbolicity_delta
from finefill.cli import main

from oracles import exhaustive_delta, reference_fill_circuits

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_seeds_and_golden_stdout(tmp_path, monkeypatch):
    tool = _load_tool("output_digests")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delenv("FINEFILL_BUDGET", raising=False)
    assert tool.parse_seeds("1-3") == [1, 2, 3]
    assert tool.parse_seeds("1,3,5-7") == [1, 3, 5, 6, 7]
    # every seed-1 query of every workload prints the stdout whose digest
    # the benchmark keeps, exits 0 and writes nothing to stderr
    with open(os.path.join(ROOT, "perfbench", "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(tool.inputs.WORKLOADS)
    table = tool.output_digests(ROOT, [1], list(golden))
    for workload, want in golden.items():
        _, queries = tool.inputs.build(workload, 1)
        digests = [table[f"{workload}/1/{i}/{q.name}"] for i, q in enumerate(queries)]
        assert [out[:16] for _, out, _ in digests] == want, workload
        assert all(code == 0 and err == tool.sha256("") for code, _, err in digests), workload
    assert len(table) == sum(map(len, golden.values())) == 236
    # a failing query keeps its exit code and its stderr
    monkeypatch.chdir(tmp_path)
    missing = tool.inputs.Query("missing", ("validate", "no_such_file.cx"), "validate", None)
    [(code, out, err)] = tool.replay(main, [missing])
    assert code == 1 and out == tool.sha256("") and err != tool.sha256("")


def test_output_digests_workload_filter(tmp_path, monkeypatch, capsys):
    tool = _load_tool("output_digests")
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "delta.json"
    assert tool.main([ROOT, "1", str(out), "delta-scan"]) == 0
    with open(out, encoding="utf-8") as fh:
        table = json.load(fh)
    _, queries = tool.inputs.build("delta-scan", 1)
    assert sorted(table) == sorted(f"delta-scan/1/{i}/{q.name}" for i, q in enumerate(queries))
    assert all(code == 0 for code, _, _ in table.values())
    # a list digests exactly the workloads it names
    both = tool.output_digests(ROOT, [2], ["delta-scan", "fv-table"])
    assert {key.split("/")[0] for key in both} == {"delta-scan", "fv-table"}
    # an unknown name is refused before anything runs
    assert tool.main([ROOT, "1", str(tmp_path / "none.json"), "delta-scan,nope"]) == 1
    assert "unknown workload 'nope'" in capsys.readouterr().err
    assert not (tmp_path / "none.json").exists()
    assert tool.main([ROOT, "1"]) == 1


def test_output_digests_under_a_budget(tmp_path, monkeypatch, capsys):
    tool = _load_tool("output_digests")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delenv("FINEFILL_BUDGET", raising=False)
    _, queries = tool.inputs.build("fine-special", 1)
    codes = {}
    for budget in (None, 40, 1):
        table = tool.output_digests(ROOT, [1], ["fine-special"], budget)
        assert "FINEFILL_BUDGET" not in os.environ
        codes[budget] = [table[f"fine-special/1/{i}/{q.name}"][0] for i, q in enumerate(queries)]
    # the default budget finishes every query; a budget of 1 leaves every
    # search INCOMPLETE (exit 2), and 40 some of them
    assert set(codes[None]) == {0} and set(codes[1]) == {2}
    assert 0 < codes[40].count(2) < len(queries)
    # a budget already set is restored after the run
    monkeypatch.setenv("FINEFILL_BUDGET", "7")
    with tool.budget_env(3):
        assert os.environ["FINEFILL_BUDGET"] == "3"
    assert os.environ["FINEFILL_BUDGET"] == "7"
    out = tmp_path / "fine.json"
    assert tool.main([ROOT, "1", str(out), "fine-special", "--budget=1"]) == 0
    with open(out, encoding="utf-8") as fh:
        assert {code for code, _, _ in json.load(fh).values()} == {2}
    assert os.environ["FINEFILL_BUDGET"] == "7"
    assert tool.main([ROOT, "1", str(tmp_path / "none.json"), "--budget=many"]) == 1
    assert "--budget is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "none.json").exists()


def test_delta_costs_graphs_and_phases(monkeypatch):
    # the split wheel is the README's slow case of diameter 3 with 2*delta 2;
    # the phase split runs the steps of hyperbolicity_delta on a fresh copy
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _load_tool("delta_costs")
    for n in (6, 9, 10):
        g = tool.split_wheel(n)
        rep = hyperbolicity_delta(g)
        assert (rep.delta, rep.witness, rep.diameter) == exhaustive_delta(g)
        assert (2 * rep.delta, rep.diameter) == (2, 3)
    times = tool.phases(tool.split_wheel(10))
    assert len(times) == 4 and min(times) >= 0
    assert hyperbolicity_delta(tool.chorded_tree(12, 6)) == hyperbolicity_delta(tool.chorded_tree(12, 6))


def test_packed_table_costs_routes_and_bounds(monkeypatch, capsys):
    # on the once-subdivided tetrahedron (kernel rank 1), the forced-on and
    # forced-off routes both fill as one solve per circuit does, in each ring
    # set, and each fill leaves the bounds it forces as the module sets them
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _load_tool("packed_table_costs")
    bounds = (filling._LANES_PER_FILL, filling._ENTRY_LANES)
    [case] = [(name, build, 4) for name, build, _ in tool.CASES if name == "tetra'"]
    _, build, k = case
    for rings in ((INT,), (INT, RAT)):
        want = reference_fill_circuits(build(), k, rings)
        for table in (True, False):
            _, _, n, cx = tool.once(build, k, rings, table)
            assert (filling._LANES_PER_FILL, filling._ENTRY_LANES) == bounds, (rings, table)
            assert bool(filling._context(cx).table) is table and n > 0
            assert filling._fill_circuits(cx, k, rings) == want, (rings, table)
    monkeypatch.setattr(tool, "CASES", [case])
    tool.main(["packed_table_costs.py", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all("tetra' " in line and " rank=1 " in line for line in lines[1::2])
    assert (filling._LANES_PER_FILL, filling._ENTRY_LANES) == bounds
