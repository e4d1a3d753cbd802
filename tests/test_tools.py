import importlib.util
import json
import os
import sys

from finefill.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_seeds_and_golden_stdout(tmp_path, monkeypatch):
    tool = _load_tool("output_digests")
    assert tool.parse_seeds("1-3") == [1, 2, 3]
    assert tool.parse_seeds("1,3,5-7") == [1, 3, 5, 6, 7]
    # the stdout digests of seed 1 are the ones the benchmark keeps
    files, queries = tool.inputs.build("fill-lp", 1)
    tool.inputs.write(files, tmp_path)
    monkeypatch.chdir(tmp_path)
    digests = tool.replay(main, queries[:6])
    with open(os.path.join(ROOT, "perfbench", "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["fill-lp"]
    assert [out[:16] for _, out, _ in digests] == golden[:6]
    assert all(code == 0 and err == tool.sha256("") for code, _, err in digests)
    # a failing query keeps its exit code and its stderr
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
