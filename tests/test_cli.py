import io
import os
import subprocess
import sys

import pytest

from finefill.cli import _build_parser, main

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def run_cli(*argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, out.getvalue()


def data(name):
    return os.path.join(DATA, name)


def test_validate():
    code, out = run_cli("validate", data("tetra.cx"))
    assert code == 0 and out == "valid\t4\t6\t4\n"


def test_validate_bad_file(tmp_path):
    bad = tmp_path / "bad.cx"
    bad.write_text("complex v1\nedge e a b\n")
    code, _ = run_cli("validate", str(bad))
    assert code == 1


def test_h1():
    code, out = run_cli("h1", data("double.cx"))
    assert code == 0 and out == "betti1\t0\ntorsion\t2\n"
    code, out = run_cli("h1", data("triangle.cx"))
    assert out == "betti1\t1\n"


def test_fill_rational_and_integral():
    code, out = run_cli("fill", "--ring", "q", "--cycle", data("loop.cy"),
                        data("double.cx"))
    assert code == 0
    assert out.splitlines()[0] == "value\t1/2"
    assert "witness\t1/2\tf" in out
    code, out = run_cli("fill", "--ring", "z", "--cycle", data("loop.cy"),
                        data("double.cx"))
    assert code == 0 and out == "value\tinf\n"


def test_fv_table():
    code, out = run_cli("fv", "--ring", "z", "--kmax", "6", data("tetra.cx"))
    lines = out.splitlines()
    assert lines[0] == "k\tvalue"
    assert lines[-1] == "6\t2"


def test_linearity():
    code, out = run_cli("linearity", "--kmax", "1", data("double.cx"))
    assert out.splitlines()[1] == "1\tinf\t1/2\t-"


def test_decompose():
    code, out = run_cli("decompose", "--cycle", data("hex_cycle.cy"),
                        data("hexchord.cx"))
    assert code == 0
    assert out.startswith("circuit\t6\t")


def test_circuits():
    code, out = run_cli("circuits", "--length", "3", data("k4.cx"))
    lines = out.splitlines()
    assert lines[0] == "count\t4" and len(lines) == 5
    code, out = run_cli("circuits", "--edge", "e12", "--length", "3", data("k4.cx"))
    assert out.splitlines()[0] == "count\t2"


def test_fine_methods_agree():
    _, graph = run_cli("fine", "--length", "3", "--method", "graph", data("tetra.cx"))
    _, special = run_cli("fine", "--length", "3", "--method", "special", data("tetra.cx"))
    strip = lambda text: [l.replace("GRAPH_SEARCH", "M").replace("SPECIAL_CHAIN", "M")
                          for l in text.splitlines()]
    assert strip(graph) == strip(special)


def test_fine_budget_exit_code():
    code, out = run_cli("fine", "--length", "3", "--method", "special",
                        "--budget", "1", data("tetra.cx"))
    assert code == 2
    assert "INCOMPLETE" in out


def test_budget_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FINEFILL_BUDGET", "1")
    code, _ = run_cli("fine", "--length", "3", "--method", "special", data("tetra.cx"))
    assert code == 2
    monkeypatch.delenv("FINEFILL_BUDGET")


def test_special():
    code, out = run_cli("special", "--edge", "e12", "--norm", "1", data("tetra.cx"))
    lines = out.splitlines()
    assert len(lines) == 4 and all(l.startswith("chain2\t1\t") for l in lines)


def test_subdivide_round_trip(tmp_path):
    code, out = run_cli("subdivide", "--mode", "bary", data("double.cx"))
    assert code == 0
    from finefill import parse_complex
    cx = parse_complex(out)
    assert len(cx.faces) == 4
    code, out2 = run_cli("subdivide", "--mode", "mid", data("triangle.cx"))
    assert len(parse_complex(out2).edges) == 6


def test_omega_default_n():
    code, out = run_cli("omega", data("k4.cx"))
    from finefill import parse_complex
    assert len(parse_complex(out).faces) == 7  # circuits of length <= 4 in K4


def test_weakarea():
    code, out = run_cli("weakarea", "--N", "4", "--cycle", data("hex_cycle.cy"),
                        data("hexchord.cx"))
    lines = out.splitlines()
    assert lines[0] == "value\t2" and len(lines) == 3
    code, out = run_cli("weakarea", "--N", "3", "--cycle", data("hex_cycle.cy"),
                        data("hexchord.cx"))
    assert out.splitlines()[0] == "value\tinf"
    assert code == 0  # infinite answers are data


def test_coneoff():
    code, out = run_cli("coneoff", data("s3.grp"))
    from finefill import parse_complex
    cx = parse_complex(out)
    assert (len(cx.vertices), len(cx.edges), len(cx.faces)) == (9, 15, 8)
    code, out = run_cli("coneoff", "--graph-only", data("s3.grp"))
    assert len(parse_complex(out).faces) == 0


def test_delta_always_fractional_form():
    code, out = run_cli("delta", data("tree.cx"))
    assert out.startswith("delta\t0/1\t")
    code, out = run_cli("delta", data("k4.cx"))
    assert out.startswith("delta\t0/1\t")


def test_sadd():
    code, out = run_cli("sadd", data("fvals.tsv"))
    assert out == "n\tvalue\n1\t1\n2\t2\n3\t3\n"


def test_zero_denominator_is_format_error(tmp_path, capsys):
    table = tmp_path / "zero.tsv"
    table.write_text("1 1/0\n")
    chain = tmp_path / "zero.cy"
    chain.write_text("chain1 v1 INT\n1/0 e12\n")
    for argv in (["sadd", str(table)],
                 ["fill", "--ring", "z", "--cycle", str(chain), data("tetra.cx")]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[BAD_FORMAT]: zero denominator in '1/0'\n"


def test_corpus_runner():
    code, out = run_cli("corpus", "--seed", "1", "--trials", "5", DATA)
    assert code == 0
    assert all(line.endswith("pass") for line in out.splitlines())


def test_jobs_validation():
    code, _ = run_cli("validate", "--jobs", "0", data("tetra.cx"))
    assert code == 1


def test_jobs_checked_before_dispatch(capsys):
    for argv in (["fill", "--ring", "z", "--cycle", data("tri_cycle.cy"), data("tetra.cx")],
                 ["delta", data("k4.cx")]):
        assert main([*argv, "--jobs", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --jobs must be >= 1\n"


def test_parser_built_once_and_reused(capsys):
    calls = [["validate", data("tetra.cx")],
             ["delta", data("c6.cx")],
             ["fill", "--ring", "x", "--cycle", data("loop.cy"), data("double.cx")],
             ["h1", data("double.cx")],
             ["delta", "--cap", "3", data("c6.cx")],
             ["fv", "--ring", "z", "--kmax", "3", data("tetra.cx")],
             ["no-such-subcommand"],
             ["fill", "--ring", "q", "--cycle", data("loop.cy"), data("double.cx")]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:    # argparse rejects the arguments
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    _build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 1, 0, 2, 0]
    assert reused[1][1] == "delta\t1/1\tv0,v1,v2,v4\n"


def test_missing_file_is_input_error():
    code, _ = run_cli("validate", "no_such_file.cx")
    assert code == 1


def test_byte_identical_across_runs_and_jobs():
    cases = [
        ("validate", data("tetra.cx")),
        ("h1", data("double.cx")),
        ("fv", "--ring", "z", "--kmax", "4", data("tetra.cx")),
        ("circuits", "--length", "4", data("k4.cx")),
        ("fine", "--length", "3", "--method", "special", data("tetra.cx")),
        ("delta", data("k4.cx")),
    ]
    for case in cases:
        outputs = set()
        for jobs in ("1", "8"):
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "finefill.cli", *case, "--jobs", jobs],
                    capture_output=True, check=True)
                outputs.add(proc.stdout)
        assert len(outputs) == 1, case
