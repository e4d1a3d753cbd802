import hashlib
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


def test_decompose_refuses_a_non_integral_rat_cycle_as_not_a_cycle(tmp_path, capsys):
    # fill and decompose refuse a RAT cycle with a non-integral coefficient
    # alike, as NOT_A_CYCLE; one with integral coefficients decomposes
    half = tmp_path / "half.cy"
    half.write_text("chain1 v1 RAT\n1/2 e12\n")
    for command, message in (("fill", "fillings are computed for integral cycles"),
                             ("decompose", "decomposition is defined for integral cycles")):
        argv = [command, "--cycle", str(half), data("tetra.cx")]
        if command == "fill":
            argv[1:1] = ["--ring", "z"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error[NOT_A_CYCLE]: {message}\n")
    whole = tmp_path / "whole.cy"
    whole.write_text("chain1 v1 RAT\n1 e12\n1 e23\n-2/2 e13\n")
    code, out = run_cli("decompose", "--cycle", str(whole), data("tetra.cx"))
    assert (code, out) == (0, "circuit\t3\t+e12,+e23,-e13\n")


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


def test_budget_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("FINEFILL_BUDGET", "abc")
    assert main(["fine", "--method", "special", "--length", "4", data("tetra.cx")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[BAD_FORMAT]: $FINEFILL_BUDGET is not an integer: 'abc'\n"


def test_budget_exceeded_exits_2(capsys):
    assert main(["special", "--edge", "e12", "--norm", "2", "--budget", "1",
                 data("tetra.cx")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error[BUDGET_EXCEEDED]: special-chain search for edge "
                            "'e12' exceeded 1 states\n")


def test_a_negative_budget_is_refused(monkeypatch, capsys):
    # from --budget or $FINEFILL_BUDGET, a budget below 0 is an input error
    # (exit 1) and runs no search; --budget 0 still exhausts it (exit 2)
    for argv in (["fine", "--method", "special", "--length", "3"],
                 ["special", "--edge", "e12", "--norm", "2"]):
        assert main(argv + ["--budget", "-5", data("tetra.cx")]) == 1
        assert capsys.readouterr() == ("", "error: budget must be >= 0\n")
        monkeypatch.setenv("FINEFILL_BUDGET", "-1")
        assert main(argv + [data("tetra.cx")]) == 1
        assert capsys.readouterr() == ("", "error: budget must be >= 0\n")
        monkeypatch.delenv("FINEFILL_BUDGET")
        assert main(argv + ["--budget", "0", data("tetra.cx")]) == 2
        assert "budget" in capsys.readouterr().err.lower()


def test_special():
    code, out = run_cli("special", "--edge", "e12", "--norm", "1", data("tetra.cx"))
    lines = out.splitlines()
    assert len(lines) == 4 and all(l.startswith("chain2\t1\t") for l in lines)


def test_special_refuses_a_negative_norm(capsys):
    # a negative --norm is refused like every other negative bound; at
    # --norm 0 there is no special chain to print
    assert main(["special", "--edge", "e12", "--norm", "-1", data("tetra.cx")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: max_norm must be >= 0\n")
    assert run_cli("special", "--edge", "e12", "--norm", "0", data("tetra.cx")) == (0, "")


def test_special_stdout_on_tetra_is_pinned():
    # every edge at norms 1-4, 936 lines in (norm, serialization) order; the
    # digest is that of the frozenset search the bit-mask one replaced
    out = io.StringIO()
    for norm in range(1, 5):
        for edge in ("e12", "e13", "e14", "e23", "e24", "e34"):
            code, text = run_cli("special", "--edge", edge, "--norm", str(norm), data("tetra.cx"))
            assert code == 0
            out.write(text)
    assert len(out.getvalue().splitlines()) == 936
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "0b0dc2d340155a4745002941b0a4a773dfe0587cbdb22e5aa04e85717267d47e")


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


def test_delta_refuses_a_negative_cap(capsys):
    # refused like a negative --kmax, --budget or --norm, before the graph is
    # measured against the cap
    assert main(["delta", "--cap", "-5", data("c6.cx")]) == 1
    assert capsys.readouterr() == ("", "error: vertex_cap must be >= 0\n")
    assert main(["delta", "--cap", "0", data("c6.cx")]) == 1
    assert capsys.readouterr().err == "error[TOO_LARGE]: 6 vertices exceeds the cap 0\n"


def test_sadd():
    code, out = run_cli("sadd", data("fvals.tsv"))
    assert out == "n\tvalue\n1\t1\n2\t2\n3\t3\n"


def test_zero_denominator_is_format_error(tmp_path, capsys):
    # so is a number that does not parse
    cases = []
    for i, (token, message) in enumerate((("1/0", "zero denominator in '1/0'"),
                                          ("x", "not a number: 'x'"),
                                          ("abc", "not a number: 'abc'"))):
        table = tmp_path / f"{i}.tsv"
        table.write_text(f"1 {token}\n")
        chain = tmp_path / f"{i}.cy"
        chain.write_text(f"chain1 v1 INT\n{token} e12\n")
        cases += [(["sadd", str(table)], message),
                  (["fill", "--ring", "z", "--cycle", str(chain), data("tetra.cx")], message)]
    for argv, message in cases:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[BAD_FORMAT]: {message}\n"


@pytest.mark.parametrize("command, name, text, token", [
    ("sadd", "table.tsv", "abc 1\n", "abc"),
    ("coneoff", "degree.grp", "group v1\ndegree abc\n", "abc"),
    ("coneoff", "cycle.grp", "group v1\ndegree 3\ngen a (1 x)\n", "x"),
], ids=["sadd-row", "grp-degree", "grp-cycle"])
def test_int_token_is_format_error(tmp_path, capsys, command, name, text, token):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[BAD_FORMAT]: not a number: {token!r}\n"


def test_point_in_two_cycles_is_format_error(tmp_path, capsys):
    # a generator outside S and one inside it: each is refused as it is
    # read, before any group is closed or complex built
    with open(data("s3.grp"), encoding="utf-8") as fh:
        s3 = fh.read()
    for name, text in (("outside.grp", s3.replace("sgen a a", "gen c (1 2)(2 3)\nsgen a a")),
                       ("inside.grp", s3.replace("gen a (1 2)", "gen a (1 2)(2 3)"))):
        path = tmp_path / name
        path.write_text(text)
        assert main(["coneoff", str(path)]) == 1, name
        assert capsys.readouterr() == ("", "error[BAD_FORMAT]: repeated point in '(1 2)(2 3)'\n")


def test_unopenable_output_is_an_error(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "out.tsv"
    assert main(["validate", "--output", str(missing), data("tetra.cx")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")
    assert not missing.parent.exists()


@pytest.mark.parametrize("text, message", [
    ("1 1 1\n", "cannot parse table line: '1 1 1'"),
    ("2 1\n1 1\n", "table rows must be n = 1, 2, ... in order"),
], ids=["three-tokens", "out-of-order"])
def test_sadd_bad_rows_are_format_errors(tmp_path, capsys, text, message):
    table = tmp_path / "table.tsv"
    table.write_text(text)
    assert main(["sadd", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[BAD_FORMAT]: {message}\n"


def test_output_file_holds_the_stdout_bytes(tmp_path, capsys):
    argv = ["fill", "--ring", "q", "--cycle", data("loop.cy"), data("double.cx")]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert plain.count("\n") > 1
    target = tmp_path / "out.tsv"
    assert main([*argv, "--output", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""
    assert target.read_bytes() == plain.encode("utf-8")


def test_corpus_without_complexes_is_format_error(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no complexes here\n")
    assert main(["corpus", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[BAD_FORMAT]: no .cx files in {str(tmp_path)!r}\n"


def test_corpus_reports_an_unreadable_file_and_checks_the_rest(tmp_path, capsys):
    with open(data("tetra.cx"), encoding="utf-8") as fh:
        good = fh.read()
    (tmp_path / "a.cx").write_text(good)
    (tmp_path / "b.cx").write_bytes(b"complex v1\nvertex \xff\n")
    (tmp_path / "c.cx").write_text(good)
    assert main(["corpus", "--trials", "2", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    rows = [line.split("\t") for line in captured.out.splitlines()]
    assert ["b.cx", "validate", "fail"] in rows
    assert [r for r in rows if r[0] == "c.cx"][0] == ["c.cx", "validate", "pass"]
    assert [r[1:] for r in rows if r[0] == "a.cx"] == [r[1:] for r in rows if r[0] == "c.cx"]
    assert all(r[2] == "pass" for r in rows if r[0] != "b.cx")
    assert captured.err.startswith("b.cx: 'utf-8' codec can't decode byte 0xff")
    assert captured.err.count("\n") == 1


def test_corpus_reports_a_directory_named_like_a_complex(tmp_path, capsys):
    (tmp_path / "a.cx").mkdir()
    with open(data("triangle.cx"), encoding="utf-8") as fh:
        (tmp_path / "b.cx").write_text(fh.read())
    assert main(["corpus", "--trials", "2", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("a.cx\tvalidate\tfail\nb.cx\tvalidate\tpass\n")
    assert captured.err.startswith("a.cx: [Errno 21] Is a directory")


def test_corpus_runner():
    code, out = run_cli("corpus", "--seed", "1", "--trials", "5", DATA)
    assert code == 0
    assert all(line.endswith("pass") for line in out.splitlines())


def test_corpus_refuses_negative_trials(capsys):
    # a negative --trials would run no decompose trial and still print pass
    assert main(["corpus", "--trials", "-1", DATA]) == 1
    assert capsys.readouterr() == ("", "error: trials must be >= 0\n")
    code, out = run_cli("corpus", "--trials", "0", DATA)
    assert code == 0 and "\tdecompose\tpass" in out


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
        code = main(argv)
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
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 1, 0, 1, 0]
    assert reused[1][1] == "delta\t1/1\tv0,v1,v2,v4\n"


@pytest.mark.parametrize("argv", [
    ["fv", "--ring", "z", "--kmax", "x", "tetra.cx"],
    ["fv", "--ring", "z", "tetra.cx"],
    ["no-such-subcommand"],
    ["validate", "--budget", "abc", "tetra.cx"],
], ids=["bad-kmax", "missing-flag", "unknown-subcommand", "bad-budget"])
def test_rejected_command_line_is_input_error(capsys, argv):
    # exit 2 is INCOMPLETE; a command line argparse rejects is an input
    # error, its usage message on stderr and nothing on stdout
    assert main([data(a) if a.endswith(".cx") else a for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: finefill") and "error:" in err


def test_help_exits_zero(capsys):
    assert main(["-h"]) == 0
    assert main(["fv", "-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: finefill") and "--kmax" in out and err == ""


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
