"""Digest the output of every benchmark query of a finefill checkout.

    python3 tools/output_digests.py ROOT SEEDS OUT.json [WORKLOADS]

ROOT is the root of a finefill checkout; its ``src/`` is imported.  SEEDS
is a list of seeds and ranges, e.g. ``1-10`` or ``1,3,5-7``.  WORKLOADS is
a comma list of workload names, e.g. ``delta-scan`` or ``fill-lp,fv-table``,
by default every workload.  For each such workload of
``perfbench/inputs.py`` (read from the checkout that holds this script, so
two checkouts are fed the same queries) and each seed, the script writes
the query files into a temporary directory and runs every query once
in-process, as ``perfbench/run.py`` does.  OUT.json maps
``workload/seed/index/name`` to ``[exit code, sha256(stdout),
sha256(stderr)]``, one key a line in sorted order, so that two checkouts
compare with ``diff``.  A query that raises records ``raised <exception>``
as its exit code.
"""

import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import inputs  # noqa: E402  (perfbench/inputs.py)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def replay(main, queries):
    """[exit code, sha256(stdout), sha256(stderr)] of each query, in order."""
    digests = []
    for q in queries:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(q.argv))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:
                code = f"raised {exc!r}"
        digests.append([code, sha256(out.getvalue()), sha256(err.getvalue())])
    return digests


def output_digests(root, seeds, workloads=inputs.WORKLOADS):
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    main = importlib.import_module("finefill.cli").main
    table = {}
    cwd = os.getcwd()
    for workload in workloads:
        for seed in seeds:
            files, queries = inputs.build(workload, seed)
            with tempfile.TemporaryDirectory() as workdir:
                inputs.write(files, workdir)
                os.chdir(workdir)
                try:
                    digests = replay(main, queries)
                finally:
                    os.chdir(cwd)
            for i, (q, digest) in enumerate(zip(queries, digests)):
                table[f"{workload}/{seed}/{i}/{q.name}"] = digest
    return table


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (3, 4):
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 1
    root, seeds, out = argv[:3]
    workloads = argv[3].split(",") if len(argv) == 4 else list(inputs.WORKLOADS)
    unknown = [w for w in workloads if w not in inputs.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; known: {', '.join(inputs.WORKLOADS)}",
              file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(root, "src", "finefill", "cli.py")):
        print(f"error: no finefill sources under {root}/src", file=sys.stderr)
        return 1
    table = output_digests(root, parse_seeds(seeds), workloads)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in sorted(table.items())) + "\n}\n")
    print(f"{len(table)} queries digested into {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
