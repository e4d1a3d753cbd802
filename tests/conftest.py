"""Suite-wide set-up: the CLI tests start child interpreters with
``python -m finefill.cli``, and these must import the package from this
checkout, as the suite itself does through ``pythonpath`` in pyproject.toml."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def pytest_configure(config):
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
