"""The package and the CLI import only what a command runs.  Each test starts a
fresh interpreter, so modules an earlier test loaded do not count."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints, as JSON, the package modules and whether fractions is loaded after BODY
REPORT = """
import json, sys
{body}
print(json.dumps({{
    "package": sorted(m for m in sys.modules if m == "thomae" or m.startswith("thomae.")),
    "fractions": "fractions" in sys.modules,
}}))
"""


def loaded(body: str, cwd=None) -> dict:
    """What the package has loaded after ``body`` runs in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", REPORT.format(body=body)],
        capture_output=True, text=True, cwd=cwd, env={"PYTHONPATH": SRC}, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [[], ["--version"], ["--help"], ["verify", "--help"]])
def test_cli_version_and_help_load_no_engine_module(argv):
    body = f"""
import contextlib, io
from thomae.cli import main
if {argv!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main({argv!r})
        except SystemExit:
            pass
"""
    assert loaded(body)["package"] == ["thomae", "thomae.cli"]


def test_count_job_loads_curve_and_divisors_only(tmp_path):
    curve = {"n": 5, "points": [{"alpha": 1}, {"alpha": 1}, {"alpha": 1}, {"alpha": 2}]}
    (tmp_path / "c.json").write_text(json.dumps(curve), encoding="utf-8")
    body = """
import contextlib, io
from thomae.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["enumerate", "--curve", "c.json", "--count-only"]) == 0
assert json.loads(out.getvalue())["count"] == 30
"""
    got = loaded(body, cwd=tmp_path)
    assert got["package"] == ["thomae", "thomae.cli", "thomae.curve", "thomae.divisors"]
    assert not got["fractions"]


def test_star_import_binds_every_export_to_its_module_object():
    body = """
import importlib
import thomae
namespace = {}
exec("from thomae import *", namespace)
for name in thomae.__all__:
    module = importlib.import_module("thomae." + thomae._EXPORTS[name])
    assert namespace[name] is getattr(module, name), name
    assert namespace[name].__module__ == module.__name__, name
assert set(namespace) - {"__builtins__"} == set(thomae.__all__)
"""
    assert len(loaded(body)["package"]) > 2
