"""The package and the CLI import only what a command runs.  Each test starts a
fresh interpreter, so modules an earlier test loaded do not count."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints, as JSON, the package modules loaded after BODY and which of dataclasses,
# fractions and inspect the body loaded itself: those in sys.modules after it and
# not before, so a module that a site hook loads at startup does not count
REPORT = """
import json, sys
before = set(sys.modules)
{body}
print(json.dumps({{
    "package": sorted(m for m in sys.modules if m == "thomae" or m.startswith("thomae.")),
    "loaded": [m for m in ("dataclasses", "fractions", "inspect")
               if m in sys.modules and m not in before],
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
    assert got["loaded"] == []


def curve(n: int, *alphas: int) -> dict:
    return {"n": n, "points": [{"alpha": a} for a in alphas]}


# name -> (the command and its options, the document its input flag names)
JOBS = {
    "count": (["enumerate", "--count-only"], curve(5, 1, 1, 1, 2)),
    "verify": (["verify"], curve(7, 1, 1, 1, 1, 1, 2)),
    "counts-fit": (["counts", "--n-range", "2..6", "--fit"], {"c": [1, 1, 1], "d": [1, 1, 1]}),
    "orbits": (["orbits"], curve(5, 1, 1, 1, 2)),
}


def job_loads(name: str, tmp_path) -> list[str]:
    """Which of dataclasses, fractions and inspect one ``main`` job loads; it must exit 0."""
    argv, document = JOBS[name]
    (tmp_path / "in.json").write_text(json.dumps(document), encoding="utf-8")
    flag = "--family" if argv[0] == "counts" else "--curve"
    body = f"""
import contextlib, io
from thomae.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({[argv[0], flag, "in.json", *argv[1:]]!r}) == 0
"""
    return loaded(body, cwd=tmp_path)["loaded"]


@pytest.mark.parametrize("name", ["count", "verify", "counts-fit"])
def test_jobs_load_neither_dataclasses_nor_inspect(name, tmp_path):
    """The package's records are plain classes: no job pays for ``dataclasses``
    and the ``inspect``, ``ast`` and ``tokenize`` that it loads."""
    got = job_loads(name, tmp_path)
    assert "dataclasses" not in got and "inspect" not in got


def test_orbits_job_does_not_load_fractions(tmp_path):
    """Only a polynomial fit needs ``fractions`` in ``orbits``."""
    assert "fractions" not in job_loads("orbits", tmp_path)


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
