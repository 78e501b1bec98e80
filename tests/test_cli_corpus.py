"""Golden CLI corpus: every invocation in ``cli_corpus.json`` gives the pinned
stdout, stderr and exit status.

Each case holds the argv of one ``thomae`` run.  An argument ``@name`` stands
for the file ``DIR/name.json``, written from the corpus's ``documents`` (JSON
values) or ``raw_documents`` (text whose latin-1 encoding is the file's bytes);
a name in neither stays a missing file.  The run goes through ``main(argv)`` in
process, and the expectations are the sha256 of stdout, the exact stderr with
the temporary directory written as ``DIR``, and the exit status.

A change that means to alter an output updates the affected cases with

    PYTHONPATH=src python3 tests/test_cli_corpus.py

which rewrites the three expected values of every case from the current code,
and names each changed case in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from thomae.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.json")


def _load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def run_case(corpus: dict, argv: list[str]) -> dict:
    """The stdout digest, stderr and exit status of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        for name, doc in corpus["documents"].items():
            Path(folder, f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        for name, text in corpus["raw_documents"].items():
            Path(folder, f"{name}.json").write_bytes(text.encode("latin-1"))
        args = [str(Path(folder, f"{a[1:]}.json")) if a.startswith("@") else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(args)
    return {
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": err.getvalue().replace(folder, "DIR"),
        "status": status,
    }


_CORPUS = _load()


@pytest.mark.parametrize("case", _CORPUS["cases"], ids=lambda case: case["name"])
def test_cli_output_matches_the_corpus(case):
    got = run_case(_CORPUS, case["argv"])
    assert got == {key: case[key] for key in got}, case["argv"]


if __name__ == "__main__":
    corpus = _load()
    for case in corpus["cases"]:
        case.update(run_case(corpus, case["argv"]))
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(corpus['cases'])} cases to {CORPUS}\n")
