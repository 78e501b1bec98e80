import hashlib
import json
import os
from pathlib import Path

import pytest

from thomae import __version__, divisors
from thomae.cli import main


def write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def m3_curve(tmp_path):
    return write(
        tmp_path / "m3.json",
        {"n": 3, "points": [{"alpha": 1}] * 3 + [{"alpha": 2}] * 3},
    )


@pytest.fixture
def two_two_curve(tmp_path):
    return write(
        tmp_path / "f1.json",
        {
            "n": 5,
            "points": [
                {"alpha": 1, "lambda": "0"},
                {"alpha": 2, "lambda": "1"},
                {"alpha": 3, "lambda": "2"},
                {"alpha": 4, "lambda": "7/2"},
            ],
        },
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ftable_csv(capsys):
    code, out, _ = run(capsys, "ftable", "--n", "5", "--d", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,0;1,0;2,4;3,2;4,4", "c=4"]


def test_ftable_json(capsys):
    code, out, _ = run(capsys, "ftable", "--n", "5", "--d", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == [0, 2, 0, 4, 4]
    assert doc["c"] == 4
    assert doc["version"]


@pytest.mark.parametrize(
    "command", ["enumerate", "apply", "ftable", "denominator", "orbits", "counts", "verify"]
)
def test_report_opens_with_version_and_input_digests(capsys, tmp_path, command):
    """Every json report starts with ``version`` and ``inputs``, the digests of
    exactly the --curve, --divisor and --family files (not the --witness ones)."""
    curve = write(tmp_path / "c.json", {"n": 5, "points": [{"alpha": a} for a in (1, 2, 2)]})
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 2, 4]})
    other = write(tmp_path / "e.json", {"kind": "xi", "levels": [4, 2, 0]})
    family = write(tmp_path / "f.json", {"c": [1, 1], "d": [1, 1]})
    argv, files = {
        "enumerate": (["--curve", curve], {"curve": curve}),
        "apply": (["--curve", curve, "--divisor", divisor, "--op", "N"],
                  {"curve": curve, "divisor": divisor}),
        "ftable": (["--n", "5", "--d", "2"], {}),
        "denominator": (["--curve", curve, "--divisor", divisor],
                        {"curve": curve, "divisor": divisor}),
        "orbits": (["--curve", curve, "--witness", divisor, other], {"curve": curve}),
        "counts": (["--family", family, "--n-range", "2..5"], {"family": family}),
        "verify": (["--curve", curve, "--suite", "genus-sum"], {"curve": curve}),
    }[command]
    code, out, _ = run(capsys, command, *argv)
    doc = json.loads(out)
    assert code == 0
    assert list(doc)[:2] == ["version", "inputs"] and doc["version"] == __version__
    digests = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
               for name, path in files.items()}
    assert doc["inputs"] == digests


def test_enumerate_count_only(capsys, m3_curve):
    code, out, _ = run(
        capsys, "enumerate", "--curve", m3_curve, "--kind", "delta", "--count-only"
    )
    assert code == 0
    assert json.loads(out)["count"] == 60


def test_enumerate_avoid(capsys, m3_curve):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--curve",
        m3_curve,
        "--kind",
        "delta",
        "--count-only",
        "--avoid",
        "0",
    )
    assert json.loads(out)["count"] == 31


def test_enumerate_lists_divisors(capsys, two_two_curve):
    code, out, _ = run(capsys, "enumerate", "--curve", two_two_curve, "--kind", "xi")
    doc = json.loads(out)
    assert doc["count"] == 35
    assert doc["count"] == len(doc["divisors"])
    assert all(d["kind"] == "xi" for d in doc["divisors"])


def test_apply_and_involution(capsys, two_two_curve, tmp_path):
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 1, 3, 4]})
    code, out, _ = run(
        capsys, "apply", "--curve", two_two_curve, "--divisor", divisor, "--op", "Nbeta:1"
    )
    assert code == 0
    first = json.loads(out)["result"]
    second = write(tmp_path / "d2.json", first)
    code, out, _ = run(
        capsys, "apply", "--curve", two_two_curve, "--divisor", second, "--op", "Nbeta:1"
    )
    assert json.loads(out)["result"]["levels"] == [0, 1, 3, 4]


def test_apply_inadmissible_is_validation_error(capsys, two_two_curve, tmp_path):
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 1, 3, 4]})
    code, out, err = run(
        capsys, "apply", "--curve", two_two_curve, "--divisor", divisor, "--op", "T:0,1"
    )
    assert code == 1
    assert "level" in err


def test_denominator_report(capsys, two_two_curve, tmp_path):
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 4, 4, 0]})
    code, out, _ = run(
        capsys,
        "denominator",
        "--curve",
        two_two_curve,
        "--divisor",
        divisor,
        "--which",
        "h",
        "--evaluate",
        "exact",
    )
    doc = json.loads(out)
    assert doc["denominator"]["unit"] == "e*n"
    pairs = {(p["i"], p["j"]): p["exp_unit"] for p in doc["denominator"]["pairs"]}
    assert pairs == {(0, 3): 4, (1, 2): 4}
    assert doc["degree"] == 10 * sum(pairs.values())
    assert "value" in doc


def test_denominator_pmt(capsys, two_two_curve, tmp_path):
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 4, 4, 0]})
    code, out, _ = run(
        capsys,
        "denominator",
        "--curve",
        two_two_curve,
        "--divisor",
        divisor,
        "--which",
        "g:1",
    )
    doc = json.loads(out)
    pairs = {(p["i"], p["j"]): p["exp_unit"] for p in doc["denominator"]["pairs"]}
    assert pairs == {(0, 1): 2, (0, 2): 1, (0, 3): 1}


def test_orbits_report(capsys, tmp_path):
    from thomae import CurveSpec, build_graph

    curve = write(
        tmp_path / "c.json",
        {"n": 5, "points": [{"alpha": 1}, {"alpha": 2}, {"alpha": 2}]},
    )
    code, out, _ = run(capsys, "orbits", "--curve", curve)
    doc = json.loads(out)
    assert doc["vertices"] == 10
    graph = build_graph(CurveSpec.from_alphas(5, [1, 2, 2]))
    assert doc["edges"] == len(graph.edges) == 50
    assert doc["components"] == 1
    assert doc["m_orbits"] == 2


def test_orbits_witness(capsys, tmp_path):
    from thomae import CurveSpec, DivisorKind, enumerate_divisors

    curve_path = write(
        tmp_path / "c.json",
        {"n": 5, "points": [{"alpha": 1}, {"alpha": 2}, {"alpha": 2}]},
    )
    spec = CurveSpec.from_alphas(5, [1, 2, 2])
    divisors = list(enumerate_divisors(spec, DivisorKind.XI))
    src = write(tmp_path / "a.json", {"kind": "xi", "levels": list(divisors[0].levels)})
    dst = write(tmp_path / "b.json", {"kind": "xi", "levels": list(divisors[-1].levels)})
    code, out, _ = run(capsys, "orbits", "--curve", curve_path, "--witness", src, dst)
    doc = json.loads(out)
    assert code == 0
    assert doc["witness"]["found"] is True
    code, out, _ = run(capsys, "orbits", "--curve", curve_path, "--witness", src, src)
    assert json.loads(out)["witness"] == {"found": True, "word": []}


def test_counts_with_fit(capsys, tmp_path):
    family = write(tmp_path / "m3.json", {"c": [1, 1, 1], "d": [1, 1, 1]})
    code, out, _ = run(
        capsys, "counts", "--family", family, "--n-range", "2..7", "--fit"
    )
    doc = json.loads(out)
    assert code == 0
    totals = {c["n"]: c["total_divisors"] for c in doc["counts"]}
    assert totals[2] == 15 and totals[7] == 600
    assert doc["fit"]["total_divisors"]["coefficients"] == ["33", "-45", "18"]
    assert all(r == "0" for r in doc["fit"]["total_divisors"]["residuals"])


def test_verify_clean_curve(capsys, tmp_path):
    curve = write(
        tmp_path / "c.json",
        {"n": 5, "points": [{"alpha": 1}, {"alpha": 2}, {"alpha": 2}]},
    )
    code, out, _ = run(capsys, "verify", "--curve", curve, "--suite", "all")
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is True
    assert set(doc["checks"]) >= {"genus-sum", "operators", "denominators"}


def test_verify_finding_sets_exit_code(capsys, tmp_path, monkeypatch):
    from thomae import verify
    from thomae.verify import Finding

    curve = write(
        tmp_path / "c.json",
        {"n": 3, "points": [{"alpha": 1}, {"alpha": 1}, {"alpha": 1}]},
    )
    monkeypatch.setattr(
        verify, "run_suite", lambda *a, **k: (["fake"], [Finding("fake", "boom")])
    )
    code, out, _ = run(capsys, "verify", "--curve", curve)
    assert code == 2
    assert json.loads(out)["findings"] == [{"check": "fake", "reproducer": "boom"}]


def test_bad_curve_file_is_exit_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "enumerate", "--curve", str(path), "--count-only")
    assert code == 1
    assert "error" in err


def test_invalid_curve_is_exit_one(capsys, tmp_path):
    curve = write(
        tmp_path / "c.json", {"n": 4, "points": [{"alpha": 1}, {"alpha": 2}, {"alpha": 1}]}
    )
    code, _, err = run(capsys, "enumerate", "--curve", curve, "--count-only")
    assert code == 1
    assert "coprime" in err


def test_human_format(capsys, m3_curve):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--curve",
        m3_curve,
        "--kind",
        "delta",
        "--count-only",
        "--format",
        "human",
    )
    assert code == 0
    assert "count: 60" in out


def test_csv_format_counts(capsys, tmp_path):
    family = write(tmp_path / "f.json", {"c": [1, 1], "d": [1, 1]})
    code, out, _ = run(
        capsys, "counts", "--family", family, "--n-range", "2..5", "--format", "csv"
    )
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert [int(r[1]) for r in rows] == [4, 8, 12, 16]


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--op", "M:x"],
        ["apply", "--op", "T:0,9"],
        ["counts", "--n-range", "abc"],
        ["denominator", "--which", "g:x"],
        ["denominator", "--which", "q:0"],
        ["verify", "--suite", "bogus"],
        ["verify", "--suite", "operators,operators"],
        ["verify", "--max-vertices", "0"],
        ["verify", "--max-vertices", "-1"],
        ["verify", "--max-vertices", "-1", "--suite", "genus-sum"],
        ["orbits", "--max-vertices", "-5"],
        ["enumerate", "--avoid", "9"],
        ["counts", "--family", "@float_family", "--n-range", "2..5"],
        ["counts", "--family", "@bool_family", "--n-range", "2..5"],
        ["enumerate", "--curve", "@bool_alpha_curve", "--count-only"],
        ["apply", "--divisor", "@bool_level_divisor", "--op", "N"],
        ["counts", "--n-range", "5..2"],
        ["apply", "--op", "N:1"],
        ["apply", "--op", "X:1"],
        ["apply", "--op", "T:0"],
        ["apply", "--divisor", "@short_divisor", "--op", "N"],
        ["apply", "--divisor", "@string_levels_divisor", "--op", "N"],
    ],
)
def test_malformed_input_is_one_error_line(capsys, tmp_path, argv):
    curve = write(
        tmp_path / "c.json",
        {"n": 5, "points": [{"alpha": 1}, {"alpha": 2}, {"alpha": 2}]},
    )
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 1, 2]})
    family = write(tmp_path / "f.json", {"c": [1, 1, 1], "d": [1, 1, 1]})
    # a float or a JSON boolean (which loads as a Python int) where an integer belongs,
    # too few levels, or levels given as a string
    bad_files = {
        "@float_family": {"c": [1.5, 1], "d": [1, 1.5]},
        "@bool_family": {"c": [True, 1], "d": [2]},
        "@bool_alpha_curve": {"n": 7, "points": [{"alpha": True}, {"alpha": 2}, {"alpha": 4}]},
        "@bool_level_divisor": {"kind": "xi", "levels": [0, True, 1]},
        "@short_divisor": {"kind": "xi", "levels": [0, 1]},
        "@string_levels_divisor": {"kind": "xi", "levels": "012"},
    }
    inputs = {
        "apply": ["--curve", curve, "--divisor", divisor],
        "counts": ["--family", family],
        "denominator": ["--curve", curve, "--divisor", divisor],
        "verify": ["--curve", curve],
        "enumerate": ["--curve", curve],
        "orbits": ["--curve", curve],
    }
    # argparse keeps a flag's last value, so a case's own inputs override the defaults
    given = [
        write(tmp_path / f"{a[1:]}.json", bad_files[a]) if a in bad_files else a for a in argv
    ]
    code, _, err = run(capsys, given[0], *inputs[argv[0]], *given[1:])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_avoid_listing_agrees_with_count_only(capsys, tmp_path):
    curve = write(
        tmp_path / "c.json",
        {"n": 7, "points": [{"alpha": a} for a in (1, 2, 5, 6)]},
    )
    for kind in ("delta", "xi"):
        base = ["enumerate", "--curve", curve, "--kind", kind, "--avoid"]
        for point in range(4):
            code, out, _ = run(capsys, *base, str(point))
            listed = json.loads(out)["count"]
            code_c, out_c, _ = run(capsys, *base, str(point), "--count-only")
            assert code == code_c == 0
            assert listed == json.loads(out_c)["count"]
        for point in ("-1", "4"):
            for extra in ([], ["--count-only"]):
                code, out, err = run(capsys, *base, point, *extra)
                assert code == 1 and out == ""
                assert err == f"error: no point with index {point}\n"


def test_count_past_state_budget_is_one_error_line(capsys, tmp_path, monkeypatch):
    curve = write(
        tmp_path / "c.json", {"n": 12, "points": [{"alpha": a} for a in (1, 5, 7, 11) * 2]}
    )
    monkeypatch.setattr(divisors, "STATE_BUDGET", 100)
    for extra in ([], ["--avoid", "0"]):
        code, out, err = run(
            capsys, "enumerate", "--curve", curve, "--kind", "xi", "--count-only", *extra
        )
        assert code == 1 and out == ""
        assert err == "error: counting needs over 100 partial sums; refused\n"


def test_piped_curve_is_digested_as_read(capsys):
    """A curve given as a pipe is read once: the reported digest is of the
    bytes written to the pipe, and the count is that curve's."""
    data = json.dumps({"n": 3, "points": [{"alpha": 1}] * 3 + [{"alpha": 2}] * 3}).encode()
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        code, out, _ = run(capsys, "enumerate", "--curve", f"/dev/fd/{read_end}",
                           "--kind", "delta", "--count-only")
    finally:
        os.close(read_end)
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 60
    assert doc["inputs"] == {"curve": hashlib.sha256(data).hexdigest()[:16]}


@pytest.mark.parametrize(
    "flag, content",
    [
        ("curve", b'{"n": 5, "points": [{"alpha": 1, "label": "\xff"}]}'),
        ("curve", b'{"n": 5, "points": '),
        ("divisor", b'{"kind": "xi", "levels": [0, 1, 2]'),
        ("divisor", b'{"kind": "xi", "levels": [0, 1, 2], "note": "\xc3"}'),
        ("family", b'{c: [1, 1, 1], d: [1, 1, 1]}'),
        ("witness", b"[0, 1, 2"),
    ],
    ids=["non-utf8-curve", "non-json-curve", "non-json-divisor", "non-utf8-divisor",
         "non-json-family", "non-json-witness"],
)
def test_unreadable_input_file_is_one_error_line_naming_it(capsys, tmp_path, flag, content):
    curve = write(tmp_path / "c.json", {"n": 5, "points": [{"alpha": a} for a in (1, 2, 2)]})
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 2, 4]})
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {
        "curve": ["enumerate", "--curve", str(bad), "--count-only"],
        "divisor": ["apply", "--curve", curve, "--divisor", str(bad), "--op", "N"],
        "family": ["counts", "--family", str(bad), "--n-range", "2..5"],
        "witness": ["orbits", "--curve", curve, "--witness", divisor, str(bad)],
    }[flag]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
