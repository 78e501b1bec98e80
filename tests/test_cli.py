import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from thomae import (DivisorKind, __version__, curve_from_dict, denominators, divisors,
                    enumerate_divisors)
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


def test_ftable_refuses_an_n_above_its_cap_before_building_the_table(capsys, monkeypatch):
    from thomae import cli, ffunctions

    code, out, _ = run(capsys, "ftable", "--n", str(cli.FTABLE_MAX_N), "--d", "1",
                       "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 2
    monkeypatch.setattr(ffunctions, "f_chain", lambda n, d: pytest.fail("the table was built"))
    code, out, err = run(capsys, "ftable", "--n", str(cli.FTABLE_MAX_N + 1), "--d", "1")
    assert (code, out) == (1, "")
    assert err == f"error: n = {cli.FTABLE_MAX_N + 1} is above the ftable cap {cli.FTABLE_MAX_N}\n"


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


def test_log_value_of_z_values_past_the_range_of_a_float(capsys, tmp_path):
    """Differences of about 1e500 and of 1e-400 are past a float's range, and the
    log magnitude is still the sum of exponent times log |difference|."""
    lams = ["0", "1", "1e500", "-1e-400"]
    curve = write(tmp_path / "c.json", {"n": 5, "points": [
        {"alpha": a, "lambda": lam} for a, lam in zip([1, 2, 3, 4], lams)]})
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 4, 4, 0]})
    code, out, err = run(capsys, "denominator", "--curve", curve, "--divisor", divisor,
                         "--evaluate", "log")
    assert code == 0 and err == ""
    doc = json.loads(out)
    pairs = {(p["i"], p["j"]): p["exp_unit"] for p in doc["denominator"]["pairs"]}
    assert pairs == {(0, 3): 4, (1, 2): 4}
    expected = 10 * 4 * (math.log(10 ** 500 - 1) - 400 * math.log(10))
    assert doc["value"] == {"log_abs": pytest.approx(expected), "sign": 1}


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
        ["denominator", "--curve", "@far_lambda_curve", "--divisor", "@far_lambda_divisor",
         "--evaluate", "exact"],
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
    # too few levels, levels given as a string, or an exact value too long to write
    bad_files = {
        "@float_family": {"c": [1.5, 1], "d": [1, 1.5]},
        "@bool_family": {"c": [True, 1], "d": [2]},
        "@bool_alpha_curve": {"n": 7, "points": [{"alpha": True}, {"alpha": 2}, {"alpha": 4}]},
        "@bool_level_divisor": {"kind": "xi", "levels": [0, True, 1]},
        "@short_divisor": {"kind": "xi", "levels": [0, 1]},
        "@string_levels_divisor": {"kind": "xi", "levels": "012"},
        "@far_lambda_curve": {"n": 5, "points": [{"alpha": a, "lambda": lam} for a, lam in
                                                 [(1, "0"), (2, "1"), (3, "1e400"), (4, "2")]]},
        "@far_lambda_divisor": {"kind": "xi", "levels": [0, 0, 4, 4]},
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


def _digit_limit() -> int:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter writes integers of any length")
    return limit


TOO_LONG = "error: the exact value has too many digits; try --evaluate log\n"


def _no_power(*args):
    raise AssertionError("took the exact product")


def test_exact_value_past_the_digit_limit_is_refused_before_any_power(capsys, tmp_path,
                                                                     monkeypatch):
    """|log10 h| is about 2.6 million here: the bit lengths of the differences
    refuse it without raising any of them to a power."""
    _digit_limit()
    lams = ["0", "1", "1e400", "2", "3"]
    curve = write(tmp_path / "c.json", {"n": 29, "points": [
        {"alpha": a, "lambda": lam} for a, lam in zip([1, 1, 1, 1, 25], lams)]})
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 7, 14, 21, 28]})
    monkeypatch.setattr(denominators, "evaluate", _no_power)
    assert run(capsys, "denominator", "--curve", curve, "--divisor", divisor, "--which", "h",
               "--evaluate", "exact") == (1, "", TOO_LONG)


def test_exact_value_at_the_digit_limit_prints_and_past_it_is_refused(capsys, tmp_path,
                                                                     monkeypatch):
    """h of this divisor is (z_0 - z_1)^2 (z_2 - z_3)^2 = z_1^2 with z_1 a power
    of two: the largest such value with the limit's number of digits is written
    in full, and the next one is refused before the power is taken."""
    top = (10 ** _digit_limit()).bit_length() - 1  # 2 ** top has exactly limit digits
    divisor = write(tmp_path / "d.json", {"kind": "xi", "levels": [0, 0, 1, 1]})
    argv = ["denominator", "--divisor", divisor, "--evaluate", "exact", "--curve"]
    for half, fits in ((top // 2, True), (top // 2 + 1, False)):
        lams = ["0", str(2 ** half), "1", "2"]
        curve = write(tmp_path / "c.json", {"n": 2, "points": [
            {"alpha": 1, "lambda": lam} for lam in lams]})
        if fits:
            code, out, err = run(capsys, *argv, curve)
            assert (code, err) == (0, "") and json.loads(out)["value"] == str(4 ** half)
        else:
            monkeypatch.setattr(denominators, "evaluate", _no_power)
            assert run(capsys, *argv, curve) == (1, "", TOO_LONG)


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
        ("curve", b"[" * 100_000 + b"]" * 100_000),
        ("divisor", b'{"kind": "xi", "levels": [' + b"1" * 5000 + b"]}"),
    ],
    ids=["non-utf8-curve", "non-json-curve", "non-json-divisor", "non-utf8-divisor",
         "non-json-family", "non-json-witness", "deeply-nested-curve", "5000-digit-level"],
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


# JSON of any shape, for documents that are not what a command expects
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-1e9, 1e9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=8,
)
_Z_VALUES = st.integers(-60, 60).map(str) | st.sampled_from(
    ["7/3", "-0.25", "1e3", "1e-3", "5/7", "123456/7", "-9/11", "0.125", "1e400", "-1e-400"])
_BAD = st.sampled_from(["1/0", "x", 0.5, True, None, [1], "3", -1, 0, 31])


@st.composite
def _curve_documents(draw):
    """A curve document: mostly one with 2 <= n <= 30, 3 to 6 points and
    exponents prime to n summing to 0 mod n, sometimes with one value replaced
    or JSON of any shape."""
    fault = draw(st.integers(0, 9))  # 0: any JSON; 1, 2, 3: a bad n, alpha or z-value
    if fault == 0:
        return draw(_ANY_JSON)
    n = draw(st.integers(2, 30))
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    alphas = draw(st.lists(st.sampled_from(units), min_size=2, max_size=5))
    last = -sum(alphas) % n
    alphas = alphas + [last] if last in units else alphas[:3] + [n - a for a in alphas[:3]]
    points = [{"alpha": a} for a in alphas]
    if draw(st.integers(0, 2)):
        lams = draw(st.lists(_Z_VALUES, min_size=len(points), max_size=len(points), unique=True))
        for point, lam in zip(points, lams):
            point["lambda"] = lam
    doc = {"n": n, "points": points}
    if fault in (1, 2, 3):
        point = draw(st.sampled_from(points))
        target, key = {1: (doc, "n"), 2: (point, "alpha"), 3: (point, "lambda")}[fault]
        target[key] = draw(_BAD)
    return doc


@st.composite
def _divisor_documents(draw, curve):
    """A divisor document: a listed divisor of ``curve`` when it has one, or
    levels of the right length, or JSON of any shape."""
    kind = draw(st.sampled_from(["xi"] * 4 + ["delta", "x", 1]))
    choice = draw(st.integers(0, 4))
    try:
        spec = curve_from_dict(curve)
        listed = list(itertools.islice(enumerate_divisors(spec, DivisorKind(kind)), 40))
    except ValueError:  # CurveError, or a kind that is not one
        spec, listed = None, []
    if choice < 3 and listed:
        return {"kind": kind, "levels": list(draw(st.sampled_from(listed)).levels)}
    if choice < 4 and spec is not None:
        levels = st.lists(st.integers(-1, spec.n), min_size=spec.point_count,
                          max_size=spec.point_count)
        return {"kind": kind, "levels": draw(levels)}
    return draw(_ANY_JSON)


_SMALL = st.integers(-2, 31).map(str)
_FORMATS = st.sampled_from([[], ["--format", "csv"], ["--format", "human"]])


@st.composite
def _invocations(draw, command):
    """argv for ``command`` with generated flags, and the documents its input
    flags name, as {flag: document}."""
    curve = draw(_curve_documents())
    docs = {"curve": curve}
    argv = [command]
    if command in ("apply", "denominator"):
        docs["divisor"] = draw(_divisor_documents(curve))
    if command == "enumerate":
        argv += draw(st.sampled_from([[], ["--kind", "delta"], ["--kind", "xi"]]))
        argv += draw(st.sampled_from([[], ["--count-only"]]))
        argv += draw(st.sampled_from([[], ["--avoid", draw(st.integers(-2, 7).map(str))]]))
    elif command == "apply":
        q, r = draw(_SMALL), draw(st.integers(-1, 6).map(str))
        argv += ["--op", draw(st.sampled_from(
            ["N", f"Nbeta:{q}", f"M:{q}", f"T:{q},{r}", f"That:{q},{r}", f"M:{q},{r}", "x"]))]
    elif command == "ftable":
        docs = {}
        argv += ["--n", draw(_SMALL), "--d", draw(_SMALL)]
    elif command == "denominator":
        q, gamma = draw(st.integers(-1, 6).map(str)), draw(_SMALL)
        argv += ["--which", draw(st.sampled_from(["h", f"g:{gamma}", f"q:{q},{gamma}", "q:x"]))]
        argv += draw(st.sampled_from([[], ["--evaluate", "exact"], ["--evaluate", "log"]] * 2))
        argv += draw(st.sampled_from([[], ["--reduce"]]))
    elif command == "orbits":
        argv += ["--max-vertices", draw(st.integers(-1, 3000).map(str))]
        if draw(st.booleans()):
            docs["witness"] = [draw(_divisor_documents(curve)) for _ in range(2)]
    elif command == "counts":
        c = draw(st.lists(st.integers(1, 8) | _BAD, min_size=1, max_size=3))
        family = st.sampled_from([{"c": c, "d": c[::-1]}] * 4 + [{"c": c, "d": c[:1]}, {"c": c}])
        docs = {"family": draw(family | _ANY_JSON)}
        lo = draw(st.integers(-2, 28))
        argv += ["--n-range", draw(st.sampled_from(
            [f"{lo}..{lo + draw(st.integers(-1, 2))}", f"{lo}", "..", ""]))]
        argv += draw(st.sampled_from([[], ["--fit"]]))
    elif command == "verify":
        argv += ["--max-n", draw(st.integers(0, 12).map(str)),
                 "--max-vertices", draw(st.integers(-1, 400).map(str)),
                 "--seed", draw(st.integers(0, 3).map(str))]
        argv += draw(st.sampled_from([[], ["--suite", "genus-sum,evaluation"], ["--suite", "x"]]))
    return argv + draw(_FORMATS), docs


@pytest.mark.parametrize(
    "command", ["enumerate", "apply", "ftable", "denominator", "orbits", "counts", "verify"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_input_ends_in_a_status_or_one_error_line(command, data):
    """Every command, with generated flags and JSON documents, exits 0, 1 or 2
    (or argparse's own usage exit 2), and status 1 writes exactly one ``error:``
    line.  Curves keep n <= 30 with at most 6 points and ``--n-range`` spans
    at most 4 values: nothing caps n yet, so a larger n is only slow."""
    argv, docs = data.draw(_invocations(command))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        for flag, doc in docs.items():
            paths = [write(Path(folder) / f"{flag}{k}.json", one)
                     for k, one in enumerate(doc if flag == "witness" else [doc])]
            argv += [f"--{flag}", *paths]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag value
            code = exc.code
            assert code == 2 and err.getvalue().startswith("usage: "), argv
            return
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    else:
        assert err.getvalue() == "", argv
