import ast
import functools
import itertools
import re
from collections import Counter
from operator import sub

import pytest

from thomae import (
    CurveSpec,
    DivisorKind,
    ExponentMatrix,
    GroupElement,
    LeveledDivisor,
    apply_M,
    apply_N_beta,
    apply_T,
    apply_T_hat,
    degree,
    enumerate_divisors,
    full_denominator,
    k_inverse,
    pmt_denominator,
    pmt_gamma_denominator,
    run_suite,
    t_admissible,
    t_hat_admissible,
    theta_relation_shift,
)
from thomae import denominators, operators, verify
from thomae.denominators import _PairTables
from thomae.divisors import _list_assignments, _meets


def test_run_suite_enumerates_shifted_divisors_once(monkeypatch):
    calls = []
    original = verify._list_assignments

    def counting(spec, kind, allowed):
        calls.append(kind)
        return original(spec, kind, allowed)

    monkeypatch.setattr(verify, "_list_assignments", counting)
    ran, findings = run_suite(CurveSpec.from_alphas(5, [1, 1, 1, 2]))
    assert findings == []
    assert "enumeration" in ran and "operators" in ran
    assert calls.count(DivisorKind.XI) == 1


def test_nonspecial_equivalence_examines_every_degree_g_divisor(monkeypatch):
    examined = []
    original = verify.specialty_index

    def recording(div):
        examined.append(div.levels)
        return original(div)

    monkeypatch.setattr(verify, "specialty_index", recording)
    spec = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    _, findings = run_suite(spec, ["nonspecial-equivalence"])
    assert findings == []
    assert examined == [
        levels
        for levels in itertools.product(range(spec.n), repeat=spec.point_count)
        if sum(LeveledDivisor(spec, levels, DivisorKind.DELTA).exponents) == spec.genus()
    ]


def test_nonspecial_equivalence_derives_the_last_level_on_short_curves(monkeypatch):
    """The check walks p-1 levels and derives the last from the level sum; on
    three points, the fewest a curve has, it examines exactly the tuples of that sum."""
    examined = []
    original = verify.specialty_index

    def recording(div):
        examined.append(div.levels)
        return original(div)

    monkeypatch.setattr(verify, "specialty_index", recording)
    spec = CurveSpec.from_alphas(3, [1, 1, 1])
    list(verify._nonspecial_equivalence(verify._Run(spec, 0, 10)))
    level_sum = spec.point_count * (spec.n - 1) - spec.genus()
    # a finding's message reads the index of its tuple a second time
    assert list(dict.fromkeys(examined)) == [
        levels
        for levels in itertools.product(range(spec.n), repeat=spec.point_count)
        if sum(levels) == level_sum
    ]


def test_operators_check_applies_every_admissible_swap():
    """Breaking T-hat (or T) of one ordered (q, r) at one Q level makes that
    swap's findings name exactly the rows that t_hat_admissible (or
    t_admissible) accepts with Q at that level: every admissible row is
    checked, and nothing else is."""
    spec = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    xis = list(enumerate_divisors(spec, DivisorKind.XI))
    named = Counter()
    for kind, reader, admissible, q_levels in (
        ("That", "_swap_hat_columns", t_hat_admissible, range(spec.n)),
        ("T", "_swap_columns", t_admissible, [0]),
    ):
        intact = getattr(verify, reader)
        points = itertools.permutations(range(spec.point_count), 2)
        for (q, r), x in itertools.product(points, q_levels):

            def broken(t, columns, a, b):  # Q's image off by one where Q sits at level x
                out = list(intact(t, columns, a, b))
                if (a, b) == (q, r):
                    out[q] = [(y + 1) % spec.n if l == x else y for l, y in zip(columns[q], out[q])]
                return out

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verify, reader, broken)
                _, findings = run_suite(spec, ["operators"])
            assert all(f.reproducer.startswith(f"{kind}:") for f in findings)
            # this swap's messages; T-hat at (r, q) reads the broken step as its inverse
            own = (f"T:{q},{r} ",) if kind == "T" else (f"That:{q},{r} of", f"That:{r},{q} does")
            got = {_levels_in(f.reproducer) for f in findings if f.reproducer.startswith(own)}
            want = {xi.levels for xi in xis if admissible(xi, q, r) and xi.levels[q] == x}
            assert got == want, (kind, q, r, x)
            named[kind] += len(want)
    assert named["That"] > 50 and named["T"] > 10, named


def _levels_in(message: str) -> tuple:
    return ast.literal_eval(re.search(r"\([\d, ]+\)", message).group())


def test_a_finding_carries_the_name_of_its_check(monkeypatch):
    """A T̂ that steps twice breaks only the operator identities, and the sweep
    still runs every check after the one that fails."""
    orig = verify._swap_hat_columns
    monkeypatch.setattr(verify, "_swap_hat_columns",
                        lambda t, c, q, r: orig(t, orig(t, c, q, r), q, r))
    ran, findings = run_suite(CurveSpec.from_alphas(5, [1, 1, 1, 2]))
    assert findings and {f.check for f in findings} == {"operators"}
    assert ran == [
        "genus-sum", "enumeration", "nonspecial-equivalence", "operators", "denominators",
        "evaluation",
    ]


# ---------------------------------------------------------------------------
# the column checks against the tuple-by-tuple sweeps they replace


def reference_operators(run):
    """The operator identities, one shifted divisor at a time."""
    spec = run.spec
    n, xi_shift = spec.n, DivisorKind.XI.shift
    t = operators._tables(n, spec.alphas)
    negations = [(beta, GroupElement.negation(n, beta)) for beta in spec.classes]
    for levels in run.xis:
        for beta, element in negations:
            image = operators._negate(t, levels, beta)
            if not _meets(spec, image, xi_shift):
                yield f"N_{beta} of {levels} is invalid"
            if operators._negate(t, image, beta) != levels:
                yield f"N_{beta} not an involution at {levels}"
            if operators._group(t, levels, element) != image:
                yield f"N_{beta} disagrees with its group element at {levels}"
        rotated = levels
        for _ in range(n):
            rotated = operators._rotate(t, rotated, 1)
        if rotated != levels:
            yield f"M^n != id at {levels}"
        if not _meets(spec, operators._rotate(t, levels, 1), xi_shift):
            yield f"M of {levels} is invalid"
        for q in range(spec.point_count):
            partners = operators._partners(t, levels, q)
            if levels[q] == 0:  # T needs its base point Q at level 0
                for r in partners:
                    image = operators._swap(t, levels, q, r)
                    if not _meets(spec, image, xi_shift):
                        yield f"T:{q},{r} of {levels} is invalid"
                    if image[r] != levels[r]:
                        yield f"T:{q},{r} moved the partner at {levels}"
                    if operators._swap(t, image, q, r) != levels:
                        yield f"T:{q},{r} not an involution at {levels}"
            for r in partners:
                image = operators._swap_hat(t, levels, q, r)
                if not _meets(spec, image, xi_shift):
                    yield f"That:{q},{r} of {levels} is invalid"
                if operators._swap_hat(t, image, r, q) != levels:
                    yield f"That:{r},{q} does not invert at {levels}"


def reference_denominators(run):
    """The denominator identities, one shifted divisor at a time."""
    spec = run.spec
    t = operators._tables(spec.n, spec.alphas)
    hs, gs, qs = (functools.cache(functools.partial(kernel, spec))
                  for kernel in (denominators._h, denominators._g, denominators._q))
    degrees = set()
    for levels in run.xis:
        h = hs(levels)
        degrees.add(degree(ExponentMatrix._make(spec, h)))
        slots = sorted(set(zip(spec.alphas, levels)), reverse=True)
        if denominators._slot_walk(spec, levels, slots)._values != h:
            yield f"assembly order changes h at {levels}"
        if hs(operators._rotate(t, levels, 1)) != h:
            yield f"h not rotation invariant at {levels}"
        for beta in spec.classes:
            if hs(operators._negate(t, levels, beta)) != h:
                yield f"h not negation invariant at {levels}, beta={beta}"
        for q in range(spec.point_count):
            if levels[q] != 0:
                continue
            beta = spec.alphas[q]
            g0 = gs(levels, beta)
            for r in operators._partners(t, levels, q):
                image = operators._swap(t, levels, q, r)
                shift = denominators._shift(spec, levels, q, r)
                if tuple(map(sub, hs(image), h)) != shift:
                    yield f"h shift wrong under T:{q},{r} at {levels}"
                if tuple(map(sub, gs(image, beta), g0)) != shift:
                    yield f"g^{beta} shift wrong under T:{q},{r} at {levels}"
                gamma = spec.alphas[r]
                if tuple(map(sub, qs(image, q, gamma), qs(levels, q, gamma))) != shift:
                    yield f"q^{{{q},{gamma}}} shift wrong under T:{q},{r} at {levels}"
    if len(degrees) > 1:
        yield f"h degrees differ across divisors: {sorted(degrees)}"


REFERENCES = {"operators": reference_operators, "denominators": reference_denominators}


def _m_without_order_n(init):
    """``_Tables.__init__`` with M^k sending level 0 to k: M's step then fails to have order n."""

    def patched(self, n, alphas):
        init(self, n, alphas)
        self.rotations = functools.cache(lambda k: self._maps(lambda a, l: l - a * k if l else k))

    return patched


def _with_a_row_off_the_conditions(spec, kind, allowed):
    """The listing and one more row that fails the conditions where T-hat applies to it."""
    t = operators._tables(spec.n, spec.alphas)
    off = next(
        levels for levels in itertools.product(range(spec.n), repeat=spec.point_count)
        if not _meets(spec, levels, kind.shift)
        and any(operators._partners(t, levels, q) for q in t.points)
    )
    return [*_list_assignments(spec, kind, allowed), off]


def _third(q, r):
    return min({0, 1, 2} - {q, r})


def _swap_hat_with_a_third(t, levels, q, r):
    out = list(SWAP_HAT(t, levels, q, r))
    out[_third(q, r)] = t.up[out[_third(q, r)]]
    return tuple(out)


def _swap_hat_columns_with_a_third(t, columns, q, r):
    out = SWAP_HAT_COLUMNS(t, columns, q, r)
    out[_third(q, r)] = [t.up[l] for l in out[_third(q, r)]]
    return out


SWAP_HAT, SWAP_HAT_COLUMNS = operators._swap_hat, operators._swap_hat_columns

# per case, the (target, name, stand-in) patches: each breaks a rule that both sweeps read
FAULTS = {
    "none": (),
    # the exponent then tells the two walking directions of a slot pair apart
    "direction-sensitive-exponent": ((denominators, "_slot_pair_exponent",
                                      lambda n, s, t: 1000 * s + t),),
    "N_beta-off-by-one": ((operators, "a_value",
                           lambda beta, alpha, l, n: (alpha * k_inverse(beta, n) - l) % n),),
    "T-reads-the-a-reflection": ((operators, "b_value", operators.a_value),),
    "M-without-order-n": ((operators._Tables, "__init__",
                           _m_without_order_n(operators._Tables.__init__)),),
    # the two fallbacks of the T-hat validity test: a listed row that fails its own
    # conditions, and a T-hat that moves a third point
    "row-off-the-conditions": ((verify, "_list_assignments", _with_a_row_off_the_conditions),),
    "T-hat-steps-a-third-point": ((operators, "_swap_hat", _swap_hat_with_a_third),
                                  (operators, "_swap_hat_columns", _swap_hat_columns_with_a_third),
                                  (verify, "_swap_hat_columns", _swap_hat_columns_with_a_third)),
}
FAULT_FINDINGS = {"none": 0, "direction-sensitive-exponent": 2170, "N_beta-off-by-one": 3920,
                  "T-reads-the-a-reflection": 1226, "M-without-order-n": 1330,
                  "row-off-the-conditions": 146, "T-hat-steps-a-third-point": 5616}


@pytest.mark.parametrize("fault", FAULTS)
def test_column_checks_give_the_reference_findings_in_order(fault, small_battery):
    """On every curve of the small battery, with the rules intact and under
    each broken rule, each column check yields the messages of its
    tuple-by-tuple reference, in the same order."""
    messages = []
    with pytest.MonkeyPatch.context() as patch:
        for target in FAULTS[fault]:
            patch.setattr(*target)
        operators._tables.cache_clear()  # the level maps are read from the rules once per curve
        try:
            for spec in small_battery:
                for check, reference in REFERENCES.items():
                    _, findings = run_suite(spec, [check])
                    want = list(reference(verify._Run(spec, 0, 20000)))
                    assert [f.reproducer for f in findings] == want, (spec, check)
                    messages += want
        finally:
            operators._tables.cache_clear()
    assert len(messages) == FAULT_FINDINGS[fault]
    if fault == "M-without-order-n":
        assert any(m.startswith("M^n != id") for m in messages)


def test_every_column_image_matches_its_public_function(full_battery):
    """Every row of every operator image and every pair table read, against the
    per-divisor function it stands for; and T-hat's admissible level pairs and
    T's base rows against the admissibility tests, on every row."""
    rows_checked = 0
    for spec in full_battery:
        run = verify._Run(spec, 0, 20000)
        t, cols, tables = operators._tables(spec.n, spec.alphas), run.columns, _PairTables(spec)
        ident, read = [range(spec.n)] * spec.point_count, operators._columns
        keys = denominators._keys(spec.n, cols)
        xis = [LeveledDivisor(spec, levels, DivisorKind.XI) for levels in run.xis]
        assert [xi.levels for xi in xis] == list(zip(*cols))

        def rows_of(columns):
            return list(zip(*columns))

        def take(columns, rows):
            return [[column[k] for k in rows] for column in columns]

        image = rows_of(read(t.rotations(1), cols))
        assert image == [apply_M(xi).levels for xi in xis]
        for beta in spec.classes:
            image = rows_of(read(t.negations(beta), cols))
            assert image == [apply_N_beta(xi, beta).levels for xi in xis]
            element = GroupElement.negation(spec.n, beta)
            assert rows_of(verify._group_columns(t, cols, element)) == image
            assert rows_of(read(verify._group_columns(t, ident, element), cols)) == image
        reads = {"h": tables.h, "back": tables.back}
        reads.update((("g", beta), tables.blocks(beta, spec.classes)) for beta in spec.classes)
        got = {name: rows_of(read(pair_tables, keys)) for name, pair_tables in reads.items()}
        for row, xi in enumerate(xis):
            assert got["h"][row] == full_denominator(xi)._values
            slots = sorted(set(zip(spec.alphas, xi.levels)), reverse=True)
            assert got["back"][row] == denominators._slot_walk(spec, xi.levels, slots)._values
            for beta in spec.classes:
                assert got["g", beta][row] == pmt_denominator(xi, beta)._values
        for q, r, pairs, base in run.swaps:
            assert len(pairs) == spec.n and pairs[0][0] == 0
            assert [(xi.levels[q], xi.levels[r]) in pairs for xi in xis] == [
                t_hat_admissible(xi, q, r) for xi in xis]
            assert base == [k for k, xi in enumerate(xis) if t_admissible(xi, q, r)]
            hat = [k for k, xi in enumerate(xis) if t_hat_admissible(xi, q, r)]
            image = rows_of(verify._swap_hat_columns(t, take(cols, hat), q, r))
            assert image == [apply_T_hat(xis[k], q, r).levels for k in hat]
            # T-hat and T move each point alone: their level maps, read at a row, give the image
            assert rows_of(read(verify._swap_hat_columns(t, ident, q, r), take(cols, hat))) == image
            image = rows_of(verify._swap_columns(t, take(cols, base), q, r))
            assert image == [apply_T(xis[k], q, r).levels for k in base]
            moves = verify._swap_columns(t, ident, q, r)
            assert rows_of(read(moves, take(cols, base))) == image
            shift = rows_of(read(tables.shift(q, r), take(keys, base)))
            assert shift == [theta_relation_shift(xis[k], q, r)._values for k in base]
            rows_checked += len(base)
        for q in range(spec.point_count):
            at_zero = [k for k, xi in enumerate(xis) if xi.levels[q] == 0]
            for gamma in spec.classes:
                q_tables = tables.blocks(spec.alphas[q], (gamma,), q)
                q_read = rows_of(read(q_tables, take(keys, at_zero)))
                assert q_read == [pmt_gamma_denominator(xis[k], q, gamma)._values for k in at_zero]
    assert rows_checked > 7_000
