import itertools
from fractions import Fraction

import pytest

from thomae import (
    CurveSpec,
    DivisorError,
    DivisorKind,
    LeveledDivisor,
    ReachabilityPreconditionError,
    apply_M,
    apply_N,
    apply_T_hat,
    build_graph,
    count_base_point_free,
    count_divisors,
    count_family,
    difbeta_hypothesis,
    difbeta_reachability,
    enumerate_divisors,
    fit_count_polynomial,
    satisfies_conditions,
    t_hat_admissible,
)
from thomae import orbits
from thomae.operators import _partners, _reflect, _rotate, _swap_hat, _tables
from thomae.orbits import Edge, FamilySpec


def three_point_curve(n):
    return CurveSpec.from_alphas(n, [1, 2, n - 3])


# ---------------------------------------------------------------------------
# graphs


def test_graph_third_family_n5():
    graph = build_graph(three_point_curve(5))
    assert len(graph.vertices) == 10
    orbits = graph.m_orbits()
    assert len(orbits) == 2
    assert len(graph.components()) == 1
    # the reflection exchanges the two rotation orbits
    first = graph.vertices[orbits[0][0]]
    image = apply_N(first)
    assert graph.vertices.index(image) in orbits[1]


def test_graph_third_family_n7():
    graph = build_graph(three_point_curve(7))
    assert len(graph.vertices) == 7
    assert len(graph.m_orbits()) == 1
    assert len(graph.components()) == 1


def test_graph_empty_for_gdt_curve():
    graph = build_graph(CurveSpec.from_alphas(17, [1, 2, 14]))
    assert graph.vertices == ()
    assert graph.components() == []


def test_graph_vertices_valid_and_edges_paired():
    graph = build_graph(CurveSpec.from_alphas(5, [1, 1, 1, 2]))
    for v in graph.vertices:
        assert satisfies_conditions(v)
    that_edges = {
        (e.source, e.target, e.label) for e in graph.edges if e.label.startswith("That")
    }
    for source, target, label in that_edges:
        q, r = label.split(":")[1].split(",")
        inverse = (target, source, f"That:{r},{q}")
        assert inverse in that_edges


def _probed_edges(graph):
    """The operator edges found by probing every ordered pair for a simple swap."""
    index = {v.levels: i for i, v in enumerate(graph.vertices)}
    npts = graph.curve.point_count
    edges = []
    for i, v in enumerate(graph.vertices):
        edges.append(Edge(i, index[apply_M(v, 1).levels], "M"))
        edges.append(Edge(i, index[apply_M(v, -1).levels], "M^-1"))
        edges.append(Edge(i, index[apply_N(v).levels], "N"))
        for q in range(npts):
            for r in range(npts):
                if q != r and t_hat_admissible(v, q, r):
                    edges.append(Edge(i, index[apply_T_hat(v, q, r).levels], f"That:{q},{r}"))
    return edges


def test_graph_edges_match_probed_edges(small_battery):
    for curve in small_battery:
        graph = build_graph(curve)
        assert [v.levels for v in graph.vertices] == sorted(
            d.levels for d in enumerate_divisors(curve, DivisorKind.XI)
        )
        assert list(graph.edges) == _probed_edges(graph)


def test_graph_m_edges_have_inverses():
    graph = build_graph(three_point_curve(5))
    labels = {(e.source, e.target): e.label for e in graph.edges if e.label == "M"}
    inverses = {
        (e.source, e.target) for e in graph.edges if e.label == "M^-1"
    }
    for (s, t) in labels:
        assert (t, s) in inverses


def test_m_orbits_are_free(small_battery):
    for curve in small_battery[:25]:
        graph = build_graph(curve)
        for orbit in graph.m_orbits():
            assert len(orbit) == curve.n
            start = graph.vertices[orbit[0]]
            assert orbit == sorted(
                graph.vertices.index(apply_M(start, k)) for k in range(curve.n)
            )
        assert len(graph.m_orbits()) * curve.n == len(graph.vertices)


def full_components(curve, reflection=True):
    """Vertex ids of each component of the operator graph, found by a search
    over every vertex with the kernels, in order of least member."""
    t = _tables(curve.n, curve.alphas)
    verts = [d.levels for d in enumerate_divisors(curve, DivisorKind.XI)]
    index = {v: i for i, v in enumerate(verts)}

    def neighbours(v):
        yield _rotate(t, v, 1)
        yield _rotate(t, v, -1)
        if reflection:
            yield _reflect(t, v)
        for q in range(curve.point_count):
            for r in _partners(t, v, q):
                yield _swap_hat(t, v, q, r)

    parts, seen = [], set()
    for v in verts:
        if v in seen:
            continue
        seen.add(v)
        stack, part = [v], [index[v]]
        while stack:
            for w in neighbours(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
                    part.append(index[w])
        parts.append(sorted(part))
    return parts


@pytest.mark.parametrize(
    "n,alphas,sizes",
    [
        (7, [1, 1, 2, 2, 4, 4], [7, 560]),
        (7, [4, 2, 1, 4, 2, 1], [7, 560]),  # point 0 outside class 1
        (9, [1, 1, 1, 1, 5], [72, 72, 72]),
        (11, [1, 1, 4, 8, 8], [22, 22]),
        (11, [1, 1, 1, 2, 2, 4], [44, 44, 44, 792]),
    ],
)
def test_split_graphs(n, alphas, sizes):
    """Curves whose operator graph is not connected: the components from the
    M-orbit representatives are those of a search over the whole graph."""
    curve = CurveSpec.from_alphas(n, alphas)
    graph = build_graph(curve)
    assert graph.component_sizes() == sizes
    assert graph.components() == full_components(curve)
    assert sorted(map(len, graph.components())) == sizes


def test_quotient_matches_full_graph_on_full_battery(full_battery, monkeypatch):
    """Components, sizes and the report's counts from the representatives agree
    with the whole graph, also with the N edges removed (with them every
    battery graph is connected; without them 10 of the 104 split in two)."""
    split = []
    for curve in full_battery:
        graph = build_graph(curve)
        assert graph.vertex_count == len(graph.vertices)
        assert graph.edge_count == len(graph.edges)
        assert len(graph.reps) == len(graph.m_orbits())
        assert graph.components() == full_components(curve)
        assert graph.component_sizes() == sorted(map(len, graph.components()))
        assert len(graph.parts) <= 1
    # an N that fixes every vertex adds only loops to the representatives' graph
    monkeypatch.setattr(orbits, "_reflect", lambda t, levels: levels)
    for curve in full_battery:
        graph = build_graph(curve)
        assert graph.components() == full_components(curve, reflection=False)
        split.append(len(graph.parts))
    assert len(split) == 104 and split.count(2) == 10 and split.count(1) == 94


@pytest.mark.parametrize(
    "n,alphas",
    [
        (2, [1] * 4),
        (3, [1] * 3),
        (4, [1] * 4),
        (5, [1] * 5),
        (5, [1, 2, 2]),
        (5, [1, 1, 1, 2]),
        (7, [1, 2, 4]),
        (7, [1, 2, 5, 6]),
    ],
)
def test_single_component(n, alphas):
    graph = build_graph(CurveSpec.from_alphas(n, alphas))
    assert len(graph.components()) == 1


def test_witness_words_replay():
    curve = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    graph = build_graph(curve)
    src = graph.vertices[0]
    dst = graph.vertices[-1]
    word = graph.witness(src, dst)
    assert word is not None
    current = src
    for label in word:
        if label == "M":
            current = apply_M(current, 1)
        elif label == "M^-1":
            current = apply_M(current, -1)
        elif label == "N":
            current = apply_N(current)
        else:
            q, r = map(int, label.split(":")[1].split(","))
            current = apply_T_hat(current, q, r)
    assert current == dst
    assert graph.witness(src, src) == []


def test_witness_across_split_parts_and_off_the_graph():
    """On the split curve n = 7, [1, 1, 2, 2, 4, 4], no word joins the 7-vertex
    part to the 560-vertex part, and a divisor off the graph is refused: levels
    off the vertex set, a DELTA divisor with a vertex's levels, and a divisor of
    another curve whose levels are a vertex of this one."""
    curve = CurveSpec.from_alphas(7, [1, 1, 2, 2, 4, 4])
    graph = build_graph(curve)
    small, large, off = (LeveledDivisor(curve, levels, DivisorKind.XI)
                         for levels in [(0, 0, 4, 4, 5, 5), (0, 1, 4, 6, 2, 5), (0,) * 6])
    part_size = {i: len(part) for part in graph.components() for i in part}
    assert [part_size[graph.vertices.index(v)] for v in (small, large)] == [7, 560]
    assert graph.witness(small, large) is None
    delta = LeveledDivisor(curve, small.levels, DivisorKind.DELTA)
    with pytest.raises(DivisorError, match="is not a vertex"):
        graph.witness(off, small)
    with pytest.raises(DivisorError, match="is not a vertex"):
        graph.witness(delta, small)
    other, here = CurveSpec.from_alphas(5, [1, 1, 2, 1]), CurveSpec.from_alphas(5, [1, 1, 1, 2])
    graph = build_graph(here)
    xi, stranger = (LeveledDivisor(c, (0, 2, 3, 3), DivisorKind.XI) for c in (here, other))
    assert satisfies_conditions(xi) and satisfies_conditions(stranger)
    with pytest.raises(DivisorError, match="is not a vertex"):
        graph.witness(stranger, xi)


def test_witness_never_lists_the_graph(monkeypatch):
    """``witness`` tests each end by the conditions and searches from there, so
    it answers and refuses with the listing of the graph's vertices disabled."""
    curve = CurveSpec.from_alphas(7, [1, 1, 2, 2, 4, 4])
    graph = build_graph(curve)
    small, large, off = (LeveledDivisor(curve, levels, DivisorKind.XI)
                         for levels in [(0, 0, 4, 4, 5, 5), (0, 1, 4, 6, 2, 5), (0,) * 6])
    # DELTA divisors: one meeting its own conditions, one with a vertex's levels
    deltas = [next(enumerate_divisors(curve, DivisorKind.DELTA)),
              LeveledDivisor(curve, small.levels, DivisorKind.DELTA)]
    # the other curve relabels the points, so the same levels meet its conditions
    stranger = LeveledDivisor(CurveSpec.from_alphas(7, [2, 2, 4, 4, 1, 1]), small.levels,
                              DivisorKind.XI)
    assert satisfies_conditions(stranger) and satisfies_conditions(deltas[0])

    def listing(*args, **kwargs):
        raise AssertionError("witness listed the graph")

    monkeypatch.setattr(orbits, "enumerate_divisors", listing)
    monkeypatch.setattr(orbits, "_list_assignments", listing)
    assert graph.witness(small, large) is None
    assert graph.witness(large, small) is None
    assert graph.witness(small, apply_M(small, 3)) == ["M"] * 3
    for bad in (off, *deltas, stranger):
        for ends in ((bad, small), (large, bad)):
            with pytest.raises(DivisorError, match="is not a vertex"):
                graph.witness(*ends)


def test_relabeling_symmetry():
    # swapping two points of the same class permutes the vertex set
    curve = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    verts = {v.levels for v in build_graph(curve).vertices}
    swapped = {(lv[1], lv[0], lv[2], lv[3]) for lv in verts}
    assert swapped == verts


# ---------------------------------------------------------------------------
# restricted reachability


def test_difbeta_trivial_pair():
    curve = CurveSpec.from_alphas(4, [1] * 4)
    xi = next(iter(enumerate_divisors(curve, DivisorKind.XI)))
    assert difbeta_reachability(xi, xi, 1)


def test_difbeta_all_pairs_nonsingular():
    # all-ones curves: hypothesis (i) holds for every divisor
    for n, r in [(4, 4), (5, 5), (3, 6)]:
        curve = CurveSpec.from_alphas(n, [1] * r)
        divisors = list(enumerate_divisors(curve, DivisorKind.XI))
        for xi in divisors:
            assert difbeta_hypothesis(xi, 1)
        for xi, ups in itertools.product(divisors[:12], divisors[:12]):
            assert difbeta_reachability(xi, ups, 1)


def test_difbeta_mirror_pair_curve():
    curve = CurveSpec.from_alphas(5, [1, 1, 4, 4])
    divisors = list(enumerate_divisors(curve, DivisorKind.XI))
    checked = 0
    for xi, ups in itertools.product(divisors, divisors):
        try:
            result = difbeta_reachability(xi, ups, 1)
        except ReachabilityPreconditionError:
            continue
        checked += 1
        assert result
    assert checked > 10


def test_difbeta_rejects_disagreement():
    curve = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    divisors = list(enumerate_divisors(curve, DivisorKind.XI))
    pair = next(
        (x, y)
        for x, y in itertools.product(divisors, divisors)
        if x.levels[3] != y.levels[3]
    )
    with pytest.raises(ReachabilityPreconditionError, match="differ at point"):
        difbeta_reachability(pair[0], pair[1], 1)


def test_difbeta_rejects_failed_hypothesis():
    # no divisor on this curve occupies all levels of class 1, and the mirror
    # class 4 is present on the curve but level-paired slots never co-occupy
    curve = CurveSpec.from_alphas(5, [1, 1, 1, 2])
    divisors = list(enumerate_divisors(curve, DivisorKind.XI))
    assert all(not difbeta_hypothesis(x, 1) for x in divisors)
    with pytest.raises(ReachabilityPreconditionError, match="hypothesis"):
        difbeta_reachability(divisors[0], divisors[0], 1)


def test_difbeta_rejects_divisors_not_of_kind_xi():
    # every pair of DELTA divisors here passes the agreement check, and a
    # DELTA-kinded copy of a shifted divisor has levels the XI search can
    # reach; the occupation hypotheses concern shifted divisors only
    curve = CurveSpec.from_alphas(5, [1, 1, 4, 4])
    deltas = list(enumerate_divisors(curve, DivisorKind.DELTA))
    xi = next(iter(enumerate_divisors(curve, DivisorKind.XI)))
    with pytest.raises(DivisorError, match="kind XI"):
        difbeta_hypothesis(deltas[0], 1)
    with pytest.raises(ReachabilityPreconditionError, match="kind XI"):
        difbeta_reachability(deltas[0], deltas[1], 1)
    as_delta = LeveledDivisor(curve, xi.levels, DivisorKind.DELTA)
    with pytest.raises(ReachabilityPreconditionError, match="kind XI"):
        difbeta_reachability(xi, as_delta, 1)


def test_one_point_transfers_reach_targets():
    # moving one third-class point by one exponent step stays reachable when
    # the target satisfies the occupation hypothesis (checked through the
    # unrestricted simplified-swap graph)
    for n, alphas in [(5, [1, 4, 2, 3]), (7, [1, 6, 3, 4])]:
        curve = CurveSpec.from_alphas(n, alphas)
        divisors = list(enumerate_divisors(curve, DivisorKind.XI))
        comp = _that_only_components(curve, divisors)
        instances = 0
        for beta in sorted(set(curve.alphas)):
            mirror = (n - beta) % n
            if mirror == beta:
                continue
            for ups in divisors:
                if not difbeta_hypothesis(ups, beta):
                    continue
                for xi in divisors:
                    diffs = [
                        i
                        for i, a in enumerate(curve.alphas)
                        if a not in (beta, mirror) and xi.levels[i] != ups.levels[i]
                    ]
                    if len(diffs) != 1:
                        continue
                    i = diffs[0]
                    if abs(xi.exponents[i] - ups.exponents[i]) != 1:
                        continue
                    instances += 1
                    assert comp[xi.levels] == comp[ups.levels]
        assert instances > 100


def _that_only_components(curve, divisors):
    comp = {}
    cid = 0
    for d in divisors:
        if d.levels in comp:
            continue
        cid += 1
        stack = [d]
        comp[d.levels] = cid
        while stack:
            u = stack.pop()
            for q in range(curve.point_count):
                for r in range(curve.point_count):
                    if q != r and t_hat_admissible(u, q, r):
                        w = apply_T_hat(u, q, r)
                        if w.levels not in comp:
                            comp[w.levels] = cid
                            stack.append(w)
    return comp


# ---------------------------------------------------------------------------
# family counting and fitting


def test_family_m3_counts_and_fit():
    family = FamilySpec((1, 1, 1), (1, 1, 1))
    report = count_family(family, range(2, 8), fit=True)
    for row in report.valid_counts():
        n = row.n
        assert row.total_divisors == 18 * n * n - 45 * n + 33
        assert row.m_orbits == row.per_point_avoid[0]
        assert len(set(row.per_point_avoid)) == 1
    coeffs, residuals = report.fit["total_divisors"]
    assert coeffs == (Fraction(33), Fraction(-45), Fraction(18))
    assert all(r == 0 for r in residuals)


def test_family_avoid_counts_are_per_point_counts():
    # count_family counts once per class; this family has four classes at
    # every valid n (no curve tried so far has counts that differ by class)
    family = FamilySpec((1, 2), (1, 2))
    rows = count_family(family, range(5, 12)).valid_counts()
    assert len(rows) == 4
    for row in rows:
        spec = family.curve(row.n)
        assert len(spec.classes) == 4
        assert row.per_point_avoid == tuple(
            count_divisors(spec, DivisorKind.DELTA, avoid=i) for i in range(spec.point_count)
        )


def test_family_skips_degenerate_n():
    family = FamilySpec((1, 1, 1), (3,))
    report = count_family(family, [0, 1, 3, 4, 5, 6, 7])
    skipped = {c.n for c in report.counts if c.skipped}
    assert skipped == {0, 1, 3, 6}
    by_n = {c.n: c for c in report.valid_counts()}
    assert by_n[7].total_divisors == 18
    assert by_n[4].m_orbits == 6 and by_n[5].m_orbits == 6


def test_family_base_point_free_counts():
    family = FamilySpec((1, 1, 1), (3,))
    report = count_family(family, [4, 5, 7, 8, 10, 11])
    for row in report.valid_counts():
        assert row.base_point_free_xi == 6 * (row.n - 4)
        assert row.xi_divisors == row.n * row.m_orbits


def test_base_point_free_matches_enumeration():
    for curve in [three_point_curve(5), CurveSpec.from_alphas(7, [1, 1, 1, 4])]:
        direct = sum(
            1
            for d in enumerate_divisors(curve, DivisorKind.XI)
            if 0 not in d.levels
        )
        assert count_base_point_free(curve) == direct


def test_leading_coefficients_depend_only_on_partitions():
    # same count-partitions, different exponent values: identical polynomials
    pairs = [
        (FamilySpec((1, 1, 1), (1, 1, 1)), range(2, 8), FamilySpec((2, 2, 2), (2, 2, 2)), range(3, 14)),
        (FamilySpec((1, 1), (1, 1)), range(2, 8), FamilySpec((2, 2), (2, 2)), range(3, 14)),
    ]
    for fam_a, range_a, fam_b, range_b in pairs:
        fit_a = count_family(fam_a, range_a, fit=True).fit
        fit_b = count_family(fam_b, range_b, fit=True).fit
        for key in ("total_divisors", "m_orbits"):
            coeffs_a, resid_a = fit_a[key]
            coeffs_b, resid_b = fit_b[key]
            assert all(r == 0 for r in resid_a + resid_b)
            assert coeffs_a[-1] == coeffs_b[-1]


def test_fit_degree_hint_negative_control():
    data = [(n, 18 * n * n - 45 * n + 33) for n in range(2, 8)]
    coeffs, residuals = fit_count_polynomial(data, 2)
    assert all(r == 0 for r in residuals)
    _, bad_residuals = fit_count_polynomial(data, 1)
    assert any(r != 0 for r in bad_residuals)


def test_fit_constant_family():
    data = [(n, 18) for n in (7, 8, 10, 11, 13)]
    coeffs, residuals = fit_count_polynomial(data, 0)
    assert coeffs == (Fraction(18),)
    assert all(r == 0 for r in residuals)


def test_fit_requires_enough_points():
    with pytest.raises(DivisorError, match="data points"):
        fit_count_polynomial([(2, 1), (3, 2)], 2)


@pytest.mark.parametrize(
    "counts, degree_hint, match",
    [
        ([(1, 1), (1, 2), (2, 3)], 1, "each n may be given once"),
        ([(1, 1), (2, 2), (3, 3), (2, 5)], 1, "each n may be given once"),
        ([(1, 1), (2, 2), (3, 3), (4, 4)], 1.5, "degree_hint must be an integer"),
        ([(1, 1), (2, 2), (3, 3)], True, "degree_hint must be an integer"),
        ([(1, 1), (2, 2), (3, 3)], -1, "degree_hint must be non-negative"),
    ],
)
def test_fit_refuses_repeated_n_and_bad_degree_hint(counts, degree_hint, match):
    with pytest.raises(DivisorError, match=match):
        fit_count_polynomial(counts, degree_hint)


def test_family_spec_validation():
    with pytest.raises(DivisorError):
        FamilySpec((1, 2), (1,))
    with pytest.raises(DivisorError):
        FamilySpec((), ())


def _restricted_components(curve, verts, pair):
    """Each vertex mapped to a label of its component under the T-hat swaps
    whose two points both have a class in ``pair``, by a search with the kernels."""
    t = _tables(curve.n, curve.alphas)
    inside = [i for i, a in enumerate(curve.alphas) if a in pair]
    comp = {}
    for v in verts:
        if v in comp:
            continue
        comp[v], stack = v, [v]
        while stack:
            u = stack.pop()
            for q in inside:
                for r in _partners(t, u, q):
                    w = _swap_hat(t, u, q, r)
                    if curve.alphas[r] in pair and w not in comp:
                        comp[w] = v
                        stack.append(w)
    return comp


def test_restricted_reachability_lemma_on_full_battery(full_battery):
    """The restricted-swap lemma on every battery curve and class beta with
    n - beta != beta: a shifted divisor meeting the occupation hypothesis for
    beta shares its component under the swaps inside the classes beta and
    n - beta with every shifted divisor that agrees with it outside them."""
    cases = 0
    for curve in full_battery:
        verts = [d.levels for d in enumerate_divisors(curve, DivisorKind.XI)]
        for beta in curve.classes:
            pair = {beta, curve.n - beta}
            if len(pair) == 1:
                continue
            comp = _restricted_components(curve, verts, pair)
            outside = {v: tuple(l for a, l in zip(curve.alphas, v) if a not in pair) for v in verts}
            groups = {}  # levels outside the pair -> the components of that group
            for v in verts:
                groups.setdefault(outside[v], set()).add(comp[v])
            for v in verts:
                if difbeta_hypothesis(LeveledDivisor(curve, v, DivisorKind.XI), beta):
                    cases += 1
                    assert groups[outside[v]] == {comp[v]}, (curve.n, curve.alphas, beta, v)
    assert cases == 12_208


@pytest.mark.parametrize(
    "n,alphas,reps",
    [
        (7, [1, 1, 2, 2, 4, 4], 81),
        (7, [4, 2, 1, 4, 2, 1], 81),
        (9, [1, 1, 1, 1, 5], 24),
        (11, [1, 1, 4, 8, 8], 4),
        (11, [1, 1, 1, 2, 2, 4], 84),
    ],
)
def test_split_graphs_miss_the_occupation_hypothesis(n, alphas, reps):
    """The curves of ``test_split_graphs``: no M-orbit representative meets the
    hypothesis for any class.  The hypothesis is M-invariant, so no vertex does."""
    curve = CurveSpec.from_alphas(n, alphas)
    graph = build_graph(curve)
    assert len(graph.reps) == reps
    for levels in graph.reps:
        xi = LeveledDivisor(curve, levels, DivisorKind.XI)
        assert not any(difbeta_hypothesis(xi, beta) for beta in curve.classes)
