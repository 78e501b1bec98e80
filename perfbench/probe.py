"""Per-layer probe: one CLI job's library calls, each layer step in its own span.

Usage (from the repository root, with ``src`` on PYTHONPATH):
    python3 perfbench/probe.py PLAN.json SPANS_OUT.json RUN_ID PARENT_SPAN

The benchmark starts one fresh process per job, so library caches start cold
as they do in the CLI.  Every step runs for every job, in pipeline order; a
step the job does not need does no work and reports zero counts, so each
workload reports the same set of spans.
"""

from __future__ import annotations

import json
import sys
from math import gcd

from thomae import (
    DivisorKind,
    EvalMode,
    FamilySpec,
    LeveledDivisor,
    apply_M,
    apply_N,
    apply_N_beta,
    apply_T,
    apply_T_hat,
    brute_force_divisors,
    build_graph,
    count_divisors,
    count_family,
    enumerate_cardinality_matrices,
    evaluate,
    expand_matrix,
    f_chain,
    f_recursive,
    full_denominator,
    load_curve,
    pmt_denominator,
    pmt_gamma_denominator,
    run_suite,
    t_admissible,
    t_hat_admissible,
    theta_relation_shift,
)

from spans import Recorder
from workloads import VERIFY_CHECKS


def probe(rec: Recorder, plan: dict) -> None:
    curve = None
    with rec.span("curve.load") as s:
        if "curve" in plan:
            curve = load_curve(plan["curve"])
        s.work["loads"] = int(curve is not None)

    with rec.span("ffunctions.tables") as s:
        tables = 0
        if plan.get("ftables"):
            for d in range(1, curve.n):
                if gcd(d, curve.n) == 1:
                    f_chain(curve.n, d)
                    f_recursive(curve.n, d)
                    tables += 2
        s.work["tables"] = tables

    matrices = {}
    with rec.span("divisors.search") as s:
        for kind in plan.get("search", []):
            matrices[kind] = list(enumerate_cardinality_matrices(curve, DivisorKind(kind)))
        s.work["matrices"] = sum(len(m) for m in matrices.values())

    with rec.span("divisors.count") as s:
        s.work["counted"] = sum(
            count_divisors(curve, DivisorKind(kind)) for kind in plan.get("count", []))

    xis = []
    with rec.span("divisors.expand") as s:
        if plan.get("expand"):
            for matrix in matrices["xi"]:
                xis.extend(expand_matrix(matrix, curve))
        s.work["emitted"] = len(xis)
    if "divisor" in plan:
        xis = [LeveledDivisor(curve, tuple(plan["divisor"]), DivisorKind.XI)]

    with rec.span("divisors.brute") as s:
        candidates = valid = 0
        if plan.get("brute"):
            for kind in DivisorKind:
                valid += len(brute_force_divisors(curve, kind))
                candidates += curve.n ** curve.point_count
        s.work.update(brute_candidates=candidates, brute_valid=valid)

    vertices = xis if plan.get("operators") else []
    classes = curve.classes if curve is not None else ()
    points = curve.point_count if curve is not None else 0
    pairs = [(q, r) for q in range(points) for r in range(points) if q != r]
    with rec.span("operators.apply") as s:
        for v in vertices:
            apply_M(v, 1)
            apply_M(v, -1)
            apply_N(v)
            for beta in classes:
                apply_N_beta(v, beta)
        s.work["applications"] = len(vertices) * (3 + len(classes))

    hats, swaps = [], []
    with rec.span("operators.swap_probe") as s:
        for v in vertices:
            for q, r in pairs:
                if t_hat_admissible(v, q, r):
                    hats.append((v, q, r))
                if t_admissible(v, q, r):
                    swaps.append((v, q, r))
        s.work.update(swap_probes=2 * len(vertices) * len(pairs),
                      swap_hits=len(hats) + len(swaps))

    with rec.span("operators.swap_apply") as s:
        for v, q, r in hats:
            apply_T_hat(v, q, r)
        for v, q, r in swaps:
            apply_T(v, q, r)
        s.work["swap_applications"] = len(hats) + len(swaps)

    dens = xis if plan.get("denominators") else []
    with rec.span("denominators.h") as s:
        hs = [full_denominator(xi) for xi in dens]
        s.work.update(h_built=len(hs), h_pairs=sum(len(h.items()) for h in hs))

    with rec.span("denominators.g") as s:
        for xi in dens:
            for beta in classes:
                pmt_denominator(xi, beta)
        s.work["g_built"] = len(dens) * len(classes)

    based = [(xi, q) for xi in dens for q in range(points) if xi.levels[q] == 0]
    with rec.span("denominators.q") as s:
        for xi, q in based:
            for gamma in classes:
                pmt_gamma_denominator(xi, q, gamma)
        s.work["q_built"] = len(based) * len(classes)

    with rec.span("denominators.shift") as s:
        shifts = 0
        for xi, q in based:
            for r in range(points):
                if r != q and t_admissible(xi, q, r):
                    theta_relation_shift(xi, q, r)
                    shifts += 1
        s.work["shifts"] = shifts

    with rec.span("denominators.eval") as s:
        evaluated = hs if plan.get("evaluate") else []
        for h in evaluated:
            evaluate(h, EvalMode.EXACT_RATIONAL)
        s.work["evaluations"] = len(evaluated)

    graph = None
    with rec.span("orbits.build_graph") as s:
        if plan.get("graph"):
            graph = build_graph(curve, max_vertices=100_000)
        s.work.update(vertices=len(graph.vertices) if graph else 0,
                      edges=len(graph.edges) if graph else 0)

    with rec.span("orbits.components") as s:
        components = 0
        if graph is not None:
            components = len(graph.components())
            graph.m_orbits()
        s.work["components"] = components

    with rec.span("orbits.count_family") as s:
        rows = 0
        if "family" in plan:
            family = plan["family"]
            lo, hi = family["n"]
            report = count_family(FamilySpec(tuple(family["c"]), tuple(family["d"])),
                                  range(lo, hi + 1), fit=True)
            rows = sum(1 for c in report.counts if not c.skipped)
        s.work["family_rows"] = rows

    for check in VERIFY_CHECKS:
        with rec.span(f"verify.{check}") as s:
            ran = findings = 0
            if "verify" in plan:
                _, found = run_suite(curve, [check], max_vertices=plan["verify"]["max_vertices"],
                                     seed=plan["verify"]["seed"])
                ran, findings = 1, len(found)
            s.work.update(checks=ran, findings=findings)


def main(argv: list[str]) -> int:
    plan_path, out, run, parent = argv
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    rec = Recorder(run, parent)
    probe(rec, plan)
    rec.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
