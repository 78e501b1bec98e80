"""Metamorphic: the order in which a curve lists its points changes nothing but
the labels.  Every battery curve lists its exponents in ascending order, while
listing splits the points in curve order and counting re-sorts them, so each
curve is checked again with its points shuffled by a fixed seed."""

import random

import pytest

from thomae import (
    CurveSpec,
    DivisorKind,
    build_graph,
    count_base_point_free,
    count_divisors,
    enumerate_divisors,
)

from conftest import curve_battery

KINDS = (DivisorKind.DELTA, DivisorKind.XI)


def shuffled(battery, seed=0):
    """(curve, order, permuted curve) per curve; point k of the permuted curve
    is point order[k] of the curve."""
    rng = random.Random(seed)
    out = []
    for spec in battery:
        order = rng.sample(range(spec.point_count), spec.point_count)
        out.append((spec, order, CurveSpec(spec.n, tuple(spec.points[i] for i in order))))
    return out


CASES = shuffled(curve_battery(8, 5))


@pytest.mark.parametrize("spec, order, permuted", CASES,
                         ids=[f"n{s.n}-{'-'.join(map(str, s.alphas))}" for s, _, _ in CASES])
def test_permuting_the_points_permutes_every_listing_and_keeps_every_count(spec, order, permuted):
    for kind in KINDS:
        listing = {tuple(d.levels[i] for i in order) for d in enumerate_divisors(spec, kind)}
        assert {d.levels for d in enumerate_divisors(permuted, kind)} == listing
        assert count_divisors(permuted, kind) == count_divisors(spec, kind) == len(listing)
        for k, i in enumerate(order):  # an avoided point keeps its count under its new index
            assert count_divisors(permuted, kind, avoid=k) == count_divisors(spec, kind, avoid=i)
    assert count_base_point_free(permuted) == count_base_point_free(spec)
    assert build_graph(permuted).component_sizes() == build_graph(spec).component_sizes()
