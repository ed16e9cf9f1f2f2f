"""Acceptance gate: the ten headline criteria, one test (and one printed
pass/fail line) each.

Criterion 5 is knowingly red: the degree-2 equivariant group of the
after-bifurcation data is Z/2 for every coupling coefficient c, so the
required "differs at degree 2" signal does not exist at the equivariant
level; the test records the deviation (and checks the defect that IS
observable, in the nonequivariant complex) before failing honestly.
"""

import random
import time
from fractions import Fraction

import pytest

from test_exact import oracle_invariant_factors
from test_mbs import _dense_crossings

from cascadeho.autonomous import (
    block_differential,
    bv_operator,
    compare_egh,
    egh_differential,
    egh_homology,
    equivariant_differential,
    equivariant_homology,
)
from cascadeho.cascades import build_ncc, nch_homology
from cascadeho.errors import (
    NonRegularValue,
    SquareNonzero,
    ValidationFailure,
)
from cascadeho.exact import (
    IntMatrix,
    homology,
    smith_with_inverse,
    verify_square_zero,
)
from cascadeho.mbs import (
    assign_basepoints,
    circle_key,
    signed_preimages,
    validate_system,
)
from cascadeho.morphisms import compose, induced_chain_map, trivial_cobordism
from cascadeho.scenarios import (
    CORRUPTION_CLASSES,
    all_mutations,
    fixture,
    fixture_names,
    period_doubling,
    prequantization,
)

F = Fraction


def report(number, ok, description):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def mbs_fixtures():
    return [n for n in fixture_names() if fixture(n).kind == "mbs"]


def autonomous_fixtures():
    return [n for n in fixture_names() if fixture(n).kind == "autonomous"]


def test_criterion_01_prequantization_nch():
    start = time.monotonic()
    h1 = homology(block_differential(prequantization(1, 1, 2)))
    ok = h1.groups == {
        ("2G", 2): (1, ()),
        ("2G", 1): (2, ()),
        ("2G", 0): (2, (2,)),
        ("2G", -1): (1, ()),
    }
    h2 = homology(block_differential(prequantization(2, 1, 3)))
    ok = ok and h2.groups == {
        ("3G", 2): (1, ()),
        ("3G", 1): (4, ()),
        ("3G", 0): (4, (3,)),
        ("3G", -1): (1, ()),
    }
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 1.0,
           f"prequantization NCH tables exact ({elapsed:.3f}s)")


def test_criterion_02_prequantization_equivariant():
    start = time.monotonic()
    result, stable = equivariant_homology(prequantization(1, 1, 2), 3)
    got = {k: v for k, v in result.groups.items() if k[1] <= stable}
    expected = {
        ("2G", -1): (1, ()),
        ("2G", 0): (2, (2,)),
        ("2G", 1): (1, (2, 2)),
        ("2G", 2): (0, (2, 2)),
        ("2G", 3): (0, (2, 2)),
        ("2G", 4): (0, (2, 2)),
    }
    elapsed = time.monotonic() - start
    report(2, got == expected and elapsed < 1.0,
           f"prequantization equivariant table exact in stable range ({elapsed:.3f}s)")


def test_criterion_03_prequantization_egh_and_comparison():
    ok = True
    for g in (1, 2):
        for e in (1, 2):
            for d in (1, 2, 3):
                data = prequantization(g, e, d)
                cls = f"{d}G"
                ok = ok and egh_homology(data) == {
                    (cls, 1): 1,
                    (cls, 0): 2 * g,
                    (cls, -1): 1,
                }
                ok = ok and compare_egh(data, 2).ok
    report(3, ok, "cylindrical ranks 1, 2g, 1 and four-step comparison on the grid")


def test_criterion_04_period_doubling():
    ok = True
    for c in (1, -1, 3, -3, 5, -5):
        h = homology(block_differential(period_doubling("plus", c)))
        ok = ok and h.groups == {("2G", 1): (1, ()), ("2G", 2): (1, ())}
    expected = {("2G", 1): (1, ())} | {
        ("2G", k): (0, (2,)) for k in (2, 4, 6, 8)
    }
    minus, stable = equivariant_homology(period_doubling("minus"), 5)
    ok = ok and stable == 8
    ok = ok and {
        k: v for k, v in minus.groups.items() if k[1] <= stable
    } == expected
    for c in (1, -3, 5):
        plus, _ = equivariant_homology(period_doubling("plus", c), 5)
        ok = ok and {
            k: v for k, v in plus.groups.items() if k[1] <= stable
        } == expected
    report(4, ok, "period-doubling NCH (odd c) and matching equivariant tables")


def test_criterion_05_even_c_negative_control():
    even = period_doubling("plus", 2, allow_even=True)
    h_even, stable = equivariant_homology(even, 5)
    ref, _ = equivariant_homology(period_doubling("minus"), 5)

    # the defect of even c IS visible nonequivariantly ...
    nch = homology(block_differential(even))
    assert nch.group("2G", 2) == (1, (2,)), "expected Z + Z/2 at degree 2"
    # ... and the cylindrical comparison still holds for the even-c data
    assert compare_egh(even, 4).ok

    differs_at_two = h_even.group("2G", 2) != ref.group("2G", 2)
    report(
        5,
        differs_at_two,
        "equivariant degree-2 group distinguishes c = 2 "
        "(known deviation: the group is Z/2 for every c; "
        "only the nonequivariant complex separates even c — see README)",
    )


def test_criterion_06_structural_property_suite():
    ok = True
    for name in mbs_fixtures():
        sys_ = fixture(name).payload
        ok = ok and validate_system(sys_) == []
        verify_square_zero(build_ncc(sys_))
        reference = nch_homology(sys_).groups
        for seed in range(1, 6):
            moved = assign_basepoints(sys_, seed=seed)
            ok = ok and nch_homology(moved).groups == reference
    scenarios = [fixture(n).payload for n in autonomous_fixtures()]
    scenarios += [prequantization(g, 1, d) for g in (1, 2) for d in (1, 2)]
    scenarios += [period_doubling("minus"), period_doubling("plus", 3)]
    for data in scenarios:
        egh_differential(data)  # checks (delta kappa)^2 = 0
        cx = block_differential(data)  # checks d^2 and the kappa identities
        bv = bv_operator(data)
        zero = IntMatrix.zero(bv.rows, bv.cols)
        ok = ok and bv * cx.differential + cx.differential * bv == zero
        verify_square_zero(equivariant_differential(data, 2))
    report(6, ok, "d^2 = 0, kappa identities, basepoint independence")


def test_criterion_07_snf_oracle():
    start = time.monotonic()
    rng = random.Random(20240817)
    ok = True
    for _ in range(500):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        m = IntMatrix.from_rows(rows)
        u, s, v, vinv = smith_with_inverse(m)
        ok = ok and u * m * v == s
        ok = ok and v * vinv == IntMatrix.identity(nc)
        factors = [x for x in s.diagonal() if x]
        ok = ok and factors == oracle_invariant_factors(rows, nr, nc)
        if not ok:
            break
    elapsed = time.monotonic() - start
    report(7, ok and elapsed < 30.0,
           f"500 random SNFs match the gcd-of-minors oracle ({elapsed:.1f}s)")


def test_criterion_08_preimage_oracle():
    ok = True
    rng = random.Random(5)
    for name in mbs_fixtures():
        sys_ = fixture(name).payload
        for pair, comps in sorted(sys_.m1.items()):
            top = (sys_.orbit(pair[0]), sys_.basepoint(pair[0]))
            bottom = (sys_.orbit(pair[1]), sys_.basepoint(pair[1]))
            for comp in comps:
                for side in ("plus", "minus"):
                    hits = 0
                    while hits < 20:
                        q = F(rng.randrange(1, 991), 991)
                        try:
                            got = signed_preimages(sys_, pair, comp, side,
                                                  circle_key(q))
                        except NonRegularValue:
                            continue
                        hits += 1
                        oracle = _dense_crossings(comp, side, q, top, bottom)
                        ok = ok and [
                            (p.direction, p.sign) for p in got
                        ] == [(d, s) for _t, d, s in oracle]
                        if comp.kind == "circle" and all(
                            o.good for o, _p in (top, bottom)
                        ):
                            ok = ok and sum(
                                p.sign for p in got
                            ) == comp.winding(side)
    report(8, ok, "signed preimages match the dense-sampling oracle")


def test_criterion_09_mutation_suite():
    from test_scenarios import _is_rejected

    corpus = all_mutations()
    rejected = [m for m in corpus if _is_rejected(m)]
    covered = {m.cls for m in corpus}
    ok = len(rejected) == len(corpus) and covered == set(CORRUPTION_CLASSES)
    report(
        9,
        ok,
        f"all {len(corpus)} corrupted fixtures across "
        f"{len(covered)} classes rejected, zero false accepts",
    )


def test_criterion_10_morphisms():
    ok = True
    for name in mbs_fixtures():
        cm = induced_chain_map(trivial_cobordism(fixture(name).payload))
        ok = ok and cm.is_identity()
    first = trivial_cobordism(fixture("one-interval").payload)
    cm1 = induced_chain_map(first)
    cm2 = induced_chain_map(trivial_cobordism(first.target))
    stacked = compose(cm2, cm1)
    ok = ok and stacked.matrix == cm2.matrix * cm1.matrix
    for name in fixture_names():
        sc = fixture(name)
        if sc.kind != "morphism":
            continue
        cm = induced_chain_map(sc.payload)  # raises ChainMapFailure if broken
        ok = ok and (
            cm.target_complex.differential * cm.matrix
            == cm.matrix * cm.source_complex.differential
        )
    report(10, ok, "trivial cobordism is the identity; compositions and "
                   "chain-map identities hold")
